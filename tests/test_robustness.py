"""Robustness subsystem tests: degradation ladder, watchdog, errors.

Covers the tiered degradation ladder (rules -> tcg -> interp), rule
quarantine and TB invalidation, the online differential self-check, the
execution watchdog, wakeup-deadlock detection, and the rule that a
fault inside generated code is never rolled back and replayed: it
propagates as a structured error naming the TB.
"""

import pytest

from repro.common.errors import (DiagContext, HostExecutionError,
                                 ReproError, WakeupDeadlock,
                                 WatchdogTimeout)
from repro.core import OptLevel, make_rule_engine
from repro.core.rulebook import (EmptyRulebook, MatureRulebook,
                                 QuarantineFilter, rule_key)
from repro.guest.decoder import decode
from repro.host.isa import ENV_REG, Imm, Mem, X86Insn, X86Op
from repro.kernel.kernel import USER_ENTRY, build_user_program
from repro.miniqemu.env import env_reg
from repro.miniqemu.tb import CodeCache, TranslationBlock
from repro.robustness import (ExecutionWatchdog, fast_forward_halt,
                              tb_selfcheckable)
from tests.support import boot_machine, run_workload

RULES_KW = {"engine": "rules",
            "rule_engine_factory": make_rule_engine(OptLevel.FULL)}

ADD_INSN = decode(0xE0810002, 0)    # add r0, r1, r2
SUB_INSN = decode(0xE0410002, 0)    # sub r0, r1, r2


# ---------------------------------------------------------------------------
# Rule quarantine.
# ---------------------------------------------------------------------------

def test_quarantine_filter_stops_covering():
    book = QuarantineFilter(MatureRulebook())
    assert book.covers(ADD_INSN)
    assert book.quarantine(rule_key(ADD_INSN), "test")
    assert not book.covers(ADD_INSN)
    assert book.covers(SUB_INSN)        # other rules unaffected
    # Re-quarantining is idempotent and reports "already out".
    assert not book.quarantine(rule_key(ADD_INSN), "again")
    assert book.quarantined == {"ADD": "test"}


def test_quarantine_filter_wraps_any_rulebook():
    book = QuarantineFilter(EmptyRulebook())
    assert not book.covers(ADD_INSN)
    assert book.name == "quarantine(empty)"


# ---------------------------------------------------------------------------
# Code-cache invalidation.
# ---------------------------------------------------------------------------

def _tb(pc, rules=()):
    tb = TranslationBlock(pc=pc, mmu_idx=0)
    tb.meta["rules_used"] = list(rules)
    return tb


def test_cache_invalidate_unlinks_chains():
    cache = CodeCache()
    a, b = _tb(0x100), _tb(0x200)
    cache.insert(a)
    cache.insert(b)
    a.jmp_target[0] = b                 # a is chained into b
    a.jmp_pc[0] = 0x200
    cache.invalidate(b)
    assert cache.lookup(0x200, 0) is None
    assert a.jmp_target[0] is None      # the chain was severed
    assert cache.invalidated == 1


def test_cache_invalidate_unknown_tb_raises_with_context():
    cache = CodeCache()
    stray = _tb(0x300)
    context = DiagContext(guest_pc=0x300, engine="rules")
    with pytest.raises(ReproError, match="cannot invalidate") as info:
        cache.invalidate(stray, context)
    assert info.value.context is context
    assert "engine=rules" in str(info.value)


def test_cache_invalidate_rules_evicts_by_rule_key():
    cache = CodeCache()
    a = _tb(0x100, rules=["ADD", "EOR"])
    b = _tb(0x200, rules=["SUB"])
    c = _tb(0x300)                      # no rule metadata at all
    for tb in (a, b, c):
        cache.insert(tb)
    c.jmp_target[1] = a
    assert cache.invalidate_rules(["EOR"]) == 1
    assert cache.lookup(0x100, 0) is None
    assert cache.lookup(0x200, 0) is b
    assert c.jmp_target[1] is None
    assert cache.invalidate_rules(["MUL"]) == 0


# ---------------------------------------------------------------------------
# Execution watchdog.
# ---------------------------------------------------------------------------

def test_watchdog_stops_synthetic_runaway_tb():
    """An infinite host loop must raise a structured WatchdogTimeout."""
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_host_insns=500))
    runaway = TranslationBlock(pc=0x1234, mmu_idx=0)
    runaway.code = [X86Insn(X86Op.JMP, target_index=0)]
    with pytest.raises(WatchdogTimeout) as info:
        machine.host.execute(runaway)
    error = info.value
    assert error.limit == 500
    assert error.executed > 500
    assert error.tb_pc == 0x1234
    assert machine.watchdog.trips == 1
    assert "watchdog" in str(error)


def _sabotage_entry_tb(machine, code):
    """Replace the host code of the rules-tier TB at USER_ENTRY."""
    engine = machine.engine
    original = engine._translate_tier

    def sabotage(tier, pc, mmu_idx):
        tb = original(tier, pc, mmu_idx)
        if tier == "rules" and pc == USER_ENTRY:
            tb.code = list(code)
        return tb

    engine._translate_tier = sabotage


def test_runaway_tb_propagates_watchdog_timeout_with_context():
    """A runaway TB is not replayed: the timeout names the TB."""
    machine = boot_machine("main:\n  mov r0, #42\n  bl updec\n"
                           "  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_host_insns=20_000),
                           **RULES_KW)
    _sabotage_entry_tb(machine, [X86Insn(X86Op.JMP, target_index=0)])
    with pytest.raises(WatchdogTimeout) as info:
        machine.run(5_000_000)
    assert info.value.tb_pc == USER_ENTRY
    assert info.value.context.extra["tb_pc"] == hex(USER_ENTRY)
    assert machine.watchdog.trips == 1
    assert machine.uart.text == ""


def test_host_crash_tb_propagates_with_context():
    """A TB that crashes the host interpreter raises, naming the TB."""
    machine = boot_machine("main:\n  mov r0, #7\n  bl updec\n"
                           "  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(), **RULES_KW)
    _sabotage_entry_tb(machine, [])     # falls off the end immediately
    with pytest.raises(HostExecutionError, match="fell off the end") as info:
        machine.run(5_000_000)
    assert info.value.context.extra["tb_pc"] == hex(USER_ENTRY)
    assert machine.uart.text == ""


#: Stores 5, bumps it in its own block, prints the word: interp prints 6.
BUMP_BODY = r"""
main:
    ldr r4, =USER_HEAP
    mov r1, #5
    str r1, [r4]
    b bump
bump:
    ldr r1, [r4]
    add r1, r1, #1
    str r1, [r4]
    b show
show:
    ldr r0, [r4]
    bl updec
    mov r0, #0
    bl uexit
"""


@pytest.mark.parametrize("kwargs", [
    pytest.param({"engine": "tcg"}, id="tcg"),
    pytest.param(dict(RULES_KW), id="rules"),
])
def test_fault_after_guest_store_is_not_replayed(kwargs):
    """A fault right after a TB stored to guest RAM must not be replayed.

    Replaying the block from its entry state would bump the stored word
    a second time and print 7.
    """
    assert run_workload(BUMP_BODY)[1] == "6\n"
    bump = build_user_program(BUMP_BODY).symbols["bump"]
    machine = boot_machine(BUMP_BODY, watchdog=ExecutionWatchdog(), **kwargs)
    execute = machine.host.execute
    armed = {"on": True}

    def crash_after_bump(tb):
        exit_info = execute(tb)
        if armed["on"] and tb.pc == bump:
            armed["on"] = False
            raise HostExecutionError("host crash after the block returned")
        return exit_info

    machine.host.execute = crash_after_bump
    with pytest.raises(HostExecutionError) as info:
        machine.run(5_000_000)
    assert not armed["on"]
    assert info.value.context.extra["tb_pc"] == hex(bump)
    assert machine.uart.text == ""


# ---------------------------------------------------------------------------
# Wakeup-deadlock detection (the shared halt fast-forward).
# ---------------------------------------------------------------------------

def test_fast_forward_halt_no_wakeup_source():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n")
    machine.timer.enabled = False
    with pytest.raises(WakeupDeadlock) as info:
        fast_forward_halt(machine, lambda: False)
    error = info.value
    assert "no wakeup source" in error.reason
    assert error.timer_enabled is False
    assert error.context is not None       # machine diagnostics attached
    assert "engine=" in str(error)


def test_fast_forward_halt_timer_dies_while_waiting():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n")
    machine.timer.enabled = True
    machine.timer.reload = 50
    machine.timer.value = 50
    calls = {"n": 0}

    def advance(_insns):
        calls["n"] += 1
        machine.timer.enabled = False      # wakeup source vanishes

    machine.advance_time = advance
    with pytest.raises(WakeupDeadlock, match="cannot wake up"):
        fast_forward_halt(machine, lambda: False)
    assert calls["n"] == 1


def test_fast_forward_halt_iteration_bound():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n",
                           watchdog=ExecutionWatchdog(max_halt_iterations=3))
    machine.timer.enabled = True
    machine.timer.reload = 50
    machine.timer.value = 50
    machine.advance_time = lambda _insns: None  # time never raises the IRQ
    with pytest.raises(WakeupDeadlock, match="did not wake"):
        fast_forward_halt(machine, lambda: False)


def test_dbt_fast_forward_raises_structured_deadlock():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n", engine="tcg")
    machine.timer.enabled = False
    with pytest.raises(WakeupDeadlock):
        machine.engine._fast_forward_halt()


# ---------------------------------------------------------------------------
# Diagnostic context on errors.
# ---------------------------------------------------------------------------

def test_attach_context_is_chainable_and_sticky():
    error = ReproError("boom").attach_context(DiagContext(guest_pc=0x40000))
    assert "pc=0x00040000" in str(error)
    # The first context wins; later attaches are ignored.
    error.attach_context(DiagContext(guest_pc=0x999))
    assert "pc=0x00040000" in str(error)
    error.attach_context(None)
    assert error.context.guest_pc == 0x40000


def test_machine_diag_context_reports_live_state():
    machine = boot_machine("main:\n  mov r0, #0\n  bl uexit\n", engine="tcg")
    machine.env.pc = 0x40010
    context = machine.diag_context(phase="test")
    assert context.guest_pc == 0x40010
    assert context.engine == "tcg"
    assert context.extra == {"phase": "test"}


def test_run_timeout_error_carries_context():
    machine = boot_machine("main:\nspin:\n  b spin\n", engine="tcg")
    with pytest.raises(ReproError, match="did not halt") as info:
        machine.run(20_000)
    assert info.value.context is not None
    assert info.value.context.icount >= 20_000


# ---------------------------------------------------------------------------
# Translation-time guest fault paths (prefetch abort / undef) — all engines.
# ---------------------------------------------------------------------------

ENGINE_KWARGS = [
    pytest.param({"engine": "interp"}, id="interp"),
    pytest.param({"engine": "tcg"}, id="tcg"),
    pytest.param(dict(RULES_KW), id="rules"),
]


@pytest.mark.parametrize("kwargs", ENGINE_KWARGS)
def test_jump_to_unmapped_address_is_prefetch_abort(kwargs):
    """get_tb's fetch fault must surface as a guest prefetch abort."""
    code, text, _ = run_workload(r"""
main:
    ldr r0, =0x900000    @ MiB 9: never mapped by the kernel
    bx r0
""", **kwargs)
    assert code == 125
    assert "P" in text


@pytest.mark.parametrize("kwargs", ENGINE_KWARGS)
def test_jump_into_undecodable_bytes_is_undef(kwargs):
    """A first-instruction decode failure must surface as an undef."""
    code, text, _ = run_workload(r"""
main:
    b junk
junk:
    .word 0xFFFFFFFF
""", **kwargs)
    assert code == 126
    assert "U" in text


# ---------------------------------------------------------------------------
# The degradation ladder end to end.
# ---------------------------------------------------------------------------

COUNT_BODY = r"""
main:
    mov r4, #0              @ accumulator
    mov r5, #0              @ i
loop:
    add r6, r5, r5, lsl #2  @ 5*i
    sub r6, r6, #3
    eor r6, r6, r5, lsr #1
    add r4, r4, r6
    add r5, r5, #1
    cmp r5, #200
    blt loop
    mov r0, r4
    bl updec
    mov r0, #0
    bl uexit
"""
COUNT_OUTPUT = "99284\n"


def test_reference_output_without_injection():
    code, text, _ = run_workload(COUNT_BODY, **RULES_KW)
    assert (code, text) == (0, COUNT_OUTPUT)


def test_translate_time_crash_demotes_block():
    """A tier whose translation raises is skipped for that block."""
    machine = boot_machine(COUNT_BODY, **RULES_KW)
    engine = machine.engine
    original = engine._translate_tier

    def crash(tier, pc, mmu_idx):
        if tier == "rules" and pc == USER_ENTRY:
            raise RuntimeError("rule application crashed")
        return original(tier, pc, mmu_idx)

    engine._translate_tier = crash
    assert machine.run(5_000_000) == 0
    assert machine.uart.text == COUNT_OUTPUT
    stats = machine.stats()
    assert stats["robust.tier_demotions"] >= 1
    assert stats["robust.tier_tcg_tbs"] >= 1


def test_wrong_result_rule_is_caught_by_selfcheck():
    """A silently-wrong pure TB never corrupts live architectural state."""
    loop = build_user_program(COUNT_BODY).symbols["loop"]
    machine = boot_machine(COUNT_BODY, selfcheck_interval=1, **RULES_KW)
    engine = machine.engine
    original = engine._translate_tier
    armed = {"on": True}

    def corrupt(tier, pc, mmu_idx):
        tb = original(tier, pc, mmu_idx)
        if armed["on"] and tier == "rules" and pc == loop:
            assert tb_selfcheckable(tb)
            armed["on"] = False
            for insn in tb.code:
                if insn.target_index >= 0:
                    insn.target_index += 1
            # Flip a bit of guest r3 in env: no helper, so the TB stays
            # pure and the self-check sandbox runs it.
            tb.code.insert(0, X86Insn(
                X86Op.XOR, dst=Mem(base=ENV_REG, disp=env_reg(3)),
                src=Imm(0x1000)))
        return tb

    engine._translate_tier = corrupt
    assert machine.run(5_000_000) == 0
    assert machine.uart.text == COUNT_OUTPUT
    assert not armed["on"]
    stats = machine.stats()
    assert stats["robust.selfcheck_failures"] >= 1
    assert stats["robust.quarantined_rules"] >= 1


def test_interp_tier_runs_whole_workload():
    """Force every block to the last tier: pure interp execution."""
    machine = boot_machine(COUNT_BODY, engine="tcg")
    engine = machine.engine
    last = len(engine.tiers) - 1
    engine.ladder.start_tier = lambda pc, mmu_idx: last
    code = machine.run(5_000_000)
    assert code == 0
    assert machine.uart.text == COUNT_OUTPUT
    stats = machine.stats()
    assert stats["robust.tier_interp_tbs"] >= 1
    assert stats["robust.tier_tcg_tbs"] == 0
    assert stats["engine.tag_interp_tier"] > 0


def test_rules_engine_reports_ladder_stats():
    code, text, machine = run_workload(COUNT_BODY, **RULES_KW)
    stats = machine.stats()
    for key in ("robust.quarantined_rules", "robust.tier_demotions",
                "robust.recovered_faults", "robust.tier_rules_tbs",
                "robust.tier_tcg_tbs", "robust.tier_interp_tbs",
                "engine.tb_invalidated"):
        assert key in stats
    assert stats["robust.tier_rules_tbs"] > 0
    assert stats["robust.quarantined_rules"] == 0


# ---------------------------------------------------------------------------
# Structured error types.
# ---------------------------------------------------------------------------

def test_watchdog_timeout_fields():
    error = WatchdogTimeout(1001, 1000, tb_pc=0x40)
    assert (error.executed, error.limit, error.tb_pc) == (1001, 1000, 0x40)


def test_wakeup_deadlock_reports_device_state():
    error = WakeupDeadlock("idle forever", timer_enabled=True,
                           timer_reload=7, intc_pending=0x2)
    assert "timer enabled=True" in str(error)
    assert "pending=0x2" in str(error)
