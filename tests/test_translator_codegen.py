"""Static codegen properties of the rule translator, per optimization.

These tests pin the paper's mechanisms at the generated-code level:
Fig 9 (redundant restores), Fig 10 (consecutive memory ops) and Fig 11
(inter-TB elimination).
"""

import pytest

from repro.core import OptConfig, OptLevel
from repro.core.engine import RuleEngine
from repro.guest.asm import assemble
from repro.host.isa import X86Op
from repro.miniqemu.machine import Machine

BASE_ADDR = 0x40000


def translate(source, level=OptLevel.FULL, config=None, at=BASE_ADDR):
    machine = Machine(engine="tcg")
    machine.memory.load_program(assemble(source, base=BASE_ADDR))
    engine = RuleEngine(machine, level=level, config=config)
    return engine.translate(at, 0)


def count_tag(tb, tag):
    return sum(1 for insn in tb.code if insn.tag == tag)


def ops(tb):
    return [insn.op for insn in tb.code]


# ---------------------------------------------------------------------------
# Fig 10: consecutive memory accesses.
# ---------------------------------------------------------------------------

CONSECUTIVE_STORES = """
    cmp r1, #10
    str r2, [r3]
    str r2, [r3, #4]
    str r2, [r3, #8]
    bne target
target:
    nop
"""


def test_base_pairs_every_memory_access():
    tb = translate(CONSECUTIVE_STORES, OptLevel.BASE)
    # One save per store (the flags are re-restored after each one).
    assert tb.meta["sync_saves"] >= 3
    assert tb.meta["sync_restores"] >= 3


def test_elimination_coalesces_consecutive_stores():
    tb = translate(CONSECUTIVE_STORES, OptLevel.ELIMINATION)
    # One save before the run of stores; one restore for the branch.
    assert tb.meta["sync_saves"] == 1
    assert tb.meta["sync_restores"] == 1


# ---------------------------------------------------------------------------
# Fig 9: redundant restores for conditional runs.
# ---------------------------------------------------------------------------

CONDITIONAL_RUN = """
    cmp r1, #10
    addeq r2, r2, #1
    addeq r3, r3, #1
    addeq r4, r4, #1
    bx lr
"""


def test_base_restores_per_conditional():
    tb = translate(CONDITIONAL_RUN, OptLevel.BASE)
    assert tb.meta["sync_restores"] >= 3


def test_elimination_keeps_flags_live_across_conditionals():
    tb = translate(CONDITIONAL_RUN, OptLevel.ELIMINATION)
    # The flags stay in EFLAGS through the whole run: no restores at all.
    assert tb.meta["sync_restores"] == 0


# ---------------------------------------------------------------------------
# Fig 11: inter-TB elimination.
# ---------------------------------------------------------------------------

INTER_TB = """
    cmp r1, r2
    b next
next:
    cmp r3, r4          @ defines all flags before any use
    bne elsewhere
elsewhere:
    nop
"""

INTER_TB_LIVE = """
    cmp r1, r2
    b next
next:
    addeq r3, r3, #1    @ READS Z at entry: the save must stay
    bx lr
"""


def test_inter_tb_elides_end_save_when_successor_defines_first():
    with_opt = translate(INTER_TB, OptLevel.ELIMINATION)
    without = translate(
        INTER_TB,
        config=OptConfig(packed_sync=True, eliminate_redundant=True,
                         inter_tb=False))
    assert with_opt.meta["sync_saves"] < without.meta["sync_saves"]


def test_inter_tb_keeps_save_when_successor_reads_flags():
    tb = translate(INTER_TB_LIVE, OptLevel.ELIMINATION)
    assert tb.meta["sync_saves"] == 1


# ---------------------------------------------------------------------------
# Sequence shapes.
# ---------------------------------------------------------------------------

def test_base_uses_parsed_sequences():
    tb = translate(CONSECUTIVE_STORES, OptLevel.BASE)
    assert X86Op.SETCC in ops(tb)       # per-bit parse
    assert X86Op.PUSHFD not in ops(tb)  # no packed saves at Base


def test_reduction_uses_packed_sequences():
    tb = translate(CONSECUTIVE_STORES, OptLevel.REDUCTION)
    assert X86Op.PUSHFD in ops(tb)
    assert X86Op.POPFD in ops(tb)


def test_conditionals_use_direct_jcc():
    tb = translate(CONDITIONAL_RUN, OptLevel.FULL)
    jcc_count = sum(1 for insn in tb.code if insn.op is X86Op.JCC)
    # One skip-jcc per conditional insn + the irq check + the bx exit
    # never re-compares against env fields.
    cmp_env = [insn for insn in tb.code
               if insn.op is X86Op.CMP and insn.tag == "rule"]
    assert jcc_count >= 3
    assert len(cmp_env) == 1  # only the guest cmp itself


def test_every_instruction_is_tagged():
    tb = translate(CONSECUTIVE_STORES, OptLevel.FULL)
    known = {"rule", "sync", "mmu", "irqcheck", "chain", "helper",
             "fallback", "code"}
    assert {insn.tag for insn in tb.code} <= known
