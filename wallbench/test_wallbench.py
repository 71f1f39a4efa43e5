"""Tests of the wall-clock benchmark itself.

Run from the repository root::

    python3 -m pytest wallbench/test_wallbench.py
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts the repository's src/ on sys.path)
from gen import _CONDS, WORKLOADS, cold_code_program  # noqa: E402
from layers import BOUNDARIES, ROOT, LayerTracer, MissingBoundary  # noqa: E402
from oracle import mismatches  # noqa: E402

from repro.harness.runner import make_machine, run_workload  # noqa: E402
from repro.workloads import SPEC_WORKLOADS, Workload  # noqa: E402

_BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _small_program(seed: int = 5):
    return cold_code_program(random.Random(seed), 6, "small")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(workload):
    make_programs = WORKLOADS[workload][0]
    first = make_programs(random.Random(3))
    again = make_programs(random.Random(3))
    assert first == again
    assert first


def test_cold_code_differs_between_seeds():
    assert _small_program(1).body != _small_program(2).body


#: A register-specified shift amount: ``rm, lsl rs``.
_REG_SHIFT = re.compile(r",\s*(lsl|lsr|asr|ror)\s+r\d+")


def _flag_setting_fallback(line: str) -> bool:
    """A flag-setting instruction the rules engine hands to the TCG
    fallback: carry-consuming with a shifted operand, or with RRX."""
    mnemonic, operands = line.split(None, 1)
    base, rest = mnemonic[:3], mnemonic[3:]
    if rest[:2] in _CONDS:
        rest = rest[2:]
    sets_flags = base in ("cmp", "cmn", "tst", "teq") or rest == "s"
    shifted = re.search(r",\s*(lsl|lsr|asr|ror) #|rrx", operands)
    return sets_flags and bool(
        "rrx" in operands or (base in ("adc", "sbc", "rsc") and shifted))


def test_cold_code_leaves_out_the_miscompiled_forms():
    program = cold_code_program(random.Random(7), 300, "big")
    body = [line.strip() for line in program.body.splitlines()
            if line.startswith("    ")]
    assert not [line for line in body if _REG_SHIFT.search(line)]
    assert not [line for line in body if _flag_setting_fallback(line)]
    # The fallback path itself is still drawn: shifted carry-consuming
    # and RRX forms that set no flags.
    assert any(re.match(r"(adc|sbc|rsc)\w* .*(lsl|lsr|asr|ror) #", line)
               for line in body)
    assert any(line.endswith("rrx") for line in body)


def test_cold_code_runs_correctly_on_every_engine():
    program = cold_code_program(random.Random(11), 60, "small")
    runs = [run.run_program(program, engine, 0, sliced=False)
            for engine in run.ENGINES]
    run.check_runs(runs)
    assert [(r.engine, r.reasons) for r in runs if r.reasons] == []


def _probe(setup: str, body: str, result: str) -> Workload:
    """A program that loads *setup* (``reg=value,...``), clears the
    flags, runs *body* and prints register *result* (``flags`` for
    NZCV as a number 0-15)."""
    lines = ["main:", "    mov r7, #0", "    msr cpsr_f, r7"]
    for assignment in setup.split(","):
        reg, value = assignment.split("=")
        lines.append(f"    ldr {reg}, ={value}")
    lines += [f"    {line.strip()}" if not line.strip().endswith(":")
              else line.strip() for line in body.split("/")]
    lines += ["    mrs r7, cpsr", "    mov r7, r7, lsr #28",
              f"    mov r0, {'r7' if result == 'flags' else result}",
              "    bl updec", "    mov r0, #0", "    bl uexit", ".ltorg"]
    return Workload("probe", body="\n".join(lines) + "\n",
                    max_insns=100_000, category="cold")


def _output(program: Workload, engine: str, check: bool = False) -> str:
    """UART text of *program* on ``make_machine`` engine *engine*; the
    exit code must be 0."""
    machine = make_machine(program, engine, check=check)
    assert machine.run(program.max_insns) == 0
    return machine.uart.text


#: Miscompilations at the commit that defined the benchmark, as
#: (engine, --check, program, what interp prints).  cold-code leaves out
#: the operand forms behind the first three, and no workload runs
#: --check.  The tests below are strict xfails, so a fix makes them
#: fail and tells whoever fixes it to put the form or the engine back
#: into the benchmark.
_KNOWN_DEFECTS = {
    # adcs sets C; the rules engines lose it across the TB boundary.
    "rules-flags-across-tbs": ("rules-full", False, _probe(
        "r0=1,r1=0,r2=0xfffffff0,r6=0xffffffff",
        "cmp r1, r0 / adcs r2, r2, r6, lsr #4 / b L / L: / "
        "eorcs r6, r0, #1", "r6"), "0\n"),
    # lsl by a register holding 32 gives 0; rules-full wraps it to 0.
    "rules-reg-shift-32": ("rules-full", False, _probe(
        "r5=0x80000013,r6=32", "mov r2, r5, lsl r6", "r2"), "0\n"),
    # A register shift by 0 leaves C alone; tcg sets it.
    "tcg-reg-shift-carry": ("tcg", False, _probe(
        "r5=0x80000013,r6=0", "movs r2, r5, lsr r6", "flags"), "8\n"),
    # --check rejects a rules-tier TB here (restore-stale) and the
    # demoted code runs the cmn with the wrong flags: NZCV 0b0010
    # instead of 0b1000.
    "check-demotion-flags": ("rules-full", True, _probe(
        "r0=577090037,r2=3639700191,r5=271041745",
        "ands r5, r0, r0, lsr #9 / b L1 / L1: / sbcs r12, r0, r5 / "
        "and r4, r4, r5 / eors r0, r5, #132 / cmn r0, r2, asr #10 / "
        "b L2 / L2:", "flags"), "8\n"),
}


@pytest.mark.parametrize("defect", sorted(_KNOWN_DEFECTS))
def test_known_defect_interp_reference(defect):
    engine, check, program, expected = _KNOWN_DEFECTS[defect]
    assert _output(program, "interp") == expected
    # Each defect is specific to its engine and mode.
    if check:
        assert _output(program, engine) == expected
    elif engine != "tcg":
        assert _output(program, "tcg") == expected


@pytest.mark.xfail(strict=True, reason="known miscompilation; see "
                   "README.md, Known failures")
@pytest.mark.parametrize("defect", sorted(_KNOWN_DEFECTS))
def test_known_defect_is_fixed(defect):
    engine, check, program, expected = _KNOWN_DEFECTS[defect]
    assert _output(program, engine, check) == expected


def test_oracle_flags_altered_output():
    program = _small_program()
    reference = run.run_program(program, "interp", 0)
    rerun = run.run_program(program, "interp", 0)
    assert mismatches(rerun.observation, reference.observation) == []
    altered = replace(rerun.observation,
                      output=rerun.observation.output + "1")
    assert mismatches(altered, reference.observation) == \
        ["differs from interp in output"]
    assert mismatches(replace(rerun.observation, tx_packets=(b"x",)),
                      reference.observation)
    assert mismatches(rerun.observation, reference.observation,
                      expected_output="other\n")


def test_oracle_flags_failed_runs_even_when_interp_agrees():
    program = _small_program()
    observation = run.run_program(program, "interp", 0).observation
    crashed = replace(observation, error="ReproError: boom")
    assert mismatches(crashed, crashed) == ["raised ReproError: boom"]
    exited = replace(observation, exit_code=3)
    assert mismatches(exited, exited) == ["exit code 3"]


def test_layer_self_times_and_residual_add_up_to_traced_time():
    program = _small_program()
    tracer = LayerTracer()
    runs = [run.run_program(program, engine, 0, tracer, sliced=False)
            for engine in ("interp", "tcg", "rules_full")]
    runs += [run.run_program(program, "interp", 0, sliced=False)]
    run.check_runs(runs)
    traced_time = tracer.total(ROOT, field="total_s")
    assert sum(tracer.self_s.values()) == pytest.approx(traced_time,
                                                        rel=1e-9)
    metrics = run.layer_metrics(runs, tracer)
    assert metrics["trace.total_s"][0] == pytest.approx(traced_time)
    layer_self = sum(value for (layer, _), value in tracer.self_s.items()
                     if layer != ROOT)
    assert layer_self + metrics["trace.residual_s"][0] == \
        pytest.approx(traced_time, rel=1e-9)
    for engine in ("tcg", "rules_full"):
        assert metrics[f"host.execute.calls.{engine}"][0] > 0
        assert metrics[f"guest.fetch_decode.calls.{engine}"][0] > 0
    assert metrics["guest.asm.self_s"][0] > 0


def test_tracer_restores_every_boundary():
    import repro.harness.runner as runner
    from repro.host.interp import HostInterpreter

    before = (HostInterpreter.execute, runner.build_kernel)
    with LayerTracer():
        assert HostInterpreter.execute is not before[0]
        assert runner.build_kernel is not before[1]
    assert (HostInterpreter.execute, runner.build_kernel) == before


def test_missing_boundary_names_it(monkeypatch):
    import layers

    monkeypatch.setattr(layers, "BOUNDARIES", BOUNDARIES + (
        ("host.gone", "repro.host.interp", "HostInterpreter", "vanished"),))
    with pytest.raises(MissingBoundary, match="HostInterpreter.vanished"):
        with LayerTracer():
            pass


def test_sliced_run_matches_repro_run():
    """Timing a run in slices changes neither the guest's behaviour nor
    the cost model: cost per guest instruction equals ``repro run``'s."""
    workload = SPEC_WORKLOADS["sjeng"]
    measured = run.run_program(workload, "rules_full", 0)
    replayed = run.run_program(workload, "rules_full", 1,
                               limits=measured.limits)
    assert replayed.limits == measured.limits
    assert replayed.stats == measured.stats
    reference = run_workload(workload, "rules-full")
    assert measured.observation.output == reference.output
    assert measured.observation.exit_code == 0
    assert measured.guest_icount == reference.stats["engine.guest_icount"]
    assert measured.stats["engine.host_cost"] / measured.guest_icount == \
        reference.cost_per_guest


def test_guest_mips_takes_each_slice_at_its_fastest():
    def fake(engine, slices, raw_s):
        return run.Run(program="p", engine=engine, round=0, setup_s=0.0,
                       run_s=sum(slices), raw_run_s=raw_s, slices=slices,
                       limits=[1, 2], guest_icount=3_000_000, stats={},
                       observation=None, expected_output=None)

    runs = [fake("tcg", [1.0, 3.0], 5.0), fake("tcg", [2.0, 2.0], 6.0),
            fake("interp", [9.0, 9.0], 1.0)]
    assert run.guest_mips(runs, "tcg") == pytest.approx(1.0)
    assert run.guest_mips(runs, "tcg", raw=True) == pytest.approx(0.6)


def test_metric_names_match_benchmark_json():
    with open(_BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    program = _small_program()
    tracer = LayerTracer()
    runs = [run.run_program(program, "interp", 0)]
    metrics = run.layer_metrics(runs, tracer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
