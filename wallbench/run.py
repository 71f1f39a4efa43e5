"""Wall-clock benchmark of the DBT: guest MIPS per engine, per-layer self time.

Usage, from the repository root::

    python3 wallbench/run.py --workload spec-hot --seed 1 --seconds 25 --trace 0

One single-threaded process runs the workload's guest programs back to
back as a closed loop: each program runs on every engine of the
workload, one machine at a time, and the next starts when it ends.
Every run is checked against the ``interp`` engine's run of the same
program (see ``oracle.py``); a mismatch is counted and timing goes on.

``--trace 0`` prints the end-to-end metrics, with run times scaled to
a reference host speed (``calibrate.py``).  ``--trace 1`` runs each
program on each engine twice, untraced and then with every layer
boundary wrapped (``layers.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before
it are a readable report.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

from repro.common.errors import GuestHalt  # noqa: E402
from repro.harness.runner import make_machine  # noqa: E402
from repro.workloads import Workload  # noqa: E402

from calibrate import reference_seconds  # noqa: E402
from gen import WORKLOADS  # noqa: E402
from layers import ROOT, LayerTracer  # noqa: E402
from oracle import Observation, mismatches, observe  # noqa: E402

#: Benchmark engine name -> ``make_machine`` engine spec.
ENGINES: Dict[str, str] = {
    "interp": "interp",
    "tcg": "tcg",
    "rules_full": "rules-full",
}

#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "guest_mips.interp": "MIPS",
    "guest_mips.tcg": "MIPS",
    "guest_mips.rules_full": "MIPS",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_per_guest_insn": "hinsn/ginsn",
    "modelled_speedup": "x",
}

#: Target seconds of one timed slice of an untraced run.  Each slice
#: adds one calibration (3-8 ms).
SLICE_S = 0.1

#: Machine.stats() counters kept with each run.
_STATS = ("engine.host_cost", "engine.host_instructions", "io.cost",
          "engine.tb_count", "engine.interrupt_checks_dyn",
          "engine.memory_insns_dyn", "engine.tlb_fills")


@dataclass
class Run:
    """One guest program run on one engine."""

    program: str
    engine: str
    round: int
    #: Reference seconds (calibrate.py) when sliced, else seconds.
    setup_s: float
    run_s: float
    #: Seconds as measured.
    raw_run_s: float
    #: Reference seconds of each slice, when sliced.
    slices: List[float]
    #: Guest instruction count at the end of each slice, when sliced.
    limits: List[int]
    guest_icount: int
    stats: Dict[str, float]
    observation: Observation
    expected_output: Optional[str]
    traced: bool = False
    reasons: List[str] = field(default_factory=list)


def _run_sliced(machine, max_insns: int, limits: Sequence[int]) -> \
        Tuple[Optional[int], str, List[float], List[int], float]:
    """``Machine.run`` in timed slices, each scaled to reference seconds.

    A slice ends at the next guest instruction count in *limits*; past
    the last one, slices are sized to take about :data:`SLICE_S`.  The
    engine's run loop stops at a TB boundary once a limit is reached
    and picks up from there on the next call, so slicing changes no
    guest or cost-model behaviour, and runs given the same limits do
    the same work in each slice.  Returns (exit code, error, reference
    seconds per slice, limits used, seconds).
    """
    used: List[int] = []
    slices: List[float] = []
    raw_s, step = 0.0, 1000
    try:
        while not used or used[-1] < max_insns:
            if len(used) < len(limits):
                limit = limits[len(used)]
            else:
                limit = min((used[-1] if used else 0) + step, max_insns)
            used.append(limit)
            before = machine.guest_icount
            start = perf_counter()
            try:
                machine.engine.run(limit)
            finally:
                elapsed = perf_counter() - start
                raw_s += elapsed
                slices.append(reference_seconds(elapsed))
            done = machine.guest_icount - before
            if done:  # 0 when the last slice overshot this limit
                step = max(100, min(4 * step, int(done * SLICE_S / elapsed)))
    except GuestHalt as halt:
        return halt.exit_code, "", slices, used, raw_s
    except Exception as exc:  # noqa: BLE001 - a failed run is data
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}", slices, used, raw_s
    return None, f"guest did not halt within {max_insns} instructions", \
        slices, used, raw_s


def _run_whole(machine, max_insns: int) -> Tuple[Optional[int], str]:
    try:
        return machine.run(max_insns), ""
    except Exception as exc:  # noqa: BLE001 - a failed run is data
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def run_program(workload: Workload, engine: str, round_index: int,
                tracer: Optional[LayerTracer] = None,
                sliced: bool = True, limits: Sequence[int] = ()) -> Run:
    """Build a machine for *workload* on *engine* and run it to the end.

    *sliced* runs are timed in reference seconds (see calibrate.py), in
    slices that end at *limits* first (see :func:`_run_sliced`); the
    others in plain seconds.  With a *tracer*, set-up and run happen
    inside one root span with every layer boundary wrapped.  A run that
    raises is recorded as such (the oracle counts it as a failure)
    instead of ending the benchmark.
    """
    gc.collect()

    def setup_and_run():
        start = perf_counter()
        machine = make_machine(workload, ENGINES[engine])
        setup_s = perf_counter() - start
        if sliced:
            exit_code, error, slices, used, raw_run_s = _run_sliced(
                machine, workload.max_insns, limits)
            return machine, exit_code, error, \
                reference_seconds(setup_s), slices, used, raw_run_s
        start = perf_counter()
        exit_code, error = _run_whole(machine, workload.max_insns)
        run_s = perf_counter() - start
        return machine, exit_code, error, setup_s, [], [], run_s

    if tracer is None:
        machine, exit_code, error, setup_s, slices, used, raw_run_s = \
            setup_and_run()
    else:
        tracer.engine = engine
        with tracer:
            machine, exit_code, error, setup_s, slices, used, raw_run_s = \
                tracer.span(ROOT, setup_and_run)
    stats = machine.stats()
    return Run(program=workload.name, engine=engine, round=round_index,
               setup_s=setup_s, run_s=sum(slices) if sliced else raw_run_s,
               raw_run_s=raw_run_s, slices=slices, limits=used,
               guest_icount=machine.guest_icount,
               stats={key: stats.get(key, 0.0) for key in _STATS},
               observation=observe(machine, exit_code, error),
               expected_output=workload.expected_output,
               traced=tracer is not None)


def check_runs(runs: Sequence[Run]) -> None:
    """Apply the oracle to the runs of one program: set each run's
    ``reasons``.  The reference is the untraced ``interp`` run."""
    reference = next(run.observation for run in runs
                     if run.engine == "interp" and not run.traced)
    for run in runs:
        run.reasons = mismatches(run.observation, reference,
                                 run.expected_output)


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in an untraced run of about *seconds*: a fixed number for
    a given ``--seconds``, so two commits compared do the same work."""
    return max(1, round(seconds / WORKLOADS[workload][2]))


def measure(workload: str, seed: int, seconds: float,
            tracer: Optional[LayerTracer] = None) -> List[Run]:
    """Run the workload's programs on its engines, closed loop.

    Untraced, every program runs on every engine once per round, for
    :func:`rounds_for` rounds, timed in slices; later rounds reuse the
    first round's slice limits.  Traced, one round runs,
    and each program runs on each engine whole, untraced and then
    traced.  The seed draws the programs and, per round, the order of
    programs and of engines.
    """
    make_programs, engines, _ = WORKLOADS[workload]
    rng = random.Random(seed)
    programs = make_programs(rng)
    rounds = 1 if tracer is not None else rounds_for(workload, seconds)
    runs: List[Run] = []
    limits: Dict[Tuple[str, str], List[int]] = {}
    for round_index in range(rounds):
        for program in rng.sample(programs, len(programs)):
            program_runs = []
            for engine in rng.sample(engines, len(engines)):
                if tracer is None:
                    key = (program.name, engine)
                    program_runs.append(run_program(
                        program, engine, round_index,
                        limits=limits.get(key, ())))
                    limits.setdefault(key, program_runs[-1].limits)
                    continue
                program_runs.append(run_program(
                    program, engine, round_index, sliced=False))
                program_runs.append(run_program(
                    program, engine, round_index, tracer, sliced=False))
            check_runs(program_runs)
            runs += program_runs
    return runs


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def guest_mips(runs: Sequence[Run], engine: str, raw: bool = False) -> \
        float:
    """Guest instructions of one run of each program on *engine*, per
    second of its best time.

    A program's best time is the sum over its slices of the fastest
    reference seconds any of its runs took for that slice: a shared
    host only ever adds time, and its runs share slice limits, so slice
    *k* does the same work in each.  With *raw*, and for unsliced
    (traced) runs, it is the fastest run in seconds as measured.
    """
    by_program: Dict[str, List[Run]] = {}
    for run in runs:
        if run.engine == engine:
            by_program.setdefault(run.program, []).append(run)
    icount = best = 0.0
    for program_runs in by_program.values():
        icount += program_runs[0].guest_icount
        if raw:
            best += min(run.raw_run_s for run in program_runs)
        elif program_runs[0].slices and \
                len({tuple(run.limits) for run in program_runs}) == 1:
            best += sum(map(min, zip(*(run.slices for run in program_runs))))
        else:  # unsliced, or a run raised part-way: no slice-by-slice match
            best += min(run.run_s for run in program_runs)
    return _ratio(icount, best) / 1e6


def end_to_end_metrics(runs: Sequence[Run]) -> Dict[str, float]:
    """The BENCHMARK.json end-to-end metrics of an untraced measurement.

    The cost-model metrics use the first round; later rounds repeat it.
    """
    first = [run for run in runs if run.round == 0]
    rules = [run for run in first if run.engine == "rules_full"]
    runtime = {(run.program, run.engine):
               run.stats["engine.host_cost"] + run.stats["io.cost"]
               for run in first}
    speedups = [runtime[(run.program, "tcg")] /
                runtime[(run.program, "rules_full")] for run in rules]
    return {
        "guest_mips.interp": guest_mips(runs, "interp"),
        "guest_mips.tcg": guest_mips(runs, "tcg"),
        "guest_mips.rules_full": guest_mips(runs, "rules_full"),
        "setup_s": statistics.median(run.setup_s for run in runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_per_guest_insn": _ratio(
            sum(run.stats["engine.host_cost"] for run in rules),
            sum(run.guest_icount for run in rules)),
        "modelled_speedup": math.exp(statistics.fmean(
            math.log(value) for value in speedups)),
    }


_DBT = ("tcg", "rules_full")
_IO = ("interp", "tcg", "rules_full")

#: Span-derived per-layer metrics: (layer, engines, statistics).  Names
#: are ``<layer>.<statistic>.<engine>``.
LAYER_SPANS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("host.execute", _DBT, ("calls", "self_s", "share")),
    ("core.translate_rules", ("rules_full",),
     ("calls", "self_s", "share", "p50_ms", "p99_ms")),
    ("core.fallback", ("rules_full",), ("calls", "self_s")),
    ("core.succ_live_in", ("rules_full",), ("calls", "self_s")),
    ("miniqemu.translate_tcg", ("tcg",),
     ("calls", "self_s", "share", "p50_ms", "p99_ms")),
    ("guest.fetch_decode", _DBT, ("calls", "self_s", "share")),
    ("guest.interp", ("interp",), ("self_s", "share")),
    ("miniqemu.cpu_exec", _DBT, ("self_s", "share")),
    ("miniqemu.helpers.slow_path", _DBT, ("calls", "self_s")),
    ("miniqemu.helpers.exception", _DBT, ("calls", "self_s")),
    ("miniqemu.helpers.flag_parse", _DBT, ("calls",)),
    ("softmmu.page_walk", _IO, ("calls", "self_s")),
    ("devices.mmio", _IO, ("calls", "self_s")),
    ("devices.advance_time", _IO, ("self_s",)),
)

#: Per-layer metric unit by statistic.
_UNITS = {"calls": "count", "self_s": "s", "share": "ratio",
          "p50_ms": "ms", "p99_ms": "ms"}


def _percentile_ms(durations: Sequence[float], percent: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100,
                                method="inclusive")[percent - 1] * 1e3


def layer_metrics(runs: Sequence[Run], tracer: LayerTracer) -> \
        Dict[str, Tuple[float, str]]:
    """The BENCHMARK.json per-layer metrics of a traced measurement:
    name -> (value, unit)."""
    traced = [run for run in runs if run.traced]
    untraced = [run for run in runs if not run.traced]
    engine_total = {engine: tracer.total(ROOT, engine, "total_s")
                    for engine in ENGINES}
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    for layer, engines, stats in LAYER_SPANS:
        for engine in engines:
            self_s = tracer.self_s.get((layer, engine), 0.0)
            durations = tracer.durations.get((layer, engine), [])
            values = {
                "calls": tracer.calls.get((layer, engine), 0),
                "self_s": self_s,
                "share": _ratio(self_s, engine_total[engine]),
                "p50_ms": _percentile_ms(durations, 50),
                "p99_ms": _percentile_ms(durations, 99),
            }
            for stat in stats:
                put(f"{layer}.{stat}.{engine}", values[stat], _UNITS[stat])

    def stat(engine: str, key: str) -> float:
        return sum(run.stats[key] for run in traced if run.engine == engine)

    def icount(engine: str) -> int:
        return sum(run.guest_icount for run in traced
                   if run.engine == engine)

    for engine in _DBT:
        executes = tracer.calls.get(("host.execute", engine), 0)
        slow = tracer.calls.get(("miniqemu.helpers.slow_path", engine), 0)
        put(f"host.insns.{engine}",
            stat(engine, "engine.host_instructions"), "count")
        put(f"host.guest_insns_per_execute.{engine}",
            _ratio(icount(engine), executes), "insn/call")
        put(f"miniqemu.tb_reuse.{engine}",
            _ratio(stat(engine, "engine.interrupt_checks_dyn"),
                   stat(engine, "engine.tb_count")), "ratio")
        accesses = stat(engine, "engine.memory_insns_dyn")
        put(f"softmmu.tlb_hit_ratio.{engine}",
            1.0 - slow / accesses if accesses else 0.0, "ratio")
        put(f"stats.host_cost.{engine}",
            stat(engine, "engine.host_cost"), "count")
        put(f"stats.guest_icount.{engine}", icount(engine), "count")
    for engine in _IO:
        put(f"softmmu.tlb_fills.{engine}",
            stat(engine, "engine.tlb_fills"), "count")
    put("guest.asm.self_s", tracer.total("guest.asm"), "s")
    put("oracle.fail_rate",
        _ratio(sum(1 for run in runs if run.reasons), len(runs)), "ratio")

    total = tracer.total(ROOT, field="total_s")
    put("trace.total_s", total, "s")
    for engine in ENGINES:
        put(f"trace.total_s.{engine}", engine_total[engine], "s")
    put("trace.residual_s", tracer.total(ROOT), "s")
    put("trace.overhead_ratio",
        _ratio(total, sum(run.setup_s + run.run_s for run in untraced)),
        "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def report(workload: str, seed: int, runs: Sequence[Run]) -> None:
    """Print the readable per-engine, per-program and failure lines."""
    rounds = max(run.round for run in runs) + 1
    print(f"workload {workload}  seed {seed}  rounds {rounds}  "
          f"runs {len(runs)}")
    print(f"{'engine':12s} {'runs':>4s} {'guest_insns':>11s} "
          f"{'raw_s':>8s} {'ref_s':>8s} {'raw_MIPS':>9s} {'MIPS':>9s}")
    untraced = [run for run in runs if not run.traced]
    for engine in ENGINES:
        mine = [run for run in untraced if run.engine == engine]
        if mine:
            print(f"{engine:12s} {len(mine):4d} "
                  f"{sum(run.guest_icount for run in mine):11d} "
                  f"{sum(run.raw_run_s for run in mine):8.2f} "
                  f"{sum(run.run_s for run in mine):8.2f} "
                  f"{guest_mips(mine, engine, raw=True):9.4f} "
                  f"{guest_mips(mine, engine):9.4f}")
    for run in runs:
        if run.round == 0 and not run.traced and run.engine != "interp":
            print(f"  {run.program:10s} {run.engine:12s} "
                  f"cost_per_guest_insn "
                  f"{_ratio(run.stats['engine.host_cost'], run.guest_icount):.6f}")
    failed = [run for run in runs if run.reasons]
    print(f"fail_rate {_ratio(len(failed), len(runs)):.4f} ratio "
          f"({len(failed)} of {len(runs)} runs)")
    for run in failed:
        trace_note = " (traced)" if run.traced else ""
        print(f"  FAIL {run.program} on {run.engine}{trace_note}: "
              f"{'; '.join(run.reasons)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        tracer = LayerTracer()
        runs = measure(args.workload, args.seed, args.seconds, tracer)
        metrics = layer_metrics(runs, tracer)
    else:
        runs = measure(args.workload, args.seed, args.seconds)
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end_metrics(runs).items()}
    report(args.workload, args.seed, runs)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = sum(1 for run in runs if run.reasons)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
