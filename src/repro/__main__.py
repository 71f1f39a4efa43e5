"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — available workloads, engines and experiments.
- ``run WORKLOAD [--engine E]`` — run a named workload, print its guest
  console output and the cost metrics.
- ``exec FILE.s [--engine E]`` — assemble a user program (the body after
  the kernel's syscall prelude; must define ``main``) and run it under
  the mini guest OS.
- ``bench [EXPERIMENT]`` — with an experiment name, reproduce one paper
  table/figure (or ``all``); without one, run the continuous-benchmark
  suite: write a trajectory snapshot (``BENCH_<n>.json``), and with
  ``--compare BASELINE --fail-on regressed`` gate it against a blessed
  baseline, attributing any regression to the Sec III coordination-cost
  category that moved.  ``--quick`` keeps the SPEC-sweep experiments
  only.
- ``learn [--save PATH]`` — run the rule-learning pipeline; optionally
  save the rulebook as JSON.
- ``compare WORKLOAD`` — run one workload on every engine and print a
  side-by-side cost comparison.
- ``check [--all]`` — the translation soundness checker: symbolically
  classify every learned rule (proved / tested-only / refuted) and run
  the dataflow verifier over the TB population of representative
  workloads.  ``--format json|table`` selects the output, ``--out``
  writes the findings JSON, and the exit code is 0 (clean), 1
  (findings above ``--fail-on``), or 2 (usage error).
- ``profile WORKLOAD [--engine E] [--top N]`` — run with tracing and
  profiling enabled, print the hot-TB table and the coordination-cost
  breakdown, and export profile + Chrome trace JSON under
  ``benchmarks/results/``.
- ``validate-trace FILE.json`` — check an exported trace against the
  Chrome trace-event schema (exit 1 on problems).

``run`` and ``exec`` accept ``--trace PATH`` to record a Chrome trace
of the run, and ``--check`` to enable verify-before-enter:
every rules-tier TB is statically verified before entering the code
cache and demoted down the degradation ladder on an ERROR finding.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ALL_EXPERIMENTS, ENGINE_SPECS, format_table, \
    run_workload
from .workloads import ALL_WORKLOADS


def cmd_list(_args) -> int:
    print("workloads:")
    for name, workload in sorted(ALL_WORKLOADS.items()):
        print(f"  {name:12s} [{workload.category}]")
    print("\nengines:", ", ".join(ENGINE_SPECS))
    print("\nexperiments:", ", ".join(sorted(ALL_EXPERIMENTS)), "| all")
    return 0


def _print_run(result) -> None:
    print(result.output, end="")
    print(f"--- {result.workload} on {result.engine} ---")
    print(f"guest instructions : {result.guest_icount}")
    print(f"host instructions  : {result.host_instructions:.0f}")
    print(f"host cost          : {result.host_cost:.0f}")
    print(f"device time        : {result.io_cost:.0f}")
    print(f"cost per guest insn: {result.cost_per_guest:.2f}")
    _print_robustness(result.stats)


def _print_robustness(stats) -> None:
    """Degradation-ladder report (quarantines, fallback tiers, faults)."""
    quarantined = stats.get("robust.quarantined_rules", 0)
    fallback = sum(count for key, count in stats.items()
                   if key.startswith("robust.tier_") and
                   key.endswith("_tbs") and key != "robust.tier_rules_tbs")
    if not (quarantined or fallback or
            stats.get("robust.recovered_faults") or
            stats.get("robust.watchdog_trips")):
        return
    print(f"quarantined rules  : {quarantined:.0f}")
    tiers = {key[len("robust.tier_"):-4]: int(count)
             for key, count in stats.items()
             if key.startswith("robust.tier_") and key.endswith("_tbs")}
    print("fallback tiers     : " +
          " ".join(f"{tier}={count}" for tier, count in tiers.items()))
    print(f"faults recovered   : "
          f"{stats.get('robust.recovered_faults', 0):.0f}")
    if stats.get("robust.watchdog_trips"):
        print(f"watchdog trips     : "
              f"{stats['robust.watchdog_trips']:.0f}")


def cmd_run(args) -> int:
    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    return _run_and_print(workload, args)


def cmd_exec(args) -> int:
    from .workloads.spec import Workload

    with open(args.file) as handle:
        body = handle.read()
    workload = Workload(name=args.file, body=body)
    return _run_and_print(workload, args)


def _run_and_print(workload, args) -> int:
    from .common.errors import ReproError

    tracer = None
    if getattr(args, "trace", None):
        from .observability import Tracer
        tracer = Tracer()
    try:
        result = run_workload(workload, args.engine, tracer=tracer,
                              check=getattr(args, "check", False))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_run(result)
    if getattr(args, "check", False):
        stats = result.stats
        print(f"check: {stats.get('engine.check_tbs', 0):.0f} TB "
              f"verification(s), "
              f"{stats.get('engine.check_rejected', 0):.0f} rejected, "
              f"{stats.get('engine.check_findings', 0):.0f} finding(s)")
    if tracer is not None:
        from .observability import write_chrome_trace
        path = write_chrome_trace(args.trace, tracer.events())
        print(f"trace written to {path} ({tracer.emitted} events, "
              f"{tracer.dropped} dropped)")
    return 0


def cmd_check(args) -> int:
    from .analysis.checker import (ALL_CHECK_ENGINES, ALL_CHECK_WORKLOADS,
                                   DEFAULT_ENGINES, DEFAULT_WORKLOADS,
                                   run_check)
    from .analysis.findings import severity_from_name
    from .common.errors import ReproError

    try:
        threshold = severity_from_name(args.fail_on)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload:
        unknown = [w for w in args.workload if w not in ALL_WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return 2
        workloads = tuple(args.workload)
    else:
        workloads = ALL_CHECK_WORKLOADS if args.all else DEFAULT_WORKLOADS
    engines = ALL_CHECK_ENGINES if args.all else DEFAULT_ENGINES
    try:
        report = run_check(workloads=workloads, engines=engines,
                           rules=not args.no_rules, profile=args.profile)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        import os
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_table())
    return report.exit_code(threshold)


#: Default export directory for ``repro profile`` artifacts.
RESULTS_DIR = "benchmarks/results"


def cmd_profile(args) -> int:
    import os

    from .common.errors import ReproError
    from .observability import (Profiler, Tracer, build_profile,
                                render_profile, write_chrome_trace,
                                write_profile_json)
    from .harness import make_machine

    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    tracer = Tracer()
    profiler = Profiler()
    machine = make_machine(workload, args.engine, tracer=tracer,
                           profiler=profiler)
    try:
        machine.run(workload.max_insns)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    profile = build_profile(machine, workload=args.workload,
                            engine=args.engine)
    print(render_profile(profile, top=args.top))

    slug = f"{args.workload}_{args.engine}".replace("-", "_")
    profile_path = args.json or os.path.join(
        RESULTS_DIR, f"profile_{slug}.json")
    trace_path = args.trace or os.path.join(
        RESULTS_DIR, f"trace_{slug}.json")
    write_profile_json(profile_path, profile)
    write_chrome_trace(trace_path, tracer.events())
    print(f"\nprofile written to {profile_path}")
    print(f"trace written to {trace_path} ({tracer.emitted} events, "
          f"{tracer.dropped} dropped) — load it in Perfetto or "
          f"chrome://tracing")
    return 0


def cmd_validate_trace(args) -> int:
    import json

    from .observability import validate_chrome_trace

    with open(args.file) as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as error:
            print(f"{args.file}: not valid JSON: {error}",
                  file=sys.stderr)
            return 1
    problems = validate_chrome_trace(obj)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    count = len(obj["traceEvents"])
    print(f"{args.file}: valid Chrome trace ({count} events)")
    return 0


def cmd_compare(args) -> int:
    workload = ALL_WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rows = []
    baseline = None
    for engine in ("interp", "tcg", "rules-base", "rules-full"):
        result = run_workload(workload, engine)
        if engine == "tcg":
            baseline = result.runtime
        rows.append([engine, result.guest_icount,
                     f"{result.runtime:.0f}",
                     f"{result.cost_per_guest:.2f}", result.runtime])
    for row in rows:
        runtime = row.pop()
        row.append(f"{baseline / runtime:.2f}x" if row[0] != "interp"
                   else "--")
    print(format_table(
        ["Engine", "Guest insns", "Runtime", "Cost/guest",
         "Speedup vs QEMU"], rows,
        title=f"{args.workload}: engine comparison"))
    return 0


def cmd_bench(args) -> int:
    if args.experiment is not None:
        return _bench_experiment(args)
    return _bench_suite(args)


def _bench_experiment(args) -> int:
    """Print one paper figure (or ``all``)."""
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        experiment = ALL_EXPERIMENTS.get(name)
        if experiment is None:
            print(f"unknown experiment {name!r} "
                  f"(one of: {', '.join(sorted(ALL_EXPERIMENTS))})",
                  file=sys.stderr)
            return 2
        print(experiment().text)
        print()
    return 0


def _bench_suite(args) -> int:
    """Suite mode: run the benchmark suite, write a trajectory snapshot,
    optionally compare against a blessed baseline and gate."""
    import json

    from .common.errors import ReproError
    from .observability import (IncomparableSnapshots, compare_snapshots,
                                load_snapshot, next_snapshot_path,
                                render_snapshot, run_suite,
                                validate_snapshot, write_snapshot)
    from .observability.regress import GATE_LEVELS

    if args.fail_on not in GATE_LEVELS:
        print(f"unknown --fail-on level {args.fail_on!r} "
              f"(one of: {', '.join(sorted(GATE_LEVELS))})",
              file=sys.stderr)
        return 2
    if args.workload:
        unknown = [w for w in args.workload if w not in ALL_WORKLOADS]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return 2
        mode = "custom"
        sweep = tuple(args.workload)
    else:
        mode = "quick" if args.quick else "full"
        sweep = None

    def progress(message: str) -> None:
        print(f"bench: {message}", file=sys.stderr)

    try:
        snapshot = run_suite(
            mode=mode, sweep_workloads=sweep,
            results_dir=RESULTS_DIR if args.export_results else None,
            progress=progress)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems = validate_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"internal error: snapshot invalid: {problem}",
                  file=sys.stderr)
        return 2

    out = args.out or next_snapshot_path(".")
    write_snapshot(out, snapshot)
    print(f"snapshot written to {out}", file=sys.stderr)

    if args.compare is None:
        if args.format == "json":
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        else:
            print(render_snapshot(snapshot))
        return 0

    try:
        baseline = load_snapshot(args.compare)
    except (OSError, ValueError) as error:
        print(f"error: cannot load baseline {args.compare!r}: {error}",
              file=sys.stderr)
        return 2
    try:
        report = compare_snapshots(baseline, snapshot)
    except IncomparableSnapshots as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_table())
    code = report.exit_code(args.fail_on)
    if code:
        failing = report.gating_verdicts(args.fail_on)
        print(f"perf gate FAILED: {len(failing)} metric(s) at or above "
              f"--fail-on {args.fail_on}", file=sys.stderr)
    return code


def cmd_learn(args) -> int:
    from .learning import learn
    from .learning.serialize import save_rulebook

    result = learn()
    print(result.summary())
    for reason in result.rejected:
        print("  rejected:", reason)
    if args.save:
        save_rulebook(result.rulebook, args.save)
        print(f"rulebook saved to {args.save} "
              f"({len(result.rules)} rules)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="System-level rule-based DBT reproduction (CGO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads/engines/experiments")

    run_parser = sub.add_parser("run", help="run a named workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--engine", default="rules-full",
                            choices=ENGINE_SPECS)
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a Chrome trace JSON of the run")
    run_parser.add_argument("--check", action="store_true",
                            help="verify every rules-tier TB before it "
                                 "enters the code cache")

    exec_parser = sub.add_parser("exec", help="run a guest assembly file")
    exec_parser.add_argument("file")
    exec_parser.add_argument("--engine", default="rules-full",
                             choices=ENGINE_SPECS)
    exec_parser.add_argument("--trace", metavar="PATH", default=None,
                             help="write a Chrome trace JSON of the run")
    exec_parser.add_argument("--check", action="store_true",
                             help="verify every rules-tier TB before it "
                                  "enters the code cache")

    check_parser = sub.add_parser(
        "check", help="run the translation soundness checker")
    check_parser.add_argument("--all", action="store_true",
                              help="full matrix: representative workloads "
                                   "at every optimization level")
    check_parser.add_argument("--workload", action="append", default=[],
                              metavar="NAME",
                              help="check this workload (repeatable; "
                                   "overrides the default set)")
    check_parser.add_argument("--no-rules", action="store_true",
                              help="skip the symbolic rulebook phase")
    check_parser.add_argument("--profile", action="store_true",
                              help="attach profiler cost to findings")
    check_parser.add_argument("--format", choices=("table", "json"),
                              default="table")
    check_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the findings report JSON here")
    check_parser.add_argument("--fail-on", metavar="SEVERITY",
                              default="info",
                              help="exit 1 when any finding exceeds this "
                                   "severity (info/warning/error; "
                                   "default info)")

    profile_parser = sub.add_parser(
        "profile", help="profile a workload (hot TBs + cost breakdown)")
    profile_parser.add_argument("workload")
    profile_parser.add_argument("--engine", default="rules-full",
                                choices=ENGINE_SPECS)
    profile_parser.add_argument("--top", type=int, default=20,
                                help="rows in the hot-TB table")
    profile_parser.add_argument("--json", metavar="PATH", default=None,
                                help="profile JSON output path")
    profile_parser.add_argument("--trace", metavar="PATH", default=None,
                                help="Chrome trace JSON output path")

    validate_parser = sub.add_parser(
        "validate-trace",
        help="validate a Chrome trace JSON export")
    validate_parser.add_argument("file")

    compare_parser = sub.add_parser("compare",
                                    help="compare engines on a workload")
    compare_parser.add_argument("workload")

    bench_parser = sub.add_parser(
        "bench",
        help="run the benchmark suite (snapshot + regression gate), or "
             "print one paper figure")
    bench_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="print this experiment (or 'all') and exit; omit to run "
             "the suite")
    bench_parser.add_argument("--quick", action="store_true",
                              help="SPEC-sweep experiments only (skips "
                                   "ablation/fig19/footnote3)")
    bench_parser.add_argument("--workload", action="append", default=[],
                              metavar="NAME",
                              help="custom sweep over these workloads "
                                   "(repeatable; skips figure experiments)")
    bench_parser.add_argument("--out", metavar="PATH", default=None,
                              help="snapshot output path (default: next "
                                   "free BENCH_<n>.json in the repo root)")
    bench_parser.add_argument("--compare", metavar="BASELINE",
                              default=None,
                              help="compare against this baseline "
                                   "snapshot and gate")
    bench_parser.add_argument("--fail-on", metavar="LEVEL",
                              default="regressed",
                              help="gate level: regressed/changed/never "
                                   "(default regressed)")
    bench_parser.add_argument("--format", choices=("table", "json"),
                              default="table")
    bench_parser.add_argument("--export-results", action="store_true",
                              help="also write benchmarks/results/"
                                   "<name>.{txt,json} companions")

    learn_parser = sub.add_parser("learn", help="run the learning pipeline")
    learn_parser.add_argument("--save", metavar="PATH", default=None)

    args = parser.parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "exec": cmd_exec,
                "compare": cmd_compare, "bench": cmd_bench,
                "learn": cmd_learn,
                "profile": cmd_profile, "check": cmd_check,
                "validate-trace": cmd_validate_trace}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
