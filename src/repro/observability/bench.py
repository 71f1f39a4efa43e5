"""Continuous-benchmarking orchestrator behind ``repro bench``.

:func:`run_suite` drives the paper experiments through the shared
sweep cache (:mod:`repro.harness.runner`), folds the sweep into
per-engine-tier totals, Sec III coordination breakdowns, sync-site
counters and rule-coverage fractions, and returns one schema-validated
snapshot dict (see :mod:`.baseline`) ready to be written as
``BENCH_<n>.json`` and gated by :mod:`.regress`.  Every value comes
from the deterministic cost model; wall-clock time is measured by the
separate ``wallbench/`` benchmark.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from .baseline import SCHEMA, SCHEMA_VERSION, fingerprint
from .profile import coordination_breakdown

# NOTE: the harness imports the machine, which imports this package's
# trace/stats submodules — so every harness import below is deferred
# into the function bodies to keep the package import acyclic.

#: Engine tiers whose totals every snapshot records (the sweep the
#: figure experiments already need, so tier totals cost zero extra runs).
TIER_ENGINES = ("tcg", "rules-base", "rules-reduction",
                "rules-elimination", "rules-full")

#: Experiments a ``--quick`` run keeps: everything computable from the
#: SPEC sweep alone (the cache makes them nearly free once the sweep
#: ran).  Skipped relative to full: fig19 (real-world workloads),
#: footnote3 (SPEC CFP analogs) and the ablation grid.
QUICK_EXPERIMENTS = ("coordination", "fig8", "fig14", "fig15", "fig16",
                     "fig17", "fig18", "table1")

FULL_EXPERIMENTS = QUICK_EXPERIMENTS + ("ablation", "fig19", "footnote3")

#: benchmarks/results file stem when it differs from the experiment id.
RESULT_NAMES = {"fig8": "fig08"}


def _sum_stat(runs: List[Any], key: str) -> float:
    return float(sum(run.stats.get(key, 0.0) for run in runs))


def run_suite(mode: str = "full",
              experiments: Optional[Tuple[str, ...]] = None,
              sweep_workloads: Optional[Tuple[str, ...]] = None,
              engines: Tuple[str, ...] = TIER_ENGINES,
              name: str = "bench",
              results_dir: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Run the benchmark suite and return one snapshot dict.

    *mode* is ``full`` / ``quick`` / ``custom``; ``custom`` (used with a
    *sweep_workloads* override) runs no figure experiments — they are
    hard-wired to the full SPEC analog set — and records only the
    tier/coordination/sync/coverage sections over the given workloads.
    When *results_dir* is set, each experiment's rendered table and
    metric payload are also written there (the
    ``benchmarks/results/<name>.{txt,json}`` companions).
    """
    from ..harness.experiments import ALL_EXPERIMENTS, SPEC_ORDER
    from ..harness.runner import run_cached
    from ..workloads import ALL_WORKLOADS

    if experiments is None:
        experiments = {"full": FULL_EXPERIMENTS,
                       "quick": QUICK_EXPERIMENTS}.get(mode, ())
    if sweep_workloads is None:
        sweep_workloads = tuple(SPEC_ORDER)
    unknown = [w for w in sweep_workloads if w not in ALL_WORKLOADS]
    if unknown:
        raise ValueError(f"unknown sweep workload(s): {unknown}")
    say = progress or (lambda _message: None)

    figures: Dict[str, Dict[str, Any]] = {}
    for experiment in experiments:
        say(f"experiment {experiment}")
        result = ALL_EXPERIMENTS[experiment]()
        figures[experiment] = {"rows": list(result.rows),
                               "summary": dict(result.summary)}
        if results_dir is not None:
            _export_result(results_dir,
                           RESULT_NAMES.get(experiment, experiment),
                           result)

    tiers: Dict[str, Dict[str, float]] = {}
    coordination: Dict[str, Dict[str, float]] = {}
    sync: Dict[str, Dict[str, float]] = {}
    coverage: Dict[str, Dict[str, float]] = {}
    for engine in engines:
        say(f"sweep {engine}")
        runs = [run_cached(ALL_WORKLOADS[w], engine)
                for w in sweep_workloads]
        tiers[engine] = {
            "guest_icount": float(sum(r.guest_icount for r in runs)),
            "host_instructions":
                float(sum(r.host_instructions for r in runs)),
            "host_cost": float(sum(r.host_cost for r in runs)),
            "io_cost": float(sum(r.io_cost for r in runs)),
            "runtime": float(sum(r.runtime for r in runs)),
            "translation_cost":
                _sum_stat(runs, "engine.translation_cost"),
        }
        tag_totals: Dict[str, float] = {}
        for run in runs:
            for key, value in run.stats.items():
                if key.startswith("engine.tag_"):
                    tag_totals[key] = tag_totals.get(key, 0.0) + value
        breakdown = coordination_breakdown(tag_totals)
        breakdown["total"] = sum(breakdown.values())
        coordination[engine] = breakdown
        if any("engine.sync_ops_dyn" in run.stats for run in runs):
            ops = _sum_stat(runs, "engine.sync_ops_dyn")
            insns = _sum_stat(runs, "engine.sync_insns_weighted")
            sync[engine] = {
                "sync_ops_dyn": ops,
                "sync_insns_weighted": insns,
                "insns_per_sync": insns / max(ops, 1.0),
                "sync_elisions_dyn":
                    _sum_stat(runs, "engine.sync_elisions_dyn"),
                "interrupt_checks_dyn":
                    _sum_stat(runs, "engine.interrupt_checks_dyn"),
            }
        if any("engine.rule_covered_insns_dyn" in run.stats
               for run in runs):
            covered = _sum_stat(runs, "engine.rule_covered_insns_dyn")
            uncovered = _sum_stat(runs,
                                  "engine.rule_uncovered_insns_dyn")
            coverage[engine] = {
                "covered_insns_dyn": covered,
                "uncovered_insns_dyn": uncovered,
                "covered_fraction":
                    covered / max(covered + uncovered, 1.0),
            }

    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "mode": mode,
        "figures": figures,
        "tiers": tiers,
        "coordination": coordination,
        "sync": sync,
        "coverage": coverage,
        "fingerprint": fingerprint(
            mode, tuple(sweep_workloads), tuple(engines),
            tuple(experiments)),
    }


def _export_result(results_dir: str, name: str, result: Any) -> None:
    """Write one experiment's ``<name>.txt`` / ``<name>.json`` pair,
    schema-checked by :func:`.baseline.validate_result_payload`."""
    import json

    from .baseline import validate_result_payload

    payload = {"name": name, "rows": list(result.rows),
               "summary": dict(result.summary)}
    problems = validate_result_payload(payload)
    if problems:
        raise ValueError(f"experiment {name!r} produced an invalid "
                         f"payload: " + "; ".join(problems))
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.txt"), "w") as handle:
        handle.write(result.text + "\n")
    with open(os.path.join(results_dir, f"{name}.json"), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Snapshot rendering (the ``repro bench --format table`` view).
# ---------------------------------------------------------------------------


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-readable summary of one snapshot."""
    from ..harness.report import format_table

    sections = []
    tiers = snapshot.get("tiers", {})
    rows = []
    for engine, totals in tiers.items():
        guest = max(totals.get("guest_icount", 0.0), 1.0)
        rows.append([engine, f"{totals.get('guest_icount', 0):.0f}",
                     f"{totals.get('host_cost', 0):.0f}",
                     f"{totals.get('io_cost', 0):.0f}",
                     f"{totals.get('host_cost', 0) / guest:.2f}"])
    sections.append(format_table(
        ["Engine", "Guest insns", "Host cost", "IO cost", "Cost/guest"],
        rows, title=f"benchmark snapshot '{snapshot.get('name')}' "
                    f"({snapshot.get('mode')} mode)"))

    coordination = snapshot.get("coordination", {})
    if coordination:
        categories = sorted({category for breakdown
                             in coordination.values()
                             for category in breakdown
                             if category != "total"})
        rows = [[engine] + [f"{breakdown.get(c, 0.0):.0f}"
                            for c in categories] +
                [f"{breakdown.get('total', 0.0):.0f}"]
                for engine, breakdown in coordination.items()]
        sections.append(format_table(
            ["Engine"] + categories + ["total"], rows,
            title="Sec III coordination-cost attribution "
                  "(sums exactly to host_cost)"))

    sync = snapshot.get("sync", {})
    if sync:
        rows = [[engine, f"{m['sync_ops_dyn']:.0f}",
                 f"{m['insns_per_sync']:.2f}",
                 f"{m['sync_elisions_dyn']:.0f}"]
                for engine, m in sync.items()]
        sections.append(format_table(
            ["Engine", "Sync ops (dyn)", "Insns/sync", "Elisions (dyn)"],
            rows, title="coordination sites (Fig 8 trajectory)"))

    coverage = snapshot.get("coverage", {})
    if coverage:
        rows = [[engine, f"{100 * m['covered_fraction']:.1f}%"]
                for engine, m in coverage.items()]
        sections.append(format_table(
            ["Engine", "Rule coverage (dyn)"], rows,
            title="learned-rule dynamic coverage"))

    figures = snapshot.get("figures", {})
    if figures:
        rows = []
        for figure, payload in sorted(figures.items()):
            for key, value in sorted(payload.get("summary", {}).items()):
                rows.append([f"{figure}.{key}", f"{value:.4g}"])
        sections.append(format_table(
            ["Figure metric", "Value"], rows,
            title="per-figure summary scalars"))

    return "\n\n".join(sections)
