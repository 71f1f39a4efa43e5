"""Canonical benchmark-snapshot format (``BENCH_<n>.json``).

A *snapshot* is one point on the reproduction's benchmark trajectory:
the per-figure metric rows and summaries, per-engine-tier host-cost
totals, the profiler's coordination breakdown folded to the paper's
Sec III categories, dynamic rule coverage, and an
environment/configuration fingerprint.  Snapshots are
written to the repo root as ``BENCH_0.json``, ``BENCH_1.json``, ... and
compared by :mod:`repro.observability.regress`; the committed
``BENCH_0.json`` is the regression-gate baseline CI compares against.

Everything in a snapshot is produced by the deterministic cost model,
so two snapshots of the same tree must match *exactly*; the comparator
gates them with equality.  Wall-clock time is measured by
``wallbench/``, not here.

This module also owns the schema of the per-experiment result payloads
``benchmarks/results/<name>.json`` (written by ``repro bench
--export-results``), so an experiment can never persist an empty or
non-numeric document.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from typing import Any, Dict, Iterator, List, Tuple

SCHEMA = "repro-bench-snapshot"
SCHEMA_VERSION = 1

#: Snapshot filename stem at the repo root.
SNAPSHOT_STEM = "BENCH_"

#: Metric direction: is a larger value better, worse, or neither?
UP, DOWN, NEUTRAL = "up", "down", "neutral"

#: Gate semantics of each figure-summary scalar.  ``*`` is the figure's
#: default; anything not listed is ``neutral`` (a change is reported but
#: only gated under ``--fail-on changed``).
SUMMARY_DIRECTIONS: Dict[str, Dict[str, str]] = {
    "table1": {"*": NEUTRAL},
    "fig8": {"parsed_insns_per_sync": DOWN, "packed_insns_per_sync": DOWN,
             "saving_pct": UP},
    "fig14": {"*": UP},
    "fig15": {"qemu": NEUTRAL, "rules_full": DOWN, "reduction_pct": UP},
    "fig16": {"*": UP},
    "fig17": {"*": DOWN},
    "fig18": {"qemu_geomean": NEUTRAL, "rules_geomean": DOWN},
    "fig19": {"*": UP},
    "coordination": {"sites_pct": NEUTRAL, "base_coordination_pct": DOWN,
                     "full_coordination_pct": DOWN},
    "footnote3": {"*": UP},
    "ablation": {"*": UP},
}

#: Per-engine-tier total directions (``tiers.<engine>.<key>``).
TIER_DIRECTIONS = {
    "host_cost": DOWN,
    "host_instructions": DOWN,
    "runtime": DOWN,
    "io_cost": NEUTRAL,
    "guest_icount": NEUTRAL,   # guest work is deterministic: any change
                               # is a behavioural change, not a speedup
    "translation_cost": DOWN,
}

#: ``sync.<engine>.<key>`` directions (the Fig 8 / Fig 17 site counters).
SYNC_DIRECTIONS = {
    "sync_ops_dyn": DOWN,
    "sync_insns_weighted": DOWN,
    "insns_per_sync": DOWN,
    "sync_elisions_dyn": UP,
    "interrupt_checks_dyn": DOWN,
}

#: ``coverage.<engine>.<key>`` directions (learned-rule coverage).
COVERAGE_DIRECTIONS = {
    "covered_fraction": UP,
    "covered_insns_dyn": UP,
    "uncovered_insns_dyn": DOWN,
}


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


# ---------------------------------------------------------------------------
# Per-experiment result payloads (benchmarks/results/<name>.json).
# ---------------------------------------------------------------------------

_ROW_SCALARS = (str, int, float, bool)


def validate_result_payload(payload: Any) -> List[str]:
    """Schema-check one ``benchmarks/results/<name>.json`` document.

    Returns human-readable problems (empty = valid): a string ``name``,
    ``rows`` as a list of flat dicts with scalar values, and a
    ``summary`` dict of finite numbers with at least one entry — an
    all-empty payload is exactly the silent failure mode this guards
    against.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        problems.append("missing string 'name'")
    rows = payload.get("rows")
    if not isinstance(rows, list):
        problems.append("'rows' must be a list")
        rows = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"rows[{index}]: not an object")
            continue
        for key, value in row.items():
            if not isinstance(value, _ROW_SCALARS) or (
                    isinstance(value, float) and not math.isfinite(value)):
                problems.append(f"rows[{index}].{key}: non-scalar or "
                                f"non-finite value {value!r}")
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        problems.append("'summary' must be an object")
        summary = {}
    for key, value in summary.items():
        if not _is_finite_number(value):
            problems.append(f"summary.{key}: not a finite number "
                            f"({value!r})")
    if not summary and not rows:
        problems.append("both 'rows' and 'summary' are empty")
    return problems


# ---------------------------------------------------------------------------
# Snapshot construction helpers.
# ---------------------------------------------------------------------------


def fingerprint(mode: str, sweep_workloads: Tuple[str, ...],
                engines: Tuple[str, ...], experiments: Tuple[str, ...],
                rulebook: str = "mature") -> Dict[str, Any]:
    """The snapshot's environment/configuration identity.

    The deterministic keys (``sweep_workloads``/``engines``) decide whether two snapshots are comparable at all; the rest
    (python/platform) is informational.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "platform": sys.platform,
        "sweep_workloads": list(sweep_workloads),
        "engines": list(engines),
        "experiments": list(experiments),
        "rulebook": rulebook,
    }


def next_snapshot_path(directory: str = ".") -> str:
    """First free ``BENCH_<n>.json`` path under *directory*."""
    n = 0
    while os.path.exists(os.path.join(directory,
                                      f"{SNAPSHOT_STEM}{n}.json")):
        n += 1
    return os.path.join(directory, f"{SNAPSHOT_STEM}{n}.json")


def write_snapshot(path: str, snapshot: Dict[str, Any]) -> str:
    """Validate and serialize *snapshot*; raises ``ValueError`` on a
    schema violation so an invalid trajectory point is never committed."""
    problems = validate_snapshot(snapshot)
    if problems:
        raise ValueError("refusing to write schema-invalid snapshot: " +
                         "; ".join(problems))
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot; raises ``ValueError`` on problems."""
    with open(path) as handle:
        snapshot = json.load(handle)
    problems = validate_snapshot(snapshot)
    if problems:
        raise ValueError(f"{path}: invalid snapshot: " +
                         "; ".join(problems))
    return snapshot


# ---------------------------------------------------------------------------
# Snapshot validation.
# ---------------------------------------------------------------------------


def validate_snapshot(snapshot: Any) -> List[str]:
    """Schema-check a snapshot; returns problems (empty = valid).

    Beyond structure this enforces the accounting invariant the whole
    Sec III attribution rests on: for every engine tier, the
    coordination-category costs sum *exactly* to that tier's total
    ``host_cost``.
    """
    if not isinstance(snapshot, dict):
        return [f"snapshot must be an object, got "
                f"{type(snapshot).__name__}"]
    problems: List[str] = []
    if snapshot.get("schema") != SCHEMA:
        problems.append(f"'schema' must be {SCHEMA!r}")
    if snapshot.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"'schema_version' must be {SCHEMA_VERSION}")
    figures = snapshot.get("figures")
    if not isinstance(figures, dict):
        problems.append("'figures' must be an object")
        figures = {}
    for name, payload in figures.items():
        for problem in validate_result_payload(
                {"name": name, **payload} if isinstance(payload, dict)
                else payload):
            problems.append(f"figures.{name}: {problem}")
    tiers = snapshot.get("tiers")
    if not isinstance(tiers, dict) or not tiers:
        problems.append("'tiers' must be a non-empty object")
        tiers = {}
    for engine, totals in tiers.items():
        if not isinstance(totals, dict):
            problems.append(f"tiers.{engine}: not an object")
            continue
        for key, value in totals.items():
            if not _is_finite_number(value):
                problems.append(f"tiers.{engine}.{key}: not a finite "
                                f"number ({value!r})")
    coordination = snapshot.get("coordination")
    if not isinstance(coordination, dict):
        problems.append("'coordination' must be an object")
        coordination = {}
    for engine, breakdown in coordination.items():
        if not isinstance(breakdown, dict):
            problems.append(f"coordination.{engine}: not an object")
            continue
        bad = [key for key, value in breakdown.items()
               if not _is_finite_number(value)]
        if bad:
            problems.append(f"coordination.{engine}: non-finite "
                            f"categories {bad}")
            continue
        total = breakdown.get("total")
        if total is None:
            problems.append(f"coordination.{engine}: missing 'total'")
            continue
        category_sum = sum(value for key, value in breakdown.items()
                           if key != "total")
        if abs(category_sum - total) > 1e-6 * max(1.0, abs(total)):
            problems.append(
                f"coordination.{engine}: categories sum to "
                f"{category_sum} but total is {total}")
        host_cost = (tiers.get(engine) or {}).get("host_cost") \
            if isinstance(tiers.get(engine), dict) else None
        if _is_finite_number(host_cost) and \
                abs(total - host_cost) > 1e-6 * max(1.0, abs(host_cost)):
            problems.append(
                f"coordination.{engine}: total {total} != "
                f"tiers.{engine}.host_cost {host_cost}")
    for section in ("sync", "coverage"):
        table = snapshot.get(section, {})
        if not isinstance(table, dict):
            problems.append(f"'{section}' must be an object")
            continue
        for engine, metrics in table.items():
            if not isinstance(metrics, dict):
                problems.append(f"{section}.{engine}: not an object")
                continue
            for key, value in metrics.items():
                if not _is_finite_number(value):
                    problems.append(f"{section}.{engine}.{key}: not a "
                                    f"finite number ({value!r})")
    if not isinstance(snapshot.get("fingerprint"), dict):
        problems.append("'fingerprint' must be an object")
    return problems


# ---------------------------------------------------------------------------
# Metric enumeration (the comparator's view of a snapshot).
# ---------------------------------------------------------------------------


def summary_direction(figure: str, key: str) -> str:
    table = SUMMARY_DIRECTIONS.get(figure, {})
    return table.get(key, table.get("*", NEUTRAL))


def iter_metrics(snapshot: Dict[str, Any]) -> Iterator[
        Tuple[str, Any, str]]:
    """Yield ``(metric_id, value, direction)`` for every gated scalar.

    Metric ids are dotted paths (``figures.fig8.summary.saving_pct``,
    ``tiers.rules-full.host_cost``, ``coordination.rules-full.sync``),
    stable across snapshots so the comparator can align them.  Figure
    *rows* are informational detail and deliberately not enumerated.
    """
    for figure, payload in sorted(snapshot.get("figures", {}).items()):
        summary = payload.get("summary", {}) \
            if isinstance(payload, dict) else {}
        for key, value in sorted(summary.items()):
            yield (f"figures.{figure}.summary.{key}", value,
                   summary_direction(figure, key))
    for engine, totals in sorted(snapshot.get("tiers", {}).items()):
        if not isinstance(totals, dict):
            continue
        for key, value in sorted(totals.items()):
            yield (f"tiers.{engine}.{key}", value,
                   TIER_DIRECTIONS.get(key, NEUTRAL))
    for engine, breakdown in sorted(snapshot.get("coordination",
                                                 {}).items()):
        if not isinstance(breakdown, dict):
            continue
        for key, value in sorted(breakdown.items()):
            yield (f"coordination.{engine}.{key}", value, DOWN)
    for engine, metrics in sorted(snapshot.get("sync", {}).items()):
        if not isinstance(metrics, dict):
            continue
        for key, value in sorted(metrics.items()):
            yield (f"sync.{engine}.{key}", value,
                   SYNC_DIRECTIONS.get(key, NEUTRAL))
    for engine, metrics in sorted(snapshot.get("coverage", {}).items()):
        if not isinstance(metrics, dict):
            continue
        for key, value in sorted(metrics.items()):
            yield (f"coverage.{engine}.{key}", value,
                   COVERAGE_DIRECTIONS.get(key, NEUTRAL))
