"""Orchestration behind ``repro check``: rules phase + TB phase.

The checker has two halves, both reporting into one :class:`Report`:

**Rules phase** (:func:`check_rulebook`): run the learning pipeline,
re-verify every rulebook entry with the bounded symbolic classifier
(:mod:`.rulecheck`), and report every entry that is not ``proved``.  A
``refuted`` entry is an ERROR and — when a quarantine is supplied — is
auto-quarantined through the PR 1 degradation ladder, exactly as a
crashing rule would be at runtime.

**TB phase** (:func:`check_workloads`): boot a machine per (workload,
engine) pair, run the workload so the code cache fills with the real TB
population, then run the dataflow verifier (:mod:`.dataflow`) over every
rules-tier block.  When profiling is enabled each finding carries the
profiler-attributed cost of its TB, so findings sort by how much of the
run they taint.

A clean tree is expected to produce an empty TB-phase report: every
deliberate imprecision is waived inside the dataflow checker.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .dataflow import check_tb
from .findings import Finding, Report, Severity
from .rulecheck import (CLASS_PROVED, CLASS_REFUTED, CLASS_TESTED,
                        classify_candidates, quarantine_refuted,
                        rule_findings)

#: Default TB-phase matrix: one CPU-bound workload at the two extreme
#: optimization levels (base = parsed sync only, full = everything on).
DEFAULT_WORKLOADS = ("cpu-prime",)
DEFAULT_ENGINES = ("rules-base", "rules-full")

#: The ``--all`` matrix: representative workloads covering ALU, memory,
#: VFP, block I/O and network paths, at every optimization level.
ALL_CHECK_WORKLOADS = ("cpu-prime", "fileio", "fppoly", "untar",
                       "memcached")
ALL_CHECK_ENGINES = ("rules-base", "rules-reduction", "rules-elimination",
                     "rules-full")


def check_rulebook(report: Report, budget: int = 250_000,
                   quarantine=None, extra_candidates=()) -> None:
    """Classify every learned rule; report non-proved entries.

    *extra_candidates* lets tests smuggle in deliberately-broken
    fixtures (see :func:`.rulecheck.refutable_fixture`); they are
    classified and quarantined like real candidates but do not join the
    rulebook counts.
    """
    from ..learning import learn

    result = learn()
    candidates = list(result.verified_candidates) + list(extra_candidates)
    by_candidate = classify_candidates(candidates, budget=budget)
    report.extend(rule_findings(result.rules, by_candidate))
    counts = {CLASS_PROVED: 0, CLASS_TESTED: 0, CLASS_REFUTED: 0}
    for verdict in by_candidate.values():
        counts[verdict.classification] += 1
    report.meta["rules"] = len(result.rules)
    report.meta["candidates_proved"] = counts[CLASS_PROVED]
    report.meta["candidates_tested_only"] = counts[CLASS_TESTED]
    report.meta["candidates_refuted"] = counts[CLASS_REFUTED]
    if quarantine is not None:
        keys = quarantine_refuted(candidates, by_candidate, quarantine)
        if keys:
            report.meta["rules_quarantined"] = ",".join(keys)
    for candidate in extra_candidates:
        from .rulecheck import candidate_id
        verdict = by_candidate[candidate_id(candidate)]
        if verdict.refuted:
            witness = {k: f"0x{v:x}" if isinstance(v, int) else v
                       for k, v in (verdict.witness or {}).items()}
            report.findings.append(Finding(
                severity=Severity.ERROR, code="rule-refuted",
                message=f"fixture rule refuted: {verdict.reason}",
                rule=candidate_id(candidate), witness=witness or None))


def check_machine_tbs(machine, report: Report) -> int:
    """Dataflow-check every rules-tier TB in *machine*'s code cache.

    Returns the number of TBs checked.
    """
    engine = machine.engine
    profiler = machine.profiler
    checked = 0
    for tb in engine.cache.all_tbs():
        if tb.meta.get("tier") != "rules":
            continue
        checked += 1
        findings = check_tb(tb, engine.config,
                            live_in_of=engine.successor_live_in)
        if profiler is not None and findings:
            cost = sum(profiler.tags_for((tb.pc, tb.mmu_idx)).values())
            for finding in findings:
                finding.cost = cost
        report.extend(findings)
    return checked


def check_workloads(report: Report,
                    workloads: Iterable[str] = DEFAULT_WORKLOADS,
                    engines: Iterable[str] = DEFAULT_ENGINES,
                    profile: bool = False) -> None:
    """Run each (workload, engine) pair and check the resulting TBs."""
    from ..harness.runner import make_machine
    from ..observability import Profiler
    from ..workloads import ALL_WORKLOADS

    total_tbs = 0
    pairs = 0
    for name in workloads:
        workload = ALL_WORKLOADS[name]
        for engine in engines:
            profiler = Profiler() if profile else None
            machine = make_machine(workload, engine, profiler=profiler)
            machine.run(workload.max_insns)
            total_tbs += check_machine_tbs(machine, report)
            pairs += 1
    report.meta["tbs_checked"] = total_tbs
    report.meta["runs"] = pairs


def run_check(workloads: Iterable[str] = DEFAULT_WORKLOADS,
              engines: Iterable[str] = DEFAULT_ENGINES,
              rules: bool = True, budget: int = 250_000,
              profile: bool = False, quarantine=None) -> Report:
    """The full ``repro check`` pipeline; returns the aggregate report."""
    report = Report()
    if rules:
        check_rulebook(report, budget=budget, quarantine=quarantine)
    check_workloads(report, workloads=workloads, engines=engines,
                    profile=profile)
    return report
