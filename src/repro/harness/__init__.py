"""Experiment harness: runner, metrics, per-figure experiments."""

from .experiments import (ALL_EXPERIMENTS, ExperimentResult, PAPER,
                          REALWORLD_ORDER, RULE_LEVELS, SPEC_ORDER,
                          ablation, coordination_claims, fig8, fig14,
                          fig15, fig16, fig17, fig18, fig19, table1)
from .report import format_table, geomean, percent
from .runner import (ENGINE_SPECS, RunResult, clear_cache, make_machine,
                     run_cached, run_workload)

__all__ = [
    "ALL_EXPERIMENTS", "ENGINE_SPECS", "ExperimentResult", "PAPER",
    "REALWORLD_ORDER", "RULE_LEVELS", "RunResult", "SPEC_ORDER",
    "ablation", "clear_cache", "coordination_claims", "fig8", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "format_table",
    "geomean", "make_machine", "percent", "run_cached", "run_workload",
    "table1",
]
