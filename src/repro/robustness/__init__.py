"""Robustness subsystem: the degradation ladder and watchdogs.

Two cooperating pieces (see ``docs/internals.md``):

- :mod:`repro.robustness.degrade` — the tiered degradation ladder
  (rules -> tcg -> interp) with rule quarantine and the online
  differential self-check;
- :mod:`repro.robustness.guard` — the execution watchdog and the shared
  halt fast-forward.
"""

from .degrade import DegradationController, SelfCheck, tb_selfcheckable
from .guard import ExecutionWatchdog, fast_forward_halt

__all__ = [
    "DegradationController", "ExecutionWatchdog", "SelfCheck",
    "fast_forward_halt", "tb_selfcheckable",
]
