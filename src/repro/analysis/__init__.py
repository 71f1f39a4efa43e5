"""Static soundness verification of the rule-based translator.

Two verifiers over one findings vocabulary (:mod:`.findings`):

- :mod:`.dataflow` — abstract interpretation over emitted host code,
  proving every QEMU handoff site sees a coordinated ``env`` and every
  elided sync is justified (paper Sec III-C);
- :mod:`.rulecheck` — bounded symbolic (BDD bit-blasting,
  :mod:`.bitblast`) classification of learned rules as
  ``proved`` / ``tested-only`` / ``refuted``.

:mod:`.checker` orchestrates them behind ``repro check`` and the
``--check`` (verify-before-enter) engine mode; :mod:`.justify` defines
the audit-event / justification-record schema the translator emits.

This ``__init__`` stays import-light on purpose: ``repro.core`` emits
justification records through :mod:`.justify`, so eagerly importing the
checker (which imports ``repro.core`` back) here would create an import
cycle.  The heavyweight entry points load lazily via ``__getattr__``.
"""

from .findings import Finding, Report, Severity, severity_from_name

__all__ = [
    "Finding", "Report", "Severity", "severity_from_name",
    "check_tb", "run_check", "classify_candidate",
]

_LAZY = {
    "check_tb": ("repro.analysis.dataflow", "check_tb"),
    "run_check": ("repro.analysis.checker", "run_check"),
    "classify_candidate": ("repro.analysis.rulecheck",
                           "classify_candidate"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)
