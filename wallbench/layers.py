"""Per-layer wall-clock spans, recorded from outside the program.

:class:`LayerTracer` wraps the public entry point of each layer of the
DBT (the table :data:`BOUNDARIES`) for the duration of a ``with`` block
and accumulates, per ``(layer, engine)``, the number of calls and the
*self time*: a span's duration minus the spans nested inside it.  The
benchmark opens one root span (:data:`ROOT`) per traced program run, so
the self times of all spans, the root included, add up to the traced
run time; the root's self time is the part no named layer covers.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: The root span around one machine's set-up and run.
ROOT = "bench.run"

#: (layer, module, class or None for a module-level function, attribute).
#: ``guest.asm`` is patched where the runner looks the assembler up.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("host.execute", "repro.host.interp", "HostInterpreter", "execute"),
    ("core.translate_rules", "repro.core.engine", "RuleEngine",
     "translate_rules"),
    ("core.fallback", "repro.core.engine", "RuleEngine", "tcg_fallback"),
    ("core.succ_live_in", "repro.core.engine", "RuleEngine",
     "successor_live_in"),
    ("miniqemu.translate_tcg", "repro.miniqemu.machine", "DbtEngineBase",
     "translate_tcg"),
    ("guest.fetch_decode", "repro.miniqemu.machine", "DbtEngineBase",
     "fetch_block"),
    ("guest.interp", "repro.miniqemu.machine", "InterpEngine", "run"),
    ("miniqemu.cpu_exec", "repro.miniqemu.machine", "DbtEngineBase", "run"),
    ("miniqemu.helpers.slow_path", "repro.miniqemu.helpers", "QemuRuntime",
     "memory_access"),
    ("miniqemu.helpers.exception", "repro.miniqemu.helpers", "QemuRuntime",
     "deliver_exception"),
    ("miniqemu.helpers.flag_parse", "repro.miniqemu.helpers", "QemuRuntime",
     "materialize_flags"),
    ("softmmu.page_walk", "repro.softmmu.pagetable", "PageWalker", "walk"),
    ("devices.mmio", "repro.softmmu.memory", "MmioRegion", "read"),
    ("devices.mmio", "repro.softmmu.memory", "MmioRegion", "write"),
    ("devices.advance_time", "repro.miniqemu.machine", "Machine",
     "advance_time"),
    ("guest.asm", "repro.harness.runner", None, "build_kernel"),
    ("guest.asm", "repro.harness.runner", None, "build_user_program"),
)

#: Layers whose per-call durations are kept for percentiles.
_KEEP_DURATIONS = frozenset({"core.translate_rules",
                             "miniqemu.translate_tcg"})


class MissingBoundary(RuntimeError):
    """A wrapped layer entry point no longer exists in the program."""


def _resolve(module: str, owner: Optional[str], attr: str):
    """The object that holds *attr*, checked to hold a callable."""
    where = f"{module}.{owner + '.' if owner else ''}{attr}"
    try:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        target = holder.__dict__[attr] if owner is not None \
            else getattr(holder, attr)
    except (ImportError, AttributeError, KeyError):
        raise MissingBoundary(f"layer boundary {where} is missing") from None
    if not callable(target):
        raise MissingBoundary(f"layer boundary {where} is not callable")
    return holder, target


class LayerTracer:
    """Counts calls and self time per (layer, engine) while installed."""

    def __init__(self):
        self.engine = ""
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.durations: Dict[Tuple[str, str], List[float]] = \
            defaultdict(list)
        # One entry per open span: the time its children have covered.
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def span(self, layer: str, fn: Callable, /, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named *layer*."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            children = self._stack.pop()
            key = (layer, self.engine)
            self.calls[key] += 1
            self.self_s[key] += duration - children
            self.total_s[key] += duration
            if self._stack:
                self._stack[-1] += duration
            if layer in _KEEP_DURATIONS:
                self.durations[key].append(duration)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        resolved = [(layer, attr) + _resolve(module, owner, attr)
                    for layer, module, owner, attr in BOUNDARIES]
        for layer, attr, holder, target in resolved:
            self._saved.append((holder, attr, target))
            setattr(holder, attr, self._wrap(layer, target))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            holder, attr, target = self._saved.pop()
            setattr(holder, attr, target)

    # -- results ---------------------------------------------------------

    def total(self, layer: str, engine: Optional[str] = None,
              field: str = "self_s") -> float:
        """Sum of *field* (``self_s``, ``total_s`` or ``calls``) over
        one layer, for one engine or all of them."""
        table = getattr(self, field)
        return sum(value for (name, eng), value in table.items()
                   if name == layer and engine in (None, eng))
