"""Namespaced ``Machine.stats()`` merging.

Historically ``Machine.stats()`` merged flat dicts from the machine,
the engine and the robustness layer with ``dict.update`` — a key
published by two producers (``watchdog_trips`` genuinely was, three
times) silently kept whichever writer ran last.  Stats now live in
namespaced groups and are merged through :func:`merge_stats`, which
raises on any collision instead of hiding it:

- ``engine.*``  — performance counters: guest/host instruction counts,
  cost-by-tag, translation statics, sync/coordination dynamics.
- ``robust.*``  — degradation ladder, quarantine, self-check, watchdog
  and fault-injection counters.
- ``io.*``      — device/IO time.
- ``trace.*``   — tracer bookkeeping (only present when tracing is on).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..common.errors import ReproError

#: The only legal top-level stat namespaces.
STAT_NAMESPACES: Tuple[str, ...] = ("engine", "robust", "io", "trace")


def merge_stats(groups: Mapping[str, Mapping[str, float]]) \
        -> Dict[str, float]:
    """Merge ``{namespace: {key: value}}`` into one flat dotted dict.

    Raises :class:`ReproError` for an unknown namespace, a key that
    already contains a dot (would fake a nested namespace), or a
    duplicate dotted key.
    """
    merged: Dict[str, float] = {}
    for namespace, group in groups.items():
        if namespace not in STAT_NAMESPACES:
            raise ReproError(
                f"unknown stats namespace {namespace!r} "
                f"(expected one of {', '.join(STAT_NAMESPACES)})")
        for key, value in group.items():
            if "." in key:
                raise ReproError(
                    f"stats key {key!r} in namespace {namespace!r} "
                    f"must not contain '.'")
            dotted = f"{namespace}.{key}"
            if dotted in merged:
                raise ReproError(f"duplicate stats key {dotted!r}")
            merged[dotted] = value
    return merged


def namespace_group(stats: Mapping[str, float], namespace: str) \
        -> Dict[str, float]:
    """Extract one namespace's keys from a merged dict, prefix stripped."""
    prefix = namespace + "."
    return {key[len(prefix):]: value for key, value in stats.items()
            if key.startswith(prefix)}
