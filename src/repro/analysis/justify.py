"""Audit-event and justification-record schema for translated TBs.

The translator does not apply eliminations blind: every optimization
decision leaves a machine-checkable record in ``tb.meta``.
Two kinds of record exist:

**Audit events** (``tb.meta["audit"]``) describe *what was emitted* —
flag sync-saves and restores (with their host instruction ranges and
mode), flag-producer bodies, and opaque fallback splices.  They let the
dataflow verifier anchor its abstract interpretation to the coordination
protocol without pattern-matching heuristically.

**Justification records** (``tb.meta["justifications"]``) describe *what
was deliberately NOT emitted*: an elided sync-save, or an inter-TB
chain edge whose end-of-block save was skipped.  Each carries the host
index and the claim that made the optimization legal; the checker
re-derives the claim independently and flags any record it cannot
reproduce.

Both lists hold plain dicts (JSON-friendly apart from instruction
references, which stay in-memory only).  Host instruction ranges are
half-open ``[start, end)`` indices into ``tb.code``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

AUDIT_KEY = "audit"
JUSTIFY_KEY = "justifications"

# Audit event kinds.
EV_SAVE = "save"            # flag sync-save range
EV_RESTORE = "restore"      # flag sync-restore range
EV_PRODUCE = "produce"      # guest flag-producer body range
EV_FALLBACK = "fallback"    # opaque TCG fallback splice range
EV_TERMINAL = "terminal"    # helper call that never returns to the TB

# Justification kinds.
J_ELIDE_SAVE = "elide-save"   # Sec III-C-2: consecutive-site save elision
J_INTER_TB = "inter-tb"       # Sec III-C-3: chain-edge save elision


def save_event(start: int, end: int, mode: str, reason: str) -> Dict[str, Any]:
    """A sync-save occupying host insns ``[start, end)``.

    ``mode`` is ``"packed"`` (one-word lazy save) or ``"parsed"``
    (per-bit fields).  ``reason`` names the emission site
    (``"clobber"``, ``"cond-join"``, ``"tb-end"``, ...).
    """
    return {"kind": EV_SAVE, "start": start, "end": end,
            "mode": mode, "reason": reason}


def restore_event(start: int, end: int, mode: str) -> Dict[str, Any]:
    return {"kind": EV_RESTORE, "start": start, "end": end, "mode": mode}


def produce_event(start: int, end: int, flags: int, live_after: int,
                  carry: Optional[str], partial: bool,
                  guest_addr: Optional[int]) -> Dict[str, Any]:
    """A guest flag-producer whose body occupies ``[start, end)``.

    ``flags`` is the NZCV mask the guest insn writes, ``live_after`` its
    flag liveness, ``carry`` the host carry convention afterwards
    (``"direct"`` / ``"inverted"`` / None when only N/Z change).
    """
    return {"kind": EV_PRODUCE, "start": start, "end": end,
            "flags": flags, "live_after": live_after, "carry": carry,
            "partial": partial, "guest_addr": guest_addr}


def fallback_event(start: int, end: int, reads: int, writes: int,
                   ended: bool) -> Dict[str, Any]:
    """An opaque spliced-TCG range with declared flag effect.

    ``ended`` marks splices that terminate the TB (every exit is inside
    the range, so control never falls out of its end).
    """
    return {"kind": EV_FALLBACK, "start": start, "end": end,
            "reads": reads, "writes": writes, "ended": ended}


def terminal_event(index: int) -> Dict[str, Any]:
    """The ``call`` at host index *index* never returns to this TB
    (SVC / exception-return helpers unwind into the cpu_exec loop)."""
    return {"kind": EV_TERMINAL, "start": index, "end": index + 1}


def elide_save_justification(index: int, packed_ok: bool,
                             parsed_ok: bool) -> Dict[str, Any]:
    """Claim: at host index *index* a save was skipped because env
    already held a current copy of the flags."""
    return {"kind": J_ELIDE_SAVE, "index": index,
            "packed_ok": packed_ok, "parsed_ok": parsed_ok}


def inter_tb_justification(index: int, target_pc: int,
                           live_in: int) -> Dict[str, Any]:
    """Claim: the chain edge at host index *index* targets a successor
    whose live-in flag requirement is *live_in* (must be 0)."""
    return {"kind": J_INTER_TB, "index": index,
            "target_pc": target_pc, "live_in": live_in}


def audit_of(meta: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(meta.get(AUDIT_KEY) or ())


def justifications_of(meta: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(meta.get(JUSTIFY_KEY) or ())
