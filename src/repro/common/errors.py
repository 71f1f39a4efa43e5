"""Exception hierarchy for the whole reproduction stack."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class DiagContext:
    """Machine-state snapshot attached to errors for actionable reports.

    Built by :meth:`repro.miniqemu.machine.Machine.diag_context` at raise
    time; every field is optional so partially-initialized machines can
    still attach what they know.  When tracing is enabled, ``trace``
    carries the last few probe events (the flight recorder) so
    robustness failures ship with the execution history that led there.
    """

    guest_pc: Optional[int] = None
    mode: Optional[int] = None
    icount: Optional[int] = None
    engine: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)
    trace: Tuple = ()

    def __str__(self) -> str:
        parts = []
        if self.guest_pc is not None:
            parts.append(f"pc=0x{self.guest_pc:08x}")
        if self.mode is not None:
            parts.append(f"mode=0x{self.mode:02x}")
        if self.icount is not None:
            parts.append(f"icount={self.icount}")
        if self.engine is not None:
            parts.append(f"engine={self.engine}")
        parts.extend(f"{key}={value}" for key, value in self.extra.items())
        if self.trace:
            parts.append(f"trace[{len(self.trace)}]="
                         + "; ".join(str(event) for event in self.trace))
        return " ".join(parts)


class ReproError(Exception):
    """Base class for every error raised by this library.

    Errors can carry an optional :class:`DiagContext` describing the
    machine state at raise time; :meth:`attach_context` is chainable so
    raise sites read ``raise Error(...).attach_context(ctx)``.
    """

    context: Optional[DiagContext] = None

    def attach_context(self, context: Optional[DiagContext]) -> "ReproError":
        if context is not None and self.context is None:
            self.context = context
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if self.context is not None:
            return f"{base} [{self.context}]"
        return base


class AssemblerError(ReproError):
    """Raised for malformed guest assembly source."""

    def __init__(self, message: str, line: int = 0, source: str = ""):
        self.line = line
        self.source = source
        location = f" (line {line}: {source!r})" if line else ""
        super().__init__(message + location)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded to machine code."""


class DecodingError(ReproError):
    """Raised when a machine word does not decode to a known instruction."""

    def __init__(self, word: int, address: int = 0):
        self.word = word
        self.address = address
        super().__init__(f"cannot decode word 0x{word:08x} at 0x{address:08x}")


class GuestFault(ReproError):
    """Base class for synchronous guest CPU exceptions."""


class UndefinedInstruction(GuestFault):
    """Guest executed an instruction the CPU model does not implement."""


class MemoryFault(GuestFault):
    """A guest memory access failed address translation or permissions.

    Carries the faulting virtual address and whether it was a write so the
    guest kernel's abort handler (and the softmmu slow path) can act on it.
    """

    def __init__(self, vaddr: int, is_write: bool, reason: str = "translation"):
        self.vaddr = vaddr
        self.is_write = is_write
        self.reason = reason
        kind = "write" if is_write else "read"
        super().__init__(f"{reason} fault on {kind} at 0x{vaddr:08x}")


class BusError(ReproError):
    """A physical access hit an unmapped region of the machine's memory map."""

    def __init__(self, paddr: int):
        self.paddr = paddr
        super().__init__(f"bus error at physical address 0x{paddr:08x}")


class HostExecutionError(ReproError):
    """The host-code interpreter hit an invalid state (a codegen bug)."""


class TranslationError(ReproError):
    """The DBT failed to translate a guest basic block."""


class RuleVerificationError(ReproError):
    """Symbolic verification rejected a candidate translation rule."""


class WatchdogTimeout(ReproError):
    """The execution watchdog stopped a runaway TB (bounded host insns).

    The engine propagates it with the TB's pc attached.
    """

    def __init__(self, executed: int, limit: int, tb_pc: Optional[int] = None):
        self.executed = executed
        self.limit = limit
        self.tb_pc = tb_pc
        where = f" in TB 0x{tb_pc:08x}" if tb_pc is not None else ""
        super().__init__(
            f"watchdog: {executed} host instructions{where} "
            f"exceeded the per-execute bound of {limit}")


class WakeupDeadlock(ReproError):
    """A halted guest (wfi) has no wakeup source: a hang, made structured.

    Carries the timer and interrupt-controller state so the report shows
    *why* no interrupt can ever arrive.
    """

    def __init__(self, reason: str, timer_enabled: bool = False,
                 timer_reload: int = 0, timer_value: int = 0,
                 irq_line: bool = False, intc_pending: int = 0,
                 intc_enabled: int = 0):
        self.reason = reason
        self.timer_enabled = timer_enabled
        self.timer_reload = timer_reload
        self.timer_value = timer_value
        self.irq_line = irq_line
        self.intc_pending = intc_pending
        self.intc_enabled = intc_enabled
        super().__init__(
            f"wakeup deadlock: {reason} (timer enabled={timer_enabled} "
            f"reload={timer_reload} value={timer_value} irq_line={irq_line} "
            f"intc pending=0x{intc_pending:x} enabled=0x{intc_enabled:x})")


class GuestHalt(ReproError):
    """The guest OS requested shutdown (not an error; unwinds the run loop)."""

    def __init__(self, exit_code: int = 0):
        self.exit_code = exit_code
        super().__init__(f"guest halted with exit code {exit_code}")
