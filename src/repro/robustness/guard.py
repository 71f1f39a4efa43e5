"""Execution watchdog and the shared halt fast-forward.

Two hang classes are converted into structured errors:

- **runaway TBs**: :class:`ExecutionWatchdog` bounds host instructions
  per :meth:`HostInterpreter.execute` call; tripping raises
  :class:`~repro.common.errors.WatchdogTimeout`, which the engine
  propagates with the TB's pc attached;
- **wakeup deadlocks**: :func:`fast_forward_halt` is the single shared
  halt fast-forward (both the interpreter engine and the DBT engines
  call it) and raises :class:`~repro.common.errors.WakeupDeadlock` with
  the timer/interrupt-controller state when a halted guest can never
  wake.
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import WakeupDeadlock
from ..host.interp import DEFAULT_MAX_HOST_INSNS

#: Halt fast-forward iterations before declaring a wakeup deadlock.  Each
#: iteration advances guest time by at least one timer period, so any
#: functioning wakeup source fires on the first few iterations.
MAX_HALT_ITERATIONS = 1_000_000


class ExecutionWatchdog:
    """Bounds on host work per engine step, shared by all engines."""

    def __init__(self, max_host_insns: int = DEFAULT_MAX_HOST_INSNS,
                 max_halt_iterations: int = MAX_HALT_ITERATIONS):
        self.max_host_insns = max_host_insns
        self.max_halt_iterations = max_halt_iterations
        self.trips = 0


def fast_forward_halt(machine, awake: Callable[[], bool]) -> None:
    """Advance guest time until *awake()* — the one shared wfi skipper.

    Raises :class:`WakeupDeadlock` (with timer/IRQ state and machine
    diagnostics) instead of a bare ``ReproError`` when no wakeup source
    exists or the wait cannot terminate.
    """
    timer = machine.timer
    watchdog = getattr(machine, "watchdog", None)
    limit = watchdog.max_halt_iterations if watchdog is not None \
        else MAX_HALT_ITERATIONS

    def deadlock(reason: str) -> WakeupDeadlock:
        error = WakeupDeadlock(
            reason, timer_enabled=timer.enabled, timer_reload=timer.reload,
            timer_value=timer.value, irq_line=machine.cpu.irq_line,
            intc_pending=machine.intc.pending,
            intc_enabled=machine.intc.enabled)
        return error.attach_context(machine.diag_context(phase="wfi"))

    if not timer.enabled or timer.reload == 0:
        raise deadlock("guest halted with no wakeup source (wfi)")
    iterations = 0
    while not awake():
        machine.advance_time(max(timer.value, 1))
        iterations += 1
        if not machine.cpu.irq_line and not timer.enabled:
            raise deadlock("halted guest cannot wake up (timer disabled "
                           "while waiting)")
        if iterations > limit:
            raise deadlock(f"halted guest did not wake within {limit} "
                           f"timer periods")
