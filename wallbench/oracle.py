"""The correctness oracle: every engine must behave like ``interp``.

An :class:`Observation` is what a guest program run shows the outside
world: the UART text, the exit code, the packets the NIC sent and a
digest of the block-device image.  A run is correct when its
observation equals the ``interp`` engine's run of the same program and,
where the program has an ``expected_output``, its UART text equals it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Observation:
    output: str
    exit_code: Optional[int]
    tx_packets: Tuple[bytes, ...]
    disk_sha256: str
    #: ``Type: message`` of an exception the run raised, or "".
    error: str = ""


def observe(machine, exit_code: Optional[int], error: str = "") -> \
        Observation:
    return Observation(
        output=machine.uart.text,
        exit_code=exit_code,
        tx_packets=tuple(machine.nic.tx_packets),
        disk_sha256=hashlib.sha256(machine.blockdev.image).hexdigest(),
        error=error)


def mismatches(run: Observation, reference: Observation,
               expected_output: Optional[str] = None) -> List[str]:
    """Why *run* is wrong, as a list of reasons; empty when correct.

    *reference* is the ``interp`` run of the same program.  A run that
    raised or exited non-zero is wrong even when the reference did the
    same.
    """
    reasons = [f"differs from interp in {field.name}"
               for field in fields(Observation)
               if getattr(run, field.name) != getattr(reference, field.name)]
    if run.error:
        reasons.append(f"raised {run.error}")
    elif run.exit_code != 0:
        reasons.append(f"exit code {run.exit_code}")
    if expected_output is not None and run.output != expected_output:
        reasons.append(f"output {run.output!r} is not the expected "
                       f"{expected_output!r}")
    return reasons
