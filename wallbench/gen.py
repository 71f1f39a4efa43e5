"""Seeded inputs for the wall-clock benchmark's three workloads.

Each workload draws a list of guest programs
(:class:`repro.workloads.Workload` values) from a ``random.Random``; the
same seed gives the same programs and device inputs.  Every program runs
on every engine of the workload.
"""

from __future__ import annotations

import random
import struct
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from repro.workloads import REALWORLD_WORKLOADS, SPEC_WORKLOADS, Workload

# ---------------------------------------------------------------------------
# spec-hot: the SPEC CINT analogs of the paper's Fig 14.
# ---------------------------------------------------------------------------

#: The spec-hot programs.  Per-program guest MIPS differs by up to 2.3x
#: between the twelve analogs (tcg: 0.010 on perlbench, 0.023 on
#: libquantum), so drawing a different subset per seed would move guest
#: MIPS by more than any change worth measuring; the seed draws the run
#: order of programs and engines instead.  The three span the Table I
#: range: long blocks with 55% memory instructions (h264ref),
#: stack-heavy search (sjeng) and short, very branchy blocks (xalancbmk),
#: and are the cheapest of their kind, so two rounds fit a run.
SPEC_PANEL = ("h264ref", "sjeng", "xalancbmk")


def spec_hot_programs(rng: random.Random) -> List[Workload]:
    return [SPEC_WORKLOADS[name] for name in SPEC_PANEL]


# ---------------------------------------------------------------------------
# cold-code: straight chains of unique blocks, each run once.
# ---------------------------------------------------------------------------

#: Data registers of the generated programs.  r7 is the syscall number
#: register, r11 holds the scratch-buffer base, and sp/lr/pc are never
#: written.
_DATA_REGS = [f"r{n}" for n in (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12)]
_ALU_OPS = ["and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
            "orr", "bic"]
_TEST_OPS = ["cmp", "cmn", "tst", "teq"]
_SHIFTS = ["lsl", "lsr", "asr", "ror"]
_CONDS = ["eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls",
          "ge", "lt", "gt", "le"]
#: Bytes of the scratch buffer the loads and stores address.
_BUFFER_BYTES = 1024
#: Blocks per cold-code program; the workload is two programs, 1200
#: unique blocks in all.
COLD_BLOCKS = 600


def _operand2(rng: random.Random, shifted: bool = True,
              rrx: bool = True) -> str:
    """An immediate, a register, or (when *shifted*) a register shifted
    by an immediate or, when *rrx* too, by RRX.

    Register-specified shift amounts are never drawn: see
    :func:`_cold_insn`.
    """
    kind = rng.random()
    if kind < 0.3:
        return f"#{rng.randrange(256) << (2 * rng.randrange(4))}"
    rm = rng.choice(_DATA_REGS)
    if kind < 0.55 or not shifted:
        return rm
    if kind < 0.95 or not rrx:
        return f"{rm}, {rng.choice(_SHIFTS)} #{rng.randint(1, 31)}"
    return f"{rm}, rrx"


def _cold_insn(rng: random.Random) -> str:
    """One random ALU, compare, move, multiply or load/store instruction,
    conditional 30% of the time.

    Two operand forms that miscompile at the commit that defined the
    benchmark are not drawn, because a benchmark workload must run
    correctly on every engine (README.md, "Known failures"; the tests
    reproduce each one):

    - register-specified shift amounts (``rm, lsl rs``), which both
      ``rules-full`` and ``tcg`` get wrong for some amounts;
    - flag-setting instructions that the rules engine hands to the TCG
      fallback: a carry-consuming ``adc``/``sbc``/``rsc`` with a
      shifted operand, or any RRX operand.  Their flags are lost when
      they live into the next TB.

    Such instructions that set no flags are still drawn, so the
    fallback path is still exercised.
    """
    cond = rng.choice(_CONDS) if rng.random() < 0.3 else ""
    kind = rng.random()
    rd = rng.choice(_DATA_REGS)
    if kind < 0.25:
        op = rng.choice(["ldr", "str", "ldrb", "strb"])
        if op.endswith("b"):
            offset = rng.randrange(_BUFFER_BYTES)
        else:
            offset = 4 * rng.randrange(_BUFFER_BYTES // 4)
        return f"{op}{cond} {rd}, [r11, #{offset}]"
    flags = "s" if rng.random() < 0.3 else ""
    if kind < 0.35:
        return f"{rng.choice(_TEST_OPS)}{cond} {rng.choice(_DATA_REGS)}, " \
               f"{_operand2(rng, rrx=False)}"
    if kind < 0.45:
        return f"{rng.choice(['mov', 'mvn'])}{cond}{flags} {rd}, " \
               f"{_operand2(rng, rrx=not flags)}"
    if kind < 0.5:
        return f"mul{cond}{flags} {rd}, {rng.choice(_DATA_REGS)}, " \
               f"{rng.choice(_DATA_REGS)}"
    op = rng.choice(_ALU_OPS)
    carry_in = op in ("adc", "sbc", "rsc")
    return f"{op}{cond}{flags} {rd}, {rng.choice(_DATA_REGS)}, " \
           f"{_operand2(rng, shifted=not (flags and carry_in), rrx=not flags)}"


def cold_code_program(rng: random.Random, n_blocks: int,
                      name: str = "cold") -> Workload:
    """A straight chain of *n_blocks* unique basic blocks, each run once.

    Each block holds 4-12 random instructions and ends in ``b`` to the
    next one, so every block is fetched, translated and entered exactly
    once.  The program prints a checksum of the data registers, the
    flags and the scratch buffer, then exits 0.
    """
    lines = ["main:", "    ldr r11, =USER_HEAP"]
    lines += [f"    ldr {reg}, ={rng.getrandbits(32)}" for reg in _DATA_REGS]
    lines += [f"    ldr r7, ={rng.randrange(16) << 28}",
              "    msr cpsr_f, r7",
              "    b blk0",
              ".ltorg"]
    for index in range(n_blocks):
        lines.append(f"blk{index}:")
        lines += ["    " + _cold_insn(rng)
                  for _ in range(rng.randint(4, 12))]
        lines.append(f"    b blk{index + 1}")
    lines += [f"blk{n_blocks}:",
              "    mrs r7, cpsr",
              "    and r7, r7, #0xF0000000"]
    lines += [f"    eor r0, {reg}, r0, ror #7" for reg in _DATA_REGS[1:]]
    lines += ["    add r0, r0, r7",
              "    mov r1, #0",
              "sum:",
              "    ldr r2, [r11, r1]",
              "    eor r0, r2, r0, ror #3",
              "    add r1, r1, #4",
              f"    cmp r1, #{_BUFFER_BYTES}",
              "    blt sum",
              "    bl updec",
              "    mov r0, #0",
              "    bl uexit"]
    return Workload(name, body="\n".join(lines) + "\n",
                    max_insns=50 * n_blocks + 100_000, category="cold")


def cold_code_programs(rng: random.Random) -> List[Workload]:
    return [cold_code_program(rng, COLD_BLOCKS, f"cold-{index}")
            for index in range(2)]


# ---------------------------------------------------------------------------
# realworld-io: the Fig 19 I/O analogs with seeded device inputs.
# ---------------------------------------------------------------------------


def memcached_packets(rng: random.Random, count: int = 60) -> List[bytes]:
    """Requests in the memcached analog's protocol, ``[op, key, lo, hi]``:
    two SETs of a random 16-bit value for every GET, over 64 keys."""
    packets = []
    for index in range(count):
        key = rng.randrange(64)
        if index % 3 != 2:
            value = rng.getrandbits(16)
            packets.append(bytes([ord("S"), key, value & 0xFF, value >> 8]))
        else:
            packets.append(bytes([ord("G"), key, 0, 0]))
    return packets


def untar_archive(rng: random.Random) -> bytes:
    """An archive in the untar analog's format (16-byte name, 4-byte size,
    data padded to 4 bytes): the stock archive's first eight file sizes,
    with random contents."""
    files = []
    for index in range(8):
        name = f"file{index:02d}.dat".encode().ljust(16, b"\0")
        size = 300 + index * 130
        data = bytes(rng.getrandbits(8) for _ in range(size))
        files.append(name + struct.pack("<I", size) + data +
                     b"\0" * (-size % 4))
    return b"".join(files) + b"\0" * 16


def realworld_programs(rng: random.Random) -> List[Workload]:
    """memcached and untar with seeded inputs, and fileio.  The sqlite
    analog is left out: it makes no device I/O, so it would add a
    CPU-bound program like spec-hot's to the workload that exists to
    drive syscalls, exceptions, MMIO and interrupts."""
    return [
        replace(REALWORLD_WORKLOADS["memcached"],
                nic_packets=memcached_packets(rng)),
        replace(REALWORLD_WORKLOADS["untar"], disk_image=untar_archive(rng)),
        REALWORLD_WORKLOADS["fileio"],
    ]


#: name -> (program generator, engines, seconds one round of the
#: programs on the engines took at the commit that defined the
#: benchmark on a 2-vCPU Xeon).  ``rules-full`` with verify-before-enter
#: (``--check``) runs on no workload: its demotions miscompile
#: cold-code (README.md, "Known failures").
WORKLOADS: Dict[str, Tuple[Callable[[random.Random], List[Workload]],
                           Tuple[str, ...], float]] = {
    "spec-hot": (spec_hot_programs, ("interp", "tcg", "rules_full"), 12.5),
    "cold-code": (cold_code_programs, ("interp", "tcg", "rules_full"),
                  10.5),
    "realworld-io": (realworld_programs, ("interp", "tcg", "rules_full"),
                     11.5),
}
