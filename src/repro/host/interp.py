"""Host x86 interpreter: executes generated host code and counts it.

Each executed :class:`~repro.host.isa.X86Insn` increments the total
dynamic instruction count and a per-tag counter; these counters are the
performance metric of every experiment (see
:mod:`repro.common.costmodel`).  Helper calls additionally charge the
modelled cost of the helper body via :meth:`charge`.

Block chaining is executed natively: a patched ``GOTO_TB`` continues
straight into the next TB's code (costing exactly the one jump
instruction), while an unpatched one exits to the cpu_exec loop.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from ..common.bitops import s32, u32
from ..common.errors import HostExecutionError, WatchdogTimeout
from ..observability.trace import NULL_TRACER
from .cpu import HostCpu
from .isa import (ECX, ESP, Imm, Mem, Reg, X86Insn, X86Op, Xmm)
from ..common.f32 import f32_add, f32_mul, f32_sub

#: Host instructions one execute() call may run before it is declared a
#: runaway (codegen-bug guard); also the ExecutionWatchdog default.
DEFAULT_MAX_HOST_INSNS = 5_000_000


@dataclass
class ExitInfo:
    """Why TB execution returned to the cpu_exec loop."""

    kind: str                 # always 'exit'
    status: int = 0           # EXIT_TB status value
    tb: Optional[object] = None
    #: (tb, slot) of an unpatched GOTO_TB the execution fell through —
    #: the cpu_exec loop patches it once the successor TB exists.
    chain: Optional[tuple] = None


class HostInterpreter:
    """Executes host code blocks against a HostCpu + HostMemory."""

    def __init__(self, cpu: HostCpu, memory):
        self.cpu = cpu
        self.memory = memory
        self.total = 0                      # dynamic host instructions
        self.charged = 0                    # modelled helper/runtime cost
        self.by_tag = defaultdict(int)      # dynamic count per tag
        self.runtime = None                 # set by the machine (helpers ctx)
        #: called with the target TB on every chained goto_tb transition
        #: (lets the machine advance guest time without leaving the cache)
        self.on_tb_enter = None
        #: optional ExecutionWatchdog bounding host insns per execute()
        self.watchdog = None
        #: Observability (repro.observability): the disabled defaults
        #: keep the hot loop's only overhead a None/False check.
        self.tracer = NULL_TRACER
        self.profiler = None
        #: (pc, mmu_idx) of the TB charges are attributed to, or None
        #: when cost is being charged outside any block.
        self._profile_key = None

    # -- cost accounting ---------------------------------------------------------

    def charge(self, amount: int, tag: str = "runtime") -> None:
        """Charge modelled host instructions for non-generated work."""
        self.charged += amount
        self.by_tag[tag] += amount
        if self.profiler is not None:
            self.profiler.on_charge(self._profile_key, tag, amount)

    @property
    def cost(self) -> int:
        """Total cost: executed instructions plus modelled charges."""
        return self.total + self.charged

    # -- operand access ------------------------------------------------------------

    def _addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.cpu.regs[mem.base]
        if mem.index is not None:
            addr += self.cpu.regs[mem.index] * mem.scale
        return u32(addr)

    def _read(self, operand, size: int = 4) -> int:
        if isinstance(operand, Reg):
            return self.cpu.regs[operand.number]
        if isinstance(operand, Imm):
            return u32(operand.value)
        if isinstance(operand, Mem):
            return self.memory.read(self._addr(operand), operand.size)
        raise HostExecutionError(f"bad operand {operand!r}")

    def _write(self, operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.cpu.regs[operand.number] = u32(value)
        elif isinstance(operand, Mem):
            self.memory.write(self._addr(operand), value, operand.size)
        else:
            raise HostExecutionError(f"bad destination {operand!r}")

    # -- execution -------------------------------------------------------------------

    def execute(self, tb) -> ExitInfo:  # noqa: C901 - central dispatch loop
        cpu = self.cpu
        insns = tb.code
        index = 0
        executed = 0
        pending_chain = None
        limit = self.watchdog.max_host_insns if self.watchdog is not None \
            else DEFAULT_MAX_HOST_INSNS
        profiler = self.profiler
        if profiler is not None:
            self._profile_key = (tb.pc, tb.mmu_idx)
            prof_tags = profiler.tags_for(self._profile_key)
        else:
            prof_tags = None
        while True:
            if index >= len(insns):
                raise HostExecutionError(
                    f"fell off the end of TB 0x{tb.pc:08x}")
            insn = insns[index]
            index += 1
            executed += 1
            self.total += 1
            self.by_tag[insn.tag] += 1
            if prof_tags is not None:
                prof_tags[insn.tag] += 1
            if executed > limit:
                if self.watchdog is not None:
                    self.watchdog.trips += 1
                raise WatchdogTimeout(executed, limit, tb_pc=tb.pc)
            op = insn.op

            if op is X86Op.MOV:
                self._write(insn.dst, self._read(insn.src))
            elif op is X86Op.MOVZX:
                if isinstance(insn.src, Reg):
                    value = cpu.regs[insn.src.number] & 0xFF
                else:
                    value = self._read(insn.src)
                self._write(insn.dst, value)
            elif op is X86Op.MOVSX:
                if isinstance(insn.src, Reg):
                    value = cpu.regs[insn.src.number] & 0xFF
                    width = 8
                else:
                    value = self._read(insn.src)
                    width = 8 * insn.src.size
                sign = 1 << (width - 1)
                self._write(insn.dst, (value & (sign - 1)) - (value & sign))
            elif op is X86Op.LEA:
                self._write(insn.dst, self._addr(insn.src))
            elif op is X86Op.ADD:
                self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                    self._read(insn.src)))
            elif op is X86Op.ADC:
                self._write(insn.dst, cpu.flags_add(self._read(insn.dst),
                                                    self._read(insn.src),
                                                    cpu.cf))
            elif op is X86Op.SUB:
                self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                    self._read(insn.src)))
            elif op is X86Op.SBB:
                self._write(insn.dst, cpu.flags_sub(self._read(insn.dst),
                                                    self._read(insn.src),
                                                    cpu.cf))
            elif op is X86Op.CMP:
                cpu.flags_sub(self._read(insn.dst), self._read(insn.src))
            elif op is X86Op.AND:
                self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) &
                                                      self._read(insn.src)))
            elif op is X86Op.OR:
                self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) |
                                                      self._read(insn.src)))
            elif op is X86Op.XOR:
                self._write(insn.dst, cpu.flags_logic(self._read(insn.dst) ^
                                                      self._read(insn.src)))
            elif op is X86Op.TEST:
                cpu.flags_logic(self._read(insn.dst) & self._read(insn.src))
            elif op is X86Op.NEG:
                value = self._read(insn.dst)
                self._write(insn.dst, cpu.flags_sub(0, value))
            elif op is X86Op.NOT:
                self._write(insn.dst, ~self._read(insn.dst))
            elif op is X86Op.INC:
                carry = cpu.cf
                self._write(insn.dst, cpu.flags_add(self._read(insn.dst), 1))
                cpu.cf = carry  # INC preserves CF
            elif op is X86Op.DEC:
                carry = cpu.cf
                self._write(insn.dst, cpu.flags_sub(self._read(insn.dst), 1))
                cpu.cf = carry  # DEC preserves CF
            elif op is X86Op.IMUL:
                # Like flags_logic, IMUL here preserves CF/OF (ARM muls
                # leaves C/V unchanged); see DESIGN.md.
                product = s32(self._read(insn.dst)) * s32(self._read(insn.src))
                result = u32(product)
                cpu.set_nz(result)
                self._write(insn.dst, result)
            elif op in (X86Op.SHL, X86Op.SHR, X86Op.SAR, X86Op.ROR,
                        X86Op.ROL, X86Op.RCR):
                self._shift(insn, op)
            elif op is X86Op.BSR:
                value = self._read(insn.src)
                cpu.zf = 1 if value == 0 else 0
                if value:
                    self._write(insn.dst, value.bit_length() - 1)
            elif op is X86Op.PUSH:
                cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
                self.memory.write(cpu.regs[ESP], self._read(insn.src))
            elif op is X86Op.POP:
                self._write(insn.dst, self.memory.read(cpu.regs[ESP], 4))
                cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
            elif op is X86Op.PUSHFD:
                cpu.regs[ESP] = u32(cpu.regs[ESP] - 4)
                self.memory.write(cpu.regs[ESP], cpu.eflags)
            elif op is X86Op.POPFD:
                cpu.eflags = self.memory.read(cpu.regs[ESP], 4)
                cpu.regs[ESP] = u32(cpu.regs[ESP] + 4)
            elif op is X86Op.LAHF:
                flags_byte = ((cpu.sf << 7) | (cpu.zf << 6) | 0x02 | cpu.cf)
                cpu.regs[0] = (cpu.regs[0] & ~0xFF00 & 0xFFFFFFFF) | \
                    (flags_byte << 8)
            elif op is X86Op.SAHF:
                byte = (cpu.regs[0] >> 8) & 0xFF
                cpu.sf = (byte >> 7) & 1
                cpu.zf = (byte >> 6) & 1
                cpu.cf = byte & 1
            elif op is X86Op.SETCC:
                bit_value = 1 if cpu.test(insn.cond) else 0
                if isinstance(insn.dst, Reg):
                    number = insn.dst.number
                    cpu.regs[number] = (cpu.regs[number] & ~0xFF &
                                        0xFFFFFFFF) | bit_value
                else:
                    self._write(insn.dst, bit_value)
            elif op is X86Op.CMC:
                cpu.cf ^= 1
            elif op is X86Op.STC:
                cpu.cf = 1
            elif op is X86Op.CLC:
                cpu.cf = 0
            elif op is X86Op.JMP:
                index = insn.target_index
            elif op is X86Op.JCC:
                if cpu.test(insn.cond):
                    index = insn.target_index
            elif op is X86Op.CALL_HELPER:
                if self.tracer.enabled:
                    self.tracer.emit("helper.call", tb_pc=tb.pc,
                                     helper=insn.helper.__name__)
                args = [self._read(arg) for arg in insn.helper_args]
                result = insn.helper(self.runtime, *args)
                if result is not None:
                    cpu.regs[0] = u32(result)
            elif op is X86Op.EXIT_TB:
                return ExitInfo("exit", status=insn.imm, tb=tb,
                                chain=pending_chain)
            elif op is X86Op.GOTO_TB:
                target = tb.jmp_target[insn.imm]
                if target is None:
                    # Unpatched: fall through to the exit stub (QEMU's
                    # initial goto_tb jumps to the next instruction).
                    pending_chain = (tb, insn.imm)
                else:
                    tb = target
                    insns = tb.code
                    index = 0
                    if prof_tags is not None:
                        self._profile_key = (tb.pc, tb.mmu_idx)
                        prof_tags = profiler.tags_for(self._profile_key)
                    if self.on_tb_enter is not None:
                        self.on_tb_enter(tb)
            elif op is X86Op.NOPSLOT:
                pass
            elif op is X86Op.MOVSS:
                if isinstance(insn.dst, Xmm):
                    value = cpu.xmm[insn.src.number] \
                        if isinstance(insn.src, Xmm) \
                        else self.memory.read(self._addr(insn.src), 4)
                    cpu.xmm[insn.dst.number] = value
                else:
                    self.memory.write(self._addr(insn.dst),
                                      cpu.xmm[insn.src.number])
            elif op in (X86Op.ADDSS, X86Op.SUBSS, X86Op.MULSS):
                left = cpu.xmm[insn.dst.number]
                right = cpu.xmm[insn.src.number] \
                    if isinstance(insn.src, Xmm) \
                    else self.memory.read(self._addr(insn.src), 4)
                table = {X86Op.ADDSS: f32_add, X86Op.SUBSS: f32_sub,
                         X86Op.MULSS: f32_mul}
                cpu.xmm[insn.dst.number] = table[op](left, right)
            else:
                raise HostExecutionError(f"unimplemented host op {op}")

    def _shift(self, insn: X86Insn, op: X86Op) -> None:
        cpu = self.cpu
        value = self._read(insn.dst)
        if isinstance(insn.src, Imm):
            amount = insn.src.value & 31
        else:
            amount = cpu.regs[ECX] & 31
        if op is X86Op.RCR:
            # Rotate through carry by one (used for ARM RRX).
            result = u32((value >> 1) | (cpu.cf << 31))
            cpu.cf = value & 1
            self._write(insn.dst, result)
            return
        if amount == 0:
            return
        if op is X86Op.SHL:
            cpu.cf = (value >> (32 - amount)) & 1
            result = u32(value << amount)
        elif op is X86Op.SHR:
            cpu.cf = (value >> (amount - 1)) & 1
            result = value >> amount
        elif op is X86Op.SAR:
            signed = s32(value)
            cpu.cf = (signed >> (amount - 1)) & 1
            result = u32(signed >> amount)
        elif op is X86Op.ROR:
            result = u32((value >> amount) | (value << (32 - amount)))
            cpu.cf = (result >> 31) & 1
        else:  # ROL
            result = u32((value << amount) | (value >> (32 - amount)))
            cpu.cf = result & 1
        cpu.set_nz(result)
        self._write(insn.dst, result)
