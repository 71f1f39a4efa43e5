"""The QEMU runtime: helper functions and the env<->cpu synchronization.

Helpers are what the paper's coordination story revolves around: they are
C functions in real QEMU (Python here) that run *outside* the translated
code, read and write the guest CPU state in memory (``env``), and clobber
host registers.  Generated code reaches them through ``CALL_HELPER``
instructions; their bodies are charged modelled costs from
:mod:`repro.common.costmodel`.

The lazy condition-code protocol (Sec III-B) lives here too:
:meth:`QemuRuntime.materialize_flags` parses the packed FLAGS word into
QEMU's four per-bit fields only when a helper (or interrupt delivery)
actually needs them.
"""

from __future__ import annotations

from ..common.bitops import u32
from ..common.costmodel import (COST_EXCEPTION_ENTRY, COST_LAZY_FLAGS_PARSE,
                                COST_MMIO_ACCESS, COST_PAGE_WALK,
                                COST_SYSREG_HELPER)
from ..common.errors import MemoryFault, UndefinedInstruction
from ..guest.cpu import (CPSR_I, MODE_ABT, MODE_SVC, MODE_UND, MODE_USR,
                         VECTOR_DATA_ABORT, VECTOR_SVC, VECTOR_UNDEF)
from ..guest.isa import ArmInsn, Op, PC
from ..host.isa import FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF
from ..softmmu.pagetable import PAGE_SIZE
from ..softmmu.tlb import ACCESS_READ, ACCESS_WRITE, MMU_IDX_USER
from .env import (ENV_CF, ENV_IRQ, ENV_NF, ENV_PACKED_FLAGS,
                  ENV_PACKED_VALID, ENV_VF, ENV_ZF, Env)
from .tb import EXIT_EXCEPTION, EXIT_HALT, TbExitException


def _pack_arm_flags(n: int, z: int, c: int, v: int) -> int:
    """Encode ARM-convention NZCV into the x86 EFLAGS bit layout."""
    return ((n << FLAG_SF) | (z << FLAG_ZF) | (c << FLAG_CF) |
            (v << FLAG_OF) | 0x2)


class QemuRuntime:
    """Shared services for helpers: env sync, MMU slow path, exceptions."""

    def __init__(self, cpu, env: Env, memory, tlb, walker, machine):
        self.cpu = cpu
        self.env = env
        self.memory = memory
        self.tlb = tlb
        self.walker = walker
        self.machine = machine
        self.host = None  # HostInterpreter, wired by the machine
        # Statistics.
        self.flag_parse_count = 0
        self.slow_path_count = 0

    # -- cost accounting --------------------------------------------------------

    def charge(self, amount: int, tag: str) -> None:
        self.host.charge(amount, tag)

    # -- condition-code representations ------------------------------------------

    def materialize_flags(self) -> None:
        """Parse the packed CCR save into per-bit fields if pending.

        This is the deferred "one-to-many" parse of Sec III-B; it is
        charged only when QEMU genuinely reads the condition codes.
        """
        env = self.env
        if not env.read(ENV_PACKED_VALID):
            return
        packed = env.read(ENV_PACKED_FLAGS)
        env.write(ENV_NF, (packed >> FLAG_SF) & 1)
        env.write(ENV_ZF, (packed >> FLAG_ZF) & 1)
        env.write(ENV_CF, (packed >> FLAG_CF) & 1)
        env.write(ENV_VF, (packed >> FLAG_OF) & 1)
        env.write(ENV_PACKED_VALID, 0)
        self.flag_parse_count += 1
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("sync.lazy_parse")
        self.charge(COST_LAZY_FLAGS_PARSE, "sync")

    def repack_flags(self) -> None:
        """Refresh the packed word from per-bit fields (helper wrote flags)."""
        env = self.env
        env.write(ENV_PACKED_FLAGS,
                  _pack_arm_flags(env.read(ENV_NF) & 1, env.read(ENV_ZF) & 1,
                                  env.read(ENV_CF) & 1, env.read(ENV_VF) & 1))
        env.write(ENV_PACKED_VALID, 0)

    # -- architectural sync --------------------------------------------------------

    def env_to_cpu(self) -> None:
        self.materialize_flags()
        self.env.store_to_cpu(self.cpu)

    def cpu_to_env(self) -> None:
        self.env.load_from_cpu(self.cpu)
        self.repack_flags()
        self.update_irq()

    def update_irq(self) -> None:
        """Recompute the deliverable-interrupt flag the TB checks read."""
        deliverable = self.cpu.irq_line and not (self.cpu.cpsr >> CPSR_I) & 1
        self.env.write(ENV_IRQ, 1 if deliverable else 0)

    # -- exceptions -----------------------------------------------------------------

    def deliver_exception(self, mode: int, vector: int,
                          return_address: int) -> None:
        """Full exception entry: env -> cpu, take exception, cpu -> env."""
        if self.host is not None:
            # Mode/banked-register switches are not replayable by the
            # fault-recovery rollback: mark the execute() call dirty.
            self.host.note_side_effect("exception")
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("exception.enter", mode=mode,
                                     vector=vector)
        self.env_to_cpu()  # reads CPSR (incl. NZCV) into SPSR: needs flags
        self.cpu.take_exception(mode, vector, return_address)
        self.cpu_to_env()
        self.charge(COST_EXCEPTION_ENTRY, "runtime")

    def data_abort(self, fault: MemoryFault, insn_pc: int) -> None:
        self.cpu.cp15.dfar = fault.vaddr
        self.cpu.cp15.dfsr = 0x805 if fault.is_write else 0x5
        self.deliver_exception(MODE_ABT, VECTOR_DATA_ABORT, insn_pc + 8)
        raise TbExitException(EXIT_EXCEPTION)

    # -- softmmu slow path -------------------------------------------------------------

    def translate_slow(self, vaddr: int, access: int, mmu_idx: int,
                       insn_pc: int) -> int:
        """Page-walk translation with TLB refill (the TLB-miss path)."""
        self.slow_path_count += 1
        if self.machine.tracer.enabled:
            self.machine.tracer.emit("mmu.slowpath", vaddr=vaddr,
                                     access=access, pc=insn_pc)
        if not self.cpu.cp15.mmu_enabled:
            # MMU off: identity mapping; cache it like QEMU does so that
            # subsequent accesses hit the inline fast path.
            from ..softmmu.pagetable import (PERM_EXEC, PERM_READ, PERM_USER,
                                             PERM_WRITE, Translation)
            page = vaddr & ~(PAGE_SIZE - 1)
            translation = Translation(page, page,
                                      PERM_READ | PERM_WRITE | PERM_EXEC |
                                      PERM_USER)
        else:
            try:
                self.charge(COST_PAGE_WALK, "mmu")
                translation = self.walker.walk(self.cpu.cp15.ttbr0, vaddr,
                                               access == ACCESS_WRITE,
                                               mmu_idx == MMU_IDX_USER)
            except MemoryFault as fault:
                self.data_abort(fault, insn_pc)
        region = self.memory.find(translation.paddr_page)
        if region is not None and region.is_ram:
            self.tlb.fill(mmu_idx, translation)
        return translation.paddr_page | (vaddr & (PAGE_SIZE - 1))

    def memory_access(self, vaddr: int, size: int, mmu_idx: int,
                      insn_pc: int, value=None, signed: bool = False):
        """Slow-path load (value is None) or store (value given)."""
        # Fault injection: transient softmmu failures, but only while
        # the current execute() is still cleanly replayable.
        if not self.host.tb_side_effects:
            self.machine.injector.maybe_fault(
                "mem", f"vaddr=0x{vaddr:08x} pc=0x{insn_pc:08x}")
        access = ACCESS_READ if value is None else ACCESS_WRITE
        if (vaddr & (PAGE_SIZE - 1)) + size > PAGE_SIZE:
            # Page-crossing access: split byte-wise (always slow path).
            if value is None:
                result = 0
                for i in range(size):
                    result |= self.memory_access(vaddr + i, 1, mmu_idx,
                                                 insn_pc) << (8 * i)
                return self._sign(result, size, signed)
            for i in range(size):
                self.memory_access(vaddr + i, 1, mmu_idx, insn_pc,
                                   value=(value >> (8 * i)) & 0xFF)
            return None
        paddr = self.translate_slow(vaddr, access, mmu_idx, insn_pc)
        region = self.memory.find(paddr)
        if region is None:
            self.data_abort(MemoryFault(vaddr, value is not None, "bus"),
                            insn_pc)
        if not region.is_ram:
            self.charge(COST_MMIO_ACCESS, "mmio")
            self.host.note_side_effect("mmio")
        try:
            if value is None:
                result = region.read(paddr - region.base, size)
            else:
                region.write(paddr - region.base, size, value)
                result = None
        finally:
            # Device access may have raised or lowered interrupt lines.
            if not region.is_ram:
                self.update_irq()
        if value is None:
            return self._sign(result, size, signed)
        return None

    @staticmethod
    def _sign(value: int, size: int, signed: bool) -> int:
        if signed and size < 4:
            sign = 1 << (8 * size - 1)
            return u32((value & (sign - 1)) - (value & sign))
        return value


# ---------------------------------------------------------------------------
# Helper factories (one helper per call site, capturing the guest insn).
# ---------------------------------------------------------------------------


def make_ld_helper(size: int, signed: bool, mmu_idx: int, insn_pc: int):
    """Slow-path load helper: args = (vaddr,), returns the loaded value."""

    def helper_ld(runtime: QemuRuntime, vaddr: int) -> int:
        return runtime.memory_access(vaddr, size, mmu_idx, insn_pc,
                                     signed=signed)

    helper_ld.__name__ = f"helper_ld{size}"
    return helper_ld


def make_st_helper(size: int, mmu_idx: int, insn_pc: int):
    """Slow-path store helper: args = (vaddr, value)."""

    def helper_st(runtime: QemuRuntime, vaddr: int, value: int) -> None:
        runtime.memory_access(vaddr, size, mmu_idx, insn_pc, value=value)

    helper_st.__name__ = f"helper_st{size}"
    return helper_st


def make_sysreg_helper(insn: ArmInsn):
    """System-register instruction emulation (mrs/msr/mcr/mrc/vmrs/vmsr/cps/wfi)."""

    def helper_sysreg(runtime: QemuRuntime) -> None:
        if not runtime.host.tb_side_effects:
            runtime.machine.injector.maybe_fault(
                "helper", f"sysreg {insn.mnemonic()} @0x{insn.addr:08x}")
        runtime.charge(COST_SYSREG_HELPER, "helper")
        cpu = runtime.cpu
        runtime.env_to_cpu()
        # Reuse the reference interpreter's system-op semantics for exact
        # architectural behaviour.
        from ..guest.interp import Interpreter

        interp = Interpreter(cpu, _HelperBus(runtime))
        saved_pc = cpu.regs[PC]
        cpu.regs[PC] = insn.addr
        try:
            interp._exec_system(insn)
        except UndefinedInstruction:
            cpu.regs[PC] = saved_pc
            runtime.deliver_exception(MODE_UND, VECTOR_UNDEF,
                                      insn.addr + 4)
            raise TbExitException(EXIT_EXCEPTION)
        cpu.regs[PC] = saved_pc
        runtime.cpu_to_env()
        if cpu.halted:
            raise TbExitException(EXIT_HALT)

    helper_sysreg.__name__ = f"helper_{insn.mnemonic()}"
    return helper_sysreg


def make_vfp_helper(insn: ArmInsn):
    """Softfloat-style helper for VFP arithmetic/compare (as in QEMU)."""
    from ..common.costmodel import COST_SOFTFLOAT
    from ..common.f32 import f32_add, f32_compare, f32_mul, f32_sub
    from .env import ENV_FPSCR, env_vfp

    def helper_vfp(runtime: QemuRuntime) -> None:
        if not runtime.host.tb_side_effects:
            runtime.machine.injector.maybe_fault(
                "helper", f"vfp {insn.op.value} @0x{insn.addr:08x}")
        runtime.charge(COST_SOFTFLOAT, "helper")
        env = runtime.env
        if insn.op is Op.VCMP:
            nzcv = f32_compare(env.read(env_vfp(insn.fd)),
                               env.read(env_vfp(insn.fm)))
            fpscr = (env.read(ENV_FPSCR) & 0x0FFFFFFF) | (nzcv << 28)
            env.write(ENV_FPSCR, fpscr)
            runtime.cpu.fpscr = fpscr
            return
        table = {Op.VADD: f32_add, Op.VSUB: f32_sub, Op.VMUL: f32_mul}
        result = table[insn.op](env.read(env_vfp(insn.fn)),
                                env.read(env_vfp(insn.fm)))
        env.write(env_vfp(insn.fd), result)
        runtime.cpu.vfp[insn.fd] = result

    helper_vfp.__name__ = f"helper_{insn.op.value.replace('.', '_')}"
    return helper_vfp


def make_svc_helper(insn: ArmInsn):
    def helper_svc(runtime: QemuRuntime) -> None:
        runtime.deliver_exception(MODE_SVC, VECTOR_SVC, insn.addr + 4)
        raise TbExitException(EXIT_EXCEPTION)

    helper_svc.__name__ = "helper_svc"
    return helper_svc


def make_exception_return_helper(insn: ArmInsn):
    """``movs pc, ...`` / ``subs pc, lr, #n``: CPSR <- SPSR, branch.

    The target value is computed by generated code and passed as the
    single argument.
    """

    def helper_eret(runtime: QemuRuntime, target: int) -> None:
        runtime.env_to_cpu()
        cpu = runtime.cpu
        if cpu.mode == MODE_USR:
            runtime.deliver_exception(MODE_UND, VECTOR_UNDEF,
                                      insn.addr + 4)
        else:
            cpu.exception_return(target & ~1)
            runtime.cpu_to_env()
            runtime.charge(COST_SYSREG_HELPER, "helper")
        raise TbExitException(EXIT_EXCEPTION)

    helper_eret.__name__ = "helper_exception_return"
    return helper_eret


def make_undef_helper(insn: ArmInsn):
    def helper_undef(runtime: QemuRuntime) -> None:
        runtime.deliver_exception(MODE_UND, VECTOR_UNDEF,
                                  insn.addr + 4)
        raise TbExitException(EXIT_EXCEPTION)

    helper_undef.__name__ = "helper_undef"
    return helper_undef




class _HelperBus:
    """Minimal bus facade for interpreter-based system-op semantics."""

    def __init__(self, runtime: QemuRuntime):
        self.runtime = runtime

    def tlb_flush(self) -> None:
        self.runtime.tlb.flush()

    def fetch(self, vaddr: int) -> int:  # pragma: no cover - never used
        raise NotImplementedError

    def load(self, vaddr: int, size: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def store(self, vaddr, size, value) -> None:  # pragma: no cover
        raise NotImplementedError
