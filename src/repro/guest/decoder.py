"""ARM A32 binary decoder: 32-bit word -> :class:`~repro.guest.isa.ArmInsn`.

Inverse of :mod:`repro.guest.encoder`; unknown words raise
:class:`~repro.common.errors.DecodingError`.
"""

from __future__ import annotations

from ..common.bitops import bit, bits, decode_arm_imm, sign_extend
from ..common.errors import DecodingError
from .isa import (ArmInsn, Cond, Op, Operand2, ShiftKind)

_DP_BY_OPCODE = {op.value: op for op in Op if isinstance(op.value, int)}
_COMPARES = {0x8, 0x9, 0xA, 0xB}


def _decode_shift(word: int) -> Operand2:
    rm = bits(word, 3, 0)
    shift_kind = ShiftKind(bits(word, 6, 5))
    if bit(word, 4):
        return Operand2.register(rm, shift_kind, rs=bits(word, 11, 8))
    shift_imm = bits(word, 11, 7)
    if shift_kind == ShiftKind.ROR and shift_imm == 0:
        return Operand2.register(rm, ShiftKind.RRX)
    if shift_kind in (ShiftKind.LSR, ShiftKind.ASR) and shift_imm == 0:
        shift_imm = 32  # LSR/ASR #0 encodes a shift of 32
    return Operand2.register(rm, shift_kind, shift_imm)


def _decode_data_processing(word: int, insn_addr: int) -> ArmInsn:
    opcode = bits(word, 24, 21)
    op = _DP_BY_OPCODE[opcode]
    set_flags = bool(bit(word, 20))
    if opcode in _COMPARES and not set_flags:
        raise DecodingError(word, insn_addr)  # MRS/MSR space, handled earlier
    if bit(word, 25):
        op2 = Operand2.immediate(decode_arm_imm(bits(word, 11, 8),
                                                bits(word, 7, 0)))
    else:
        op2 = _decode_shift(word)
    # Compare ops have an SBZ Rd field, MOV/MVN an SBZ Rn: normalize.
    rd = 0 if opcode in _COMPARES else bits(word, 15, 12)
    rn = 0 if opcode in (0xD, 0xF) else bits(word, 19, 16)
    return ArmInsn(op=op, set_flags=set_flags and opcode not in _COMPARES,
                   rd=rd, rn=rn, op2=op2, addr=insn_addr)


def _decode_word_byte_transfer(word: int, insn_addr: int) -> ArmInsn:
    load = bool(bit(word, 20))
    byte = bool(bit(word, 22))
    op = (Op.LDRB if byte else Op.LDR) if load else (Op.STRB if byte else Op.STR)
    pre = bool(bit(word, 24))
    insn = ArmInsn(op=op, rd=bits(word, 15, 12), rn=bits(word, 19, 16),
                   pre_indexed=pre, add_offset=bool(bit(word, 23)),
                   # Post-indexed writeback is implicit (W=1 there encodes
                   # the unsupported LDRT/STRT user-mode variants).
                   writeback=bool(bit(word, 21)) and pre, addr=insn_addr)
    if bit(word, 25):
        insn.mem_offset_reg = bits(word, 3, 0)
        insn.mem_shift = ShiftKind(bits(word, 6, 5))
        insn.mem_shift_imm = bits(word, 11, 7)
    else:
        insn.mem_offset_imm = bits(word, 11, 0)
    return insn


def _decode_halfword_transfer(word: int, insn_addr: int) -> ArmInsn:
    load = bool(bit(word, 20))
    sh = (bit(word, 6) << 1) | bit(word, 5)  # S,H bits
    if load:
        op = {0b01: Op.LDRH, 0b10: Op.LDRSB, 0b11: Op.LDRSH}.get(sh)
    else:
        op = Op.STRH if sh == 0b01 else None
    if op is None:
        raise DecodingError(word, insn_addr)
    pre = bool(bit(word, 24))
    insn = ArmInsn(op=op, rd=bits(word, 15, 12), rn=bits(word, 19, 16),
                   pre_indexed=pre, add_offset=bool(bit(word, 23)),
                   writeback=bool(bit(word, 21)) and pre, addr=insn_addr)
    if bit(word, 22):
        insn.mem_offset_imm = (bits(word, 11, 8) << 4) | bits(word, 3, 0)
    else:
        insn.mem_offset_reg = bits(word, 3, 0)
    return insn


def _decode_block_transfer(word: int, insn_addr: int) -> ArmInsn:
    reglist = [r for r in range(16) if bit(word, r)]
    return ArmInsn(op=Op.LDM if bit(word, 20) else Op.STM,
                   rn=bits(word, 19, 16), reglist=reglist,
                   before=bool(bit(word, 24)), increment=bool(bit(word, 23)),
                   writeback=bool(bit(word, 21)), addr=insn_addr)


def _decode_misc(word: int, insn_addr: int) -> ArmInsn:
    """Decode the 000-group space that is not plain data processing."""
    if word & 0x0FFFFFF0 == 0x012FFF10:
        return ArmInsn(op=Op.BX, rm=bits(word, 3, 0), addr=insn_addr)
    if word & 0x0FFF0FF0 == 0x016F0F10:
        return ArmInsn(op=Op.CLZ, rd=bits(word, 15, 12), rm=bits(word, 3, 0),
                       addr=insn_addr)
    if word & 0x0FBF0FFF == 0x010F0000:
        return ArmInsn(op=Op.MRS, rd=bits(word, 15, 12),
                       spsr=bool(bit(word, 22)), addr=insn_addr)
    if word & 0x0FB0FFF0 == 0x0120F000:
        return ArmInsn(op=Op.MSR, rm=bits(word, 3, 0), imm=bits(word, 19, 16),
                       spsr=bool(bit(word, 22)), addr=insn_addr)
    if word & 0x0FC000F0 == 0x90:  # mul/mla (bit 21 selects accumulate)
        op = Op.MLA if bit(word, 21) else Op.MUL
        return ArmInsn(op=op, rd=bits(word, 19, 16),
                       rn=bits(word, 15, 12) if op is Op.MLA else 0,
                       rs=bits(word, 11, 8), rm=bits(word, 3, 0),
                       set_flags=bool(bit(word, 20)), addr=insn_addr)
    if word & 0x0FFFF0FF == 0x0320F003:
        return ArmInsn(op=Op.WFI, addr=insn_addr)
    if word & 0x0FFFF0FF == 0x0320F000:
        return ArmInsn(op=Op.NOP, addr=insn_addr)
    raise DecodingError(word, insn_addr)


def decode(word: int, insn_addr: int = 0) -> ArmInsn:
    """Decode the 32-bit machine word at *insn_addr*."""
    cond_field = bits(word, 31, 28)
    if cond_field == 0xF:
        if word & 0x0FF00000 == 0x01000000 and bit(word, 7):
            imod = bits(word, 19, 18)
            insn = ArmInsn(op=Op.CPS, cps_enable=(imod == 0b10),
                           addr=insn_addr)
            insn.cond = Cond.AL
            return insn
        raise DecodingError(word, insn_addr)
    cond = Cond(cond_field)
    group = bits(word, 27, 25)

    insn = None
    if group in (0b000, 0b001):
        is_immediate = group == 0b001
        opcode = bits(word, 24, 21)
        no_s = not bit(word, 20)
        if not is_immediate and (bit(word, 4) and bit(word, 7)):
            if bits(word, 6, 5):
                insn = _decode_halfword_transfer(word, insn_addr)
            else:
                insn = _decode_misc(word, insn_addr)  # mul/mla
        elif opcode in _COMPARES and no_s:
            insn = _decode_misc(word, insn_addr)  # mrs/msr/bx/clz/hints
        else:
            insn = _decode_data_processing(word, insn_addr)
    elif group in (0b010, 0b011):
        if group == 0b011 and bit(word, 4):
            raise DecodingError(word, insn_addr)  # media instructions
        insn = _decode_word_byte_transfer(word, insn_addr)
    elif group == 0b100:
        insn = _decode_block_transfer(word, insn_addr)
    elif group == 0b101:
        offset = sign_extend(bits(word, 23, 0), 24) << 2
        insn = ArmInsn(op=Op.BL if bit(word, 24) else Op.B,
                       target=(insn_addr + 8 + offset) & 0xFFFFFFFF,
                       addr=insn_addr)
    elif group == 0b110:
        # VFP single-precision loads/stores (coprocessor 10).
        if bits(word, 11, 8) == 0b1010 and bit(word, 21) == 0 and \
                bit(word, 24):
            fd = (bits(word, 15, 12) << 1) | bit(word, 22)
            insn = ArmInsn(op=Op.VLDR if bit(word, 20) else Op.VSTR,
                           fd=fd, rn=bits(word, 19, 16),
                           mem_offset_imm=bits(word, 7, 0) << 2,
                           add_offset=bool(bit(word, 23)), addr=insn_addr)
    elif group == 0b111:
        if bit(word, 24):
            insn = ArmInsn(op=Op.SVC, imm=bits(word, 23, 0), addr=insn_addr)
        elif bit(word, 4):  # coprocessor register transfers
            if word & 0x0FF00FF0 == 0x0EF00A10:
                insn = ArmInsn(op=Op.VMRS, rd=bits(word, 15, 12),
                               addr=insn_addr)
            elif word & 0x0FF00FF0 == 0x0EE00A10:
                insn = ArmInsn(op=Op.VMSR, rd=bits(word, 15, 12),
                               addr=insn_addr)
            elif bits(word, 11, 8) == 0b1010 and \
                    word & 0x0FE00F7F == 0x0E000A10:
                fn = (bits(word, 19, 16) << 1) | bit(word, 7)
                op = Op.VMOVRS if bit(word, 20) else Op.VMOVSR
                insn = ArmInsn(op=op, fn=fn, rd=bits(word, 15, 12),
                               addr=insn_addr)
            else:
                op = Op.MRC if bit(word, 20) else Op.MCR
                insn = ArmInsn(op=op, cp_op1=bits(word, 23, 21),
                               cp_crn=bits(word, 19, 16),
                               rd=bits(word, 15, 12),
                               cp_op2=bits(word, 7, 5),
                               cp_crm=bits(word, 3, 0), addr=insn_addr)
        elif bits(word, 11, 9) == 0b101 and bit(word, 8) == 0:
            # VFP single-precision data processing.
            fd = (bits(word, 15, 12) << 1) | bit(word, 22)
            fn = (bits(word, 19, 16) << 1) | bit(word, 7)
            fm = (bits(word, 3, 0) << 1) | bit(word, 5)
            if word & 0x0FBF0FD0 == 0x0EB40A40:
                insn = ArmInsn(op=Op.VCMP, fd=fd, fm=fm, addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E300A00:
                insn = ArmInsn(op=Op.VADD, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E300A40:
                insn = ArmInsn(op=Op.VSUB, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
            elif word & 0x0FB00F50 == 0x0E200A00:
                insn = ArmInsn(op=Op.VMUL, fd=fd, fn=fn, fm=fm,
                               addr=insn_addr)
    if insn is None:
        raise DecodingError(word, insn_addr)
    insn.cond = cond
    return insn
