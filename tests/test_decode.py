"""Tests for the ISS decoder, cross-checked against the assembler.

The decoder (:mod:`repro.vp.decode`) and the assembler's encoder
(:mod:`repro.asm.isa`) are independent implementations of the RV32IM
encoding; these tests assemble instructions and verify the decoder
recovers exactly the fields that went in.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asm import isa
from repro.vp import decode as D

_REGS = st.integers(min_value=0, max_value=31)
_IMM12 = st.integers(min_value=-2048, max_value=2047)


class TestSystematic:
    def test_every_rtype(self):
        for mnemonic, (f3, f7) in isa.R_OPS.items():
            word = isa.enc_r(isa.OP_REG, f3, f7, 1, 2, 3)
            op, rd, rs1, rs2, __ = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rd, rs1, rs2) == (1, 2, 3)

    def test_every_itype(self):
        for mnemonic, f3 in isa.I_ALU_OPS.items():
            word = isa.enc_i(isa.OP_IMM, f3, 4, 5, -7)
            op, rd, rs1, __, imm = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rd, rs1, imm) == (4, 5, -7)

    def test_every_shift(self):
        for mnemonic, (f3, f7) in isa.SHIFT_OPS.items():
            word = isa.enc_shift(isa.OP_IMM, f3, f7, 4, 5, 13)
            op, rd, rs1, __, imm = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert imm == 13

    def test_every_load(self):
        for mnemonic, f3 in isa.LOAD_OPS.items():
            word = isa.enc_i(isa.OP_LOAD, f3, 6, 7, 100)
            op, rd, rs1, __, imm = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rd, rs1, imm) == (6, 7, 100)

    def test_every_store(self):
        for mnemonic, f3 in isa.STORE_OPS.items():
            word = isa.enc_s(isa.OP_STORE, f3, 8, 9, -4)
            op, __, rs1, rs2, imm = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rs1, rs2, imm) == (8, 9, -4)

    def test_every_branch(self):
        for mnemonic, f3 in isa.BRANCH_OPS.items():
            word = isa.enc_b(isa.OP_BRANCH, f3, 10, 11, -8)
            op, __, rs1, rs2, imm = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rs1, rs2, imm) == (10, 11, -8)

    def test_every_csr(self):
        for mnemonic, (f3, __) in isa.CSR_OPS.items():
            word = (0x341 << 20) | (3 << 15) | (f3 << 12) | (2 << 7) | 0x73
            op, rd, rs1, __, csr = D.decode(word)
            assert D.OP_NAMES[op] == mnemonic
            assert (rd, rs1, csr) == (2, 3, 0x341)

    def test_fixed(self):
        for mnemonic, word in isa.FIXED_OPS.items():
            op = D.decode(word)[0]
            expected = "fence" if mnemonic.startswith("fence") else mnemonic
            assert D.OP_NAMES[op] == expected


class TestUJTypes:
    def test_lui(self):
        word = isa.enc_u(isa.OP_LUI, 5, 0x12345)
        op, rd, __, __, imm = D.decode(word)
        assert D.OP_NAMES[op] == "lui"
        assert rd == 5
        assert imm == 0x12345000

    def test_auipc(self):
        word = isa.enc_u(isa.OP_AUIPC, 5, 0xFFFFF)
        op, __, __, __, imm = D.decode(word)
        assert D.OP_NAMES[op] == "auipc"
        assert imm == 0xFFFFF000

    @given(st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1)
           .map(lambda x: 2 * x))
    def test_jal_offsets(self, offset):
        word = isa.enc_j(isa.OP_JAL, 1, offset)
        op, rd, __, __, imm = D.decode(word)
        assert D.OP_NAMES[op] == "jal"
        assert imm == offset

    def test_jalr(self):
        word = isa.enc_i(isa.OP_JALR, 0, 1, 2, -16)
        op, rd, rs1, __, imm = D.decode(word)
        assert D.OP_NAMES[op] == "jalr"
        assert (rd, rs1, imm) == (1, 2, -16)


class TestIllegal:
    @pytest.mark.parametrize("word", [
        0x00000000,            # all zeros
        0xFFFFFFFF,            # all ones
        0x0000007F,            # unused opcode
        0x00004073,            # SYSTEM with funct3=4 is reserved
    ])
    def test_illegal_words(self, word):
        assert D.decode(word)[0] == D.ILLEGAL

    def test_illegal_keeps_word(self):
        op, __, __, __, word = D.decode(0xDEADBEEF & ~0x7F | 0x7F)
        assert op == D.ILLEGAL

    def test_bad_funct7_rtype(self):
        # add with funct7=0x10 is not a valid encoding
        word = isa.enc_r(isa.OP_REG, 0, 0x10, 1, 2, 3)
        assert D.decode(word)[0] == D.ILLEGAL

    def test_bad_shift_funct7(self):
        word = (0x11 << 25) | (3 << 20) | (2 << 15) | (1 << 12) | (1 << 7) \
            | 0x13
        assert D.decode(word)[0] == D.ILLEGAL


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_decode_never_crashes(word):
    op, rd, rs1, rs2, imm = D.decode(word)
    assert 0 <= op < D.N_OPS
    assert 0 <= rd < 32
    assert 0 <= rs1 < 32
    assert 0 <= rs2 < 32


@given(_REGS, _REGS, _IMM12)
def test_decode_matches_encoder_addi(rd, rs1, imm):
    word = isa.enc_i(isa.OP_IMM, 0, rd, rs1, imm)
    assert D.decode(word) == (D.ADDI, rd, rs1, 0, imm)


@given(_REGS, _REGS, _IMM12)
def test_decode_matches_encoder_sw(rs1, rs2, imm):
    word = isa.enc_s(isa.OP_STORE, 2, rs1, rs2, imm)
    op, __, drs1, drs2, dimm = D.decode(word)
    assert (op, drs1, drs2, dimm) == (D.SW, rs1, rs2, imm)


def _uses(op):
    """Which of (rd, rs1, rs2) an opcode uses, by encoding format;
    csrrwi, csrrsi and csrrci read their zimm from the rs1 field."""
    if op in (D.LUI, D.AUIPC, D.JAL):  # U, J
        return (True, False, False)
    if op == D.JALR or D.LB <= op <= D.LHU or D.ADDI <= op <= D.SRAI \
            or D.CSRRW <= op <= D.CSRRCI:  # I
        return (True, True, False)
    if D.BEQ <= op <= D.BGEU or D.SB <= op <= D.SW:  # B, S
        return (False, True, True)
    if D.ADD <= op <= D.REMU:  # R
        return (True, True, True)
    return (False, False, False)  # fence, ecall, ebreak, mret, wfi, illegal


#: every major opcode the decoder knows
_MAJORS = (0x03, 0x0F, 0x13, 0x17, 0x23, 0x33, 0x37, 0x63, 0x67, 0x6F, 0x73)


@given(_REGS, _REGS, _REGS)
def test_decode_zeroes_unused_operand_fields(rd, rs1, rs2):
    """The JIT hoists a block's registers straight from these fields.

    Every major opcode and funct3, with the funct7 values that select
    sub, sra, srai and the M extension, under drawn register fields."""
    for major in _MAJORS:
        for funct3 in range(8):
            for funct7 in (0x00, 0x01, 0x20):
                word = ((funct7 << 25) | (rs2 << 20) | (rs1 << 15)
                        | (funct3 << 12) | (rd << 7) | major)
                op, *fields = D.decode(word)[:4]
                for value, used in zip(fields, _uses(op)):
                    assert used or value == 0, (D.OP_NAMES[op], hex(word))
