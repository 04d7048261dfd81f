"""Fast RV32IM(+Zicsr) instruction decoder for the ISS.

Decodes a 32-bit instruction word into a compact tuple
``(op, rd, rs1, rs2, imm)`` where ``op`` is one of the dense integer
opcode IDs below.  A field the opcode does not use is 0, so ``rd`` is 0
for stores and branches and ``rs2`` is 0 for every I-type instruction.
The ISS keeps a word -> tuple decode cache, so decoding happens once per
distinct instruction word; the executors dispatch on the dense ID with
an if/elif ladder ordered by dynamic frequency.

:data:`VALUE` and :data:`TAKEN` state what the ALU, shift and branch
opcodes compute, once, as Python expressions.  The interpreter loops of
:mod:`repro.vp.cpu` and the superblock code generator of
:mod:`repro.vp.jit.codegen` both emit their code from them;
:mod:`repro.verify.reference` states the same semantics independently.

The encoding knowledge here deliberately duplicates
:mod:`repro.asm.isa` (the assembler's tables): the test suite cross-checks
the two against each other, which would be impossible if they shared code.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

# dense opcode IDs, grouped; order matters only for readability
LUI = 0
AUIPC = 1
JAL = 2
JALR = 3
BEQ = 4
BNE = 5
BLT = 6
BGE = 7
BLTU = 8
BGEU = 9
LB = 10
LH = 11
LW = 12
LBU = 13
LHU = 14
SB = 15
SH = 16
SW = 17
ADDI = 18
SLTI = 19
SLTIU = 20
XORI = 21
ORI = 22
ANDI = 23
SLLI = 24
SRLI = 25
SRAI = 26
ADD = 27
SUB = 28
SLL = 29
SLT = 30
SLTU = 31
XOR = 32
SRL = 33
SRA = 34
OR = 35
AND = 36
MUL = 37
MULH = 38
MULHSU = 39
MULHU = 40
DIV = 41
DIVU = 42
REM = 43
REMU = 44
FENCE = 45
ECALL = 46
EBREAK = 47
MRET = 48
WFI = 49
CSRRW = 50
CSRRS = 51
CSRRC = 52
CSRRWI = 53
CSRRSI = 54
CSRRCI = 55
ILLEGAL = 56

#: number of distinct opcode IDs (for statistics arrays)
N_OPS = 57

OP_NAMES = [
    "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu",
    "bgeu", "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "addi",
    "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai", "add",
    "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul",
    "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu", "fence",
    "ecall", "ebreak", "mret", "wfi", "csrrw", "csrrs", "csrrc", "csrrwi",
    "csrrsi", "csrrci", "illegal",
]

Decoded = Tuple[int, int, int, int, int]

# The result of each ALU and shift opcode and the condition of each
# branch, as Python expressions over ``a``/``b`` (the unsigned 32-bit
# rs1/rs2 values), ``sa``/``sb`` (their signed forms) and ``i`` (the
# decoded immediate, or the shift amount).  Emitters substitute their
# own operand text with :func:`expand`.

#: result of each ALU and shift opcode, ``ADDI`` ... ``AND``
VALUE: Dict[int, str] = {
    ADDI: "(a + i) & 0xFFFFFFFF",
    SLTI: "1 if sa < i else 0",
    SLTIU: "1 if a < (i & 0xFFFFFFFF) else 0",
    XORI: "a ^ (i & 0xFFFFFFFF)",
    ORI: "a | (i & 0xFFFFFFFF)",
    ANDI: "a & (i & 0xFFFFFFFF)",
    SLLI: "(a << i) & 0xFFFFFFFF",
    SRLI: "a >> i",
    SRAI: "(sa >> i) & 0xFFFFFFFF",
    ADD: "(a + b) & 0xFFFFFFFF",
    SUB: "(a - b) & 0xFFFFFFFF",
    SLL: "(a << (b & 31)) & 0xFFFFFFFF",
    SLT: "1 if sa < sb else 0",
    SLTU: "1 if a < b else 0",
    XOR: "a ^ b",
    SRL: "a >> (b & 31)",
    SRA: "(sa >> (b & 31)) & 0xFFFFFFFF",
    OR: "a | b",
    AND: "a & b",
}

#: taken condition of each conditional branch, ``BEQ`` ... ``BGEU``
TAKEN: Dict[int, str] = {
    BEQ: "a == b",
    BNE: "a != b",
    BLT: "sa < sb",
    BGE: "sa >= sb",
    BLTU: "a < b",
    BGEU: "a >= b",
}

_OPERAND = re.compile(r"\b(?:sa|sb|a|b|i)\b")


def operands(expr: str) -> set:
    """The operand names a :data:`VALUE` or :data:`TAKEN` entry uses."""
    return set(_OPERAND.findall(expr))


def expand(expr: str, names: Dict[str, str]) -> str:
    """``expr`` with each operand name replaced by ``names[name]``."""
    return _OPERAND.sub(lambda match: names[match.group()], expr)


def signed(value: str) -> str:
    """Expression for the signed form of the unsigned 32-bit ``value``."""
    return f"{value} - 0x100000000 if {value} >= 0x80000000 else {value}"


_BRANCH_BY_F3 = {0: BEQ, 1: BNE, 4: BLT, 5: BGE, 6: BLTU, 7: BGEU}
_LOAD_BY_F3 = {0: LB, 1: LH, 2: LW, 4: LBU, 5: LHU}
_STORE_BY_F3 = {0: SB, 1: SH, 2: SW}
_IMM_BY_F3 = {0: ADDI, 2: SLTI, 3: SLTIU, 4: XORI, 6: ORI, 7: ANDI}
_REG_BY_F3 = {0: ADD, 1: SLL, 2: SLT, 3: SLTU, 4: XOR, 5: SRL, 6: OR, 7: AND}
_MUL_BY_F3 = {0: MUL, 1: MULH, 2: MULHSU, 3: MULHU, 4: DIV, 5: DIVU,
              6: REM, 7: REMU}
_CSR_BY_F3 = {1: CSRRW, 2: CSRRS, 3: CSRRC, 5: CSRRWI, 6: CSRRSI, 7: CSRRCI}


def decode(word: int) -> Decoded:
    """Decode one instruction word.  Never raises: bad words -> ILLEGAL."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode == 0x13:  # OP-IMM
        imm = (word >> 20) - 4096 if word & 0x80000000 else word >> 20
        if funct3 == 1:
            return (SLLI, rd, rs1, 0, rs2) if funct7 == 0 else _illegal(word)
        if funct3 == 5:
            if funct7 == 0:
                return (SRLI, rd, rs1, 0, rs2)
            if funct7 == 0x20:
                return (SRAI, rd, rs1, 0, rs2)
            return _illegal(word)
        return (_IMM_BY_F3[funct3], rd, rs1, 0, imm)

    if opcode == 0x33:  # OP
        if funct7 == 0x01:
            return (_MUL_BY_F3[funct3], rd, rs1, rs2, 0)
        if funct7 == 0x20:
            if funct3 == 0:
                return (SUB, rd, rs1, rs2, 0)
            if funct3 == 5:
                return (SRA, rd, rs1, rs2, 0)
            return _illegal(word)
        if funct7 == 0x00:
            return (_REG_BY_F3[funct3], rd, rs1, rs2, 0)
        return _illegal(word)

    if opcode == 0x03:  # LOAD
        op = _LOAD_BY_F3.get(funct3)
        if op is None:
            return _illegal(word)
        imm = (word >> 20) - 4096 if word & 0x80000000 else word >> 20
        return (op, rd, rs1, 0, imm)

    if opcode == 0x23:  # STORE
        op = _STORE_BY_F3.get(funct3)
        if op is None:
            return _illegal(word)
        imm = ((word >> 25) << 5) | rd
        if word & 0x80000000:
            imm -= 4096
        return (op, 0, rs1, rs2, imm)

    if opcode == 0x63:  # BRANCH
        op = _BRANCH_BY_F3.get(funct3)
        if op is None:
            return _illegal(word)
        imm = (
            (((word >> 31) & 1) << 12)
            | (((word >> 7) & 1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
        )
        if imm & 0x1000:
            imm -= 0x2000
        return (op, 0, rs1, rs2, imm)

    if opcode == 0x37:
        return (LUI, rd, 0, 0, word & 0xFFFFF000)
    if opcode == 0x17:
        return (AUIPC, rd, 0, 0, word & 0xFFFFF000)

    if opcode == 0x6F:  # JAL
        imm = (
            (((word >> 31) & 1) << 20)
            | (((word >> 12) & 0xFF) << 12)
            | (((word >> 20) & 1) << 11)
            | (((word >> 21) & 0x3FF) << 1)
        )
        if imm & 0x100000:
            imm -= 0x200000
        return (JAL, rd, 0, 0, imm)

    if opcode == 0x67:  # JALR
        if funct3 != 0:
            return _illegal(word)
        imm = (word >> 20) - 4096 if word & 0x80000000 else word >> 20
        return (JALR, rd, rs1, 0, imm)

    if opcode == 0x73:  # SYSTEM
        if funct3 == 0:
            if word == 0x00000073:
                return (ECALL, 0, 0, 0, 0)
            if word == 0x00100073:
                return (EBREAK, 0, 0, 0, 0)
            if word == 0x30200073:
                return (MRET, 0, 0, 0, 0)
            if word == 0x10500073:
                return (WFI, 0, 0, 0, 0)
            return _illegal(word)
        op = _CSR_BY_F3.get(funct3)
        if op is None:
            return _illegal(word)
        return (op, rd, rs1, 0, (word >> 20) & 0xFFF)

    if opcode == 0x0F:  # FENCE / FENCE.I
        return (FENCE, 0, 0, 0, 0)

    return _illegal(word)


def _illegal(word: int) -> Decoded:
    return (ILLEGAL, 0, 0, 0, word)
