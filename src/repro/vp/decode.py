"""Fast RV32IM(+Zicsr) instruction decoder for the ISS.

Decodes a 32-bit instruction word into a compact tuple
``(op, rd, rs1, rs2, imm)`` where ``op`` is one of the dense integer
opcode IDs below.  A field the opcode does not use is 0, so ``rd`` is 0
for stores and branches and ``rs2`` is 0 for every I-type instruction.
The ISS keeps a word -> tuple decode cache, so decoding happens once per
distinct instruction word; the executors dispatch on the dense ID with
an if/elif ladder ordered by dynamic frequency.

:data:`VALUE` and :data:`TAKEN` state what the ALU, shift and branch
opcodes compute, once, as Python expressions, and the tag-rule table
beside them states the paper's propagation and clearance rules the same
way.  The interpreter loops of :mod:`repro.vp.cpu`, the superblock code
generator of :mod:`repro.vp.jit.codegen` and the offline monitor of
:mod:`repro.dift.monitor` all emit their code from these tables;
:mod:`repro.verify.reference` states the same semantics independently.

The encoding knowledge here deliberately duplicates
:mod:`repro.asm.isa` (the assembler's tables): the test suite cross-checks
the two against each other, which would be impossible if they shared code.
"""

from __future__ import annotations

import inspect
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
# own operand text with :func:`expand`.  Within each group the entries
# are listed in the order the interpreter tests them: most frequent
# first.

#: result of each ALU and shift opcode, ``ADDI`` ... ``AND``
VALUE: Dict[int, str] = {
    ADDI: "(a + i) & 0xFFFFFFFF",
    ANDI: "a & (i & 0xFFFFFFFF)",
    ORI: "a | (i & 0xFFFFFFFF)",
    XORI: "a ^ (i & 0xFFFFFFFF)",
    SLTIU: "1 if a < (i & 0xFFFFFFFF) else 0",
    SLTI: "1 if sa < i else 0",
    SLLI: "(a << i) & 0xFFFFFFFF",
    SRLI: "a >> i",
    SRAI: "(sa >> i) & 0xFFFFFFFF",
    ADD: "(a + b) & 0xFFFFFFFF",
    SUB: "(a - b) & 0xFFFFFFFF",
    AND: "a & b",
    OR: "a | b",
    XOR: "a ^ b",
    SLL: "(a << (b & 31)) & 0xFFFFFFFF",
    SRL: "a >> (b & 31)",
    SRA: "(sa >> (b & 31)) & 0xFFFFFFFF",
    SLTU: "1 if a < b else 0",
    SLT: "1 if sa < sb else 0",
}

#: taken condition of each conditional branch, ``BEQ`` ... ``BGEU``
TAKEN: Dict[int, str] = {
    BEQ: "a == b",
    BNE: "a != b",
    BLTU: "a < b",
    BGEU: "a >= b",
    BLT: "sa < sb",
    BGE: "sa >= sb",
}

# The tag rules of Section V-B, as Python expressions over ``t1``/``t2``
# (the rs1/rs2 tags), ``lub`` (the lattice's LUB table) and ``bottom``.
# The RAM rules read ``mt`` (the RAM tag bytes) at offset ``o``, or
# ``tw``, the 32-bit tag word at an aligned offset; the store rules name
# the stored tag ``t``.

#: tag each opcode writes to rd (loads and CSR instructions have their
#: own rules)
RD_TAG: Dict[int, str] = {
    LUI: "bottom", AUIPC: "bottom", JAL: "bottom", JALR: "bottom",
    **dict.fromkeys(range(ADDI, SRAI + 1), "t1"),
    **dict.fromkeys(range(ADD, REMU + 1), "lub[t1][t2]"),
}

#: tag each opcode's execution-clearance check tests (Section V-B2): a
#: branch condition, a jump target (``mret``'s is ``mepc``) or an address
CHECK_TAG: Dict[int, str] = {
    JALR: "t1",
    **dict.fromkeys(range(BEQ, BGEU + 1), "lub[t1][t2]"),
    **dict.fromkeys(range(LB, SW + 1), "t1"),
    MRET: "csr.tag(CSR.MEPC)",
}

#: tag the clearance check of a trap entry tests (the handler address),
#: and the tag the entry gives ``mepc`` (a pc, which no data flows into)
TRAP_TAG = "csr.tag(CSR.MTVEC)"
EPC_TAG = "bottom"

#: tag of the 1, 2 or 4 RAM bytes from ``o`` that a load reads; ``4`` is
#: a misaligned word
LOAD_TAG: Dict[int, str] = {
    1: "mt[o]",
    2: "lub[mt[o]][mt[o + 1]]",
    4: "lub[lub[lub[mt[o]][mt[o + 1]]][mt[o + 2]]][mt[o + 3]]",
}

#: tag of an aligned RAM word, for ``lw`` and the fetch check: a uniform
#: tag word is its own LUB, because LUB is idempotent; only a mixed word
#: folds its bytes
WORD_TAG = ("tw & 0xFF if tw == (tw & 0xFF) * 0x01010101 else "
            "lub[lub[lub[tw & 0xFF][(tw >> 8) & 0xFF]]"
            "[(tw >> 16) & 0xFF]][tw >> 24]")

#: tag a store writes to each RAM byte, and the tag word an aligned
#: ``sw`` of tag ``t`` writes
STORE_TAG = "t2"
STORE_WORD = "t * 0x01010101"

def expand(expr: str, names: Dict[str, str]) -> str:
    """``expr`` with every name in ``names`` replaced by its value."""
    pattern = r"\b(?:" + "|".join(names) + r")\b"
    return re.sub(pattern, lambda match: names[match.group()], expr)


def signed(value: str) -> str:
    """Expression for the signed form of the unsigned 32-bit ``value``."""
    return f"{value} - 0x100000000 if {value} >= 0x80000000 else {value}"


#: a placeholder in a template, written as a call on the keys it stands
#: for and then on the locals its expansion reads: ``_VALUE(D.ADDI,
#: D.ANDI, op, a, i)`` stands for the entries of the opcodes ``ADDI`` to
#: ``ANDI``, ``_LOAD_TAG(1, mtags, o)`` for one entry and
#: ``_WORD_TAG(tw, lub)`` for a rule that is one expression
_PLACEHOLDER = re.compile(r"\b_(VALUE|TAKEN|RD_TAG|CHECK_TAG|TRAP_TAG|"
                          r"EPC_TAG|LOAD_TAG|WORD_TAG|STORE_TAG|STORE_WORD)"
                          r"\(([^()]*)\)")

#: what the tables' names stand for in a template, over its locals: the
#: rs1/rs2 values ``a``/``b`` (ISS loop only), the register tags ``tags``
#: of the decoded instruction ``d`` and the RAM tag bytes ``mtags``
_TEMPLATE_NAMES = {"sa": f"({signed('a')})", "sb": f"({signed('b')})",
                   "t1": "tags[d[2]]", "t2": "tags[d[3]]", "mt": "mtags"}


def _expand(match) -> str:
    """One line for a placeholder: ``(e1) if op == D.X1 else ... else
    (en)`` in the table's order, the chain ending where the entries left
    all share one expression (the whole line, if every entry does)."""
    table = globals()[match.group(1)]
    if isinstance(table, str):
        return expand(table, _TEMPLATE_NAMES)
    keys = [int(arg) if arg.isdigit() else globals()[arg[2:]]
            for arg in match.group(2).split(", ")
            if arg.isdigit() or arg.startswith("D.")]
    exprs = [(key, expand(expr, _TEMPLATE_NAMES))
             for key, expr in table.items() if keys[0] <= key <= keys[-1]]
    head = ""
    while len({expr for __, expr in exprs}) > 1:
        (key, expr), *exprs = exprs
        head += f"({expr}) if op == D.{OP_NAMES[key].upper()} else "
    return f"{head}({exprs[0][1]})" if head else exprs[0][1]


def specialize(cls, template: str, variants=None) -> None:
    """Compile the method ``template`` of ``cls`` again from its source,
    with each placeholder (:data:`_PLACEHOLDER`) expanded on its line.

    ``variants`` maps the name of each method to compile to the literal
    that replaces ``_DIFT`` in it; by default ``template`` is compiled in
    place.  Each is compiled at the template's own line numbers in a
    ``class`` header, so it keeps the qualified name ``<class>.<name>``
    and the template's file and lines.  A template no variant keeps is
    removed.
    """
    fn = vars(cls)[template]
    lines, first = inspect.getsourcelines(fn)
    text = _PLACEHOLDER.sub(_expand, "".join(lines))
    variants = variants or {template: None}
    for name, flag in variants.items():
        source = text.replace(f"def {template}(", f"def {name}(", 1)
        source = ("\n" * (first - 2) + f"class {cls.__name__}:\n"
                  + source.replace("_DIFT", str(flag)))
        namespace: dict = {}
        exec(compile(source, fn.__code__.co_filename, "exec"),
             fn.__globals__, namespace)
        setattr(cls, name, vars(namespace[cls.__name__])[name])
    if template not in variants:
        delattr(cls, template)


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
