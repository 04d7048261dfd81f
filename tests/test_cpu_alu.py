"""ISS ALU semantics, cross-checked against Python reference arithmetic.

The property tests draw operands from the edges of the signed, unsigned
and 12-bit immediate ranges as well as from random words, and run every
case on both interpreter loops: the plain VP (``BareCpu()``) and the
DIFT VP+ (``BareCpu(policy)``), where the result must also carry the
classified operand's tag.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.policy import builders
from tests.conftest import BareCpu, simple_conf_policy

_WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)
_MASK = 0xFFFFFFFF

#: operand values at the edges of the signed, unsigned and 12-bit ranges
_EDGES = (0, 1, 0x7FF, 0x800, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
_OPERAND = st.one_of(st.sampled_from(_EDGES), _WORD)
_IMM = st.one_of(st.sampled_from((0, 1, 0x7FF, -0x800, -1)),
                 st.integers(min_value=-2048, max_value=2047))
_SHAMT = st.one_of(st.sampled_from((0, 1, 31)),
                   st.integers(min_value=0, max_value=31))

#: the plain loop (no policy) and the DIFT loop, whose runs classify a1
_LOOPS = (None, simple_conf_policy)
_HC = simple_conf_policy().tag_of(builders.HC)


@st.composite
def _operands(draw):
    """Two register operands, equal in about half of the draws."""
    a = draw(_OPERAND)
    return a, draw(st.one_of(_OPERAND, st.just(a)))


@st.composite
def _operand_and_imm(draw):
    """A register operand and an immediate; in about half of the draws
    the operand equals the sign-extended immediate."""
    imm = draw(_IMM)
    return draw(st.one_of(_OPERAND, st.just(imm & _MASK))), imm


def _signed(x):
    return x - (1 << 32) if x >= (1 << 31) else x


def _run(source: str, a: int, b: int, policy) -> int:
    """Execute ``source`` with a1=a, a2=b; returns a0.

    With a policy the DIFT loop runs it, with a1 classified: a0 must
    come out carrying a1's tag (the LUB with a2's bottom tag)."""
    cpu = BareCpu(policy() if policy else None)
    cpu.put_source(source)
    cpu.regs[11] = a
    cpu.regs[12] = b
    if policy:
        cpu.tags[11] = _HC
    cpu.step()
    if policy:
        assert cpu.tags[10] == _HC, source
    return cpu.regs[10]


def run_rr(op: str, a: int, b: int, policy=None) -> int:
    """Execute `op a0, a1, a2` with a1=a, a2=b; returns a0."""
    return _run(f"{op} a0, a1, a2", a, b, policy)


def run_ri(op: str, a: int, imm: int, policy=None) -> int:
    return _run(f"{op} a0, a1, {imm}", a, 0, policy)


class TestBasicOps:
    def test_add_sub(self):
        assert run_rr("add", 2, 3) == 5
        assert run_rr("add", 0xFFFFFFFF, 1) == 0
        assert run_rr("sub", 2, 3) == 0xFFFFFFFF

    def test_logic(self):
        assert run_rr("and", 0xF0F0, 0xFF00) == 0xF000
        assert run_rr("or", 0xF0F0, 0x0F0F) == 0xFFFF
        assert run_rr("xor", 0xFFFF, 0x00FF) == 0xFF00

    def test_shifts(self):
        assert run_rr("sll", 1, 4) == 16
        assert run_rr("sll", 1, 32) == 1       # amount masked to 5 bits
        assert run_rr("srl", 0x80000000, 31) == 1
        assert run_rr("sra", 0x80000000, 31) == 0xFFFFFFFF

    def test_slt(self):
        assert run_rr("slt", 0xFFFFFFFF, 0) == 1    # -1 < 0 signed
        assert run_rr("sltu", 0xFFFFFFFF, 0) == 0   # max > 0 unsigned
        assert run_rr("slt", 3, 3) == 0
        assert run_rr("sltu", 2, 3) == 1

    def test_immediates(self):
        assert run_ri("addi", 10, -3) == 7
        assert run_ri("andi", 0xFF, 0x0F) == 0x0F
        assert run_ri("ori", 0xF0, 0x0F) == 0xFF
        assert run_ri("xori", 0xFF, -1) == 0xFFFFFF00
        assert run_ri("slti", 0xFFFFFFFF, 0) == 1
        assert run_ri("sltiu", 1, 2) == 1
        assert run_ri("slli", 3, 4) == 48
        assert run_ri("srli", 0x100, 4) == 0x10
        assert run_ri("srai", 0x80000000, 4) == 0xF8000000

    def test_andi_negative_immediate(self):
        # andi with imm=-1 keeps the full word
        assert run_ri("andi", 0xDEADBEEF, -1) == 0xDEADBEEF

    def test_lui_auipc(self):
        cpu = BareCpu()
        cpu.put_source("lui a0, 0x12345\nauipc a1, 0x1")
        cpu.step(2)
        assert cpu.regs[10] == 0x12345000
        assert cpu.regs[11] == 0x1004  # pc of auipc is 4

    def test_x0_never_written(self):
        cpu = BareCpu()
        cpu.put_source("addi zero, zero, 5\nadd a0, zero, zero")
        cpu.step(2)
        assert cpu.regs[0] == 0
        assert cpu.regs[10] == 0


class TestInstret:
    def test_counts_executed(self):
        cpu = BareCpu()
        cpu.put_source("nop\nnop\nnop")
        cpu.step(3)
        assert cpu.cpu.csr.instret == 3

    def test_counts_across_quanta(self):
        cpu = BareCpu()
        cpu.put_source("nop\nnop\nnop\nnop")
        cpu.step(2)
        cpu.step(2)
        assert cpu.cpu.csr.instret == 4


# ----------------------------------------------------------------- #
# property tests against the reference semantics, on both loops
# ----------------------------------------------------------------- #


@given(_operands())
def test_add_reference(ab):
    a, b = ab
    for policy in _LOOPS:
        assert run_rr("add", a, b, policy) == (a + b) & _MASK


@given(_operands())
def test_sub_reference(ab):
    a, b = ab
    for policy in _LOOPS:
        assert run_rr("sub", a, b, policy) == (a - b) & _MASK


@given(_operands())
def test_xor_and_or_reference(ab):
    a, b = ab
    for policy in _LOOPS:
        assert run_rr("xor", a, b, policy) == a ^ b
        assert run_rr("and", a, b, policy) == a & b
        assert run_rr("or", a, b, policy) == a | b


@given(_OPERAND, st.one_of(_SHAMT, st.integers(min_value=32, max_value=255),
                           _WORD))
def test_shift_reference(a, b):
    sh = b & 31
    for policy in _LOOPS:
        assert run_rr("sll", a, b, policy) == (a << sh) & _MASK
        assert run_rr("srl", a, b, policy) == a >> sh
        assert run_rr("sra", a, b, policy) == (_signed(a) >> sh) & _MASK


@given(_operands())
@example((5, 5))
@example((0x80000000, 0x80000000))
@example((0x7FFFFFFF, 0x80000000))
def test_slt_reference(ab):
    a, b = ab
    for policy in _LOOPS:
        assert run_rr("slt", a, b, policy) == int(_signed(a) < _signed(b))
        assert run_rr("sltu", a, b, policy) == int(a < b)


@given(_operand_and_imm())
def test_addi_reference(a_imm):
    a, imm = a_imm
    for policy in _LOOPS:
        assert run_ri("addi", a, imm, policy) == (a + imm) & _MASK


@given(_operand_and_imm())
@example((0x7FF, 0x7FF))
@example((0xFFFFF800, -0x800))
@example((0xFFFFFFFF, -1))
@example((0, 0))
def test_slti_sltiu_reference(a_imm):
    a, imm = a_imm
    for policy in _LOOPS:
        assert run_ri("slti", a, imm, policy) == int(_signed(a) < imm)
        assert run_ri("sltiu", a, imm, policy) == int(a < (imm & _MASK))


@given(_operand_and_imm())
def test_logic_immediate_reference(a_imm):
    a, imm = a_imm
    for policy in _LOOPS:
        assert run_ri("xori", a, imm, policy) == a ^ (imm & _MASK)
        assert run_ri("ori", a, imm, policy) == a | (imm & _MASK)
        assert run_ri("andi", a, imm, policy) == a & (imm & _MASK)


@given(_OPERAND, _SHAMT)
def test_shift_immediate_reference(a, sh):
    for policy in _LOOPS:
        assert run_ri("slli", a, sh, policy) == (a << sh) & _MASK
        assert run_ri("srli", a, sh, policy) == a >> sh
        assert run_ri("srai", a, sh, policy) == (_signed(a) >> sh) & _MASK
