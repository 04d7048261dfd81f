"""The opcode table agrees with the reference interpreter.

:data:`repro.vp.decode.VALUE` and :data:`~repro.vp.decode.TAKEN` state
what the ALU, shift and branch opcodes compute, once; the interpreter
loops and the JIT's code generator both emit from them.  These checks
expand every entry over edge operands with the helpers the emitters use,
evaluate it, and compare the result with the handler
:mod:`repro.verify.reference` writes by hand for the same opcode.

Only the standard library is used, so the module also runs as a plain
script on interpreters without pytest::

    PYTHONPATH=src python tests/test_opcode_table.py
"""

from repro.verify.reference import ReferenceCpu
from repro.vp import decode as D

#: register values at the edges of the unsigned and signed ranges and of
#: the shift amount
_VALUES = (0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0x80000001,
           0xFFFFFFFE, 0xFFFFFFFF)
#: decoded I-type immediates, negative ones included
_IMMEDIATES = (0, 1, 31, 32, 2047, -1, -2, -32, -2048)
_SHIFTS = (0, 1, 2, 31)

_RD, _RS1, _RS2 = 3, 1, 2
_PC, _OFFSET = 0x100, 8


def _table_value(expr, a, b, i):
    """``expr`` over literal operands, expanded as the emitters expand it."""
    names = {"a": str(a), "b": str(b), "i": str(i),
             "sa": f"({D.signed(str(a))})", "sb": f"({D.signed(str(b))})"}
    return eval(D.expand(expr, names), {})


def _operands(op):
    """(a, b, i) triples an opcode's entry is checked on."""
    if op <= D.BGEU or op >= D.ADD:
        return [(a, b, 0) for a in _VALUES for b in _VALUES]
    immediates = _SHIFTS if op >= D.SLLI else _IMMEDIATES
    return [(a, 0, i) for a in _VALUES for i in immediates]


def _reference(op, a, b, i):
    """What the reference handler computes: rd for an ALU opcode, whether
    the branch is taken for a branch."""
    cpu = ReferenceCpu(memory_size=0x200)
    cpu.pc = _PC
    cpu.regs[_RS1] = a
    cpu.regs[_RS2] = b
    if op <= D.BGEU:
        cpu._handlers[op](0, _RS1, _RS2, _OFFSET)
        assert cpu.pc in (_PC + 4, _PC + _OFFSET)
        return cpu.pc == _PC + _OFFSET
    cpu._handlers[op](_RD, _RS1, _RS2, i)
    return cpu.regs[_RD]


def test_tables_cover_the_alu_and_branch_opcodes():
    assert sorted(D.VALUE) == list(range(D.ADDI, D.AND + 1))
    assert sorted(D.TAKEN) == list(range(D.BEQ, D.BGEU + 1))


def test_every_entry_matches_the_reference():
    mismatches = []
    for table in (D.VALUE, D.TAKEN):
        for op, expr in sorted(table.items()):
            for a, b, i in _operands(op):
                got = _table_value(expr, a, b, i)
                want = _reference(op, a, b, i)
                if got != want or type(got) is not type(want):
                    mismatches.append(
                        f"{D.OP_NAMES[op]} a={a:#x} b={b:#x} i={i}: "
                        f"table {got!r}, reference {want!r}")
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    for _name, _check in sorted(globals().items()):
        if _name.startswith("test_") and callable(_check):
            _check()
            print(f"ok  {_name}")
