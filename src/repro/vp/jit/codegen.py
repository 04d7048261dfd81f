"""Python source generation for superblocks.

Each superblock is compiled once into a specialized closure::

    fn(cpu, limit) -> (count, exit_kind)

with registers hoisted into locals, the decoded tuple's constants
folded into the source and — for DIFT blocks — tag propagation fused
inline.  The body sits in one ``while True:``; every exit sets the exit
pc ``x``, the retired count ``n`` and the kind ``k``, then breaks out to
a single register (and tag) writeback, so the source grows linearly
with the block.  The prologue binds only what the block uses.  Exit
kinds:

* ``0`` — block complete: ``cpu.pc`` points at the successor, ``count``
  instructions retired.  An inner branch taken out of the block exits
  this way too.
* ``1`` — side exit *before* an instruction: ``cpu.pc`` points at that
  instruction, ``count`` covers only the instructions before it, and the
  interpreter re-executes from there (MMIO access, bounds fault, a
  misaligned ``lw``/``sw``, a DIFT clearance that needs
  ``check_execution``, or a failed fetch guard with ``count == 0``).
  Nothing of the exiting instruction has retired, so interpretation
  from ``cpu.pc`` is exact.
* ``2`` — self-modifying-code exit *after* a store into a code line: the
  store has fully retired (``count`` includes it), the block has already
  called the invalidation hook, and ``cpu.pc`` points at the successor.

The builder scans through forward conditional branches, so a block can
hold inner branches.  An inner branch whose target is a later
instruction of the block, and whose skipped region nests inside every
enclosing one, becomes ``if cond: n -= K`` / ``else: <skipped
instructions>``; any other inner branch exits to its target.  ``n`` is
the running count: the instruction at index ``i`` has ``n + i``
instructions retired before it, a taken skip subtracts its length, and
the block's ``length`` — its longest path, every instruction — bounds
the budget (``n + length <= limit``).

Blocks whose terminator jumps back to their own entry are compiled in
looping form: the body re-enters locally until the branch falls out or
the remaining quantum budget cannot fit another iteration, which is
what buys the >=3x on tight loops — one dispatch, one writeback,
thousands of retired instructions.

ALU, shift and branch code is emitted from :data:`repro.vp.decode.VALUE`
and :data:`~repro.vp.decode.TAKEN`, and DIFT tag code from the tag-rule
table beside them, the tables the interpreter loops and the offline
monitor are compiled from.  Each instruction's operands are substituted:
registers become locals ``r<n>`` with tags ``t<n>``, ``x0`` the literal
``0`` with the bottom tag, the immediate a literal, and a signed operand
the temporary ``sx`` or ``sy``.  CPython folds the constant parts.
``addi`` keeps its ``li``/``mv`` forms (and ``addi rd, rd, 0`` emits
nothing); ``mul`` is inline and the rest of the M extension calls
``md``, the interpreter's ``_muldiv``.  Aligned in-RAM ``lw``/``sw`` use
the 32-bit views ``cpu.ram32`` and ``cpu.tags32``; a misaligned
``lw``/``sw`` side-exits to the interpreter, and sub-word accesses keep
the byte path.

Correctness notes (the differential suite enforces all of these):

* Generated code never decodes and never touches ``cpu._decode_cache``;
  the builder only accepted words already in the cache, so cache
  population — and the ``cpu.decode_cache.*`` gauges and snapshot
  section — match interpreted runs exactly.
* The DIFT fetch guard side-exits whenever any byte tag under the block
  is not lattice bottom.  ``flow[bottom][req]`` is True by lattice
  construction (bottom reaches every class), so an all-bottom range is
  exactly the case where the interpreter's per-instruction fetch check
  passes without calling ``check_execution``.  The guard is re-checked
  only at block entry: the tags under the block can change mid-block
  only through the block's own stores, and those take the SMC exit.
* Clearance checks are compiled as raw ``flow`` lookups that side-exit
  on failure — inner branches included; the interpreter then repeats
  the lookup and performs the ``check_execution`` bookkeeping
  (``checks_performed``, violation records, RAISE-mode exceptions) with
  identical arguments.
* The caller guarantees ``regs[0] == 0`` (and ``tags[0] == bottom`` for
  DIFT blocks), so x0 operands fold to literals.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.vp import decode as D
from repro.vp.cpu import _muldiv

_MASK32 = 0xFFFFFFFF

#: prologue binding of each name generated code may use, in emit order
_BINDINGS = (("ram", "cpu.ram"), ("mt", "cpu.ram_tags"),
             ("m32", "cpu.ram32"), ("t32", "cpu.tags32"))
#: default-argument constants of the generated ``block`` function
_DEFAULTS = ("md", "cp", "iv", "lb", "fl")


class Superblock:
    """A compiled superblock plus its dispatch bookkeeping."""

    __slots__ = ("entry", "length", "dift", "loop", "fn", "lines",
                 "source", "completes", "sidexits", "barren")

    def __init__(self, entry: int, length: int, dift: bool, loop: bool,
                 fn, lines: Tuple[int, ...], source: str):
        self.entry = entry
        self.length = length   # longest path: every instruction
        self.dift = dift
        self.loop = loop
        self.fn = fn
        self.lines = lines     # 16-byte RAM lines holding the block's code
        self.source = source
        self.completes = 0     # exits with kind 0
        self.sidexits = 0      # exits with kind 1 or 2
        self.barren = 0        # kind-1 exits that retired nothing

    def __repr__(self) -> str:
        kind = "dift" if self.dift else "plain"
        shape = "loop" if self.loop else "line"
        return (f"Superblock({self.entry:#010x}, len={self.length}, "
                f"{kind}, {shape})")


def compile_block(cpu, code_lines, invalidate_write, instrs,
                  terminated: bool, dift: bool) -> Optional[Superblock]:
    """Compile ``instrs`` (from the builder) into a :class:`Superblock`.

    Returns ``None`` for a block holding an opcode from ``ECALL`` on
    (system, CSR or illegal), which the builder never passes: the
    generator has no code for them.
    """
    entry = instrs[0][0]
    length = len(instrs)
    last_pc, last_d = instrs[-1]
    base = cpu.ram_base
    end = cpu.ram_end
    bottom = cpu._bottom
    fetch_req = cpu.dift.fetch_req if dift else None
    branch_req = cpu.dift.branch_req if dift else None
    memaddr_req = cpu.dift.memaddr_req if dift else None

    loop = False
    if terminated:
        top_op = last_d[0]
        if top_op == D.JAL or D.BEQ <= top_op <= D.BGEU:
            loop = ((last_pc + last_d[4]) & _MASK32) == entry

    if any(d[0] >= D.ECALL for __, d in instrs):
        return None  # pragma: no cover - the builder never passes these
    # decode() zeroes every field an opcode does not use, so the fields
    # themselves are the registers a block reads and writes
    wb_regs = sorted({d[1] for __, d in instrs} - {0})
    hoisted = sorted({r for __, d in instrs for r in d[1:4]} - {0})

    # ---- expression helpers ---------------------------------------- #
    need: Set[str] = set()   # prologue bindings and defaults in use

    def rx(j: int) -> str:
        return "0" if j == 0 else f"r{j}"

    def tx(j: int) -> str:
        return str(bottom) if j == 0 else f"t{j}"

    def tag(rule: str, rs1: int = 0, rs2: int = 0, t: str = "t") -> str:
        """A tag rule of :mod:`repro.vp.decode` over the instruction's
        register tags, the stored tag ``t`` and the locals ``lb``, ``mt``
        and ``tw``; binds the tables it reads."""
        text = D.expand(rule, {"t1": tx(rs1), "t2": tx(rs2), "t": t,
                               "lub": "lb", "bottom": str(bottom),
                               "o": off_name})
        need.update(name for name in ("lb", "mt") if f"{name}[" in text)
        return text

    def denied(tag: str, req: int) -> str:
        need.add("fl")
        return f"not fl[{tag}][{req}]"

    def semantics(ind: int, expr: str, rs1: int, rs2: int, imm: int) -> str:
        """A :data:`~repro.vp.decode.VALUE` or ``TAKEN`` entry over the
        instruction's operands; emits the signed temporaries ``sx``/``sy``
        it reads first (an x0 operand is the literal ``0``)."""
        text = D.expand(expr, {"a": rx(rs1), "b": rx(rs2), "i": str(imm),
                               "sa": "sx" if rs1 else "0",
                               "sb": "sy" if rs2 else "0"})
        for tmp, reg in (("sx", rs1), ("sy", rs2)):
            if tmp in text:
                emit(ind, f"{tmp} = {D.signed(rx(reg))}")
        return text

    def addr_expr(rs1: int, imm: int) -> str:
        if rs1 == 0:
            return str(imm & _MASK32)
        if imm == 0:
            return rx(rs1)
        return f"({rx(rs1)} + {imm}) & 0xFFFFFFFF"

    # RAM offset of the access address ``a``, and of the byte ``k`` past it
    off_name = "a" if base == 0 else "o"

    def offs(k: int) -> str:
        return off_name if k == 0 else f"{off_name} + {k}"

    lines: List[str] = []

    def emit(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    def leave(ind: int, pc_expr, count: int, kind: int) -> None:
        """Exit: exit pc, retired count and kind, then the epilogue."""
        emit(ind, f"x = {pc_expr}")
        if count:
            emit(ind, f"n += {count}")
        emit(ind, f"k = {kind}")
        emit(ind, "break")

    def branch_clearance(ind: int, i: int, pc: int, op: int, rs1: int,
                         rs2: int) -> None:
        if branch_req is not None:
            check = tag(D.CHECK_TAG[op], rs1, rs2)
            emit(ind, f"if {denied(check, branch_req)}:")
            leave(ind + 1, pc, i, 1)

    def access_guard(ind: int, i: int, pc: int, op: int, rs1: int,
                     imm: int, size: int) -> None:
        """``a`` = the address; side-exit unless it is a cleared in-RAM
        access, word-aligned for ``lw``/``sw``."""
        emit(ind, f"a = {addr_expr(rs1, imm)}")
        tests = ["a & 3"] if size == 4 else []
        if base:
            tests.append(f"a < {base}")
        tests.append(f"a > {end - size}")
        if memaddr_req is not None:
            tests.append(denied(tag(D.CHECK_TAG[op], rs1), memaddr_req))
        emit(ind, f"if {' or '.join(tests)}:")
        leave(ind + 1, pc, i, 1)
        if base:
            emit(ind, f"o = a - {base}")

    def smc_exit(ind: int, i: int, pc: int, size: int) -> None:
        """Kind-2 exit after a store that hit a compiled code line; only
        a halfword can straddle two lines (a word store is aligned)."""
        need.update(("cp", "iv"))
        test = f"{off_name} >> 4 in cp"
        if size == 2:
            test += f" or ({off_name} + 1) >> 4 in cp"
        emit(ind, f"if cp and ({test}):")
        emit(ind + 1, f"iv({off_name}, {size})")
        leave(ind + 1, pc + 4, i + 1, 2)

    # ---- straight-line instructions -------------------------------- #
    def emit_op(ind: int, i: int, pc: int, d: tuple) -> None:
        """One non-branch instruction (FENCE emits nothing)."""
        op, rd, rs1, rs2, imm = d

        if op <= D.AUIPC:  # LUI, AUIPC
            if rd:
                value = imm if op == D.LUI else (pc + imm) & _MASK32
                emit(ind, f"r{rd} = {value}")
                if dift:
                    emit(ind, f"t{rd} = {tag(D.RD_TAG[op])}")

        elif op == D.LW:
            access_guard(ind, i, pc, op, rs1, imm, 4)
            if rd:
                need.add("m32")
                if not dift:
                    emit(ind, f"r{rd} = m32[{off_name} >> 2]")
                else:
                    need.add("t32")
                    emit(ind, f"w = {off_name} >> 2")
                    emit(ind, f"r{rd} = m32[w]")
                    emit(ind, "tw = t32[w]")
                    emit(ind, f"t{rd} = {tag(D.WORD_TAG)}")

        elif op <= D.LHU:  # sub-word loads
            size = 2 if op in (D.LH, D.LHU) else 1
            access_guard(ind, i, pc, op, rs1, imm, size)
            if rd:
                need.add("ram")
                if op == D.LBU:
                    emit(ind, f"r{rd} = ram[{offs(0)}]")
                elif op == D.LB:
                    emit(ind, f"v = ram[{offs(0)}]")
                    emit(ind, f"r{rd} = v + 0xFFFFFF00 if v >= 0x80 else v")
                elif op == D.LHU:
                    emit(ind, f"r{rd} = ram[{offs(0)}] | "
                              f"(ram[{offs(1)}] << 8)")
                else:  # LH
                    emit(ind, f"v = ram[{offs(0)}] | (ram[{offs(1)}] << 8)")
                    emit(ind, f"r{rd} = v + 0xFFFF0000 if v >= 0x8000 else v")
                if dift:
                    emit(ind, f"t{rd} = {tag(D.LOAD_TAG[size])}")

        elif op == D.SW:
            access_guard(ind, i, pc, op, rs1, imm, 4)
            need.add("m32")
            if dift:
                need.add("t32")
                emit(ind, f"w = {off_name} >> 2")
                emit(ind, f"m32[w] = {rx(rs2)}")
                stored = tag(D.STORE_TAG, rs2=rs2)
                emit(ind, f"t32[w] = {tag(D.STORE_WORD, t=stored)}")
            else:
                emit(ind, f"m32[{off_name} >> 2] = {rx(rs2)}")
            smc_exit(ind, i, pc, 4)

        elif op <= D.SH:  # sub-word stores
            size = 1 if op == D.SB else 2
            access_guard(ind, i, pc, op, rs1, imm, size)
            need.add("ram")
            v = rx(rs2)
            if op == D.SB:
                emit(ind, f"ram[{offs(0)}] = "
                          + ("0" if not rs2 else f"{v} & 0xFF"))
            elif rs2:
                emit(ind, f"ram[{offs(0)}] = {v} & 0xFF")
                emit(ind, f"ram[{offs(1)}] = ({v} >> 8) & 0xFF")
            else:
                emit(ind, f"ram[{offs(0)}] = 0")
                emit(ind, f"ram[{offs(1)}] = 0")
            if dift:
                need.add("mt")
                stored = tag(D.STORE_TAG, rs2=rs2)
                for k in range(size):
                    emit(ind, f"mt[{offs(k)}] = {stored}")
            smc_exit(ind, i, pc, size)

        elif op <= D.REMU and rd:  # ALU, shifts and the M extension
            if op == D.ADDI and not (rs1 and imm):  # li / mv
                expr = rx(rs1) if rs1 else str(imm & _MASK32)
            elif op == D.MUL:
                expr = f"({rx(rs1)} * {rx(rs2)}) & 0xFFFFFFFF"
            elif op > D.MUL:
                need.add("md")
                expr = f"md({op}, {rx(rs1)}, {rx(rs2)})"
            else:
                expr = semantics(ind, D.VALUE[op], rs1, rs2, imm)
            if expr != f"r{rd}":
                emit(ind, f"r{rd} = {expr}")
            if dift:
                expr = tag(D.RD_TAG[op], rs1, rs2)
                if expr != f"t{rd}":
                    emit(ind, f"t{rd} = {expr}")

    body = 2  # inside ``def`` and ``while True:``
    # the end index and ``else:`` line of every open skip region,
    # innermost last
    regions: List[Tuple[int, int]] = []

    def close_regions(i: int) -> None:
        while regions and regions[-1][0] == i:
            __, at = regions.pop()
            if all(ln.lstrip().startswith("#") for ln in lines[at + 1:]):
                emit(body + len(regions) + 1, "pass")

    straight = instrs[:-1] if terminated else instrs
    for i, (pc, d) in enumerate(straight):
        close_regions(i)
        ind = body + len(regions)
        op, __, rs1, rs2, imm = d
        emit(ind, f"# [{i}] {pc:#010x} {D.OP_NAMES[op]}")
        if not D.BEQ <= op <= D.BGEU:
            emit_op(ind, i, pc, d)
            continue
        # inner forward branch: a skip region if its target is a later
        # instruction inside every open region, else an exit
        branch_clearance(ind, i, pc, op, rs1, rs2)
        target = (pc + imm) & _MASK32
        j = (target - entry) >> 2
        bound = regions[-1][0] if regions else length - 1
        if target & 3 or not i < j <= bound:
            emit(ind, f"if {semantics(ind, D.TAKEN[op], rs1, rs2, imm)}:")
            leave(ind + 1, target, i + 1, 0)
        elif j > i + 1:
            emit(ind, f"if {semantics(ind, D.TAKEN[op], rs1, rs2, imm)}:")
            emit(ind + 1, f"n -= {j - i - 1}")
            emit(ind, "else:")
            regions.append((j, len(lines) - 1))
        # else: a branch to pc + 4 goes there either way
    close_regions(length - 1)

    # ---- terminator ------------------------------------------------- #
    if not terminated:
        emit(body, f"# fall-through at {last_pc + 4:#010x}")
        leave(body, last_pc + 4, length, 0)
    else:
        op, rd, rs1, rs2, imm = last_d
        i = length - 1
        emit(body, f"# [{i}] {last_pc:#010x} {D.OP_NAMES[op]}")

        if op == D.JAL:
            if rd:
                emit(body, f"r{rd} = {last_pc + 4}")
                if dift:
                    emit(body, f"t{rd} = {tag(D.RD_TAG[op])}")
            target = (last_pc + imm) & _MASK32
            if loop:
                emit(body, f"n += {length}")
                emit(body, f"if n + {length} <= limit:")
                emit(body + 1, "continue")
                leave(body, target, 0, 0)
            else:
                leave(body, target, length, 0)

        elif op == D.JALR:
            if branch_req is not None:
                check = tag(D.CHECK_TAG[op], rs1)
                emit(body, f"if {denied(check, branch_req)}:")
                leave(body + 1, last_pc, i, 1)
            # the target reads rs1 before rd is written (rd may be rs1)
            if rs1 == 0:
                emit(body, f"x = {imm & 0xFFFFFFFE}")
            else:
                emit(body, f"x = ({rx(rs1)} + {imm}) & 0xFFFFFFFE")
            if rd:
                emit(body, f"r{rd} = {last_pc + 4}")
                if dift:
                    emit(body, f"t{rd} = {tag(D.RD_TAG[op])}")
            emit(body, f"n += {length}")
            emit(body, "k = 0")
            emit(body, "break")

        else:  # conditional branch
            taken = (last_pc + imm) & _MASK32
            fall = last_pc + 4
            branch_clearance(body, i, last_pc, op, rs1, rs2)
            cond = semantics(body, D.TAKEN[op], rs1, rs2, imm)
            if loop:
                emit(body, f"n += {length}")
                emit(body, f"if {cond}:")
                emit(body + 1, f"if n + {length} <= limit:")
                emit(body + 2, "continue")
                emit(body + 1, f"x = {taken}")
                emit(body, "else:")
                emit(body + 1, f"x = {fall}")
                emit(body, "k = 0")
                emit(body, "break")
            else:
                leave(body, f"{taken} if {cond} else {fall}", length, 0)

    # ---- prologue and epilogue -------------------------------------- #
    defaults = "".join(f", {name}={name.upper()}"
                       for name in _DEFAULTS if name in need)
    head: List[str] = [f"def block(cpu, limit{defaults}):"]
    if fetch_req is not None:
        lo = entry - base
        hi = last_pc + 4 - base
        head.append("    mt = cpu.ram_tags")
        head.append(f"    if mt.count({bottom}, {lo}, {hi}) != {hi - lo}:")
        head.append("        return 0, 1")
        need.discard("mt")
    if hoisted:
        head.append("    regs = cpu.regs")
        if dift:
            head.append("    tags = cpu.tags")
    for name, attr in _BINDINGS:
        if name in need:
            head.append(f"    {name} = {attr}")
    head += [f"    r{j} = regs[{j}]" for j in hoisted]
    if dift:
        head += [f"    t{j} = tags[{j}]" for j in hoisted]
    head += ["    n = 0", "    while True:"]
    tail = [f"    regs[{j}] = r{j}" for j in wb_regs]
    if dift:
        tail += [f"    tags[{j}] = t{j}" for j in wb_regs]
    tail += ["    cpu.pc = x", "    return n, k"]

    # ---- compile ---------------------------------------------------- #
    source = "\n".join(head + lines + tail) + "\n"
    flavor = "dift" if dift else "plain"
    namespace = {
        "MD": _muldiv,
        "CP": code_lines,
        "IV": invalidate_write,
        "LB": cpu.dift.lub if dift else None,
        "FL": cpu.dift.flow if dift else None,
    }
    code = compile(source, f"<jit:{flavor}:{entry:#010x}>", "exec")
    exec(code, namespace)

    lo_line = (entry - base) >> 4
    hi_line = (last_pc + 3 - base) >> 4
    lines16 = tuple(range(lo_line, hi_line + 1))
    return Superblock(entry, length, dift, loop, namespace["block"],
                      lines16, source)
