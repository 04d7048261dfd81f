"""Python source generation for superblocks.

Each superblock is compiled once into a specialized closure::

    fn(cpu, limit) -> (count, exit_kind)

with registers hoisted into locals and the decoded tuple's constants
folded into the source.  The body sits in one ``while True:``; every
exit sets the exit pc ``x``, the retired count ``n`` and the kind ``k``,
then breaks out to a single register (and tag) writeback, so the source
grows linearly with the block.  The prologue binds only what the block
uses.

A block compiles in one of three flavours from the one emitter:

* *plain* — no tags, for the plain VP and demand mode's clean path;
* *generic* DIFT (``dift=True``) — every tag rule fused inline, with
  register tags hoisted into locals beside the values;
* *clean* DIFT (``dift=True, clean=True``) — the plain block's code plus
  an entry guard on the register tags, a tag test before each RAM load
  and a bottom tag write per store.  Its register tags are bottom, so
  every rule over them yields bottom and every branch, ``jalr`` and
  mem-addr clearance folds away: ``flow[bottom][req]`` always holds.

Exit kinds:

* ``0`` — block complete: ``cpu.pc`` points at the successor, ``count``
  instructions retired.  An inner branch taken out of the block exits
  this way too.
* ``1`` — side exit *before* an instruction: ``cpu.pc`` points at that
  instruction, ``count`` covers only the instructions before it, and the
  interpreter re-executes from there (an access out of RAM at a pc that
  has not completed an MMIO access, a misaligned ``lw``/``sw``, or a DIFT
  clearance that needs ``check_execution``).  Nothing of the exiting
  instruction has retired, so interpretation from ``cpu.pc`` is exact.
* ``2`` — self-modifying-code exit *after* a store into a code line: the
  store has fully retired (``count`` includes it), the block has already
  called the invalidation hook, and ``cpu.pc`` points at the successor.
* ``3`` — a clean block met a tag: its entry guard failed (``count ==
  0``), or the bytes a load reads are not all bottom.  Like kind 1 it
  leaves *before* the instruction, with nothing that depends on the tag
  retired; the dispatcher runs the entry's generic variant or the
  interpreter.
* ``4`` — exit *after* an inline MMIO access (below), which retired
  (``count`` includes it; ``cpu.pc`` points at the successor): it made
  an interrupt pending, a clean block's load returned a tag (the load
  retired with it, in ``cpu.tags``), or a plain block on demand mode's
  clean path hands over, after a load that returned a tag or a store
  that left the machine dirty, as the interpreter's ``RETAINT`` does.
* ``5`` — the inline access at ``cpu.pc`` met a bus error; ``count``
  includes it, as the interpreter counts a faulting instruction.  The
  dispatcher takes the fault without repeating the access.

A load or store whose pc the interpreter has seen complete an MMIO
access (the engine's profile, ``mmio``) makes an access out of RAM as
one inline ``cpu._mmio_read``/``_mmio_write`` call, looked up on the
instance at block entry, so DMI windows and wrappers installed on the
CPU keep working; its in-RAM path is unchanged.  Such a block runs its body under
``try``/``finally``: an exception raised inside the transport (a
RAISE-mode sink) leaves registers, tags and ``cpu.pc`` (the access) as
the interpreter leaves them, and one raised before the first call leaves
``cpu.pc`` at the entry.  Every other access keeps the in-RAM
guard, so code that does no MMIO compiles exactly as before.

The clean entry guard is ``cpu.tags == [bottom] * 32``; failing that,
the tags of the registers the block reads before writing must be bottom
(:func:`entry_regs`).  A register it writes first, ahead of its first
conditional branch, may enter tagged: its tag lives in a local that
starts as the entry tag and is bottom from that write on, and is written
back only when the guard saw a tag.

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

* A DIFT block compiles only over code whose byte tags all clear the
  fetch requirement (so their LUB does: the interpreter's per-instruction
  fetch check then passes without calling ``check_execution``).  It
  checks nothing at run time: every write to those tags invalidates the
  block first — the block's own stores take the SMC exit, the
  interpreter's stores and the memory module's writes (data or tags
  alone) call the engine's invalidation.
* Clearance checks are compiled as raw ``flow`` lookups that side-exit
  on failure — inner branches included; the interpreter then repeats
  the lookup and performs the ``check_execution`` bookkeeping
  (``checks_performed``, violation records, RAISE-mode exceptions) with
  identical arguments.
* The caller guarantees ``regs[0] == 0`` (and ``tags[0] == bottom`` for
  DIFT blocks), so x0 operands fold to literals.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set, Tuple

from repro.errors import BusError
from repro.vp import decode as D
from repro.vp.cpu import _muldiv

_MASK32 = 0xFFFFFFFF

#: prologue binding of each name generated code may use, in emit order
_BINDINGS = (("ram", "cpu.ram"), ("mt", "cpu.ram_tags"),
             ("m32", "cpu.ram32"), ("t32", "cpu.tags32"),
             ("mr", "cpu._mmio_read"), ("mw", "cpu._mmio_write"))
#: default-argument constants of the generated ``block`` function
_DEFAULTS = ("md", "cp", "iv", "lb", "fl", "bt", "st", "lv")


class Superblock:
    """A compiled superblock plus its dispatch bookkeeping."""

    __slots__ = ("entry", "length", "dift", "clean", "loop", "fn", "lines",
                 "source", "scan", "generic", "completes", "barren")

    def __init__(self, entry: int, length: int, dift: bool, clean: bool,
                 loop: bool, fn, lines: Tuple[int, ...], source: str,
                 scan: tuple):
        self.entry = entry
        self.length = length   # longest path: every instruction
        self.dift = dift
        self.clean = clean     # the clean flavour of a DIFT block
        self.loop = loop
        self.fn = fn
        self.lines = lines     # 16-byte RAM lines holding the block's code
        self.source = source
        self.scan = scan       # (instrs, terminated), to compile a twin
        self.generic = None    # a clean block's generic twin, once compiled
        self.completes = 0     # exits with kind 0
        self.barren = 0        # kind-1 exits short of MIN_BLOCK_LEN

    def __repr__(self) -> str:
        kind = ("clean" if self.clean else "dift") if self.dift else "plain"
        shape = "loop" if self.loop else "line"
        return (f"Superblock({self.entry:#010x}, len={self.length}, "
                f"{kind}, {shape})")


def entry_regs(instrs) -> Tuple[List[int], List[int]]:
    """The registers a clean block needs bottom at entry, and the ones it
    tracks instead: those it writes before reading, ahead of its first
    conditional branch.  A tracked register's tag local starts as its
    entry tag and is bottom from that write on."""
    seen: Set[int] = set()
    tracked: Set[int] = set()
    for __, (op, rd, rs1, rs2, __) in instrs:
        seen.update((rs1, rs2))
        if rd not in seen:
            tracked.add(rd)
        seen.add(rd)
        if D.BEQ <= op <= D.BGEU:
            break
    touched = sorted({r for __, d in instrs for r in d[1:4]} - {0})
    return ([j for j in touched if j not in tracked],
            [j for j in touched if j in tracked])


def compile_block(cpu, code_lines, invalidate_write, instrs,
                  terminated: bool, dift: bool, clean: bool = False,
                  mmio: Collection[int] = (),
                  stats=None) -> Optional[Superblock]:
    """Compile ``instrs`` (from the builder) into a :class:`Superblock`.

    ``dift`` compiles the generic DIFT block; with ``clean`` as well,
    its clean flavour.  A load or store whose pc is in ``mmio`` makes an
    access out of RAM as an inline transport call, counted in
    ``stats.mmio_calls``; every other access side-exits there.  Returns
    ``None`` for a DIFT block whose code tags do not all clear the fetch
    check (the interpreter owns each such fetch's check), and for a
    block holding an opcode from ``ECALL`` on (system, CSR or illegal),
    which the builder never passes: the generator has no code for them.
    """
    entry = instrs[0][0]
    length = len(instrs)
    last_pc, last_d = instrs[-1]
    base = cpu.ram_base
    end = cpu.ram_end
    bottom = cpu._bottom
    # a clean block's register tags are all bottom, and bottom clears
    # every requirement, so its branch, jalr and mem-addr checks fold away
    tagged = dift and not clean
    fetch_req = cpu.dift.fetch_req if dift else None
    branch_req = cpu.dift.branch_req if tagged else None
    memaddr_req = cpu.dift.memaddr_req if tagged else None
    if fetch_req is not None:
        flow = cpu.dift.flow
        code_tags = set(cpu.ram_tags[entry - base:last_pc + 4 - base])
        if not all(flow[t][fetch_req] for t in code_tags):
            return None

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
    inline = {pc for pc, d in instrs if pc in mmio and D.LB <= d[0] <= D.SW}
    # a plain block on demand mode's clean path hands over as its loop does
    live = None if dift else cpu.liveness

    # ---- expression helpers ---------------------------------------- #
    need: Set[str] = set()   # prologue bindings and defaults in use

    def rx(j: int) -> str:
        return "0" if j == 0 else f"r{j}"

    def tx(j: int) -> str:
        return f"t{j}" if j and tagged else str(bottom)

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

    def access_guard(ind: int, i: int, pc: int, d: tuple,
                     size: int) -> int:
        """``a`` = the address; side-exit unless it is a cleared in-RAM
        access, word-aligned for ``lw``/``sw``.  At an ``inline`` pc a
        cleared access out of RAM makes its transport call instead.
        Returns the indentation of the RAM access."""
        op, __, rs1, __, imm = d
        emit(ind, f"a = {addr_expr(rs1, imm)}")
        tests = ["a & 3"] if size == 4 else []
        out = [f"a < {base}"] if base else []
        out.append(f"a > {end - size}")
        check = []
        if memaddr_req is not None:
            check.append(denied(tag(D.CHECK_TAG[op], rs1), memaddr_req))
        if pc in inline:
            # the clearance comes first, as in the interpreter
            if check:
                emit(ind, f"if {check[0]}:")
                leave(ind + 1, pc, i, 1)
            emit(ind, f"if {' or '.join(out)}:")
            transport(ind + 1, i, pc, d, size)
            emit(ind, "else:")
            ind += 1
            out = check = []
        tests += out + check
        if tests:
            emit(ind, f"if {' or '.join(tests)}:")
            leave(ind + 1, pc, i, 1)
        if base:
            emit(ind, f"o = a - {base}")
        return ind

    def transport(ind: int, i: int, pc: int, d: tuple, size: int) -> None:
        """The access's ``cpu._mmio_read``/``_mmio_write`` call, as the
        interpreter makes it.  A bus error exits with kind 5; the block
        exits after the access (kind 4) where the interpreter would see
        a difference: an interrupt became pending, a clean block's load
        returned a tag (it retires with it), or demand mode hands over."""
        op, rd, __, rs2, __ = d
        load = op <= D.LHU
        need.update(("st", "mr" if load else "mw"))
        emit(ind, f"x = {pc}")  # where an exception leaves cpu.pc
        emit(ind, "st.mmio_calls += 1")
        emit(ind, "try:")
        if load:
            emit(ind + 1, f"v, tv = mr(a, {size})")
        else:
            stored = tag(D.STORE_TAG, rs2=rs2) if dift else str(bottom)
            emit(ind + 1, f"mw(a, {size}, {rx(rs2)}, {stored})")
        emit(ind, "except BusError:")
        emit(ind + 1, f"n += {i + 1}")
        emit(ind + 1, "k = 5")
        emit(ind + 1, "break")
        if load and rd:
            if op == D.LB:
                emit(ind, f"r{rd} = v + 0xFFFFFF00 if v >= 0x80 else v")
            elif op == D.LH:
                emit(ind, f"r{rd} = v + 0xFFFF0000 if v >= 0x8000 else v")
            else:
                emit(ind, f"r{rd} = v")
            if tagged:
                emit(ind, f"t{rd} = tv")
        if load and (live is not None or clean and rd):
            emit(ind, f"if tv != {bottom}:")
            if rd:
                emit(ind + 1, f"cpu.tags[{rd}] = tv")
                if rd in tracked:
                    emit(ind + 1, f"t{rd} = tv")
            if live is not None:
                need.add("lv")
                emit(ind + 1, "lv.taint_introduced()")
            leave(ind + 1, pc + 4, i + 1, 4)
        elif live is not None:  # a store that left the machine dirty
            need.add("lv")
            emit(ind, "if not lv.clean:")
            leave(ind + 1, pc + 4, i + 1, 4)
        emit(ind, "if cpu._take_irq:")
        leave(ind + 1, pc + 4, i + 1, 4)

    def tainted_exit(ind: int, i: int, pc: int, loaded: str,
                     clean_tag: str) -> None:
        """A clean block's kind-3 exit before a load whose ``loaded`` tag
        is not ``clean_tag``, the tag of bytes that are all bottom."""
        emit(ind, f"if {loaded} != {clean_tag}:")
        leave(ind + 1, pc, i, 3)

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
                if tagged:
                    emit(ind, f"t{rd} = {tag(D.RD_TAG[op])}")

        elif op == D.LW:
            ind = access_guard(ind, i, pc, d, 4)
            if rd:
                need.add("m32")
                if not dift:
                    emit(ind, f"r{rd} = m32[{off_name} >> 2]")
                else:
                    need.add("t32")
                    emit(ind, f"w = {off_name} >> 2")
                    if clean:
                        # the tag word a sw of a bottom tag writes
                        tainted_exit(ind, i, pc, "t32[w]",
                                     tag(D.STORE_WORD, t=str(bottom)))
                    emit(ind, f"r{rd} = m32[w]")
                    if tagged:
                        emit(ind, "tw = t32[w]")
                        emit(ind, f"t{rd} = {tag(D.WORD_TAG)}")

        elif op <= D.LHU:  # sub-word loads
            size = 2 if op in (D.LH, D.LHU) else 1
            ind = access_guard(ind, i, pc, d, size)
            if rd:
                need.add("ram")
                if clean:
                    tainted_exit(ind, i, pc, tag(D.LOAD_TAG[size]),
                                 str(bottom))
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
                if tagged:
                    emit(ind, f"t{rd} = {tag(D.LOAD_TAG[size])}")

        elif op == D.SW:
            ind = access_guard(ind, i, pc, d, 4)
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
            ind = access_guard(ind, i, pc, d, size)
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
            if tagged:
                expr = tag(D.RD_TAG[op], rs1, rs2)
                if expr != f"t{rd}":
                    emit(ind, f"t{rd} = {expr}")

    # inside ``def`` and ``while True:``, and ``try:`` with transport calls
    body = 3 if inline else 2
    # the end index and ``else:`` line of every open skip region,
    # innermost last
    regions: List[Tuple[int, int]] = []

    def close_regions(i: int) -> None:
        while regions and regions[-1][0] == i:
            __, at = regions.pop()
            if all(ln.lstrip().startswith("#") for ln in lines[at + 1:]):
                emit(body + len(regions) + 1, "pass")

    live_in, tracked = entry_regs(instrs) if clean else ([], [])
    untagged = set(tracked)  # tracked registers not yet written

    def note(ind: int, d: tuple) -> None:
        """After instruction ``d`` wrote its rd: a tracked register's
        first write makes its tag bottom."""
        rd = d[1]
        if rd in untagged:
            untagged.discard(rd)
            emit(ind, f"t{rd} = {bottom}")

    straight = instrs[:-1] if terminated else instrs
    for i, (pc, d) in enumerate(straight):
        close_regions(i)
        ind = body + len(regions)
        op, __, rs1, rs2, imm = d
        emit(ind, f"# [{i}] {pc:#010x} {D.OP_NAMES[op]}")
        if not D.BEQ <= op <= D.BGEU:
            emit_op(ind, i, pc, d)
            note(ind, d)
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
                if tagged:
                    emit(body, f"t{rd} = {tag(D.RD_TAG[op])}")
            note(body, last_d)
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
                if tagged:
                    emit(body, f"t{rd} = {tag(D.RD_TAG[op])}")
            note(body, last_d)
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
    guards: List[str] = []
    if clean and hoisted:
        # every register tag bottom; failing that, the tag of every
        # register the block reads before writing, and a kind-3 exit
        # unless those are bottom
        need.add("bt")
        guards += ["    tags = cpu.tags", "    tainted = tags != bt",
                   "    if tainted:"]
        if live_in:
            read = "".join(f"tags[{j}], " for j in live_in)
            guards += [f"        if ({read}) != {(bottom,) * len(live_in)}:",
                       "            return 0, 3"]
        guards += [f"        t{j} = tags[{j}]" for j in tracked]
    defaults = "".join(f", {name}={name.upper()}"
                       for name in _DEFAULTS if name in need)
    head: List[str] = [f"def block(cpu, limit{defaults}):", *guards]
    if hoisted:
        head.append("    regs = cpu.regs")
        if tagged:
            head.append("    tags = cpu.tags")
    for name, attr in _BINDINGS:
        if name in need:
            head.append(f"    {name} = {attr}")
    head += [f"    r{j} = regs[{j}]" for j in hoisted]
    if tagged:
        head += [f"    t{j} = tags[{j}]" for j in hoisted]
    head.append("    n = 0")
    wb = [f"regs[{j}] = r{j}" for j in wb_regs]
    if tagged:
        wb += [f"tags[{j}] = t{j}" for j in wb_regs]
    if clean and tracked:
        wb += ["if tainted:"] + [f"    tags[{j}] = t{j}" for j in tracked]
    wb.append("cpu.pc = x")
    if inline:
        # an exception raised inside a transport call (a RAISE-mode sink)
        # leaves registers, tags and cpu.pc as the interpreter leaves them;
        # one raised before the first call leaves cpu.pc at the entry
        head += [f"    x = {entry}", "    try:", "        while True:"]
        tail = ["    finally:"] + [f"        {ln}" for ln in wb]
    else:
        head.append("    while True:")
        tail = [f"    {ln}" for ln in wb]
    tail.append("    return n, k")

    # ---- compile ---------------------------------------------------- #
    source = "\n".join(head + lines + tail) + "\n"
    flavor = ("clean" if clean else "dift") if dift else "plain"
    namespace = {
        "MD": _muldiv,
        "CP": code_lines,
        "IV": invalidate_write,
        "LB": cpu.dift.lub if dift else None,
        "FL": cpu.dift.flow if dift else None,
        "BT": [bottom] * 32,
        "ST": stats,
        "LV": live,
        "BusError": BusError,
    }
    code = compile(source, f"<jit:{flavor}:{entry:#010x}>", "exec")
    exec(code, namespace)

    lo_line = (entry - base) >> 4
    hi_line = (last_pc + 3 - base) >> 4
    lines16 = tuple(range(lo_line, hi_line + 1))
    return Superblock(entry, length, dift, clean, loop, namespace["block"],
                      lines16, source, (instrs, terminated))
