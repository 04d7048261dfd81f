"""Trace-compiled fast path for the ISS (``repro.vp.jit``).

Layered on the interpreter without changing its semantics: hot runs of
consecutive instructions (superblocks, which continue through forward
branches) are detected by two cooperating profilers, compiled once into
specialized Python closures, and dispatched in place of the one
interpreter loop the CPU runs: the DIFT loop in full mode, the plain
loop on the plain VP and on demand mode's clean path.  Compiled and
interpreted runs are required to be indistinguishable — same
architectural state, same DIFT verdicts, same ``repro.snapshot/1``
documents — which the differential suite (``tests/test_jit_diff.py``)
enforces across the workload registry.

Hotness is profiled on two channels:

* the interpreter counts taken backward branches (the canonical loop
  header signal) and queues entries that cross the threshold on a
  ``ready`` list, which the dispatcher compiles when the interpreter
  next hands back (at the end of its stretch, or at a block hit);
* the dispatcher itself counts the PCs it returns to between blocks,
  which catches successors of compiled blocks (fall-through paths,
  call targets) without per-instruction overhead.

Invalidation is filtered at 16-byte *line* granularity: any store into
a line containing compiled code — from generated code, either
interpreter loop, or a bus master writing RAM through the memory
module — drops every block on that line.  Lines are fine enough that
data living next to code (the common layout: RAM starts at 0, .data
directly follows .text) does not shoot down unrelated blocks, yet
coarse enough that the hot-path filter stays one set lookup.  Lines
that thrash (genuine self-modifying code) are blacklisted from
recompilation.  Snapshot restore and debugger attach flush the whole
cache: the trace cache is *derived* state, deliberately excluded from
``repro.snapshot/1``, and is rebuilt by re-profiling after restore.

Each full-DIFT entry compiles in the variant its register tags call
for: the *clean* variant (plain code plus tag guards) when its entry
guard passes at compile time, else the *generic* one (every tag rule
fused in).  A clean block that meets a tag exits before it (kind 3);
at its entry the dispatcher then runs the entry's generic twin, compiled
the first time a guard calls for it, and mid-block it hands the
instruction to the interpreter.  Such an exit is never barren: it
neither drops the block nor blacklists the entry.  Guests that never
see a tag run clean blocks only (``JitStats.clean_execs``).

The interpreter loops also profile MMIO: every load/store pc whose MMIO
access completed, and whether a load there returned a tag
(``JitEngine.mmio``; derived state, flushed with the blocks).  Blocks
compiled afterwards make those accesses as inline transport calls, and
exit after one only where the interpreter would see a difference (see
:mod:`repro.vp.jit.codegen`, exit kinds 4 and 5).  A full-DIFT entry
whose profiled loads have returned a tag compiles generic at once, and a
clean block whose load returns one hands its entry to the generic twin.

A demand-mode RETAINT handover needs no invalidation: the engine serves
the clean path's plain loop, so its blocks are simply not dispatched
while the machine is dirty, and they stay valid because code-page
writes during the dirty phase still hit the interpreter's SMC hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.vp import csr as CSR
from repro.vp import decode as D
from repro.vp.cpu import _BLOCKHIT, QUANTUM, RETAINT
from repro.vp.jit.builder import MAX_BLOCK_LEN, MIN_BLOCK_LEN, scan_superblock
from repro.vp.jit.codegen import Superblock, compile_block, entry_regs

__all__ = ["JitEngine", "JitStats", "Superblock", "DEFAULT_THRESHOLD",
           "MIN_BLOCK_LEN", "MAX_BLOCK_LEN"]

#: executions of an entry PC before it is compiled
DEFAULT_THRESHOLD = 16
#: instructions handed to the interpreter per cold stretch before the
#: dispatcher looks for blocks again
DISPATCH_CHUNK = 256
#: kind-1 exits that retired fewer than MIN_BLOCK_LEN instructions
#: before a block is dropped and its entry blacklisted (an early access
#: or clearance that always side-exits)
BARREN_LIMIT = 8
#: invalidations of one 16-byte line before it is blacklisted from
#: compilation (genuine self-modifying code would otherwise thrash)
LINE_BLACKLIST_AFTER = 8


class JitStats:
    """Cumulative counters exported as ``jit.*`` lazy gauges."""

    __slots__ = ("compiled", "invalidated_blocks", "flushes", "dropped",
                 "block_execs", "trace_instructions", "side_exits",
                 "smc_exits", "clean_execs", "generic_compiled",
                 "mmio_calls")

    def __init__(self) -> None:
        self.compiled = 0
        self.invalidated_blocks = 0
        self.flushes = 0
        self.dropped = 0
        self.block_execs = 0
        self.trace_instructions = 0
        self.side_exits = 0
        self.smc_exits = 0
        #: block executions that ran a clean variant (part of block_execs)
        self.clean_execs = 0
        #: generic DIFT variants compiled, first or as a clean block's twin
        self.generic_compiled = 0
        #: inline transport calls compiled code made (MMIO loads, stores)
        self.mmio_calls = 0


class JitEngine:
    """Superblock cache + profiler + dispatcher for one :class:`Cpu`.

    The engine serves the one interpreter loop its CPU dispatches, fixed
    here: the DIFT loop in full mode (``dift``), the plain loop on the
    plain VP and on demand mode's clean path.  Its one block cache holds
    that loop's blocks: *plain* ones (no tag bookkeeping), or in full
    mode *dift* ones, each a clean or a generic variant, a clean one
    holding its generic twin once compiled.
    """

    def __init__(self, cpu, threshold: int = DEFAULT_THRESHOLD):
        if threshold < 1:
            raise ValueError(f"jit threshold must be >= 1, got {threshold}")
        self.cpu = cpu
        self.threshold = threshold
        self.stats = JitStats()
        # DIFT blocks fuse full-mode propagation only: demand mode needs
        # the DIFT loop's liveness bookkeeping, so there the engine serves
        # the clean path's plain loop
        self.dift = cpu.dift is not None and cpu.liveness is None

        self.blocks: Dict[int, Superblock] = {}
        # entry pc -> execution count; -1 marks "never compile this"
        self.hot: Dict[int, int] = {}
        # entries the interpreter's backward-branch profiler promoted
        self.ready: List[int] = []

        # RAM-offset 16-byte lines containing compiled code.  Mutated
        # strictly in place: generated closures and the interpreter
        # loops bind this exact set object.
        self.code_lines: Set[int] = set()
        self._line_blocks: Dict[int, Set[Superblock]] = {}
        self._line_invalidations: Dict[int, int] = {}
        self._no_compile: Set[int] = set()
        # the MMIO profile: every load/store pc whose MMIO access the
        # interpreter loops completed -> whether a load there returned a
        # non-bottom tag.
        # Blocks make those accesses as inline transport calls.  The
        # loops bind this exact dict.
        self.mmio: Dict[int, bool] = {}

    # ------------------------------------------------------------------ #
    # run-loop entry points (called from Cpu._run_plain / _run_dift)
    # ------------------------------------------------------------------ #

    def run_plain(self, n: int) -> Tuple[int, str]:
        return self._dispatch(n, self.cpu._interp_plain)

    def run_dift(self, n: int) -> Tuple[int, str]:
        return self._dispatch(n, self.cpu._interp_dift)

    def _dispatch(self, n: int, interp: Callable[[int], Tuple[int, str]],
                  ) -> Tuple[int, str]:
        """Alternate compiled blocks and bounded interpreter stretches.

        Returns the instructions retired and the stop reason, as the
        interpreter does; neither blocks nor the interpreter touch
        ``instret``/``cycle``, which :meth:`Cpu.run` advances once per
        quantum.  Stop reasons pass up unchanged, except
        :data:`_BLOCKHIT`, which only tells this loop to look up a block
        now.
        """
        cpu = self.cpu
        stats = self.stats
        threshold = self.threshold
        blocks = self.blocks
        hot = self.hot
        ready = self.ready
        # generated code folds x0 reads to literal 0; a hand-crafted
        # state violating the invariant must interpret (the interpreter
        # *reads* regs[0] verbatim)
        compiled = not cpu.regs[0] and (
            not self.dift or cpu.tags[0] == cpu._bottom)
        executed = 0
        reason = QUANTUM
        while executed < n:
            remaining = n - executed
            if compiled and remaining >= MIN_BLOCK_LEN \
                    and not cpu._take_irq:
                if ready:
                    for entry in ready:
                        if self._compile(entry) is None:
                            hot[entry] = -1
                    del ready[:]
                pc = cpu.pc
                blk = blocks.get(pc)
                if blk is None:
                    c = hot.get(pc)
                    if c is None:
                        hot[pc] = 1
                    elif c >= 0:
                        c += 1
                        hot[pc] = c
                        if c >= threshold:
                            blk = self._compile(pc)
                            if blk is None:
                                hot[pc] = -1
                if blk is not None and blk.length <= remaining:
                    stepped, kind = blk.fn(cpu, remaining)
                    if kind == 3 and not stepped:
                        # the entry guard met a tag: run the generic twin.
                        # A failed guard is never barren: it neither drops
                        # the block nor blacklists it
                        stepped, kind = self._twin(blk).fn(cpu, remaining)
                    elif stepped and blk.clean:
                        stats.clean_execs += 1
                    if stepped:
                        executed += stepped
                        stats.block_execs += 1
                        stats.trace_instructions += stepped
                    if kind == 0:
                        blk.completes += 1
                        continue
                    if kind == 2:
                        stats.smc_exits += 1
                        continue
                    if kind == 1:
                        stats.side_exits += 1
                        if stepped < MIN_BLOCK_LEN:
                            blk.barren += 1
                            if blk.barren >= BARREN_LIMIT:
                                self._drop(blk)
                                stats.dropped += 1
                                hot[blk.entry] = -1
                    elif kind == 4:
                        # an inline MMIO access retired: demand mode hands
                        # over as its loop does; otherwise an interrupt is
                        # pending or a clean block's load returned a tag
                        live = cpu.liveness
                        if live is not None and not live.clean:
                            reason = RETAINT
                            break
                        if blk.clean and not cpu._take_irq:
                            self._go_generic(blk)
                        continue
                    elif kind == 5:
                        stop = self._bus_fault()
                        if stop:
                            reason = stop
                            break
                        continue
                    # fall through to the interpreter for progress
            asked = n - executed
            if asked > DISPATCH_CHUNK:
                asked = DISPATCH_CHUNK
            stepped, reason = interp(asked)
            executed += stepped
            if reason == _BLOCKHIT:
                # a taken backward branch landed on a compiled entry:
                # loop straight back so the block runs now instead of
                # waiting for a chunk boundary to line up with it (on
                # the budget's last instruction it is just an exhausted
                # quantum)
                reason = QUANTUM
                continue
            if reason != QUANTUM:
                break
        return executed, reason

    def _twin(self, blk: Superblock) -> Superblock:
        """A clean block's generic twin, compiled the first time it is
        needed.  The clean block just ran, so its fetch guard passed: its
        code tags still clear the fetch check and the twin compiles."""
        if blk.generic is None:
            blk.generic = self._compile_block(*blk.scan, False)
        return blk.generic

    def _go_generic(self, blk: Superblock) -> None:
        """A clean block's transport call returned a tag and the load
        retired with it: from now on its entry runs the generic twin."""
        generic = self._twin(blk)
        self._drop(blk)
        self._install(generic)

    def _bus_fault(self) -> Optional[str]:
        """Kind 5: the transport call of the access at ``cpu.pc`` met a bus
        error.  Take the fault as the interpreter does, without repeating
        the access: the registers are still those it read."""
        cpu = self.cpu
        op, __, rs1, __, imm = cpu._decode_cache[
            cpu.ram32[(cpu.pc - cpu.ram_base) >> 2]]
        cause = CSR.CAUSE_LOAD_FAULT if op <= D.LHU else CSR.CAUSE_STORE_FAULT
        return cpu._fault(cause, (cpu.regs[rs1] + imm) & 0xFFFFFFFF)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #

    def _compile(self, entry: int) -> Optional[Superblock]:
        blk = self.blocks.get(entry)
        if blk is not None:
            return blk
        instrs, terminated = scan_superblock(self.cpu, entry, self.hot,
                                             self.threshold)
        if instrs is None:
            return None
        last_pc = instrs[-1][0]
        base = self.cpu.ram_base
        lo_line = (entry - base) >> 4
        hi_line = (last_pc + 3 - base) >> 4
        no_compile = self._no_compile
        if any(line in no_compile for line in range(lo_line, hi_line + 1)):
            return None
        # a DIFT entry compiles clean if its entry guard passes now and
        # no transport call of it has returned a tag
        tags = self.cpu.tags
        bottom = self.cpu._bottom
        mmio = self.mmio
        clean = (self.dift
                 and all(tags[j] == bottom for j in entry_regs(instrs)[0])
                 and not any(mmio.get(pc) for pc, __ in instrs))
        blk = self._compile_block(instrs, terminated, clean)
        if blk is None:  # code tags that do not clear the fetch check
            return None
        self._install(blk)
        return blk

    def _install(self, blk: Superblock) -> None:
        self.blocks[blk.entry] = blk
        for line in blk.lines:
            self.code_lines.add(line)
            self._line_blocks.setdefault(line, set()).add(blk)

    def _compile_block(self, instrs, terminated: bool,
                       clean: bool) -> Optional[Superblock]:
        """Compile one flavour of ``instrs`` and count it.

        A generic twin shares its clean block's scan and code lines and
        is reached only through it, so invalidating or dropping the clean
        block retires both.
        """
        blk = compile_block(self.cpu, self.code_lines, self.invalidate_write,
                            instrs, terminated, self.dift, clean, self.mmio,
                            self.stats)
        if blk is not None:
            self.stats.compiled += 1
            if self.dift and not clean:
                self.stats.generic_compiled += 1
        return blk

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def invalidate_write(self, offset: int, size: int) -> None:
        """A store touched [offset, offset+size) and one of those lines
        holds compiled code.  Called from generated code and from the
        interpreter store paths."""
        lo = offset >> 4
        hi = (offset + size - 1) >> 4
        self._invalidate_line(lo)
        if hi != lo:
            self._invalidate_line(hi)

    def notify_write(self, offset: int, length: int) -> None:
        """A bus master (DMA, TLM write, loader) wrote RAM [offset,
        offset+length).  Cheap no-op unless the range overlaps code."""
        code_lines = self.code_lines
        if not code_lines or length <= 0:
            return
        lo = offset >> 4
        hi = (offset + length - 1) >> 4
        if hi - lo >= len(code_lines):
            # huge write (DMA of megabytes): walk the code set instead
            hits = sorted(ln for ln in code_lines if lo <= ln <= hi)
        else:
            hits = [ln for ln in range(lo, hi + 1) if ln in code_lines]
        for line in hits:
            self._invalidate_line(line)

    def _invalidate_line(self, line: int) -> None:
        affected = self._line_blocks.get(line)
        if not affected:
            return
        count = self._line_invalidations.get(line, 0) + 1
        self._line_invalidations[line] = count
        if count >= LINE_BLACKLIST_AFTER:
            self._no_compile.add(line)
        for blk in list(affected):
            self._drop(blk)
            self.stats.invalidated_blocks += 1

    def _drop(self, blk: Superblock) -> None:
        if self.blocks.get(blk.entry) is blk:
            del self.blocks[blk.entry]
        self.hot.pop(blk.entry, None)
        for line in blk.lines:
            owners = self._line_blocks.get(line)
            if owners is not None:
                owners.discard(blk)
                if not owners:
                    del self._line_blocks[line]
                    self.code_lines.discard(line)

    def flush(self) -> None:
        """Discard every compiled block and all profiling state.

        Used on snapshot restore / program load (the trace cache is
        derived state, rebuilt by re-profiling) and on debugger attach
        (breakpoints need per-instruction visibility)."""
        self.blocks.clear()
        self.hot.clear()
        del self.ready[:]
        self.code_lines.clear()
        self._line_blocks.clear()
        self._line_invalidations.clear()
        self._no_compile.clear()
        self.mmio.clear()
        self.stats.flushes += 1

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @property
    def live_blocks(self) -> int:
        return len(self.blocks)

    def trace_ratio(self) -> float:
        """Fraction of retired instructions executed from compiled code."""
        total = self.cpu.csr.instret
        if total <= 0:
            return 0.0
        return min(1.0, self.stats.trace_instructions / total)

    def __repr__(self) -> str:
        return (f"JitEngine(threshold={self.threshold}, "
                f"blocks={self.live_blocks}, "
                f"compiled={self.stats.compiled}, "
                f"trace={self.stats.trace_instructions})")
