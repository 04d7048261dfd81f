"""Offline DIFT monitor: tag propagation replayed from an event stream.

The gem5 monitoring-core exemplars (``dift_full.c``) and Wahab et al.'s
hardware-assisted ARM ecosystem run DIFT on a *separate core* fed by an
instruction trace.  :class:`DiftMonitor` is that consumer for recorded
``repro.dift.events/2`` streams: it replays tag propagation and the
three execution-clearance checks of paper Section V-B2 against its own
shadow state, byte-for-byte the semantics of the inline
``Cpu._interp_dift`` loop that recorded the stream: :meth:`~DiftMonitor.
consume` is a template compiled at import from the same tag-rule table
in :mod:`repro.vp.decode`, with the same helper.

The stream carries waypoints, not instructions.  Like Wahab et al.'s
coprocessor, the monitor rebuilds the straight-line code between them
from the program image the stream carries (and the code words it
records as they change): each packet's pc ends a walk from where the
replay stands, through instructions that need no packet, to the one the
packet is about.  Decoded straight-line runs are cached per entry pc.

Its tag state has the live machine's form and local names: register
tags, a :class:`~repro.vp.csr.CsrFile` for the CSR tags, and one flat RAM
tag shadow ``ram_tags`` with its 32-bit view ``tags32``.  The shadow and
the code image are anonymous memory mappings, so the OS commits a page
only when the replay touches it.

:func:`reanalyze_stream` drives it against the recorded policy or any
policy sharing its class numbering, without re-running the guest,
decoding the stream in fixed-size chunks.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dift.engine import RECORD, DiftEngine, ViolationRecord
from repro.dift.events import (
    EV_BRANCH,
    EV_CODE,
    EV_END,
    EV_FAULT,
    EV_IMAGE,
    EV_JUMP,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_MMIO_STORE,
    EV_QUANTUM,
    EV_SINK,
    EV_STOP,
    EV_STORE,
    EV_TAINT,
    EV_TAINT_FILL,
    EV_TRAP,
    StreamError,
    event_name,
    iter_stream,
    offset_of,
    read_stream,  # noqa: F401 -- tools resolve monitor.read_stream
)
from repro.errors import ReproError
from repro.policy.lattice import Tag
from repro.policy.serialize import policy_from_dict
from repro.vp import csr as CSR
from repro.vp import decode as D
from repro.vp.config import MAX_RAM_SIZE
from repro.vp.csr import CsrFile

#: bytes each load/store opcode moves
_WIDTH = {D.LB: 1, D.LBU: 1, D.SB: 1, D.LH: 2, D.LHU: 2, D.SH: 2,
          D.LW: 4, D.SW: 4}

#: by opcode: does a walk need a packet to pass it?  Memory accesses,
#: jumps, ``ebreak`` and illegal words always leave a packet at their pc;
#: a conditional branch does only when taken
_BARRIER = tuple(D.LB <= op <= D.SW or op in (
    D.JAL, D.JALR, D.MRET, D.EBREAK, D.ILLEGAL) for op in range(D.N_OPS))

#: instructions a cached run holds at most; a longer straight line is
#: walked as a chain of runs
_RUN_CAP = 64

#: a fetch fault traps at a pc that holds no instruction
_FETCH_FAULTS = (CSR.CAUSE_INSTR_FAULT, CSR.CAUSE_INSTR_MISALIGNED)

#: the template's tag-rule placeholders; specialize() replaces each
#: before compiling, so these bindings are never read
_RD_TAG = _CHECK_TAG = _TRAP_TAG = _LOAD_TAG = _WORD_TAG = None
_EPC_TAG = _STORE_TAG = _STORE_WORD = None


class _Divergence(Exception):
    """A walk the program cannot take; consume() names the packet."""


class DiftMonitor:
    """Consumes recorded instruction events, owning all DIFT tag state.

    Parameters
    ----------
    engine:
        The :class:`DiftEngine` performing checks.
    ram_size:
        Bytes of guest RAM the shadow covers; a positive multiple of 4.
    fill:
        The tag every RAM byte starts with.  Tag 0 leaves the mapping
        untouched; any other tag is written to every byte once.
    ram_base:
        Guest address of RAM offset 0; word-aligned.
    """

    def __init__(self, engine: DiftEngine, ram_size: int, fill: Tag,
                 ram_base: int = 0):
        self.engine = engine
        self.ram_size = ram_size
        self.fill = fill
        self.ram_base = ram_base
        # an anonymous mapping reads as zeros and the OS commits a page
        # only when it is first touched; byte access through a
        # memoryview replayed dhrystone and qsort about 12 % faster than
        # the mapping's own subscript (CPython 3.11, 2-vCPU x86-64 VM)
        self.ram_tags = memoryview(mmap.mmap(-1, ram_size))
        self.tags32 = self.ram_tags.cast("I")
        if fill:
            # a page at a time, so that no ram_size temporary adds to the
            # peak resident set
            page = bytes((fill,)) * mmap.PAGESIZE
            for start in range(0, ram_size, mmap.PAGESIZE):
                self.ram_tags[start:start + mmap.PAGESIZE] = \
                    page[:ram_size - start]
        # the code the walks decode: image packets, then code words
        self.code = memoryview(mmap.mmap(-1, ram_size))
        self.code32 = self.code.cast("I")
        bottom = engine.bottom_tag
        self._bottom = bottom
        self._n_tags = len(engine.lattice)
        self.reg_tags: List[int] = [bottom] * 32
        self.csr = CsrFile(bottom_tag=bottom)
        self._decoded: Dict[int, D.Decoded] = {}
        self._runs: Dict[int, tuple] = {}
        #: where the replay stands: the next instruction's pc (an image
        #: packet sets it to the program's entry)
        self.pc = ram_base
        #: instructions replayed, counted as the recording CPU counts them
        self.instructions = 0
        self.events_consumed = 0
        self.stopped = False

    # a template: specialize() compiles it again at import with its
    # placeholders expanded over the ISS loop's local names
    def consume(self, events: list, offset: int = 0) -> int:
        """Apply ``events`` in order; returns the number applied.

        Each packet from ``load`` to ``end`` first walks the straight-line
        code from :attr:`pc` up to the packet's pc (decoding it from the
        image, checking each fetch and each branch it falls through),
        then applies the packet there.  Stops after the first check that
        turns fatal, or at a ``stop`` packet, as the recording run did.

        ``offset`` is the stream byte offset of ``events[0]``.  A walk
        the program cannot take -- backwards, or past an instruction that
        needs a packet of its own -- a packet whose instruction is of
        another kind, and an ``end`` packet whose count disagrees with
        the replay's raise :class:`StreamError` at the packet's offset.
        A packet addressing or fetching outside RAM, a taint packet
        writing outside RAM and a packet carrying a tag outside the
        lattice raise ``ValueError``.
        """
        engine = self.engine
        lub = engine.lub
        flow = engine.flow
        check_execution = engine.check_execution
        bottom = self._bottom
        zero_is_bottom = bottom == 0
        n_tags = self._n_tags
        tags = self.reg_tags
        mtags = self.ram_tags
        tags32 = self.tags32
        csr = self.csr
        runs = self._runs
        width = _WIDTH
        ram_base = self.ram_base
        ram_size = self.ram_size
        fetch_req = engine.fetch_req
        branch_req = engine.branch_req
        memaddr_req = engine.memaddr_req
        pc = self.pc
        count = self.instructions
        stopped = False
        applied = 0
        for ev in events:
            applied += 1
            kind = ev[0]
            if kind > EV_END:
                if kind == EV_TAINT_FILL:
                    __, o, n, tag = ev
                    self._check_span(kind, o, n)
                    if tag >= n_tags:
                        raise self._tag_error(kind, "tag", tag)
                    mtags[o:o + n] = bytes((tag,)) * n
                elif kind == EV_TAINT:
                    __, o, data = ev
                    self._check_span(kind, o, len(data))
                    if data and max(data) >= n_tags:
                        raise self._tag_error(kind, "tag", max(data))
                    mtags[o:o + len(data)] = data
                elif kind == EV_SINK:
                    __, unit, tag, required, context, spc = ev
                    if tag >= n_tags:
                        raise self._tag_error(kind, "tag", tag)
                    if required >= n_tags:
                        raise self._tag_error(kind, "required class",
                                              required)
                    if engine.policy.has_sink(unit):
                        engine.check_sink(unit, tag, context, spc)
                    else:
                        engine.check_flow(tag, required, unit, context, spc)
                elif kind == EV_CODE:
                    o = ev[1] - ram_base
                    if o < 0 or o >= ram_size or o & 3:
                        raise ValueError(
                            f"code packet at pc={ev[1]:#010x} is outside "
                            f"RAM {self._ram_span()}")
                    self.code32[o >> 2] = ev[2]
                    runs.clear()
                elif kind == EV_IMAGE:
                    __, entry, o, data = ev
                    self._check_span(kind, o, len(data))
                    self.code[o:o + len(data)] = data
                    runs.clear()
                    pc = entry
                else:
                    raise ValueError(
                        f"monitor cannot apply event type {kind}")
                continue

            # ---- walk the straight-line code from pc up to q ---------- #
            q = ev[1]
            run = runs.get(pc)
            n = (q - pc) >> 2
            if run is not None and 0 <= n < len(run) and not (q - pc) & 3:
                straight = run[:n]
                dq = run[n]
            elif (kind == EV_FAULT and q == pc - 4
                  and ev[2] == CSR.CAUSE_STORE_FAULT):
                # a store's packet precedes its bus transaction, so a
                # faulted store has stepped already: stand on it again
                pc = q
                continue
            else:
                try:
                    straight, dq = self._walk(pc, q)
                except _Divergence as why:
                    raise StreamError(
                        f"corrupt event stream: {event_name(kind)} packet "
                        f"at pc={q:#010x}: {why}",
                        offset_of(events, applied - 1, offset)) from None
            if straight:
                o = pc - ram_base
                for d in straight:
                    if fetch_req is not None:
                        tw = tags32[o >> 2]
                        if tw or not zero_is_bottom:
                            itag = _WORD_TAG(tw, lub)
                            if not (flow[itag][fetch_req] or check_execution(
                                    "fetch", itag, fetch_req, ram_base + o)):
                                stopped = True
                                break
                    count += 1
                    op = d[0]
                    if op >= D.ADDI:
                        if op <= D.SRAI:  # immediate ALU + shifts
                            if d[1]:
                                tags[d[1]] = _RD_TAG(D.ADDI, D.SRAI, tags, d)
                        elif op <= D.REMU:  # register ALU + M extension
                            if d[1]:
                                tags[d[1]] = _RD_TAG(D.ADD, D.REMU, tags, d,
                                                     lub)
                        elif D.CSRRW <= op <= D.CSRRCI:
                            csr.retire_tags(d, tags, lub)
                        # FENCE / ECALL / WFI: no tag effects
                    elif op >= D.BEQ:  # a branch not taken
                        if branch_req is not None:
                            ctag = _CHECK_TAG(D.BEQ, D.BGEU, tags, d, lub)
                            if not (flow[ctag][branch_req] or check_execution(
                                    "branch", ctag, branch_req, ram_base + o)):
                                stopped = True
                                break
                    elif d[1]:  # LUI / AUIPC
                        tags[d[1]] = _RD_TAG(D.LUI, D.AUIPC, bottom)
                    o += 4
                if stopped:
                    pc = ram_base + o
                    break
                pc = q

            # ---- the packet's own instruction ------------------------- #
            if kind <= EV_JUMP:
                d = dq
                if d is None:
                    raise ValueError(
                        f"{event_name(kind)} packet at pc={q:#010x} "
                        f"fetches outside RAM {self._ram_span()}")
                if fetch_req is not None:
                    tw = tags32[(q - ram_base) >> 2]
                    if tw or not zero_is_bottom:
                        itag = _WORD_TAG(tw, lub)
                        if not (flow[itag][fetch_req] or check_execution(
                                "fetch", itag, fetch_req, q)):
                            stopped = True
                            break
                count += 1
                op = d[0]
                if kind <= EV_MMIO_STORE:  # loads and stores, RAM or MMIO
                    if not D.LB <= op <= D.SW or (op >= D.SB) != (kind & 1):
                        raise self._mismatch(kind, q, op, events, applied,
                                             offset)
                    if memaddr_req is not None:
                        atag = _CHECK_TAG(D.LB, D.SW, tags, d)
                        if not (flow[atag][memaddr_req] or check_execution(
                                "mem-addr", atag, memaddr_req, q)):
                            stopped = True
                            break
                    if kind <= EV_STORE:
                        n = width[op]
                        o = ev[2] - ram_base
                        if o < 0 or o + n > ram_size:
                            raise ValueError(
                                f"{event_name(kind)} packet at pc={q:#010x} "
                                f"addresses {ev[2]:#010x}, outside RAM "
                                f"{self._ram_span()}")
                        if kind == EV_LOAD:
                            if n == 4 and not o & 3:
                                tw = tags32[o >> 2]
                                t = _WORD_TAG(tw, lub)
                            elif n == 1:
                                t = _LOAD_TAG(1, mtags, o)
                            elif n == 2:
                                t = _LOAD_TAG(2, mtags, o, lub)
                            else:  # misaligned word
                                t = _LOAD_TAG(4, mtags, o, lub)
                            if d[1]:
                                tags[d[1]] = t
                        else:
                            t = _STORE_TAG(tags, d)
                            if n == 4 and not o & 3:
                                tags32[o >> 2] = _STORE_WORD(t)
                            else:
                                mtags[o] = t
                                if n > 1:
                                    mtags[o + 1] = t
                                    if n == 4:
                                        mtags[o + 2] = t
                                        mtags[o + 3] = t
                    elif kind == EV_MMIO_LOAD:
                        # an MMIO load takes its payload tag; an MMIO
                        # store has no tag effects
                        if ev[3] >= n_tags:
                            raise self._tag_error(kind, "tag", ev[3])
                        if d[1]:
                            tags[d[1]] = ev[3]
                    pc = q + 4
                elif kind == EV_BRANCH:  # a branch taken, or jal
                    if op == D.JAL:
                        if d[1]:
                            tags[d[1]] = _RD_TAG(D.JAL, bottom)
                    elif D.BEQ <= op <= D.BGEU:
                        if branch_req is not None:
                            ctag = _CHECK_TAG(D.BEQ, D.BGEU, tags, d, lub)
                            if not (flow[ctag][branch_req] or check_execution(
                                    "branch", ctag, branch_req, q)):
                                stopped = True
                                break
                    else:
                        raise self._mismatch(kind, q, op, events, applied,
                                             offset)
                    pc = (q + d[4]) & 0xFFFFFFFF
                else:  # EV_JUMP: jalr or mret, to the recorded target
                    if op == D.JALR:
                        if branch_req is not None:
                            ctag = _CHECK_TAG(D.JALR, tags, d)
                            if not (flow[ctag][branch_req] or check_execution(
                                    "branch", ctag, branch_req, q)):
                                stopped = True
                                break
                        if d[1]:
                            tags[d[1]] = _RD_TAG(D.JALR, bottom)
                    elif op == D.MRET:
                        if branch_req is not None:
                            etag = _CHECK_TAG(D.MRET, csr)
                            if not (flow[etag][branch_req] or check_execution(
                                    "branch", etag, branch_req, q)):
                                stopped = True
                                break
                    else:
                        raise self._mismatch(kind, q, op, events, applied,
                                             offset)
                    pc = ev[2]
            elif kind == EV_TRAP or (kind == EV_STOP and ev[2]):
                # a trap entry at q (refused: the run stopped there)
                if branch_req is not None:
                    htag = _TRAP_TAG(csr)
                    if not (flow[htag][branch_req] or check_execution(
                            "branch", htag, branch_req, q)):
                        stopped = True
                        break
                if kind == EV_STOP:
                    stopped = True
                    break
                csr.set_tag(CSR.MEPC, _EPC_TAG(bottom))
                pc = ev[3]
            elif kind == EV_END:
                if ev[2] != count:
                    raise StreamError(
                        f"corrupt event stream: end packet counts {ev[2]} "
                        f"instructions, the replay {count}",
                        offset_of(events, applied - 1, offset))
            elif kind != EV_QUANTUM and not (
                    kind == EV_FAULT and ev[2] in _FETCH_FAULTS):
                # an instruction that retired without moving on (a fault,
                # or ebreak) or that a check refused: its checks only
                if dq is None:
                    raise ValueError(
                        f"{event_name(kind)} packet at pc={q:#010x} "
                        f"fetches outside RAM {self._ram_span()}")
                refused = self._checks(dq, q)
                if refused != "fetch":
                    count += 1
                if refused or kind == EV_STOP:
                    stopped = True
                    break
        self.pc = pc
        self.instructions = count
        self.stopped = self.stopped or stopped
        self.events_consumed += applied
        return applied

    def _checks(self, d, pc: int) -> str:
        """The execution-clearance checks of the instruction ``d`` at
        ``pc`` -- its fetch, then its branch condition, jump target or
        address -- without its effects: the unit of the first refused,
        or ``""``.  A template, like :meth:`consume`."""
        engine = self.engine
        lub = engine.lub
        flow = engine.flow
        tags = self.reg_tags
        csr = self.csr
        tw = self.tags32[(pc - self.ram_base) >> 2]
        itag = _WORD_TAG(tw, lub)
        if engine.fetch_req is not None and not flow[itag][
                engine.fetch_req] and not engine.check_execution(
                    "fetch", itag, engine.fetch_req, pc):
            return "fetch"
        op = d[0]
        if D.LB <= op <= D.SW:
            unit, tag, req = ("mem-addr", _CHECK_TAG(D.LB, D.SW, tags, d),
                              engine.memaddr_req)
        elif D.BEQ <= op <= D.BGEU:
            unit, tag, req = ("branch", _CHECK_TAG(D.BEQ, D.BGEU, tags, d,
                                                   lub), engine.branch_req)
        elif op == D.JALR:
            unit, tag, req = ("branch", _CHECK_TAG(D.JALR, tags, d),
                              engine.branch_req)
        elif op == D.MRET:
            unit, tag, req = ("branch", _CHECK_TAG(D.MRET, csr),
                              engine.branch_req)
        else:
            return ""
        if req is None or flow[tag][req] or engine.check_execution(
                unit, tag, req, pc):
            return ""
        return unit

    def _run(self, pc: int) -> Optional[tuple]:
        """The decoded straight-line code from ``pc``: up to and including
        its first instruction a walk cannot pass without a packet, at
        most :data:`_RUN_CAP` instructions and never past RAM; cached
        under ``pc``.  ``None`` when ``pc`` cannot be fetched."""
        off = pc - self.ram_base
        if off < 0 or off >= self.ram_size or off & 3:
            return None
        code32 = self.code32
        decoded = self._decoded
        end = min(self.ram_size, off + 4 * _RUN_CAP)
        run = []
        while off < end:
            word = code32[off >> 2]
            d = decoded.get(word)
            if d is None:
                d = decoded[word] = D.decode(word)
            run.append(d)
            if _BARRIER[d[0]]:
                break
            off += 4
        run = tuple(run)
        self._runs[pc] = run
        return run

    def _walk(self, pc: int, q: int) -> Tuple[tuple, Optional[tuple]]:
        """The walk from ``pc`` to ``q`` across as many runs as it takes:
        the instructions before ``q``, and the one at ``q`` (``None``
        when ``q`` cannot be fetched)."""
        if q < pc or (q - pc) & 3:
            raise _Divergence(f"the replay stands at pc={pc:#010x}")
        straight: list = []
        while True:
            run = self._runs.get(pc) or self._run(pc)
            if run is None:
                if pc == q:
                    return tuple(straight), None
                raise ValueError(
                    f"the walk to pc={q:#010x} fetches {pc:#010x}, outside "
                    f"RAM {self._ram_span()}")
            n = (q - pc) >> 2
            if n < len(run):
                straight.extend(run[:n])
                return tuple(straight), run[n]
            op = run[-1][0]
            if _BARRIER[op]:
                raise _Divergence(
                    f"the walk passes the {D.OP_NAMES[op]} at "
                    f"pc={pc + 4 * len(run) - 4:#010x}, which left no "
                    "packet")
            straight.extend(run)
            pc += 4 * len(run)

    # ------------------------------------------------------------------ #
    # packet helpers (off the per-instruction path)
    # ------------------------------------------------------------------ #

    def _ram_span(self) -> str:
        return (f"[{self.ram_base:#010x}, "
                f"{self.ram_base + self.ram_size:#010x})")

    def _check_span(self, t: int, offset: int, length: int) -> None:
        """Reject a packet of type ``t`` writing ``length`` tags from RAM
        offset ``offset`` past the shadow, before any tag bytes exist."""
        end = offset + length
        if offset < 0 or end > self.ram_size:
            raise ValueError(
                f"{event_name(t)} packet writes RAM offsets "
                f"[{offset:#x}, {end:#x}), outside [0, {self.ram_size:#x})")

    def _mismatch(self, t: int, pc: int, op: int, events: list,
                  applied: int, offset: int) -> StreamError:
        """A packet of type ``t`` at ``pc``, where the image holds the
        opcode ``op``, which no such packet can be about."""
        return StreamError(
            f"corrupt event stream: {event_name(t)} packet at "
            f"pc={pc:#010x} meets {D.OP_NAMES[op]}",
            offset_of(events, applied - 1, offset))

    def _tag_error(self, t: int, what: str, tag: int) -> ValueError:
        return ValueError(
            f"{event_name(t)} packet carries {what} {tag}, outside the "
            f"recorded lattice's tags 0..{self._n_tags - 1}")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def tag_image(self) -> bytes:
        """The dense RAM tag image: one tag per byte, ``ram_size`` bytes."""
        return self.ram_tags.tobytes()

    def __repr__(self) -> str:
        return (f"DiftMonitor(consumed={self.events_consumed}, "
                f"stopped={self.stopped})")


D.specialize(DiftMonitor, "consume")
D.specialize(DiftMonitor, "_checks")


# ---------------------------------------------------------------------- #
# offline re-analysis
# ---------------------------------------------------------------------- #

@dataclass
class ReanalysisResult:
    """Outcome of replaying a recorded event stream."""

    header: dict
    events: int
    engine: DiftEngine
    monitor: DiftMonitor

    @property
    def violations(self) -> List[ViolationRecord]:
        return self.engine.violations

    @property
    def detected(self) -> bool:
        return bool(self.engine.violations)


def _ram_geometry(header: dict) -> Tuple[int, int]:
    """``(ram_size, ram_base)`` of a stream header, validated as
    ``Platform`` validates its configuration: a :class:`StreamError` at
    offset 0 names the offending field."""
    cfg = header.get("config")
    ram_size = cfg.get("ram_size") if isinstance(cfg, dict) else None
    if type(ram_size) is not int or ram_size <= 0 or ram_size & 3:
        raise StreamError(
            f"corrupt header: config.ram_size must be a positive multiple "
            f"of 4 bytes, got {ram_size!r}", 0)
    if ram_size > MAX_RAM_SIZE:
        raise StreamError(
            f"corrupt header: config.ram_size {ram_size:#x} exceeds the "
            f"largest RAM the platform maps, {MAX_RAM_SIZE:#x} bytes", 0)
    ram_base = header.get("ram_base", 0)
    if type(ram_base) is not int or ram_base < 0 or ram_base & 3:
        raise StreamError(
            f"corrupt header: ram_base must be a word-aligned address, "
            f"got {ram_base!r}", 0)
    return ram_size, ram_base


def reanalyze_stream(path: str, policy=None,
                     engine_mode: str = RECORD) -> ReanalysisResult:
    """Replay a recorded ``repro.dift.events/2`` stream offline.

    With ``policy=None`` the stream is analyzed under its recorded
    policy, reproducing the live run's violations exactly.  An override
    ``policy`` evaluates the same guest execution under different rules
    — it must share the recorded policy's class list (tags travel as
    numeric indices), but clearance requirements, sink assignments and
    flow relations are free to differ.  Two caveats travel with the
    format: the initial RAM classification and all peripheral-internal
    flows (recorded ``sink`` packets, MMIO read tags) are those of the
    *recorded* policy's machine.

    The stream is decoded and consumed a chunk at a time
    (:func:`~repro.dift.events.iter_stream`), so memory stays bounded
    whatever its length; once the replay stops, the rest is decoded for
    validation only.
    """
    stream = iter_stream(path)
    try:
        header = next(stream)
        ram_size, ram_base = _ram_geometry(header)
        policy_data = header["config"].get("policy")
        if policy_data is None:
            raise ValueError(
                f"{path}: stream was recorded without a policy")
        try:
            recorded = policy_from_dict(policy_data)
        except (AttributeError, KeyError, TypeError, ValueError,
                ReproError) as err:
            raise StreamError(
                f"corrupt header: config.policy does not parse ({err})",
                0) from err
        if policy is None:
            policy = recorded
        else:
            want = list(recorded.lattice.classes)
            have = list(policy.lattice.classes)
            if want != have:
                raise ValueError(
                    f"re-analysis policy classes {have!r} do not match the "
                    f"recorded stream's tag numbering {want!r}")
        engine = DiftEngine(policy, mode=engine_mode)
        # the guest ran on the *recorded* machine: its memory started at
        # the recorded policy's default classification
        monitor = DiftMonitor(engine, ram_size, recorded.default_tag(),
                              ram_base=ram_base)
        packets = 0
        for offset, events in stream:
            packets += len(events)
            if not monitor.stopped:
                monitor.consume(events, offset)
    finally:
        stream.close()
    return ReanalysisResult(header=header, events=packets,
                            engine=engine, monitor=monitor)
