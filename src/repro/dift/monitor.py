"""Offline DIFT monitor: tag propagation replayed from an event stream.

The gem5 monitoring-core exemplars (``dift_full.c``) and Wahab et al.'s
hardware-assisted ARM ecosystem run DIFT on a *separate core* fed by an
instruction-event FIFO.  :class:`DiftMonitor` is that consumer for
recorded ``repro.dift.events/1`` streams: it replays tag propagation and
the three execution-clearance checks of paper Section V-B2 against its
own shadow state, byte-for-byte the semantics of the inline
``Cpu._interp_dift`` loop that recorded the stream: :meth:`~DiftMonitor.
consume` is a template compiled at import from the same tag-rule table
in :mod:`repro.vp.decode`, with the same helper.

Its tag state has the live machine's form and local names: register
tags, a :class:`~repro.vp.csr.CsrFile` for the CSR tags, and one flat RAM
tag shadow ``ram_tags`` with its 32-bit view ``tags32``.  The shadow is
an anonymous memory mapping, so the OS commits a page only when the
replay touches it.

:func:`reanalyze_stream` drives it against the recorded policy or any
policy sharing its class numbering, without re-running the guest.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dift.engine import RECORD, DiftEngine, ViolationRecord
from repro.dift.events import (
    EV_FAULT_ACCESS,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_SINK,
    EV_STEP,
    EV_STORE,
    EV_TAINT,
    EV_TAINT_FILL,
    EV_TRAP,
    StreamError,
    event_name,
    read_stream,
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

#: the template's tag-rule placeholders; specialize() replaces each
#: before compiling, so these bindings are never read
_RD_TAG = _CHECK_TAG = _TRAP_TAG = _LOAD_TAG = _WORD_TAG = None
_EPC_TAG = _STORE_TAG = _STORE_WORD = None


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
        bottom = engine.bottom_tag
        self._bottom = bottom
        self._n_tags = len(engine.lattice)
        self.reg_tags: List[int] = [bottom] * 32
        self.csr = CsrFile(bottom_tag=bottom)
        self._cache: Dict[int, D.Decoded] = {}
        self.events_consumed = 0
        self.stopped = False

    # a template: specialize() compiles it again at import with its
    # placeholders expanded over the ISS loop's local names
    def consume(self, events) -> int:
        """Apply ``events`` in order; returns the number applied.

        Stops after the first packet whose check turns fatal, as the
        recording run did.  A ``load``/``store`` packet addressed outside
        RAM, an instruction whose fetch clearance would read outside RAM,
        a taint packet writing outside RAM and a packet carrying a tag
        outside the lattice raise ``ValueError``, and so does a ``step``
        packet carrying a load or store opcode except as the stream's last
        instruction packet (a refused fetch): that replay ends after the
        access's fetch and address checks.
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
        cache = self._cache
        decode = D.decode
        width = _WIDTH
        ram_base = self.ram_base
        ram_size = self.ram_size
        fetch_req = engine.fetch_req
        branch_req = engine.branch_req
        memaddr_req = engine.memaddr_req
        applied = 0
        events = iter(events)
        for ev in events:
            applied += 1
            kind = ev[0]
            if kind > EV_FAULT_ACCESS:
                if kind == EV_TRAP:
                    if branch_req is not None:
                        htag = _TRAP_TAG(csr)
                        if not (flow[htag][branch_req] or check_execution(
                                "branch", htag, branch_req, ev[1])):
                            self.stopped = True
                            break
                    csr.set_tag(CSR.MEPC, _EPC_TAG(bottom))
                elif kind == EV_TAINT_FILL:
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
                    __, unit, tag, required, context, pc = ev
                    if tag >= n_tags:
                        raise self._tag_error(kind, "tag", tag)
                    if required >= n_tags:
                        raise self._tag_error(kind, "required class",
                                              required)
                    if engine.policy.has_sink(unit):
                        engine.check_sink(unit, tag, context, pc)
                    else:
                        engine.check_flow(tag, required, unit, context, pc)
                else:
                    raise ValueError(
                        f"monitor cannot apply event type {kind}")
                continue

            pc = ev[1]
            if fetch_req is not None:
                off = pc - ram_base
                if off < 0 or off >= ram_size or off & 3:
                    raise ValueError(
                        f"{event_name(kind)} packet at pc={pc:#010x} "
                        f"fetches outside RAM {self._ram_span()}")
                tw = tags32[off >> 2]
                if tw or not zero_is_bottom:
                    itag = _WORD_TAG(tw, lub)
                    if not (flow[itag][fetch_req] or check_execution(
                            "fetch", itag, fetch_req, pc)):
                        self.stopped = True
                        break

            word = ev[2]
            d = cache.get(word)
            if d is None:
                d = cache[word] = decode(word)
            op = d[0]

            if op <= D.BGEU:
                if op >= D.JALR and branch_req is not None:
                    ctag = _CHECK_TAG(D.JALR, D.BGEU, op, tags, d, lub)
                    if not (flow[ctag][branch_req] or check_execution(
                            "branch", ctag, branch_req, pc)):
                        self.stopped = True
                        break
                if op <= D.JALR and d[1]:
                    tags[d[1]] = _RD_TAG(D.LUI, D.JALR, bottom)

            elif op <= D.SW:  # loads and stores, RAM or MMIO
                if memaddr_req is not None:
                    atag = _CHECK_TAG(D.LB, D.SW, tags, d)
                    if not (flow[atag][memaddr_req] or check_execution(
                            "mem-addr", atag, memaddr_req, pc)):
                        self.stopped = True
                        break
                if kind >= EV_MMIO_LOAD:
                    # an MMIO load takes its payload tag; an MMIO store
                    # and a faulted load have no tag effects
                    if kind == EV_MMIO_LOAD:
                        if ev[4] >= n_tags:
                            raise self._tag_error(kind, "tag", ev[4])
                        if d[1]:
                            tags[d[1]] = ev[4]
                    continue
                is_load = op <= D.LHU
                if kind != (EV_LOAD if is_load else EV_STORE):
                    if kind != EV_STEP or any(
                            later[0] <= EV_FAULT_ACCESS for later in events):
                        raise ValueError(
                            f"{event_name(kind)} packet at pc={pc:#010x} "
                            f"carries a {'load' if is_load else 'store'} "
                            "opcode")
                    break  # a refused access never chose its address
                n = width[op]
                o = ev[3] - ram_base
                if o < 0 or o + n > ram_size:
                    raise ValueError(
                        f"{event_name(kind)} packet at pc={pc:#010x} "
                        f"addresses {ev[3]:#010x}, outside RAM "
                        f"{self._ram_span()}")
                if is_load:
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

            elif op <= D.SRAI:  # immediate ALU + shifts
                if d[1]:
                    tags[d[1]] = _RD_TAG(D.ADDI, D.SRAI, tags, d)

            elif op <= D.REMU:  # register ALU + M extension
                if d[1]:
                    tags[d[1]] = _RD_TAG(D.ADD, D.REMU, tags, d, lub)

            elif op == D.MRET:
                if branch_req is not None:
                    etag = _CHECK_TAG(D.MRET, csr)
                    if not (flow[etag][branch_req] or check_execution(
                            "branch", etag, branch_req, pc)):
                        self.stopped = True
                        break

            elif D.CSRRW <= op <= D.CSRRCI:
                csr.retire_tags(d, tags, lub)

            # FENCE / ECALL / EBREAK / WFI / ILLEGAL: no tag effects
        self.events_consumed += applied
        return applied

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

    def _tag_error(self, t: int, what: str, tag: int) -> ValueError:
        return ValueError(
            f"{event_name(t)} packet carries {what} {tag}, outside the "
            f"recorded lattice's tags 0..{self._n_tags - 1}")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def csr_tag_values(self):
        """Explicitly written CSR tags (``CsrFile.tag_values``)."""
        return self.csr.tag_values()

    def tag_image(self) -> bytes:
        """The dense RAM tag image: one tag per byte, ``ram_size`` bytes."""
        return self.ram_tags.tobytes()

    def __repr__(self) -> str:
        return (f"DiftMonitor(consumed={self.events_consumed}, "
                f"stopped={self.stopped})")


D.specialize(DiftMonitor, "consume")


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
    """Replay a recorded ``repro.dift.events/1`` stream offline.

    With ``policy=None`` the stream is analyzed under its recorded
    policy, reproducing the live run's violations exactly.  An override
    ``policy`` evaluates the same guest execution under different rules
    — it must share the recorded policy's class list (tags travel as
    numeric indices), but clearance requirements, sink assignments and
    flow relations are free to differ.  Two caveats travel with the
    format: the initial RAM classification and all peripheral-internal
    flows (recorded ``sink`` packets, MMIO read tags) are those of the
    *recorded* policy's machine.
    """
    header, events = read_stream(path)
    ram_size, ram_base = _ram_geometry(header)
    policy_data = header["config"].get("policy")
    if policy_data is None:
        raise ValueError(f"{path}: stream was recorded without a policy")
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
    # the guest ran on the *recorded* machine: its memory started at the
    # recorded policy's default classification
    monitor = DiftMonitor(engine, ram_size, recorded.default_tag(),
                          ram_base=ram_base)
    monitor.consume(events)
    return ReanalysisResult(header=header, events=len(events),
                            engine=engine, monitor=monitor)
