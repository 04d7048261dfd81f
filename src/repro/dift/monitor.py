"""Offline DIFT monitor: tag propagation replayed from an event stream.

The gem5 monitoring-core exemplars (``dift_full.c``) and Wahab et al.'s
hardware-assisted ARM ecosystem run DIFT on a *separate core* fed by an
instruction-event FIFO.  :class:`DiftMonitor` is that consumer for
recorded ``repro.dift.events/1`` streams: it replays tag propagation and
the three execution-clearance checks of paper Section V-B2 against its
own shadow state, byte-for-byte the semantics of the inline
``Cpu._interp_dift`` loop that recorded the stream.

Its tag state has the live machine's form: register tags, a
:class:`~repro.vp.csr.CsrFile` for the CSR tags, and one flat RAM tag
shadow ``ram_tags`` with its 32-bit view ``tags32``.  The shadow is an
anonymous memory mapping, so the OS commits a page only when the replay
touches it.  Fetch clearance and aligned ``lw``/``sw`` read or write one
tag word, as the ISS does; sub-word and misaligned accesses take bytes.

:func:`reanalyze_stream` drives it against the recorded policy or any
policy sharing its class numbering, without re-running the guest.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dift.engine import RECORD, DiftEngine, ViolationRecord
from repro.dift.events import (
    EV_FAULT_ACCESS,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_SINK,
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
        execution = engine.policy.execution
        self._fetch_req: Optional[int] = None
        self._branch_req: Optional[int] = None
        self._memaddr_req: Optional[int] = None
        if execution.fetch is not None:
            self._fetch_req = engine.policy.tag_of(execution.fetch)
        if execution.branch is not None:
            self._branch_req = engine.policy.tag_of(execution.branch)
        if execution.mem_addr is not None:
            self._memaddr_req = engine.policy.tag_of(execution.mem_addr)

    def consume(self, events) -> int:
        """Apply ``events`` in order; returns the number applied.

        Stops after the first packet whose check turns fatal, as the
        recording run did.  A ``load``/``store`` packet addressed outside
        RAM, an instruction whose fetch clearance would read outside RAM,
        a taint packet writing outside RAM and a packet carrying a tag
        outside the lattice raise ``ValueError``.
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
        fetch_req = self._fetch_req
        branch_req = self._branch_req
        memaddr_req = self._memaddr_req
        applied = 0
        for ev in events:
            applied += 1
            t = ev[0]
            if t > EV_FAULT_ACCESS:
                if t == EV_TRAP:
                    if branch_req is not None:
                        htag = csr.tag(CSR.MTVEC)
                        if not flow[htag][branch_req]:
                            if not check_execution("branch", htag,
                                                   branch_req, ev[1]):
                                self.stopped = True
                                break
                    csr.set_tag(CSR.MEPC, bottom)
                elif t == EV_TAINT_FILL:
                    __, o, n, tag = ev
                    self._check_span(t, o, n)
                    if tag >= n_tags:
                        raise self._tag_error(t, "tag", tag)
                    mtags[o:o + n] = bytes((tag,)) * n
                elif t == EV_TAINT:
                    __, o, data = ev
                    self._check_span(t, o, len(data))
                    if data and max(data) >= n_tags:
                        raise self._tag_error(t, "tag", max(data))
                    mtags[o:o + len(data)] = data
                elif t == EV_SINK:
                    __, unit, tag, required, context, pc = ev
                    if tag >= n_tags:
                        raise self._tag_error(t, "tag", tag)
                    if required >= n_tags:
                        raise self._tag_error(t, "required class", required)
                    if engine.policy.has_sink(unit):
                        engine.check_sink(unit, tag, context, pc)
                    else:
                        engine.check_flow(tag, required, unit, context, pc)
                else:
                    raise ValueError(f"monitor cannot apply event type {t}")
                continue

            pc = ev[1]
            if fetch_req is not None:
                off = pc - ram_base
                if off < 0 or off >= ram_size or off & 3:
                    raise ValueError(
                        f"{event_name(t)} packet at pc={pc:#010x} fetches "
                        f"outside RAM {self._ram_span()}")
                tw = tags32[off >> 2]
                if tw or not zero_is_bottom:
                    # a uniform tag word is its own LUB; only a mixed
                    # word folds its four bytes
                    itag = tw & 0xFF
                    if tw != itag * 0x01010101:
                        itag = lub[lub[lub[itag][(tw >> 8) & 0xFF]]
                                   [(tw >> 16) & 0xFF]][tw >> 24]
                    if not flow[itag][fetch_req]:
                        if not check_execution("fetch", itag, fetch_req, pc):
                            self.stopped = True
                            break

            word = ev[2]
            d = cache.get(word)
            if d is None:
                d = cache[word] = decode(word)
            op = d[0]

            if t >= EV_MMIO_LOAD:
                if memaddr_req is not None:
                    rtag = tags[d[2]]
                    if not flow[rtag][memaddr_req]:
                        if not check_execution("mem-addr", rtag,
                                               memaddr_req, pc):
                            self.stopped = True
                            break
                if t == EV_MMIO_LOAD:
                    if ev[4] >= n_tags:
                        raise self._tag_error(t, "tag", ev[4])
                    if d[1]:
                        tags[d[1]] = ev[4]

            elif op <= D.BGEU:
                if op >= D.BEQ:
                    if branch_req is not None:
                        ctag = lub[tags[d[2]]][tags[d[3]]]
                        if not flow[ctag][branch_req]:
                            if not check_execution("branch", ctag,
                                                   branch_req, pc):
                                self.stopped = True
                                break
                elif op == D.JALR:
                    rtag = tags[d[2]]
                    if branch_req is not None and not flow[rtag][branch_req]:
                        if not check_execution("branch", rtag, branch_req,
                                               pc):
                            self.stopped = True
                            break
                    if d[1]:
                        tags[d[1]] = bottom
                elif d[1]:  # JAL / LUI / AUIPC
                    tags[d[1]] = bottom

            elif op <= D.SW:  # RAM load or store (MMIO handled above)
                rtag = tags[d[2]]
                if memaddr_req is not None and not flow[rtag][memaddr_req]:
                    if not check_execution("mem-addr", rtag, memaddr_req,
                                           pc):
                        self.stopped = True
                        break
                is_load = op <= D.LHU
                if t != (EV_LOAD if is_load else EV_STORE):
                    raise ValueError(
                        f"{event_name(t)} packet at pc={pc:#010x} carries "
                        f"a {'load' if is_load else 'store'} opcode")
                n = width[op]
                o = ev[3] - ram_base
                if o < 0 or o + n > ram_size:
                    raise ValueError(
                        f"{event_name(t)} packet at pc={pc:#010x} addresses "
                        f"{ev[3]:#010x}, outside RAM {self._ram_span()}")
                if is_load:
                    if n == 4 and not o & 3:
                        tw = tags32[o >> 2]
                        tag = tw & 0xFF
                        if tw != tag * 0x01010101:
                            tag = lub[lub[lub[tag][(tw >> 8) & 0xFF]]
                                      [(tw >> 16) & 0xFF]][tw >> 24]
                    elif n == 1:
                        tag = mtags[o]
                    elif n == 2:
                        tag = lub[mtags[o]][mtags[o + 1]]
                    else:  # misaligned word
                        tag = lub[lub[lub[mtags[o]][mtags[o + 1]]]
                                  [mtags[o + 2]]][mtags[o + 3]]
                    if d[1]:
                        tags[d[1]] = tag
                else:
                    tag = tags[d[3]]
                    if n == 4 and not o & 3:
                        tags32[o >> 2] = tag * 0x01010101
                    else:
                        mtags[o] = tag
                        if n > 1:
                            mtags[o + 1] = tag
                            if n == 4:
                                mtags[o + 2] = tag
                                mtags[o + 3] = tag

            elif op <= D.SRAI:  # immediate ALU + shifts: copy rs1 tag
                if d[1]:
                    tags[d[1]] = tags[d[2]]

            elif op <= D.REMU:  # register ALU + M extension: LUB
                if d[1]:
                    tags[d[1]] = lub[tags[d[2]]][tags[d[3]]]

            elif op == D.MRET:
                if branch_req is not None:
                    etag = csr.tag(CSR.MEPC)
                    if not flow[etag][branch_req]:
                        if not check_execution("branch", etag, branch_req,
                                               pc):
                            self.stopped = True
                            break

            elif D.CSRRW <= op <= D.CSRRCI:
                self._apply_csr(d)

            # FENCE / ECALL / EBREAK / WFI / ILLEGAL: no tag effects
        self.events_consumed += applied
        return applied

    # ------------------------------------------------------------------ #
    # packet helpers (off the per-instruction path)
    # ------------------------------------------------------------------ #

    def _apply_csr(self, d: D.Decoded) -> None:
        """Mirror of ``Cpu._exec_csr`` tag bookkeeping."""
        op, rd, rs1, __, csr_addr = d
        csr = self.csr
        if not csr.known(csr_addr):
            return  # illegal-CSR fault: no tag effects
        old_tag = csr.tag(csr_addr)
        if op in (D.CSRRW, D.CSRRS, D.CSRRC):
            src_tag = self.reg_tags[rs1]
        else:
            src_tag = self._bottom
        if op in (D.CSRRW, D.CSRRWI):
            new_tag = src_tag
            write = True
        else:
            new_tag = self.engine.lub[old_tag][src_tag]
            write = rs1 != 0
        if write:
            if not csr.writable(csr_addr):
                return  # read-only: illegal-write fault, no tag effects
            csr.set_tag(csr_addr, new_tag)
        if rd:
            self.reg_tags[rd] = old_tag

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
