"""Offline DIFT monitor: tag propagation replayed from an event stream.

The gem5 monitoring-core exemplars (``dift_full.c``) and Wahab et al.'s
hardware-assisted ARM ecosystem run DIFT on a *separate core* fed by an
instruction-event FIFO.  :class:`DiftMonitor` is that consumer for
recorded ``repro.dift.events/1`` streams: it replays tag propagation and
the three execution-clearance checks of paper Section V-B2 against its
own shadow state, byte-for-byte the semantics of the inline
``Cpu._interp_dift`` loop that recorded the stream.

The RAM shadow is a list of copy-on-taint 4 KiB pages, ``None`` while a
page still holds the fill tag everywhere, each materialized page paired
with a ``memoryview.cast("I")`` of its tag words.  Fetch clearance and
aligned ``lw``/``sw`` read or write one tag word, as the ISS does;
sub-word and misaligned accesses take a byte path.

:func:`reanalyze_stream` drives it against the recorded policy or any
policy sharing its class numbering, without re-running the guest.
"""

from __future__ import annotations

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
from repro.dift.shadow import PAGE_SIZE, shadow_digest
from repro.policy.lattice import Tag
from repro.policy.serialize import policy_from_dict
from repro.vp import csr as CSR
from repro.vp import decode as D
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
        The tag every RAM byte starts with.
    ram_base:
        Guest address of RAM offset 0; word-aligned.
    """

    def __init__(self, engine: DiftEngine, ram_size: int, fill: Tag,
                 ram_base: int = 0):
        self.engine = engine
        self.ram_size = ram_size
        self.fill = fill
        self.ram_base = ram_base
        n_pages = (ram_size + PAGE_SIZE - 1) // PAGE_SIZE
        # None = every byte of the page holds ``fill``
        self._pages: List[Optional[bytearray]] = [None] * n_pages
        self._words: List[Optional[memoryview]] = [None] * n_pages
        bottom = engine.bottom_tag
        self._bottom = bottom
        self.reg_tags: List[int] = [bottom] * 32
        self.csr_tags: Dict[int, int] = {}
        # static CSR semantics oracle (known set / read-only predicate);
        # never written, so it cannot drift from the core's CsrFile
        self._csr_probe = CsrFile(bottom_tag=bottom)
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
        RAM, an instruction whose fetch clearance would read outside RAM
        and a taint packet writing outside RAM raise ``ValueError``.
        """
        engine = self.engine
        lub = engine.lub
        flow = engine.flow
        check_execution = engine.check_execution
        bottom = self._bottom
        zero_is_bottom = bottom == 0
        rt = self.reg_tags
        csr_tags = self.csr_tags
        cache = self._cache
        decode = D.decode
        # PAGE_SIZE is 4 KiB: offset o is byte o & 0xFFF of page o >> 12
        pages = self._pages
        words = self._words
        fill = self.fill
        fill_word = fill * 0x01010101
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
                        htag = csr_tags.get(CSR.MTVEC, bottom)
                        if not flow[htag][branch_req]:
                            if not check_execution("branch", htag,
                                                   branch_req, ev[1]):
                                self.stopped = True
                                break
                    csr_tags[CSR.MEPC] = bottom
                elif t == EV_TAINT_FILL:
                    self._write(t, ev[1], ev[2], ev[3])
                elif t == EV_TAINT:
                    tags = bytes(ev[2])
                    self._write(t, ev[1], len(tags), tags)
                elif t == EV_SINK:
                    __, unit, tag, required, context, pc = ev
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
                w = words[off >> 12]
                if w is None:
                    tw = fill_word
                else:
                    tw = w[(off & 0xFFF) >> 2]
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
                    rtag = rt[d[2]]
                    if not flow[rtag][memaddr_req]:
                        if not check_execution("mem-addr", rtag,
                                               memaddr_req, pc):
                            self.stopped = True
                            break
                if t == EV_MMIO_LOAD and d[1]:
                    rt[d[1]] = ev[4]

            elif op <= D.BGEU:
                if op >= D.BEQ:
                    if branch_req is not None:
                        ctag = lub[rt[d[2]]][rt[d[3]]]
                        if not flow[ctag][branch_req]:
                            if not check_execution("branch", ctag,
                                                   branch_req, pc):
                                self.stopped = True
                                break
                elif op == D.JALR:
                    rtag = rt[d[2]]
                    if branch_req is not None and not flow[rtag][branch_req]:
                        if not check_execution("branch", rtag, branch_req,
                                               pc):
                            self.stopped = True
                            break
                    if d[1]:
                        rt[d[1]] = bottom
                elif d[1]:  # JAL / LUI / AUIPC
                    rt[d[1]] = bottom

            elif op <= D.SW:  # RAM load or store (MMIO handled above)
                rtag = rt[d[2]]
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
                i = o & 0xFFF
                if i + n > 0x1000:
                    # a misaligned access straddling two pages
                    if is_load:
                        tags = self._read(o, n)
                        tag = tags[0]
                        for x in tags[1:]:
                            tag = lub[tag][x]
                        if d[1]:
                            rt[d[1]] = tag
                    else:
                        self._write(t, o, n, rt[d[3]])
                elif is_load:
                    w = words[o >> 12]
                    if w is None:
                        tag = fill
                    elif n == 4 and not i & 3:
                        tw = w[i >> 2]
                        tag = tw & 0xFF
                        if tw != tag * 0x01010101:
                            tag = lub[lub[lub[tag][(tw >> 8) & 0xFF]]
                                      [(tw >> 16) & 0xFF]][tw >> 24]
                    else:
                        data = pages[o >> 12]
                        tag = data[i]
                        if n > 1:
                            tag = lub[tag][data[i + 1]]
                            if n == 4:
                                tag = lub[lub[tag][data[i + 2]]][data[i + 3]]
                    if d[1]:
                        rt[d[1]] = tag
                else:
                    tag = rt[d[3]]
                    w = words[o >> 12]
                    if w is None:
                        if tag == fill:
                            continue
                        w = self._materialize(o >> 12)
                    if n == 4 and not i & 3:
                        w[i >> 2] = tag * 0x01010101
                    else:
                        data = pages[o >> 12]
                        data[i] = tag
                        if n > 1:
                            data[i + 1] = tag
                            if n == 4:
                                data[i + 2] = tag
                                data[i + 3] = tag

            elif op <= D.SRAI:  # immediate ALU + shifts: copy rs1 tag
                if d[1]:
                    rt[d[1]] = rt[d[2]]

            elif op <= D.REMU:  # register ALU + M extension: LUB
                if d[1]:
                    rt[d[1]] = lub[rt[d[2]]][rt[d[3]]]

            elif op == D.MRET:
                if branch_req is not None:
                    etag = csr_tags.get(CSR.MEPC, bottom)
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
        if not self._csr_probe.known(csr_addr):
            return  # illegal-CSR fault: no tag effects
        bottom = self._bottom
        old_tag = self.csr_tags.get(csr_addr, bottom)
        if op in (D.CSRRW, D.CSRRS, D.CSRRC):
            src_tag = self.reg_tags[rs1]
        else:
            src_tag = bottom
        if op in (D.CSRRW, D.CSRRWI):
            new_tag = src_tag
            write = True
        else:
            new_tag = self.engine.lub[old_tag][src_tag]
            write = rs1 != 0
        if write:
            if csr_addr >= 0xC00 or csr_addr in (CSR.MHARTID, CSR.MISA):
                return  # read-only: illegal-write fault, no tag effects
            self.csr_tags[csr_addr] = new_tag
        if rd:
            self.reg_tags[rd] = old_tag

    def _ram_span(self) -> str:
        return (f"[{self.ram_base:#010x}, "
                f"{self.ram_base + self.ram_size:#010x})")

    def _materialize(self, page: int) -> memoryview:
        """Give ``page`` its own storage; returns its tag-word view."""
        length = min(PAGE_SIZE, self.ram_size - page * PAGE_SIZE)
        data = self._pages[page] = bytearray((self.fill,)) * length
        view = self._words[page] = memoryview(data).cast("I")
        return view

    def _read(self, offset: int, length: int) -> bytes:
        """Tags of ``length`` bytes from RAM offset ``offset``."""
        out = bytearray()
        end = offset + length
        while offset < end:
            page, i = divmod(offset, PAGE_SIZE)
            chunk = min(PAGE_SIZE - i, end - offset)
            data = self._pages[page]
            out += (bytes((self.fill,)) * chunk if data is None
                    else data[i:i + chunk])
            offset += chunk
        return bytes(out)

    def _write(self, t: int, offset: int, length: int, tags) -> None:
        """Write ``length`` tags from RAM offset ``offset`` for packet type
        ``t``: ``tags`` is one tag for every byte, or per-byte ``bytes``."""
        end = offset + length
        if offset < 0 or end > self.ram_size:
            raise ValueError(
                f"{event_name(t)} packet writes RAM offsets "
                f"[{offset:#x}, {end:#x}), outside [0, {self.ram_size:#x})")
        fill = self.fill
        pos = 0
        while offset < end:
            page, i = divmod(offset, PAGE_SIZE)
            chunk = min(PAGE_SIZE - i, end - offset)
            if isinstance(tags, int):
                piece = bytes((tags,)) * chunk
            else:
                piece = tags[pos:pos + chunk]
            data = self._pages[page]
            if data is None and piece.count(fill) != chunk:
                self._materialize(page)
                data = self._pages[page]
            if data is not None:
                data[i:i + chunk] = piece
            offset += chunk
            pos += chunk

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def csr_tag_values(self):
        """Explicitly written CSR tags (mirror of ``CsrFile.tag_values``)."""
        return self.csr_tags.values()

    def tag_image(self) -> bytes:
        """The dense RAM tag image: one tag per byte, ``ram_size`` bytes."""
        return self._read(0, self.ram_size)

    def shadow_digest(self) -> str:
        """Canonical digest of the monitor's RAM shadow.

        Equal to :func:`~repro.dift.shadow.shadow_digest` of the live
        machine's flat RAM shadow when the replay reproduced it, so a
        recorded stream's re-analysis can be checked against the live run
        without materializing the offline shadow flat (one ``count`` per
        materialized page).  The background is the shadow's own fill:
        the *recorded* policy's default classification, even under an
        override engine.
        """
        return shadow_digest(self._pages, self.fill, self.ram_size)

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
    recorded = policy_from_dict(policy_data)
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
