"""Offline DIFT monitor: tag propagation replayed from an event stream.

The gem5 monitoring-core exemplars (``dift_full.c``) and Wahab et al.'s
hardware-assisted ARM ecosystem run DIFT on a *separate core* fed by an
instruction-event FIFO.  :class:`DiftMonitor` is that consumer for
recorded ``repro.dift.events/1`` streams: it replays tag propagation and
the three execution-clearance checks of paper Section V-B2 against its
own shadow state, byte-for-byte the semantics of the inline
``Cpu._interp_dift`` loop that recorded the stream.

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
    read_stream,
)
from repro.dift.shadow import ShadowTags, shadow_digest
from repro.policy.serialize import policy_from_dict
from repro.vp import csr as CSR
from repro.vp import decode as D
from repro.vp.csr import CsrFile


class DiftMonitor:
    """Consumes recorded instruction events, owning all DIFT tag state.

    Parameters
    ----------
    engine:
        The :class:`DiftEngine` performing checks.
    store:
        The :class:`ShadowTags` holding the per-byte RAM tags.
    ram_base:
        Guest address of ``store[0]``.
    """

    def __init__(self, engine: DiftEngine, store: ShadowTags,
                 ram_base: int = 0):
        self.engine = engine
        self.store = store
        self.ram_base = ram_base
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
        recording run did.
        """
        apply = self._apply
        applied = 0
        for ev in events:
            apply(ev)
            applied += 1
            if self.stopped:
                break
        self.events_consumed += applied
        return applied

    # ------------------------------------------------------------------ #
    # packet application
    # ------------------------------------------------------------------ #

    def _apply(self, ev: Tuple) -> None:
        t = ev[0]
        if t <= EV_FAULT_ACCESS:
            self._apply_instr(ev)
        elif t == EV_TRAP:
            if self._branch_req is not None:
                htag = self.csr_tags.get(CSR.MTVEC, self._bottom)
                if not self.engine.flow[htag][self._branch_req]:
                    if not self.engine.check_execution(
                            "branch", htag, self._branch_req, ev[1]):
                        self.stopped = True
                        return
            self.csr_tags[CSR.MEPC] = self._bottom
        elif t == EV_TAINT_FILL:
            self.store.fill_range(ev[1], ev[2], ev[3])
        elif t == EV_TAINT:
            self.store.set_range(ev[1], ev[2])
        elif t == EV_SINK:
            __, unit, tag, required, context, pc = ev
            if self.engine.policy.has_sink(unit):
                self.engine.check_sink(unit, tag, context, pc)
            else:
                self.engine.check_flow(tag, required, unit, context, pc)
        else:
            raise ValueError(f"monitor cannot apply event type {t}")

    def _apply_instr(self, ev: Tuple) -> None:
        t = ev[0]
        pc = ev[1]
        word = ev[2]
        engine = self.engine
        lub = engine.lub
        flow = engine.flow
        bottom = self._bottom
        store = self.store
        rt = self.reg_tags

        if self._fetch_req is not None:
            fetch_req = self._fetch_req
            off = pc - self.ram_base
            tsum = (store[off] | store[off + 1] | store[off + 2]
                    | store[off + 3])
            if tsum or bottom != 0:
                itag = lub[lub[lub[store[off]][store[off + 1]]]
                           [store[off + 2]]][store[off + 3]]
                if not flow[itag][fetch_req]:
                    if not engine.check_execution("fetch", itag, fetch_req,
                                                  pc):
                        self.stopped = True
                        return

        d = self._cache.get(word)
        if d is None:
            d = D.decode(word)
            self._cache[word] = d
        op = d[0]
        branch_req = self._branch_req
        memaddr_req = self._memaddr_req

        if t >= EV_MMIO_LOAD:
            if memaddr_req is not None:
                rtag = rt[d[2]]
                if not flow[rtag][memaddr_req]:
                    if not engine.check_execution("mem-addr", rtag,
                                                  memaddr_req, pc):
                        self.stopped = True
                        return
            if t == EV_MMIO_LOAD and d[1]:
                rt[d[1]] = ev[4]
            return

        if op <= D.BGEU:
            if op >= D.BEQ:
                if branch_req is not None:
                    ctag = lub[rt[d[2]]][rt[d[3]]]
                    if not flow[ctag][branch_req]:
                        if not engine.check_execution("branch", ctag,
                                                      branch_req, pc):
                            self.stopped = True
                            return
            elif op == D.JALR:
                rtag = rt[d[2]]
                if branch_req is not None and not flow[rtag][branch_req]:
                    if not engine.check_execution("branch", rtag,
                                                  branch_req, pc):
                        self.stopped = True
                        return
                if d[1]:
                    rt[d[1]] = bottom
            else:  # JAL / LUI / AUIPC
                if d[1]:
                    rt[d[1]] = bottom

        elif op <= D.LHU:  # RAM load (MMIO loads returned above)
            rtag = rt[d[2]]
            if memaddr_req is not None and not flow[rtag][memaddr_req]:
                if not engine.check_execution("mem-addr", rtag, memaddr_req,
                                              pc):
                    self.stopped = True
                    return
            if t != EV_LOAD:
                raise ValueError(
                    f"step packet at pc={pc:#010x} carries a load opcode")
            o = ev[3] - self.ram_base
            if op == D.LW:
                tag = lub[lub[lub[store[o]][store[o + 1]]]
                          [store[o + 2]]][store[o + 3]]
            elif op in (D.LH, D.LHU):
                tag = lub[store[o]][store[o + 1]]
            else:  # LB / LBU
                tag = store[o]
            if d[1]:
                rt[d[1]] = tag

        elif op <= D.SW:  # RAM store
            rtag = rt[d[2]]
            if memaddr_req is not None and not flow[rtag][memaddr_req]:
                if not engine.check_execution("mem-addr", rtag, memaddr_req,
                                              pc):
                    self.stopped = True
                    return
            if t != EV_STORE:
                raise ValueError(
                    f"step packet at pc={pc:#010x} carries a store opcode")
            tag = rt[d[3]]
            o = ev[3] - self.ram_base
            if op == D.SW:
                store[o] = tag
                store[o + 1] = tag
                store[o + 2] = tag
                store[o + 3] = tag
            elif op == D.SB:
                store[o] = tag
            else:  # SH
                store[o] = tag
                store[o + 1] = tag

        elif op <= D.SRAI:  # immediate ALU + shifts: copy rs1 tag
            if d[1]:
                rt[d[1]] = rt[d[2]]

        elif op <= D.REMU:  # register ALU + M extension: LUB
            if d[1]:
                rt[d[1]] = lub[rt[d[2]]][rt[d[3]]]

        elif op == D.MRET:
            if branch_req is not None:
                etag = self.csr_tags.get(CSR.MEPC, bottom)
                if not flow[etag][branch_req]:
                    if not engine.check_execution("branch", etag, branch_req,
                                                  pc):
                        self.stopped = True
                        return

        elif D.CSRRW <= op <= D.CSRRCI:
            self._apply_csr(d)

        # FENCE / ECALL / EBREAK / WFI / ILLEGAL: no tag effects

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

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def csr_tag_values(self):
        """Explicitly written CSR tags (mirror of ``CsrFile.tag_values``)."""
        return self.csr_tags.values()

    def shadow_digest(self) -> str:
        """Canonical digest of the monitor's RAM shadow.

        Equal to :func:`~repro.dift.shadow.shadow_digest` of the live
        machine's flat RAM shadow when the replay reproduced it, so a
        recorded stream's re-analysis can be checked against the live run
        without materializing the offline store flat (the walk is
        O(tainted pages)).  The background is the store's own fill: the
        *recorded* policy's default classification, even under an
        override engine.
        """
        return shadow_digest(self.store, self.store.fill)

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
    cfg = header["config"]
    policy_data = cfg.get("policy")
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
    store = ShadowTags(cfg["ram_size"], fill=recorded.default_tag())
    monitor = DiftMonitor(engine, store, ram_base=header.get("ram_base", 0))
    monitor.consume(events)
    return ReanalysisResult(header=header, events=len(events),
                            engine=engine, monitor=monitor)
