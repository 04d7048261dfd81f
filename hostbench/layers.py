"""Layer timing measured from outside the program.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
with span recorders — on the instance where the platform looks the
method up per call, on the class where the instance has ``__slots__``
or is created inside the layer, and on the module attribute the offline
monitor resolves at call time.  Nothing under ``src/`` changes.

Spans nest strictly (every wrapped call returns before its caller
does), so a layer's *self time* is its span minus its child spans.  The
self times of the layers below ``Platform.run``, as a share of the
``Platform.run`` total, is the *coverage*: time the wrappers miss lands
in ``Platform.run``'s own self time and lowers it.  Self times are
folded into per-(rung, layer)
accumulators as spans close; raw spans (name, start, end, parent) are
kept only for the first traced repetition, up to :data:`KEEP_SPANS`, and
written out as Chrome trace JSON.

:func:`derive` turns the accumulators plus the per-op counts the ladder
collects into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: raw spans kept for the Chrome trace (the accumulators are unbounded)
KEEP_SPANS = 200_000

#: TLM targets wrapped per platform: metric name -> Platform attribute
PERIPHERALS = (("uart0", "uart"), ("sensor0", "sensor"), ("can0", "can"),
               ("aes0", "aes"), ("plic0", "plic"), ("clint0", "clint"),
               ("dma0", "dma"), ("ram", "memory"))

RUNGS = ("vp", "vpp", "vppd", "vpp_jit", "vpp_rec")


class Tracer:
    """Span recorder with per-(rung, layer) self-time accumulators."""

    def __init__(self) -> None:
        #: the ladder slot being traced; keys every accumulator
        self.rung = "setup"
        #: keep raw spans while True (first traced repetition only)
        self.recording = False
        self.spans: List[list] = []
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        #: summed ``Platform.run`` durations and summed self times of
        #: the spans below them (``Platform.run``'s own left out)
        self.run_ns = 0
        self.below_run_ns = 0
        # open frames: [layer, start_ns, child_ns, span_index, in_run]
        self._stack: List[list] = []

    # ---- span bookkeeping ---------------------------------------------- #

    def _enter(self, name: str, layer: str) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        in_run = layer == "vp.platform" or (parent is not None and parent[4])
        index = -1
        if self.recording and len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append([name, layer, 0, 0,
                               parent[3] if parent is not None else -1])
        start = perf_counter_ns()
        if index >= 0:
            self.spans[index][2] = start
        stack.append([layer, start, 0, index, in_run])

    def _exit(self) -> None:
        end = perf_counter_ns()
        layer, start, child, index, in_run = self._stack.pop()
        duration = end - start
        key = (self.rung, layer)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child
        self.calls[key] = self.calls.get(key, 0) + 1
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        if layer == "vp.platform":
            self.run_ns += duration
        elif in_run:
            self.below_run_ns += duration - child
        if index >= 0:
            self.spans[index][3] = end

    def wrap(self, name: str, layer: str, fn):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, layer: str):
        self._enter(name, layer)
        try:
            yield
        finally:
            self._exit()

    # ---- wiring --------------------------------------------------------- #

    def instrument(self, platform) -> None:
        """Wrap one platform's layer entry points on the instance."""
        wrap = self.wrap
        platform.run = wrap("Platform.run", "vp.platform", platform.run)
        kernel = platform.kernel
        kernel.run = wrap("Kernel.run", "sysc.kernel", kernel.run)
        cpu = platform.cpu
        cpu.run = wrap("Cpu.run", "vp.cpu", cpu.run)
        jit = platform.jit
        if jit is not None:
            jit.run_plain = wrap("JitEngine.run_plain", "vp.jit",
                                 jit.run_plain)
            jit.run_dift = wrap("JitEngine.run_dift", "vp.jit", jit.run_dift)
        router = platform.router
        router.b_transport = wrap("Router.b_transport", "sysc.tlm",
                                  router.b_transport)
        for name, attr in PERIPHERALS:
            tsock = getattr(platform, attr).tsock
            tsock.b_transport = wrap(f"{name}.b_transport",
                                     f"vp.peripherals.{name}",
                                     tsock.b_transport)

    @contextmanager
    def class_hooks(self):
        """Wrap the class- and module-level entry points for one slot.

        Installed per traced slot and restored in ``finally`` so that
        untraced repetitions, and campaign workers forked from this
        process, run the original functions.
        """
        from repro.dift import monitor as monitor_mod
        from repro.dift.events import EventWriter
        from repro.dift.liveness import TaintLiveness

        saved = [(TaintLiveness, "maybe_reclaim",
                  TaintLiveness.maybe_reclaim),
                 (EventWriter, "write_many", EventWriter.write_many),
                 (monitor_mod, "read_stream", monitor_mod.read_stream)]
        TaintLiveness.maybe_reclaim = self.wrap(
            "TaintLiveness.maybe_reclaim", "dift.liveness",
            TaintLiveness.maybe_reclaim)
        EventWriter.write_many = self.wrap(
            "EventWriter.write_many", "dift.events", EventWriter.write_many)
        monitor_mod.read_stream = self.wrap(
            "read_stream", "dift.monitor.decode", monitor_mod.read_stream)
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ---- queries -------------------------------------------------------- #

    def self_of(self, rung: str, layer: str) -> int:
        return self.self_ns.get((rung, layer), 0)

    def calls_of(self, rung: str, layer: str) -> int:
        return self.calls.get((rung, layer), 0)

    def write_chrome(self, path: str) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        if not self.spans:
            origin = 0
        else:
            origin = min(span[2] for span in self.spans)
        events = []
        for index, (name, layer, start, end, parent) in enumerate(
                self.spans):
            if not end:
                continue
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"},
                      handle)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _run_s(rep: dict, rung: str) -> float:
    return sum(rep["rungs"][rung]["op_s"].values())


def _median_ratio(reps: List[dict], num_rung: str, den_rung: str) -> float:
    ratios = [_run_s(rep, num_rung) / _run_s(rep, den_rung)
              for rep in reps if _run_s(rep, den_rung) > 0]
    return statistics.median(ratios) if ratios else 0.0


def _wall_per_cpu(reps: List[dict], rung: str) -> float:
    return _div(sum(rep["rungs"][rung]["wall_s"] for rep in reps),
                sum(rep["rungs"][rung]["cpu_s"] for rep in reps))


def _sum(reps: List[dict], rung: str, key: str) -> float:
    return sum(rep["rungs"][rung]["stats"].get(key, 0) for rep in reps)


def derive(tracer: Tracer, traced: List[dict], untraced: List[dict],
           campaigns: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)``.

    Counts are per repetition (the simulation is deterministic, so every
    repetition retires the same work).  Time splits come from the traced
    repetitions; the rung-to-rung ratios (DIFT overhead, demand and JIT
    speed-ups) come from the untraced repetitions of the same process,
    because tracing inflates each rung by a different amount.  The
    campaign metrics come from every campaign leg.
    """
    n = len(traced)
    out: Dict[str, Tuple[float, str]] = {}

    def instr(rung: str) -> int:
        return sum(sum(rep["rungs"][rung]["op_instr"].values())
                   for rep in traced)

    def per_rep(value: float) -> float:
        return value / n if n else 0.0

    t = tracer
    for rung in RUNGS:
        out[f"vp.cpu.self_ns_per_instr.{rung}"] = (
            _div(t.self_of(rung, "vp.cpu"), instr(rung)), "ns")
    out["vp.cpu.instr_per_call"] = (
        _div(instr("vpp"), t.calls_of("vpp", "vp.cpu")), "count")

    vp_ns = _div(t.self_of("vp", "vp.cpu"), instr("vp"))
    vpp_ns = _div(t.self_of("vpp", "vp.cpu"), instr("vpp"))
    out["dift.engine.ns_per_instr"] = (vpp_ns - vp_ns, "ns")
    out["dift.engine.overhead"] = (
        _median_ratio(untraced, "vpp", "vp"), "ratio")
    out["dift.engine.checks_per_kinstr"] = (
        1e3 * _div(_sum(traced, "vpp", "checks"), instr("vpp")), "count")
    out["dift.engine.violations"] = (
        per_rep(_sum(traced, "vpp", "violations")), "count")

    fast = _sum(traced, "vppd", "fast_steps")
    slow = _sum(traced, "vppd", "slow_steps")
    attempts = _sum(traced, "vppd", "reclaim_attempts")
    out["dift.liveness.fast_ratio"] = (_div(fast, fast + slow), "ratio")
    out["dift.liveness.reclaim_attempts"] = (per_rep(attempts), "count")
    out["dift.liveness.reclaim_success_ratio"] = (
        _div(_sum(traced, "vppd", "reclaims"), attempts), "ratio")
    out["dift.liveness.reclaim_ns_per_instr"] = (
        _div(t.self_of("vppd", "dift.liveness"), instr("vppd")), "ns")
    out["dift.liveness.pages_scanned"] = (
        per_rep(_sum(traced, "vppd", "pages_scanned")), "count")
    out["dift.liveness.speedup"] = (
        _median_ratio(untraced, "vpp", "vppd"), "ratio")

    out["vp.jit.speedup"] = (_median_ratio(untraced, "vpp", "vpp_jit"),
                             "ratio")
    out["vp.jit.self_ns_per_instr"] = (
        _div(t.self_of("vpp_jit", "vp.jit"), instr("vpp_jit")), "ns")
    out["vp.jit.trace_ratio"] = (
        _div(_sum(traced, "vpp_jit", "trace_instructions"),
             instr("vpp_jit")), "ratio")
    out["vp.jit.blocks_compiled"] = (
        per_rep(_sum(traced, "vpp_jit", "blocks_compiled")), "count")
    out["vp.jit.side_exits"] = (
        per_rep(_sum(traced, "vpp_jit", "side_exits")), "count")
    out["vp.jit.invalidations"] = (
        per_rep(_sum(traced, "vpp_jit", "invalidations")), "count")

    # the platform layers below the ISS, measured on the reference
    # engine (VP+ full)
    txns = t.calls_of("vpp", "sysc.tlm")
    periph_ns = sum(t.self_of("vpp", f"vp.peripherals.{name}")
                    for name, __ in PERIPHERALS)
    out["sysc.tlm.txn_per_kinstr"] = (
        1e3 * _div(_sum(traced, "vpp", "txns"), instr("vpp")), "count")
    out["sysc.tlm.self_ns_per_txn"] = (
        _div(t.self_of("vpp", "sysc.tlm"), txns), "ns")
    out["sysc.tlm.ns_per_instr"] = (
        _div(t.self_of("vpp", "sysc.tlm") + periph_ns, instr("vpp")), "ns")
    for name, __ in PERIPHERALS:
        layer = f"vp.peripherals.{name}"
        calls = t.calls_of("vpp", layer)
        out[f"{layer}.txns"] = (per_rep(calls), "count")
        out[f"{layer}.ns_per_txn"] = (_div(t.self_of("vpp", layer), calls),
                                      "ns")
    out["sysc.kernel.self_ns_per_instr"] = (
        _div(t.self_of("vpp", "sysc.kernel"), instr("vpp")), "ns")
    out["sysc.kernel.delta_cycles"] = (
        per_rep(_sum(traced, "vpp", "delta_cycles")), "count")
    out["sysc.kernel.sim_us"] = (per_rep(_sum(traced, "vpp", "sim_us")),
                                 "us")

    events = sum(rep["reanalyze"]["events"] for rep in traced)
    write_ns = t.self_of("vpp_rec", "dift.events")
    out["dift.events.ns_per_instr"] = (_div(write_ns, instr("vpp_rec")),
                                       "ns")
    out["dift.events.write_ns_per_event"] = (_div(write_ns, events), "ns")
    out["dift.events.bytes_per_instr"] = (
        _div(sum(rep["reanalyze"]["bytes"] for rep in traced),
             instr("vpp_rec")), "B")
    # the MIPS metrics count CPU time only; off-CPU time of recording
    # (blocking writes) shows here, as wall per CPU second of the
    # recording rung over that of VP+ full, which cancels host steal
    out["dift.events.offcpu_ratio"] = (
        _div(_wall_per_cpu(untraced, "vpp_rec"),
             _wall_per_cpu(untraced, "vpp")), "ratio")
    out["dift.monitor.decode_ns_per_event"] = (
        _div(t.self_of("vpp_rec", "dift.monitor.decode"), events), "ns")
    out["dift.monitor.apply_ns_per_event"] = (
        _div(t.self_of("vpp_rec", "dift.monitor"), events), "ns")

    boots = sum(len(rep["rungs"][rung]["setup_s"]) for rep in traced
                for rung in RUNGS)
    for phase in ("build", "platform", "load", "prepare"):
        total = sum(t.self_of(rung, f"setup.{phase}") for rung in RUNGS)
        out[f"setup.{phase}_ms"] = (_div(total, boots) / 1e6, "ms")

    jobs = sum(leg["jobs"] for leg in campaigns)
    workers = campaigns[0]["workers"] if campaigns else 1
    out["campaign.scheduler.job_run_ms"] = (
        1e3 * _div(sum(leg["job_run_s"] for leg in campaigns), jobs), "ms")
    out["campaign.scheduler.overhead_ms_per_job"] = (
        1e3 * _div(sum(workers * leg["cold_s"] - leg["job_run_s"]
                       for leg in campaigns), jobs), "ms")
    out["campaign.cache.hit_ms_per_job"] = (
        1e3 * _div(sum(leg["cached_s"] for leg in campaigns), jobs), "ms")
    out["campaign.cache.hit_ratio"] = (
        _div(sum(leg["hits"] for leg in campaigns), jobs), "ratio")

    out["trace.overhead"] = (
        _div(sum(rep["ops_s"] for rep in traced) / max(n, 1),
             sum(rep["ops_s"] for rep in untraced) / max(len(untraced), 1)),
        "ratio")
    out["trace.self_time_coverage"] = (_div(t.below_run_ns, t.run_ns),
                                       "ratio")
    return out
