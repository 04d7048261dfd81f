"""Tests for the observability subsystem (``repro.obs``).

Covers the metric primitives' math, the ring-buffer tracer (including
wraparound), the Chrome ``trace_event`` export schema, and — the part
that guards the overhead contract — an end-to-end assertion that a guest
run *without* an ``Observability`` attached executes **zero** metric or
trace sink callbacks.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    GROUP_OF_OP,
    INSTRUCTION,
    OPCODE_GROUPS,
    Counter,
    EventTracer,
    Histogram,
    MetricsRegistry,
    Observability,
    merge_snapshots,
    TraceEvent,
    bench_record,
    metrics_document,
)
from repro.sw import runtime
from repro.vp import decode as D
from tests.conftest import run_guest

# --------------------------------------------------------------------- #
# metric primitives
# --------------------------------------------------------------------- #


class TestCounterGauge:
    def test_counter_math(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_set(self):
        registry = MetricsRegistry()
        g = registry.gauge("g")
        g.set(3.5)
        assert registry.value("g") == 3.5


class TestHistogram:
    def test_bucket_placement_inclusive_edges(self):
        h = Histogram("h", bounds=(10, 20, 30))
        for v in (5, 10, 11, 20, 30, 31, 1000):
            h.observe(v)
        #                 <=10  <=20  <=30  overflow
        assert h.counts == [2, 2, 1, 2]
        assert h.count == 7
        assert h.sum == 5 + 10 + 11 + 20 + 30 + 31 + 1000
        assert h.min == 5 and h.max == 1000
        assert h.mean == pytest.approx(h.sum / 7)

    def test_empty_histogram(self):
        h = Histogram("h", bounds=(1,))
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.min is None and h.max is None

    def test_quantile_coarse(self):
        h = Histogram("h", bounds=(10, 20, 30))
        for __ in range(90):
            h.observe(5)
        for __ in range(10):
            h.observe(25)
        assert h.quantile(0.5) == 10     # median bucket's upper edge
        assert h.quantile(0.95) == 30
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(3, 2, 1))

    def test_to_dict_is_json_safe(self):
        h = Histogram("h", bounds=(1, 2))
        h.observe(1.5)
        d = h.to_dict()
        json.dumps(d)
        assert d["type"] == "histogram"
        assert d["counts"] == [0, 1, 0]


class TestRegistry:
    def test_get_or_create_identity(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h", (1, 2)) is r.histogram("h", (9,))

    def test_cross_family_collision_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x", (1,))

    def test_snapshot_resolves_lazy_gauges(self):
        r = MetricsRegistry()
        r.inc("c", 7)
        r.gauge("g").set(1)
        cell = {"v": 10}
        r.set_gauge_fn("lazy", lambda: cell["v"])
        cell["v"] = 99           # mutate after registration
        snap = r.snapshot()
        assert snap["c"] == 7 and snap["g"] == 1 and snap["lazy"] == 99
        assert list(snap) == sorted(snap)
        assert "lazy" in r and len(r) == 3

    def test_value_unknown_name(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")


class TestMergeSnapshots:
    """Cross-process snapshot folding used by the campaign runner."""

    def _registry(self, count, observations):
        r = MetricsRegistry()
        r.inc("cpu.instructions", count)
        r.gauge("shadow.pages").set(count // 2)
        h = r.histogram("wall_us", (10, 100))
        for value in observations:
            h.observe(value)
        return r

    def test_scalars_sum_and_histograms_merge(self):
        a = self._registry(10, [5, 50]).snapshot()
        b = self._registry(4, [500]).snapshot()
        merged = merge_snapshots(a, b)
        assert merged["cpu.instructions"] == 14
        assert merged["shadow.pages"] == 7
        hist = merged["wall_us"]
        assert hist["count"] == 3
        assert hist["sum"] == 555
        assert hist["min"] == 5 and hist["max"] == 500
        assert hist["counts"] == [1, 1, 1]   # one per bucket incl. overflow
        assert list(merged) == sorted(merged)

    def test_disjoint_keys_pass_through(self):
        merged = merge_snapshots({"a": 1}, {"b": 2}, {"a": 3})
        assert merged == {"a": 4, "b": 2}

    def test_zero_snapshots(self):
        assert merge_snapshots() == {}

    def test_type_mismatch_rejected(self):
        hist = self._registry(1, [1]).snapshot()["wall_us"]
        with pytest.raises(ValueError, match="scalar"):
            merge_snapshots({"x": 1}, {"x": hist})

    def test_bounds_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", (1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", (1, 3)).observe(1)
        with pytest.raises(ValueError, match="bounds"):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_merge_is_associative_on_real_shapes(self):
        snaps = [self._registry(n, [n]).snapshot() for n in (1, 2, 3)]
        left = merge_snapshots(merge_snapshots(snaps[0], snaps[1]),
                               snaps[2])
        right = merge_snapshots(snaps[0],
                                merge_snapshots(snaps[1], snaps[2]))
        assert left == right == merge_snapshots(*snaps)


def test_opcode_group_table_is_total():
    """Every dense opcode ID maps into a valid group."""
    assert len(GROUP_OF_OP) == D.N_OPS
    assert all(0 <= g < len(OPCODE_GROUPS) for g in GROUP_OF_OP)
    assert GROUP_OF_OP[D.ADD] == OPCODE_GROUPS.index("alu")
    assert GROUP_OF_OP[D.LW] == OPCODE_GROUPS.index("load")
    assert GROUP_OF_OP[D.BEQ] == OPCODE_GROUPS.index("branch")
    assert GROUP_OF_OP[D.MUL] == OPCODE_GROUPS.index("muldiv")


# --------------------------------------------------------------------- #
# tracer ring buffer + Chrome export
# --------------------------------------------------------------------- #


def _validate_chrome_trace(doc: dict) -> None:
    """Assert the Chrome ``trace_event`` JSON object-form schema."""
    json.dumps(doc)                       # must be JSON-serializable
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] in ("ms", "ns")
    for event in doc["traceEvents"]:
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["name"], str)
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            continue                      # metadata carries no timestamp
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["cat"], str)
        if event["ph"] == "X":
            assert isinstance(event["dur"], (int, float))
        if event["ph"] == "i":
            assert event["s"] == "g"


class TestEventTracer:
    def test_ring_wraparound(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", "t", ts=float(i))
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # oldest-first: events 6..9 survive
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_no_drop_below_capacity(self):
        tracer = EventTracer(capacity=8)
        for i in range(5):
            tracer.instant(f"e{i}", "t", ts=0.0)
        assert tracer.dropped == 0
        assert [e.name for e in tracer.events()] == [f"e{i}"
                                                     for i in range(5)]
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0

    def test_instant_uses_installed_clock(self):
        now = {"us": 12.5}
        tracer = EventTracer(capacity=4, clock=lambda: now["us"])
        tracer.instant("a", "t")
        now["us"] = 99.0
        tracer.instant("b", "t")
        ts = [e.ts for e in tracer.events()]
        assert ts == [12.5, 99.0]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_chrome_trace_schema(self):
        tracer = EventTracer(capacity=16)
        tracer.complete("quantum", "cpu", ts=0.0, dur=81.92,
                        args={"executed": 8192})
        tracer.instant("violation", "dift", ts=40.0, args={"kind": "x"})
        doc = tracer.chrome_trace(process_name="unit-test")
        _validate_chrome_trace(doc)
        assert doc["traceEvents"][0]["ph"] == "M"
        assert doc["traceEvents"][0]["args"]["name"] == "unit-test"
        assert doc["otherData"]["emitted"] == 2
        assert doc["otherData"]["dropped"] == 0
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M", "X", "i"]

    def test_event_to_json_shapes(self):
        x = TraceEvent("n", "c", "X", ts=1.0, dur=2.0).to_json()
        assert x["dur"] == 2.0 and "s" not in x and "args" not in x
        i = TraceEvent("n", "c", "i", ts=1.0, args={"k": 1}).to_json()
        assert i["s"] == "g" and i["args"] == {"k": 1} and "dur" not in i


# --------------------------------------------------------------------- #
# export documents
# --------------------------------------------------------------------- #


def test_export_documents():
    r = MetricsRegistry()
    r.inc("c", 3)
    doc = metrics_document(r)
    assert doc["schema"] == "repro.metrics/1"
    assert doc["metrics"]["c"] == 3
    assert "python" in doc["host"]
    rec = bench_record("b1", {"seconds": 1.5}, registry=r)
    assert rec["schema"] == "repro.bench/1"
    assert rec["bench"] == "b1"
    assert rec["data"]["seconds"] == 1.5
    assert rec["metrics"]["c"] == 3
    assert "metrics" not in bench_record("b2", {})
    json.dumps(doc), json.dumps(rec)


def test_observability_facade():
    with pytest.raises(ValueError):
        Observability(level="bogus")
    obs = Observability()
    assert obs.tracer is None
    with pytest.raises(ValueError):
        obs.write_trace("/dev/null")


# --------------------------------------------------------------------- #
# end-to-end: the overhead contract and hook correctness
# --------------------------------------------------------------------- #

_GUEST_SRC = """
.text
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    la a0, msg
    call puts
    lw ra, 12(sp)
    addi sp, sp, 16
    li a0, 0
    ret
.data
msg: .asciz "obs"
"""


def test_disabled_obs_executes_zero_sink_callbacks(monkeypatch):
    """A platform without obs must never touch a metric or trace sink."""
    calls = {"n": 0}

    def counting_inc(self, n=1):
        calls["n"] += 1

    def counting_observe(self, value):
        calls["n"] += 1

    def counting_emit(self, event):
        calls["n"] += 1

    monkeypatch.setattr(Counter, "inc", counting_inc)
    monkeypatch.setattr(Histogram, "observe", counting_observe)
    monkeypatch.setattr(EventTracer, "emit", counting_emit)

    result, platform = run_guest(runtime.program(_GUEST_SRC))
    assert result.reason == "halt" and result.exit_code == 0
    assert platform.console() == "obs"
    assert calls["n"] == 0, "obs-disabled run hit an observability sink"


def test_enabled_obs_counts_match_run(tmp_path):
    obs = Observability(trace=True)
    result, platform = run_guest(runtime.program(_GUEST_SRC), obs=obs)
    assert result.reason == "halt"
    snap = obs.snapshot()

    assert snap["cpu.instructions"] == result.instructions
    assert snap["cpu.instructions"] == platform.cpu.csr.instret
    assert snap["periph.uart0.writes"] == 3          # "obs"
    assert snap["tlm.target.uart0.transactions"] >= 3
    assert snap["cpu.quanta"] >= 1
    assert snap["cpu.stop.halt"] == 1
    assert snap["run.instructions"] == result.instructions
    assert snap["cpu.quantum_wall_us"]["count"] == snap["cpu.quanta"]

    # quantum spans were traced and the export is schema-valid
    out = tmp_path / "trace.json"
    obs.write_trace(str(out))
    doc = json.loads(out.read_text())
    _validate_chrome_trace(doc)
    names = {e["name"] for e in doc["traceEvents"]}
    assert "quantum" in names
    assert any(n.startswith("uart0.wr") for n in names)

    metrics_out = tmp_path / "metrics.json"
    obs.write_metrics(str(metrics_out))
    m = json.loads(metrics_out.read_text())
    assert m["schema"] == "repro.metrics/1"
    assert m["metrics"]["cpu.instructions"] == result.instructions


def test_instruction_level_group_counts_sum_to_instret():
    obs = Observability(level=INSTRUCTION)
    result, __ = run_guest(runtime.program(_GUEST_SRC), obs=obs)
    assert result.reason == "halt"
    snap = obs.snapshot()
    group_total = sum(snap[f"cpu.inst.{g}"] for g in OPCODE_GROUPS)
    assert group_total == snap["cpu.instructions"] == result.instructions
    # the guest obviously ran ALU, store and jump instructions
    assert snap["cpu.inst.alu"] > 0
    assert snap["cpu.inst.store"] > 0
    assert snap["cpu.inst.jump"] > 0


def test_dift_metrics_visible_in_snapshot():
    from tests.conftest import simple_conf_policy
    obs = Observability()
    result, platform = run_guest(runtime.program(_GUEST_SRC), obs=obs,
                                 policy=simple_conf_policy())
    assert result.reason == "halt"
    snap = obs.snapshot()
    assert snap["engine.checks_performed"] == \
        platform.engine.checks_performed
    assert snap["engine.violations"] == 0
    assert 0.0 <= snap["taint.mem_spread_ratio"] <= 1.0
    assert snap["taint.tagged_mem_bytes"] >= 0
