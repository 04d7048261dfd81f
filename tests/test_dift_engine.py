"""Tests for the DIFT engine: checks, modes, declassification."""

import pytest

from repro.dift import MAX_TAG
from repro.dift.engine import RAISE, RECORD, DiftEngine
from repro.errors import (
    ClearanceException,
    DeclassificationError,
    ExecutionClearanceError,
)
from repro.policy import Lattice, SecurityPolicy, builders
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform


def make_engine(mode=RAISE) -> DiftEngine:
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    policy.clear_sink("uart0.tx", builders.LC)
    policy.allow_declassification("aes0", builders.LC)
    return DiftEngine(policy, mode=mode)


class TestConstruction:
    def test_tables_exposed(self):
        engine = make_engine()
        assert engine.lub[0][1] in (0, 1)
        assert engine.flow[0][0] is True

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_engine(mode="bogus")

    def test_bottom_and_default(self):
        engine = make_engine()
        assert engine.bottom_tag == engine.lattice.tag_of(builders.LC)
        assert engine.default_tag == engine.bottom_tag


def _diamond(n_middles: int) -> Lattice:
    """BOT below ``n_middles`` incomparable classes below TOP."""
    middles = [f"M{i}" for i in range(n_middles)]
    return Lattice(["BOT", *middles, "TOP"],
                   [("BOT", m) for m in middles]
                   + [(m, "TOP") for m in middles])


class TestTagWidth:
    """A tag is one byte, so a lattice may have at most 256 classes."""

    def test_widest_lattice_accepted(self):
        lattice = _diamond(MAX_TAG - 1)
        assert len(lattice) == MAX_TAG + 1
        engine = DiftEngine(SecurityPolicy(lattice))
        assert engine.lattice.tag_of("TOP") == MAX_TAG

    def test_wider_lattice_rejected(self):
        lattice = _diamond(MAX_TAG)
        match = "lattice has 257 security classes; a byte tag holds at most 256"
        with pytest.raises(ValueError, match=match):
            DiftEngine(SecurityPolicy(lattice))
        # the platform builds its engine before any tag store, so the
        # bound is reported instead of a bytearray range error
        for default in ("BOT", "TOP"):
            config = PlatformConfig(
                policy=SecurityPolicy(lattice, default_class=default))
            with pytest.raises(ValueError, match=match):
                Platform(config)


class TestPropagation:
    def test_lub2(self):
        engine = make_engine()
        lc = engine.lattice.tag_of(builders.LC)
        hc = engine.lattice.tag_of(builders.HC)
        assert engine.lub2(lc, hc) == hc
        assert engine.lub2(lc, lc) == lc

    def test_lub_bytes(self):
        engine = make_engine()
        lc = engine.lattice.tag_of(builders.LC)
        hc = engine.lattice.tag_of(builders.HC)
        assert engine.lub_bytes([lc, lc, lc]) == lc
        assert engine.lub_bytes([lc, hc, lc]) == hc
        assert engine.lub_bytes([]) == engine.bottom_tag


class TestRaiseMode:
    def test_allowed_flow_passes(self):
        engine = make_engine()
        lc = engine.lattice.tag_of(builders.LC)
        assert engine.check_flow(lc, lc, "unit")
        assert engine.violation_count == 0

    def test_denied_flow_raises(self):
        engine = make_engine()
        hc = engine.lattice.tag_of(builders.HC)
        lc = engine.lattice.tag_of(builders.LC)
        with pytest.raises(ClearanceException):
            engine.check_flow(hc, lc, "uart0.tx")
        assert engine.violation_count == 1

    def test_execution_violation_type(self):
        engine = make_engine()
        hc = engine.lattice.tag_of(builders.HC)
        lc = engine.lattice.tag_of(builders.LC)
        with pytest.raises(ExecutionClearanceError) as err:
            engine.check_execution("fetch", hc, lc, pc=0x100)
        assert err.value.unit == "fetch"
        assert err.value.pc == 0x100

    def test_check_sink_uses_policy_clearance(self):
        engine = make_engine()
        hc = engine.lattice.tag_of(builders.HC)
        with pytest.raises(ClearanceException):
            engine.check_sink("uart0.tx", hc)


class TestRecordMode:
    def test_denied_flow_records(self):
        engine = make_engine(mode=RECORD)
        hc = engine.lattice.tag_of(builders.HC)
        lc = engine.lattice.tag_of(builders.LC)
        assert engine.check_flow(hc, lc, "uart0.tx", "ctx") is False
        assert engine.violation_count == 1
        record = engine.last_violation()
        assert record.tag == builders.HC
        assert record.required == builders.LC
        assert record.unit == "uart0.tx"
        assert "HC" in str(record)

    def test_execution_record_fields(self):
        engine = make_engine(mode=RECORD)
        hc = engine.lattice.tag_of(builders.HC)
        lc = engine.lattice.tag_of(builders.LC)
        assert engine.check_execution("branch", hc, lc, pc=0x44) is False
        record = engine.last_violation()
        assert record.kind == "execution"
        assert record.pc == 0x44

    def test_clear_violations(self):
        engine = make_engine(mode=RECORD)
        hc = engine.lattice.tag_of(builders.HC)
        lc = engine.lattice.tag_of(builders.LC)
        engine.check_flow(hc, lc, "x")
        engine.clear_violations()
        assert engine.violation_count == 0
        assert engine.last_violation() is None

    def test_checks_counted(self):
        engine = make_engine(mode=RECORD)
        lc = engine.lattice.tag_of(builders.LC)
        before = engine.checks_performed
        engine.check_flow(lc, lc, "x")
        engine.check_execution("fetch", lc, lc)
        assert engine.checks_performed == before + 2


class TestDeclassification:
    def test_granted_component(self):
        engine = make_engine()
        assert engine.declassify("aes0", builders.LC) == \
            engine.lattice.tag_of(builders.LC)

    def test_ungranted_component_rejected(self):
        engine = make_engine()
        with pytest.raises(DeclassificationError):
            engine.declassify("mallory", builders.LC)

    def test_wrong_target_rejected(self):
        engine = make_engine()
        with pytest.raises(DeclassificationError):
            engine.declassify("aes0", builders.HC)  # pinned to LC

    def test_repr(self):
        assert "DiftEngine" in repr(make_engine())
