"""RECORD-mode coverage for the DIFT engine.

The engine has two violation behaviours (paper: "triggering a runtime
error upon violation" vs. the attack-suite harness that *observes*
detections): ``raise`` throws a :class:`SecurityViolation` subclass,
``record`` appends a :class:`ViolationRecord` and signals the caller via
a ``False`` return.  This suite pins down:

* every violation kind ("clearance" from flow/sink checks, "execution"
  from each execution-clearance unit) produces a record with the correct
  kind/tag/required/unit/pc fields, in both modes;
* record mode never raises and keeps accumulating;
* raise mode and record mode detect the *same* violation on the same
  attack scenario from the immobilizer case study;
* a trap entry the engine vetoes stops the run at the faulting
  instruction, whichever synchronous fault raised it.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.casestudy.immobilizer import PIN, EngineEcu, baseline_policy
from repro.dift.engine import RAISE, RECORD, DiftEngine
from repro.dift.monitor import reanalyze_stream
from repro.errors import (
    ClearanceException,
    ExecutionClearanceError,
    SecurityViolation,
)
from repro.policy import SecurityPolicy, builders
from repro.sw import immobilizer as immo_sw
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform


def _policy() -> SecurityPolicy:
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    policy.clear_sink("uart0.tx", builders.LC)
    return policy


@pytest.fixture
def recorder() -> DiftEngine:
    return DiftEngine(_policy(), mode=RECORD)


def _tags(engine):
    return engine.lattice.tag_of("HC"), engine.lattice.tag_of("LC")


class TestRecordKinds:
    """Each check entry point produces the right ViolationRecord."""

    def test_check_flow_clearance_record(self, recorder):
        hc, lc = _tags(recorder)
        ok = recorder.check_flow(hc, lc, "Taint.check_clearance",
                                 context="cast", pc=0x1234)
        assert ok is False
        rec = recorder.last_violation()
        assert rec.kind == "clearance"
        assert rec.tag == "HC" and rec.required == "LC"
        assert rec.unit == "Taint.check_clearance"
        assert rec.pc == 0x1234 and rec.context == "cast"

    def test_check_sink_clearance_record(self, recorder):
        hc, _ = _tags(recorder)
        assert recorder.check_sink("uart0.tx", hc, pc=0x40) is False
        rec = recorder.last_violation()
        assert rec.kind == "clearance"
        assert rec.tag == "HC" and rec.required == "LC"
        assert rec.unit == "uart0.tx" and rec.pc == 0x40

    @pytest.mark.parametrize("unit", ["fetch", "branch", "mem-addr"])
    def test_check_execution_record(self, recorder, unit):
        hc, lc = _tags(recorder)
        assert recorder.check_execution(unit, hc, lc, pc=0x80) is False
        rec = recorder.last_violation()
        assert rec.kind == "execution"
        assert rec.tag == "HC" and rec.required == "LC"
        assert rec.unit == unit and rec.pc == 0x80

    def test_allowed_flows_record_nothing(self, recorder):
        hc, lc = _tags(recorder)
        assert recorder.check_flow(lc, hc, "up") is True
        assert recorder.check_flow(lc, lc, "same") is True
        assert recorder.check_execution("branch", lc, hc) is True
        assert recorder.violations == []

    def test_record_mode_accumulates_without_raising(self, recorder):
        hc, lc = _tags(recorder)
        for _ in range(3):
            recorder.check_flow(hc, lc, "sink")
        recorder.check_execution("branch", hc, lc)
        assert recorder.violation_count == 4
        kinds = [v.kind for v in recorder.violations]
        assert kinds == ["clearance"] * 3 + ["execution"]
        assert recorder.checks_performed == 4

    def test_raise_mode_also_records_before_raising(self):
        engine = DiftEngine(_policy(), mode=RAISE)
        hc, lc = _tags(engine)
        with pytest.raises(ClearanceException):
            engine.check_flow(hc, lc, "uart0.tx")
        with pytest.raises(ExecutionClearanceError):
            engine.check_execution("mem-addr", hc, lc, pc=0x99)
        assert [v.kind for v in engine.violations] == ["clearance",
                                                       "execution"]
        assert engine.violations[1].unit == "mem-addr"
        assert engine.violations[1].pc == 0x99


# --------------------------------------------------------------------- #
# raise/record parity on a real attack scenario
# --------------------------------------------------------------------- #


def _attack_platform(mode: str) -> Platform:
    """Attack 1 from the case study: direct PIN -> UART, fixed SW."""
    program = immo_sw.build(variant="fixed", n_challenges=2)
    platform = Platform.from_config(PlatformConfig(policy=baseline_policy(program), engine_mode=mode,
                        aes_declassify_to=builders.LC_LI))
    platform.load(program)
    ecu = EngineEcu(platform.can_bus, PIN, n_challenges=2)
    platform.uart.feed(b"1")
    ecu.start()
    return platform


def test_attack_parity_record_vs_raise():
    recorded = _attack_platform(RECORD)
    rec_result = recorded.run(max_instructions=3_000_000)
    assert rec_result.detected
    assert rec_result.reason == "security"
    rec_v = rec_result.violations[0]

    raised = _attack_platform(RAISE)
    with pytest.raises(SecurityViolation):
        raised.run(max_instructions=3_000_000)

    # raise mode appended the record before throwing — identical detection
    assert raised.engine.violation_count >= 1
    raise_v = raised.engine.violations[0]
    assert (raise_v.kind, raise_v.tag, raise_v.required, raise_v.unit,
            raise_v.pc) == \
        (rec_v.kind, rec_v.tag, rec_v.required, rec_v.unit, rec_v.pc)
    # the attack's first detectable step is PIN-dependent control flow
    # (the print loop branches on a (HC,HI) byte before the UART write)
    assert raise_v.kind == "execution"
    assert raise_v.unit == "branch"
    assert raise_v.tag != raise_v.required


# --------------------------------------------------------------------- #
# a vetoed trap entry stops the run
# --------------------------------------------------------------------- #

#: an address no RAM or peripheral answers
_UNMAPPED = 0x7000_0000

#: each synchronous fault, raised by the instruction labelled ``fault``
_FAULTS = {
    "ecall": "fault: ecall",
    "illegal": "fault: .word 0xffffffff",
    "load-bus-fault": f"li t2, {_UNMAPPED}\nfault: lw t3, 0(t2)",
    "fetch-fault": f"li t2, {_UNMAPPED}\nfault: jalr zero, 0(t2)",
}


def _vetoed_trap_platform(fault: str, path=None):
    """``mtvec`` holds a handler address loaded from an HC word, above
    the LC branch clearance, when ``fault`` traps."""
    program = assemble(f"""
.text
_start:
    la   t0, handler_ptr
    lw   t1, 0(t0)
    csrw mtvec, t1
    {_FAULTS[fault]}
handler:
    ebreak
.data
handler_ptr: .word handler
""")
    ptr = program.symbol("handler_ptr")
    policy = _policy()
    policy.classify_region(ptr, ptr + 4, builders.HC)
    policy.set_execution_clearance(branch=builders.LC)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    platform.load(program)
    return platform, program


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_vetoed_trap_entry_stops_the_run(fault):
    platform, program = _vetoed_trap_platform(fault)
    result = platform.run(max_instructions=200)
    assert result.reason == "security"
    assert [(v.unit, v.tag, v.required) for v in result.violations] == [
        ("branch", "HC", "LC")]
    # a fetch fault traps at the address it could not fetch
    faulting = (_UNMAPPED if fault == "fetch-fault"
                else program.symbol("fault"))
    assert platform.cpu.pc == faulting
    assert result.violations[0].pc == faulting


def test_vetoed_trap_entry_replays_as_recorded(tmp_path):
    path = str(tmp_path / "ecall.ev")
    platform, __ = _vetoed_trap_platform("ecall", path)
    result = platform.run(max_instructions=200)
    offline = reanalyze_stream(path)
    assert offline.violations == result.violations
    assert offline.monitor.reg_tags == platform.cpu.tags
    assert offline.monitor.tag_image() == bytes(platform.memory.tags)
