"""Differential tests: offline re-analysis must reproduce the live run.

Every scenario runs once under inline full DIFT while recording its
``repro.dift.events/1`` stream, then replays the stream offline with
:func:`reanalyze_stream`.  The replay must end in exactly the live
run's DIFT state: the same violation records (trap PCs included),
register tags, CSR tag values and RAM shadow digest.  The scenarios
cover the immobilizer case study, the applicable Wilander–Kamkar
attacks, the Table II workloads and the committed attack corpus.
The Table II workloads also check that recording is invisible: a
recording run ends in the same architectural and tag state as an
inline full run that records nothing.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from repro.bench.table1 import code_injection_policy
from repro.bench.workloads import TABLE2_ORDER, WORKLOADS
from repro.casestudy import immobilizer as cs
from repro.dift.engine import RECORD
from repro.dift.monitor import reanalyze_stream
from repro.dift.shadow import shadow_digest
from repro.gen.corpus import corpus_files, load_case
from repro.sw import immobilizer as immo_sw
from repro.sw import wk_suite
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

#: instruction budgets of the recorded runs
_BENCH_CAP = 120_000
_ATTACK_CAP = 200_000

_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
_CORPUS_CASES = sorted(os.path.basename(p)
                       for p in corpus_files(_CORPUS_DIR))


def _violations(records):
    return tuple((v.kind, v.tag, v.required, v.unit, v.pc, v.context)
                 for v in records)


def _live_tag_state(platform, result):
    return {
        "violations": _violations(result.violations),
        "reg_tags": tuple(platform.cpu.tags),
        "csr_tags": tuple(platform.cpu.csr.tag_values()),
        "shadow_digest": shadow_digest(platform.memory.tags,
                                       platform.engine.default_tag),
    }


def _assert_reanalysis_matches(platform, result, path, what):
    """Seal the recorded stream, replay it offline, compare the state."""
    platform.finish_recording()
    offline = reanalyze_stream(path)
    monitor = offline.monitor
    live = _live_tag_state(platform, result)
    replayed = {
        "violations": _violations(offline.violations),
        "reg_tags": tuple(monitor.reg_tags),
        "csr_tags": tuple(monitor.csr_tag_values()),
        "shadow_digest": monitor.shadow_digest(),
    }
    for key in live:
        assert replayed[key] == live[key], \
            f"{what}: re-analysis diverged from the live run on {key!r}"
    # one packet per retired instruction: the replay saw the whole run
    assert offline.events >= result.instructions


# --------------------------------------------------------------------- #
# immobilizer case study (Section VI-A)
# --------------------------------------------------------------------- #

_SCENARIOS = {
    "protocol": (b"c", "fixed", False),
    "dump-vulnerable": (b"d", "vulnerable", False),
    "dump-fixed": (b"dq", "fixed", False),
    "attack1-direct-pin": (b"1", "fixed", False),
    "attack2-branch-on-pin": (b"2", "fixed", False),
    "attack3-overwrite-pin": (b"3" + bytes(16) + b"c", "fixed", False),
    "entropy-baseline-policy": (b"4c", "fixed", False),
    "entropy-per-byte-policy": (b"4c", "fixed", True),
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_immobilizer_scenarios(scenario, tmp_path):
    commands, variant, per_byte = _SCENARIOS[scenario]
    path = str(tmp_path / "run.ev")
    program = immo_sw.build(variant=variant, n_challenges=2)
    policy = (cs.per_byte_policy if per_byte else cs.baseline_policy)(
        program)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD,
        aes_declassify_to="(LC,LI)", record_events=path))
    platform.load(program)
    engine = cs.EngineEcu(platform.can_bus, cs.PIN, n_challenges=2)
    platform.uart.feed(commands)
    engine.start()
    result = platform.run(max_instructions=3_000_000)
    _assert_reanalysis_matches(platform, result, path, scenario)


# --------------------------------------------------------------------- #
# Wilander–Kamkar attack suite (Section VI-B / Table I)
# --------------------------------------------------------------------- #

_APPLICABLE = [spec.number for spec in wk_suite.SPECS if spec.applicable]


def _record_attack(number, path):
    program, attacker_input = wk_suite.build_attack(number)
    policy = code_injection_policy(program)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    platform.load(program)
    platform.uart.feed(attacker_input)
    result = platform.run(max_instructions=_ATTACK_CAP)
    platform.finish_recording()
    return platform, result


@pytest.mark.parametrize("number", _APPLICABLE)
def test_wk_attacks(number, tmp_path):
    path = str(tmp_path / "run.ev")
    platform, result = _record_attack(number, path)
    assert result.detected
    _assert_reanalysis_matches(platform, result, path, f"wk{number}")


# --------------------------------------------------------------------- #
# Table II workloads (all clean under the benchmark policy)
# --------------------------------------------------------------------- #

def _run_table2(name, record_events=None):
    workload = WORKLOADS[name]
    program, config = workload.make_config("quick", dift=True,
                                           engine_mode=RECORD)
    platform = Platform.from_config(replace(config,
                                            record_events=record_events))
    platform.load(program)
    workload.externals(platform, "quick")
    workload.prepare(platform, program, "quick")
    result = platform.run(max_instructions=_BENCH_CAP)
    return platform, result


def _live_full_state(platform, result):
    state = _live_tag_state(platform, result)
    state.update({
        "instructions": result.instructions,
        "reason": result.reason,
        "exit": result.exit_code,
        "console": platform.console(),
    })
    return state


@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_table2_workloads_identical(name, tmp_path):
    path = str(tmp_path / "run.ev")
    platform, result = _run_table2(name, path)
    _assert_reanalysis_matches(platform, result, path, name)


@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_table2_recording_transparent(name, tmp_path):
    plain_p, plain_r = _run_table2(name)
    rec_p, rec_r = _run_table2(name, str(tmp_path / "run.ev"))
    rec_p.finish_recording()
    plain = _live_full_state(plain_p, plain_r)
    recorded = _live_full_state(rec_p, rec_r)
    for key in plain:
        assert recorded[key] == plain[key], \
            f"{name}: recording changed the live run's {key!r}"


# --------------------------------------------------------------------- #
# committed attack corpus (tests/corpus)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("filename", _CORPUS_CASES)
def test_corpus_cases(filename, tmp_path):
    path = str(tmp_path / "run.ev")
    case = load_case(os.path.join(_CORPUS_DIR, filename))
    program, attack_input, _benign = case.build()
    platform = Platform.from_config(PlatformConfig(
        policy=case.policy(program), engine_mode=RECORD,
        record_events=path))
    platform.load(program)
    platform.uart.feed(attack_input)
    result = platform.run(max_instructions=_ATTACK_CAP)
    _assert_reanalysis_matches(platform, result, path, filename)


# --------------------------------------------------------------------- #
# offline re-analysis under other policies, and recording validation
# --------------------------------------------------------------------- #

class TestReanalysis:
    def test_reproduces_live_violations_and_tags(self, tmp_path):
        path = str(tmp_path / "wk3.ev")
        platform, result = _record_attack(3, path)
        offline = reanalyze_stream(path)
        assert (_violations(offline.violations)
                == _violations(result.violations)) and offline.detected
        assert tuple(offline.monitor.reg_tags) == tuple(platform.cpu.tags)
        store = offline.monitor.store
        assert (hashlib.sha256(store.get_range(0, store.size)).hexdigest()
                == hashlib.sha256(bytes(platform.memory.tags)).hexdigest())
        # same comparison without materializing either store flat: the
        # canonical digest walks the offline store's presence summary
        assert offline.monitor.shadow_digest() == shadow_digest(
            platform.memory.tags, platform.engine.default_tag)

    def test_second_policy_without_rerunning_guest(self, tmp_path):
        """The headline feature: evaluate a *different* policy against a
        recorded execution.  Stripping the fetch clearance requirement
        from the code-injection policy must clear the wk3 detection."""
        path = str(tmp_path / "wk3.ev")
        program, _ = wk_suite.build_attack(3)
        _record_attack(3, path)
        from repro.policy.serialize import policy_from_dict, policy_to_dict

        relaxed_data = policy_to_dict(code_injection_policy(program))
        relaxed_data["name"] = "relaxed"
        relaxed_data["execution"] = {}
        offline = reanalyze_stream(path,
                                   policy=policy_from_dict(relaxed_data))
        assert not offline.detected

    def test_mismatched_class_list_rejected(self, tmp_path):
        path = str(tmp_path / "wk3.ev")
        _record_attack(3, path)
        other = cs.baseline_policy(immo_sw.build(n_challenges=1))
        with pytest.raises(ValueError, match="class"):
            reanalyze_stream(path, policy=other)

    def test_recording_modes_validated(self, tmp_path):
        path = str(tmp_path / "x.ev")
        program, _ = wk_suite.build_attack(3)
        policy = code_injection_policy(program)
        with pytest.raises(ValueError, match="record"):
            Platform.from_config(PlatformConfig(
                policy=policy, record_events=path))  # raise-mode engine
        with pytest.raises(ValueError, match="demand"):
            Platform.from_config(PlatformConfig(
                policy=policy, engine_mode=RECORD, dift_mode="demand",
                record_events=path))
        with pytest.raises(ValueError, match="policy"):
            Platform.from_config(PlatformConfig(
                engine_mode=RECORD, record_events=path))

    def test_jit_with_recording_rejected(self, tmp_path):
        """Compiled blocks emit no packets, so a recording run cannot
        use the JIT; it is rejected, not silently run interpreted."""
        path = tmp_path / "x.ev"
        program, _ = wk_suite.build_attack(3)
        policy = code_injection_policy(program)
        for jit in (True, 4):
            with pytest.raises(ValueError, match="jit"):
                Platform.from_config(PlatformConfig(
                    policy=policy, engine_mode=RECORD, jit=jit,
                    record_events=str(path)))
        assert not path.exists(), "rejected config opened the stream"
