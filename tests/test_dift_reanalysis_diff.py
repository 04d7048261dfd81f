"""Differential tests: offline re-analysis must reproduce the live run.

Every scenario runs once under inline full DIFT while recording its
``repro.dift.events/1`` stream, then replays the stream offline with
:func:`reanalyze_stream`.  The replay must end in exactly the live
run's DIFT state: the same violation records (trap PCs included),
register tags, CSR tag values and RAM tag image.  The scenarios
cover the immobilizer case study, the applicable Wilander–Kamkar
attacks, the Table II workloads and the committed attack corpus.
The Table II workloads also check that recording is invisible: a
recording run ends in the same architectural and tag state as an
inline full run that records nothing.  Crafted streams check that a
packet outside RAM or a header with a bad RAM geometry is rejected
with an exact error, and with exit 2 from ``repro reanalyze``, as is
a packet tag outside the recorded lattice or a header policy that does
not parse.
"""

import hashlib
import mmap
import os
import re
from dataclasses import replace

import pytest

from repro.asm import assemble
from repro.bench.table1 import code_injection_policy
from repro.bench.workloads import TABLE2_ORDER, WORKLOADS
from repro.casestudy import immobilizer as cs
from repro.cli import main
from repro.dift.engine import RECORD
from repro.dift.events import (
    EV_END,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_SINK,
    EV_STEP,
    EV_STORE,
    EV_TAINT,
    EV_TAINT_FILL,
    EventWriter,
    StreamError,
    encode_event,
    encode_header,
    make_header,
)
from repro.dift.monitor import reanalyze_stream
from repro.gen.corpus import corpus_files, load_case
from repro.policy import SecurityPolicy, builders
from repro.sw import immobilizer as immo_sw
from repro.sw import runtime, wk_suite
from repro.vp.config import MAX_RAM_SIZE, PlatformConfig
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
        "tag_image": bytes(platform.memory.tags),
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
        "tag_image": monitor.tag_image(),
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
# a classified base address stops a load or store before the access
# --------------------------------------------------------------------- #

_TAINTED_BASE = {
    "load-ram": ("buf", "lw   t2, 0(t1)"),
    "load-mmio": ("UART_STATUS", "lw   t2, 0(t1)"),
    "store-ram": ("buf", "sw   t0, 0(t1)"),
    "store-mmio": ("UART_TXDATA", "sb   t0, 0(t1)"),
}


@pytest.mark.parametrize("access", sorted(_TAINTED_BASE))
def test_memaddr_violation_keeps_its_packet(access, tmp_path):
    """The stopped access still records its packet (out of RAM, an MMIO
    placeholder), so the replay stops on the same violation."""
    base, body = _TAINTED_BASE[access]
    program = assemble(runtime.program(f"""
.text
main:
    la   t0, key
    lw   t1, 0(t0)              # the classified base address
    {body}
    li   a0, 0
    ret
.data
.align 4
key: .word {base}
buf: .word 0
""", include_lib=False))
    key = program.symbol("key")
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    policy.classify_region(key, key + 4, builders.HC)
    policy.set_execution_clearance(mem_addr=builders.LC)
    path = str(tmp_path / "run.ev")
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    platform.load(program)
    result = platform.run(max_instructions=5_000)
    assert result.reason == "security"
    assert [v.unit for v in result.violations] == ["mem-addr"]
    _assert_reanalysis_matches(platform, result, path, access)


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
        image = offline.monitor.tag_image()
        assert (hashlib.sha256(image).hexdigest()
                == hashlib.sha256(bytes(platform.memory.tags)).hexdigest())

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


# --------------------------------------------------------------------- #
# crafted streams: malformed packets and headers are rejected, not
# replayed and not a traceback
# --------------------------------------------------------------------- #

#: RAM of the crafted streams: 16 KiB at 0x1000, so both "below RAM" and
#: "past RAM" addresses exist in a 32-bit packet field
_RAM_BASE = 0x1000
_RAM_SIZE = 0x4000
_WORDS = assemble(".text\nlw t0, 0(t1)\nsw t0, 0(t1)\nnop\n")
_LW, _SW, _NOP = (_WORDS.word_at(4 * k) for k in range(3))


def _crafted_header(ram_base=_RAM_BASE):
    policy = SecurityPolicy(builders.ifp3(), default_class=builders.LC_HI)
    policy.set_execution_clearance(fetch=builders.LC_LI)
    config = PlatformConfig(policy=policy, ram_size=_RAM_SIZE)
    return make_header(config, extra={"ram_base": ram_base})


_PC = _RAM_BASE + 0x100
_RAM_END = _RAM_BASE + _RAM_SIZE


@pytest.mark.parametrize("event,message", [
    ((EV_LOAD, _PC, _LW, 0x10),
     "load packet at pc=0x00001100 addresses 0x00000010, outside RAM"),
    ((EV_LOAD, _PC, _LW, _RAM_END - 2),
     "load packet at pc=0x00001100 addresses 0x00004ffe, outside RAM"),
    ((EV_STORE, _PC, _SW, 0x10),
     "store packet at pc=0x00001100 addresses 0x00000010, outside RAM"),
    ((EV_STORE, _PC, _SW, _RAM_END),
     "store packet at pc=0x00001100 addresses 0x00005000, outside RAM"),
    ((EV_STEP, 0x10, _NOP),
     "step packet at pc=0x00000010 fetches outside RAM"),
    ((EV_TAINT_FILL, _RAM_SIZE - 2, 4, 1),
     "taint-fill packet writes RAM offsets [0x3ffe, 0x4002), outside"),
], ids=["load-below", "load-past-end", "store-below", "store-past-end",
        "fetch-below", "taint-past-end"])
def test_out_of_ram_packets_rejected(event, message, tmp_path, capsys):
    path = str(tmp_path / "crafted.ev")
    writer = EventWriter(path, _crafted_header())
    writer.write_many([(EV_STEP, _PC - 4, _NOP), event])
    writer.close()
    with pytest.raises(ValueError, match=re.escape(message)):
        reanalyze_stream(path)
    assert main(["reanalyze", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("ram_size,ram_base,field", [
    (6, _RAM_BASE, "ram_size"),
    (0, _RAM_BASE, "ram_size"),
    ("4096", _RAM_BASE, "ram_size"),
    (MAX_RAM_SIZE + 4, _RAM_BASE, "ram_size"),
    (1 << 40, _RAM_BASE, "ram_size"),
    (_RAM_SIZE, "0", "ram_base"),
    (_RAM_SIZE, 2, "ram_base"),
])
def test_bad_stream_geometry_rejected(ram_size, ram_base, field, tmp_path,
                                      capsys):
    """The header's RAM geometry obeys Platform's rule: ``ram_size`` a
    positive int multiple of 4 no larger than ``MAX_RAM_SIZE``,
    ``ram_base`` a word-aligned int."""
    path = str(tmp_path / "crafted.ev")
    header = _crafted_header(ram_base)
    header["config"]["ram_size"] = ram_size
    with open(path, "wb") as handle:
        handle.write(encode_header(header))
        handle.write(encode_event((EV_END, 0)))
    with pytest.raises(StreamError, match=field) as err:
        reanalyze_stream(path)
    assert err.value.offset == 0
    assert main(["reanalyze", path]) == 2
    assert field in capsys.readouterr().err


#: a tag no class of the crafted header's 4-class lattice owns
_BAD_TAG = 200


@pytest.mark.parametrize("event,message", [
    ((EV_MMIO_LOAD, _PC, _LW, 0x1000_0000, _BAD_TAG),
     "mmio-load packet carries tag 200, outside the recorded lattice's "
     "tags 0..3"),
    ((EV_TAINT_FILL, 0, 4, _BAD_TAG),
     "taint-fill packet carries tag 200, outside"),
    ((EV_TAINT, 0, bytes([1, _BAD_TAG, 2])),
     "taint packet carries tag 200, outside"),
    ((EV_SINK, "uart0.tx", _BAD_TAG, 0, "tx", _PC),
     "sink packet carries tag 200, outside"),
    ((EV_SINK, "uart0.tx", 0, _BAD_TAG, "tx", _PC),
     "sink packet carries required class 200, outside"),
], ids=["mmio-load-tag", "taint-fill-tag", "taint-bytes", "sink-tag",
        "sink-required"])
def test_out_of_lattice_tags_rejected(event, message, tmp_path, capsys):
    path = str(tmp_path / "crafted.ev")
    writer = EventWriter(path, _crafted_header())
    writer.write_many([(EV_STEP, _PC - 4, _NOP), event])
    writer.close()
    with pytest.raises(ValueError, match=re.escape(message)):
        reanalyze_stream(path)
    assert main(["reanalyze", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("policy", [
    5,
    {"ifp": "ifp3", "default_class": "(MC,MI)"},
], ids=["not-a-dict", "unknown-default-class"])
def test_unparsable_header_policy_rejected(policy, tmp_path, capsys):
    path = str(tmp_path / "crafted.ev")
    header = _crafted_header()
    header["config"]["policy"] = policy
    with open(path, "wb") as handle:
        handle.write(encode_header(header))
        handle.write(encode_event((EV_END, 0)))
    with pytest.raises(StreamError, match=r"config\.policy") as err:
        reanalyze_stream(path)
    assert err.value.offset == 0
    assert main(["reanalyze", path]) == 2
    assert "config.policy" in capsys.readouterr().err


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident set from /proc/self/statm")
def test_largest_ram_replay_commits_only_touched_pages(tmp_path):
    """With a bottom fill the RAM tag shadow's mapping starts untouched:
    a three-packet replay against the largest RAM commits the pages it
    touches, where a ``bytearray`` shadow would add 32 MiB."""
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    header = make_header(PlatformConfig(policy=policy,
                                        ram_size=MAX_RAM_SIZE),
                         extra={"ram_base": 0})
    path = str(tmp_path / "crafted.ev")
    writer = EventWriter(path, header)
    writer.write_many([(EV_STEP, 0x100, _NOP),
                       (EV_STORE, 0x104, _SW, MAX_RAM_SIZE - 4),
                       (EV_LOAD, 0x108, _LW, MAX_RAM_SIZE - 4)])
    writer.close()
    reanalyze_stream(path)  # imports and first-call allocations
    before = _resident_bytes()
    offline = reanalyze_stream(path)
    grown = _resident_bytes() - before
    assert offline.monitor.events_consumed == 3
    assert grown < 1 << 20, f"replay grew the resident set by {grown} bytes"
