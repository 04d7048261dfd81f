"""Differential tests: offline re-analysis must reproduce the live run.

Every scenario runs once under inline full DIFT while recording its
``repro.dift.events/2`` stream, then replays the stream offline with
:func:`reanalyze_stream`.  The replay must end in exactly the live
run's DIFT state: the same violation records (trap PCs included),
register tags, CSR tag values, RAM tag image and retired-instruction
count.  The scenarios cover the immobilizer case study, the applicable
Wilander–Kamkar attacks, the Table II workloads and the committed
attack corpus.  The Table II workloads also check that recording is
invisible: a recording run ends in the same architectural and tag
state as an inline full run that records nothing.  A self-modifying
guest checks that a fetched word the image lacks travels in the stream,
and two budgeted runs that one recording spans replay as one.  Crafted
streams check that a packet outside RAM, a walk the program cannot
take, an end packet the replay disagrees with or a header with a bad RAM
geometry is rejected with an exact error, and with exit 2 from ``repro
reanalyze``, as is a packet tag outside the recorded lattice or a
header policy that does not parse.
"""

import hashlib
import json
import mmap
import os
import re
from dataclasses import replace

import pytest

from repro.asm import assemble
from repro.bench.table1 import code_injection_policy
from repro.bench.workloads import TABLE2_ORDER, WORKLOADS, benchmark_policy
from repro.casestudy import immobilizer as cs
from repro.cli import main
from repro.dift.engine import RECORD
from repro.dift.events import (
    EV_BRANCH,
    EV_CODE,
    EV_END,
    EV_IMAGE,
    EV_JUMP,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_SINK,
    EV_STORE,
    EV_TAINT,
    EV_TAINT_FILL,
    EventWriter,
    StreamError,
    encode_event,
    encode_header,
    make_header,
    read_stream,
)
from repro.dift.monitor import reanalyze_stream
from repro.gen.corpus import corpus_files, load_case
from repro.policy import SecurityPolicy, builders
from repro.policy.serialize import policy_to_dict
from repro.sw import immobilizer as immo_sw
from repro.sw import qsort, runtime, wk_suite
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
        "csr_tags": platform.cpu.csr.tag_values(),
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
        "csr_tags": monitor.csr.tag_values(),
        "tag_image": monitor.tag_image(),
    }
    for key in live:
        assert replayed[key] == live[key], \
            f"{what}: re-analysis diverged from the live run on {key!r}"
    # the replay walked every instruction the live run retired
    assert monitor.instructions == result.instructions


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
    """The stopped access records a ``stop`` packet at its pc, RAM or
    MMIO alike, so the replay stops on the same violation."""
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


def _record_fetch_refused_store(path):
    """A guest jumps into a ``sw`` whose word is HC: the fetch clearance
    refuses it, so the stream ends with a ``stop`` packet at the store,
    which carries no address."""
    program = assemble(runtime.program("""
.text
main:
    la   t0, key
    lw   t1, 0(t0)              # the store's base address, HC
    j    stored
stored:
    sw   t1, 0(t1)
    li   a0, 0
    ret
.data
.align 4
key: .word buf
buf: .word 0
""", include_lib=False))
    key, stored = program.symbol("key"), program.symbol("stored")
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    policy.classify_region(key, key + 4, builders.HC)
    policy.classify_region(stored, stored + 4, builders.HC)
    policy.set_execution_clearance(fetch=builders.LC)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    platform.load(program)
    result = platform.run(max_instructions=5_000)
    assert [(v.unit, v.pc) for v in result.violations] == [
        ("fetch", stored)]
    return stored


def test_reanalysis_past_a_fetch_refusal(tmp_path, capsys):
    """A policy that admits the refused fetch replays the refused
    access's address check, then ends the replay: the run recorded no
    address to apply the store at."""
    path = str(tmp_path / "run.ev")
    stored = _record_fetch_refused_store(path)
    admitting = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    admitting.set_execution_clearance(mem_addr=builders.LC)
    offline = reanalyze_stream(path, policy=admitting)
    assert [(v.unit, v.tag, v.pc) for v in offline.violations] == [
        ("mem-addr", builders.HC, stored)]
    assert offline.monitor.stopped
    unchecked = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    assert not reanalyze_stream(path, policy=unchecked).violations
    policy_file = tmp_path / "admitting.json"
    policy_file.write_text(json.dumps(policy_to_dict(admitting)))
    assert main(["reanalyze", path, "--policy", str(policy_file)]) == 1
    assert "mem-addr" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# code the image lacks, and a recording spanning two budgeted runs
# --------------------------------------------------------------------- #

_PATCH = assemble(".text\nmv t2, t1\n").word_at(0)


def _record_smc(path, skip_compare=False):
    """A guest stores an instruction word over a ``nop`` and jumps to it:
    the new word copies a classified register.  No fetch or branch
    clearance, so only the word itself tells the replay what ran."""
    program = assemble(runtime.program(f"""
.text
main:
    la   t0, key
    lw   t1, 0(t0)              # HC
    la   t3, patch
    lw   t5, 0(t3)
    la   t4, slot
    sw   t5, 0(t4)              # mv t2, t1 over the nop
    j    slot
slot:
    nop
    li   a0, 0
    ret
.data
.align 4
key: .word 0x41
patch: .word {_PATCH:#x}
""", include_lib=False))
    key = program.symbol("key")
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    policy.classify_region(key, key + 4, builders.HC)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    if skip_compare:
        # a recorder that never compares fetched words with its copy
        platform.cpu._emitcode = None
    platform.load(program)
    result = platform.run(max_instructions=5_000)
    assert result.reason == "halt"
    assert platform.cpu.tags[7] == policy.tag_of(builders.HC)  # t2
    return platform, result, program.symbol("slot")


def test_self_modified_code_replays(tmp_path):
    path = str(tmp_path / "run.ev")
    platform, result, slot = _record_smc(path)
    _assert_reanalysis_matches(platform, result, path, "smc")
    assert (EV_CODE, slot, _PATCH) in read_stream(path)[1]


def test_a_recorder_without_the_code_compare_diverges(tmp_path):
    path = str(tmp_path / "run.ev")
    platform, result, __ = _record_smc(path, skip_compare=True)
    with pytest.raises(AssertionError, match="reg_tags"):
        _assert_reanalysis_matches(platform, result, path, "smc")


def test_a_recording_spans_two_budgeted_runs(tmp_path):
    """A budget stop parks the CPU: the next run continues where it
    stopped (budgets count from the platform's first instruction), and
    the stream recorded across both runs replays as one."""
    def platform_for(path=None):
        program = qsort.build(n=50, seed=1)
        platform = Platform.from_config(PlatformConfig(
            policy=benchmark_policy(), engine_mode=RECORD,
            record_events=path))
        platform.load(program)
        return platform

    straight = platform_for()
    once = straight.run(max_instructions=4_000)
    path = str(tmp_path / "run.ev")
    split = platform_for(path)
    first = split.run(max_instructions=2_000)
    assert (first.reason, first.instructions) == ("budget", 2_000)
    second = split.run(max_instructions=4_000)
    assert (second.reason, second.instructions) == ("budget", 4_000)
    assert once.instructions == 4_000
    assert split.cpu.pc == straight.cpu.pc
    assert split.cpu.regs == straight.cpu.regs
    assert split.kernel.now == straight.kernel.now
    split.finish_recording()
    _assert_reanalysis_matches(split, second, path, "two budgeted runs")


# --------------------------------------------------------------------- #
# a recorded end packet the replay disagrees with
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("pc_delta,count_delta", [
    (0, 1), (0, -1), (-4, 0), (4, 0)],
    ids=["count-high", "count-low", "pc-behind", "pc-ahead"])
def test_end_packet_disagreeing_with_the_replay(pc_delta, count_delta,
                                                tmp_path, capsys):
    """EV_END carries the final pc and the retired-instruction count;
    a replay ending elsewhere is rejected at the packet's offset."""
    path = str(tmp_path / "smc.ev")
    platform, result, __ = _record_smc(path)
    pc, count = platform.cpu.pc, result.instructions
    with open(path, "rb") as handle:
        blob = handle.read()
    end = len(blob) - len(encode_event((EV_END, 0, 0)))
    assert read_stream(path)[1][-1] == (EV_END, pc, count)
    crafted = str(tmp_path / "crafted.ev")
    with open(crafted, "wb") as handle:
        handle.write(blob[:end] + encode_event(
            (EV_END, pc + pc_delta, count + count_delta)))
    messages = {
        "count": f"end packet counts {count + count_delta} instructions, "
                 f"the replay {count}",
        "behind": f"end packet at pc={pc - 4:#010x}: the replay stands at "
                  f"pc={pc:#010x}",
        # the walk goes on past the halting ecall
        "ahead": f"end packet at pc={pc + 4:#010x}",
    }
    key = ("count" if count_delta else "behind" if pc_delta < 0
           else "ahead")
    with pytest.raises(StreamError, match=re.escape(messages[key])) as err:
        reanalyze_stream(crafted)
    assert err.value.offset == end
    assert main(["reanalyze", crafted]) == 2
    assert f"byte offset {end}" in capsys.readouterr().err


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
        # demand mode's clean path runs the plain loop, which emits no
        # packets: refused while the default class is bottom ...
        with pytest.raises(ValueError, match="demand"):
            Platform.from_config(PlatformConfig(
                policy=benchmark_policy(), engine_mode=RECORD,
                dift_mode="demand", record_events=path))
        with pytest.raises(ValueError, match="policy"):
            Platform.from_config(PlatformConfig(
                engine_mode=RECORD, record_events=path))
        # ... but this policy's default class is above bottom, so its
        # demand config builds the full-mode CPU, which records
        platform = Platform.from_config(PlatformConfig(
            policy=policy, engine_mode=RECORD, dift_mode="demand",
            record_events=path))
        assert platform.cpu.liveness is None
        platform.finish_recording()

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


def _image(*words, entry=_PC - 4):
    """An image packet: ``words`` from ``entry``, where the walk starts."""
    code = b"".join(word.to_bytes(4, "little") for word in words)
    return (EV_IMAGE, entry, entry - _RAM_BASE, code)


def _write_crafted(path, events):
    writer = EventWriter(path, _crafted_header())
    writer.write_many(events)
    writer.close()
    return len(encode_header(_crafted_header()))


@pytest.mark.parametrize("event,message", [
    ((EV_LOAD, _PC, 0x10),
     "load packet at pc=0x00001100 addresses 0x00000010, outside RAM"),
    ((EV_LOAD, _PC, _RAM_END - 2),
     "load packet at pc=0x00001100 addresses 0x00004ffe, outside RAM"),
    ((EV_STORE, _PC, 0x10),
     "store packet at pc=0x00001100 addresses 0x00000010, outside RAM"),
    ((EV_STORE, _PC, _RAM_END),
     "store packet at pc=0x00001100 addresses 0x00005000, outside RAM"),
    ((EV_BRANCH, 0x10),
     "branch packet at pc=0x00000010 fetches outside RAM"),
    ((EV_TAINT_FILL, _RAM_SIZE - 2, 4, 1),
     "taint-fill packet writes RAM offsets [0x3ffe, 0x4002), outside"),
], ids=["load-below", "load-past-end", "store-below", "store-past-end",
        "fetch-below", "taint-past-end"])
def test_out_of_ram_packets_rejected(event, message, tmp_path, capsys):
    path = str(tmp_path / "crafted.ev")
    word = _SW if event[0] == EV_STORE else _LW
    image = ((EV_IMAGE, 0x10, 0, b"") if event[0] == EV_BRANCH
             else _image(_NOP, word))
    _write_crafted(path, [image, event])
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
        handle.write(encode_event((EV_END, 0, 0)))
    with pytest.raises(StreamError, match=field) as err:
        reanalyze_stream(path)
    assert err.value.offset == 0
    assert main(["reanalyze", path]) == 2
    assert field in capsys.readouterr().err


def _assert_walk_rejected(path, packets, start, message, capsys):
    with pytest.raises(StreamError, match=re.escape(message)) as err:
        reanalyze_stream(path)
    assert err.value.offset == start + sum(
        len(encode_event(event)) for event in packets[:-1])
    assert main(["reanalyze", path]) == 2
    assert message in capsys.readouterr().err


def test_addressless_access_packet_elsewhere_rejected(tmp_path, capsys):
    """An access with no address packet is the record of a refused
    check only where a stop packet names it (see the fetch-refused store
    above); a walk that passes one anywhere else is rejected at the
    offset of the packet it walks to."""
    path = str(tmp_path / "crafted.ev")
    packets = [_image(_NOP, _SW, _NOP), (EV_BRANCH, _PC + 4)]
    start = _write_crafted(path, packets)
    _assert_walk_rejected(
        path, packets, start,
        "branch packet at pc=0x00001104: the walk passes the sw at "
        "pc=0x00001100, which left no packet", capsys)


@pytest.mark.parametrize("events,message", [
    ([(EV_STORE, _PC, 0x2000), (EV_LOAD, _PC - 4, 0x2000)],
     "load packet at pc=0x000010fc: the replay stands at pc=0x00001104"),
    ([(EV_LOAD, _PC, 0x2000)],
     "load packet at pc=0x00001100 meets sw"),
    ([(EV_STORE, _PC, 0x2000), (EV_JUMP, _PC + 4, _PC)],
     "jump packet at pc=0x00001104 meets addi"),
], ids=["backwards", "wrong-access", "not-a-jump"])
def test_walk_the_program_cannot_take_rejected(events, message, tmp_path,
                                                capsys):
    """Each packet names the pc the walk goes to: a walk backwards, or
    to an instruction the packet cannot be about, is rejected at the
    packet's offset."""
    path = str(tmp_path / "crafted.ev")
    packets = [_image(_NOP, _SW, _NOP)] + events
    start = _write_crafted(path, packets)
    _assert_walk_rejected(path, packets, start, message, capsys)


#: a tag no class of the crafted header's 4-class lattice owns
_BAD_TAG = 200


@pytest.mark.parametrize("event,message", [
    ((EV_MMIO_LOAD, _PC, 0x1000_0000, _BAD_TAG),
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
    _write_crafted(path, [_image(_NOP, _LW), event])
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
        handle.write(encode_event((EV_END, 0, 0)))
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
    """With a bottom fill the RAM tag shadow's and the code image's
    mappings start untouched: a three-instruction replay against the
    largest RAM commits the pages it touches, where ``bytearray`` copies
    would add 32 MiB each."""
    policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
    header = make_header(PlatformConfig(policy=policy,
                                        ram_size=MAX_RAM_SIZE),
                         extra={"ram_base": 0})
    path = str(tmp_path / "crafted.ev")
    writer = EventWriter(path, header)
    code = b"".join(word.to_bytes(4, "little") for word in (_NOP, _SW, _LW))
    writer.write_many([(EV_IMAGE, 0x100, 0x100, code),
                       (EV_STORE, 0x104, MAX_RAM_SIZE - 4),
                       (EV_LOAD, 0x108, MAX_RAM_SIZE - 4)])
    writer.close(0x10C, 3)
    reanalyze_stream(path)  # imports and first-call allocations
    before = _resident_bytes()
    offline = reanalyze_stream(path)
    grown = _resident_bytes() - before
    assert offline.monitor.instructions == 3
    assert grown < 1 << 20, f"replay grew the resident set by {grown} bytes"
