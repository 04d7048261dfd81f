"""Word-granular DMI: the ISS's 32-bit views of RAM and its tag shadow.

Instruction fetch, the fetch clearance and aligned in-RAM ``lw``/``sw``
go through ``Cpu.ram32``/``Cpu.tags32``; misaligned ``lw``/``sw`` and the
sub-word accesses keep the byte path.  The differential generator aligns
every word access, so these tests drive both paths on purpose: every
offset of a clean, a uniformly tagged and a mixed tag word, under each
execution strategy, against byte-level expectations and inline full.

The offline monitor mirrors the same split over its own flat shadow
(tag words for fetch clearance and aligned ``lw``/``sw``, bytes
otherwise, across 4 KiB page boundaries too), so every guest here is
also recorded and replayed: the replay must end in the live run's
violations, register tags and dense tag image.
"""

from __future__ import annotations

import sys

import pytest

from repro.asm import assemble
from repro.dift.engine import DiftEngine
from repro.dift.monitor import reanalyze_stream
from repro.errors import BusError
from repro.policy import SecurityPolicy, builders
from repro.sw import runtime
from repro.vp.config import MAX_RAM_SIZE, PlatformConfig
from repro.vp.platform import Platform

BOTTOM = builders.LC_HI
UNIFORM = builders.HC_HI
#: HC_HI and LC_LI are incomparable, so a word mixing them has a LUB
#: (HC_LI) that none of its bytes carries
MIXED = (builders.HC_HI, builders.LC_LI, builders.HC_HI, builders.LC_LI)

#: four words: clean, uniform, mixed, and a clean word the accesses at
#: offset 3 of the mixed word spill into
PATTERN_CLASSES = (BOTTOM,) * 4 + (UNIFORM,) * 4 + MIXED + (BOTTOM,) * 4
PATTERN = bytes.fromhex("11f23384c526f74819aa3b9c7d8e5f60")
#: access positions: three words x offsets 0..3.  Each store grid holds
#: one pattern copy per position, 16 bytes apart; the store for position
#: i lands in copy i at pattern offset i (17 * i)
POSITIONS = 12
#: the accesses are idempotent; repeating them carries the loop past the
#: JIT's first dispatch chunk, so the jit leg runs compiled blocks
PASSES = 4

_PATTERN_DATA = ".byte " + ", ".join(str(b) for b in PATTERN)
_GRID_DATA = "\n".join("    " + _PATTERN_DATA for _ in range(POSITIONS))

ACCESS_GUEST = f"""
.text
main:
    la   s0, src
    la   s1, out
    la   s2, swgrid
    la   s3, shgrid
    li   s5, {POSITIONS}
    li   s6, {PASSES}
pass:
    li   s4, 0
loop:
    add  t0, s0, s4
    lw   t1, 0(t0)
    lh   t2, 0(t0)
    slli t3, s4, 3
    add  t3, s1, t3
    sw   t1, 0(t3)
    sw   t2, 4(t3)
    li   t4, 17
    mul  t4, s4, t4
    add  t5, s2, t4
    sw   t1, 0(t5)
    add  t5, s3, t4
    sh   t2, 0(t5)
    addi s4, s4, 1
    blt  s4, s5, loop
    addi s6, s6, -1
    bnez s6, pass
    li   a0, 0
    ret
.data
.align 4
src:
    {_PATTERN_DATA}
out:
    .space {8 * POSITIONS}
swgrid:
{_GRID_DATA}
shgrid:
{_GRID_DATA}
"""

#: strategy -> (tagged, PlatformConfig keywords)
STRATEGIES = {
    "plain": (False, {}),
    "full": (True, {"dift_mode": "full"}),
    "demand": (True, {"dift_mode": "demand"}),
    "jit": (True, {"dift_mode": "full", "jit": 2}),
}


def _access_program():
    return assemble(runtime.program(ACCESS_GUEST, include_lib=False))


def _access_policy(program) -> SecurityPolicy:
    policy = SecurityPolicy(builders.ifp3(), default_class=BOTTOM)
    bases = [program.symbol("src")]
    for grid in ("swgrid", "shgrid"):
        bases += [program.symbol(grid) + 16 * k for k in range(POSITIONS)]
    for base in bases:
        for k, cls in enumerate(PATTERN_CLASSES):
            if cls != BOTTOM:
                policy.classify_region(base + k, base + k + 1, cls)
    return policy


def _run_access(program, strategy: str) -> Platform:
    tagged, kwargs = STRATEGIES[strategy]
    policy = _access_policy(program) if tagged else None
    platform = Platform.from_config(PlatformConfig(policy=policy, **kwargs))
    platform.load(program)
    result = platform.run(max_instructions=100_000)
    assert platform.cpu.halted and result.exit_code == 0
    return platform


def _record_and_replay(program, policy, tmp_path) -> Platform:
    """Run ``program`` under inline full DIFT while recording its event
    stream, replay the stream offline and check the replay ends in the
    live run's DIFT state."""
    path = str(tmp_path / "run.ev")
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode="record", record_events=path))
    platform.load(program)
    result = platform.run(max_instructions=100_000)
    platform.finish_recording()
    offline = reanalyze_stream(path)
    assert [str(v) for v in offline.violations] == \
        [str(v) for v in result.violations]
    assert offline.monitor.reg_tags == platform.cpu.tags
    assert offline.monitor.tag_image() == bytes(platform.memory.tags)
    return platform


def _expected(lub, tag_of):
    """Byte-level model of the guest: (out, swgrid, shgrid) data and tags,
    plus the last (lw, lh) values and tags."""
    ptags = [tag_of(cls) for cls in PATTERN_CLASSES]
    out_data, out_tags = bytearray(), bytearray()
    sw_data, sw_tags = bytearray(), bytearray()
    sh_data, sh_tags = bytearray(), bytearray()
    last = None
    for i in range(POSITIONS):
        lw_value = int.from_bytes(PATTERN[i:i + 4], "little")
        lw_tag = lub[lub[lub[ptags[i]][ptags[i + 1]]][ptags[i + 2]]][
            ptags[i + 3]]
        lh_value = int.from_bytes(PATTERN[i:i + 2], "little",
                                  signed=True) & 0xFFFFFFFF
        lh_tag = lub[ptags[i]][ptags[i + 1]]
        out_data += lw_value.to_bytes(4, "little")
        out_data += lh_value.to_bytes(4, "little")
        out_tags += bytes([lw_tag]) * 4 + bytes([lh_tag]) * 4
        copy, copy_tags = bytearray(PATTERN), bytearray(ptags)
        copy[i:i + 4] = lw_value.to_bytes(4, "little")
        copy_tags[i:i + 4] = bytes([lw_tag]) * 4
        sw_data += copy
        sw_tags += copy_tags
        copy, copy_tags = bytearray(PATTERN), bytearray(ptags)
        copy[i:i + 2] = lh_value.to_bytes(4, "little")[:2]
        copy_tags[i:i + 2] = bytes([lh_tag]) * 2
        sh_data += copy
        sh_tags += copy_tags
        last = (lw_value, lw_tag, lh_value, lh_tag)
    return (out_data, sw_data, sh_data), (out_tags, sw_tags, sh_tags), last


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_word_and_byte_paths_every_offset_and_tag_mix(strategy):
    """lw/sw/lh/sh at offsets 0-3 of clean, uniform and mixed tag words."""
    program = _access_program()
    platform = _run_access(program, strategy)
    # the expectations need the lattice even on the untagged leg
    engine = platform.engine or DiftEngine(_access_policy(program))
    lub = engine.lub
    tag_of = engine.lattice.tag_of
    datas, tagss, last = _expected(lub, tag_of)
    memory = platform.memory
    spans = [(program.symbol(name), len(data))
             for name, data in zip(("out", "swgrid", "shgrid"), datas)]
    for (start, length), data in zip(spans, datas):
        assert memory.read_block(start, length) == bytes(data)
    lw_value, lw_tag, lh_value, lh_tag = last
    assert platform.cpu.regs[6] == lw_value    # t1
    assert platform.cpu.regs[7] == lh_value    # t2
    if platform.engine is not None:
        for (start, length), tags in zip(spans, tagss):
            assert bytes(memory.tags[start:start + length]) == bytes(tags)
        assert platform.cpu.tags[6] == lw_tag
        assert platform.cpu.tags[7] == lh_tag
        # the aligned lw of the mixed word: its result is the LUB of the
        # four byte tags, a class none of the bytes carries
        mixed_lw = program.symbol("out") + 8 * 8
        hc_li = tag_of(builders.HC_LI)
        assert bytes(memory.tags[mixed_lw:mixed_lw + 4]) == bytes([hc_li]) * 4
        assert hc_li not in {tag_of(cls) for cls in MIXED}
    if strategy == "jit":
        assert platform.jit.stats.compiled > 0

    reference = _run_access(program, "full")
    assert platform.cpu.regs == reference.cpu.regs
    assert bytes(memory.data) == bytes(reference.memory.data)
    if platform.engine is not None:
        assert platform.cpu.tags == reference.cpu.tags
        assert bytes(memory.tags) == bytes(reference.memory.tags)


def test_replay_every_offset_and_tag_mix(tmp_path):
    """The access guest, recorded and replayed offline."""
    program = _access_program()
    platform = _record_and_replay(program, _access_policy(program), tmp_path)
    assert platform.cpu.halted


FETCH_GUEST = """
.text
main:
    nop
victim:
    addi a0, zero, 0
    ret
"""


def _fetch_case(rest):
    """FETCH_GUEST, its ``victim`` address, and a policy that tags the
    victim word ``rest`` except for one LC_LI byte (byte 2) and requires
    HC_HI to fetch."""
    program = assemble(runtime.program(FETCH_GUEST, include_lib=False))
    victim = program.symbol("victim")
    policy = SecurityPolicy(builders.ifp3(), default_class=BOTTOM)
    policy.set_execution_clearance(fetch=builders.HC_HI)
    if rest != BOTTOM:
        policy.classify_region(victim, victim + 4, rest)
    policy.classify_region(victim + 2, victim + 3, builders.LC_LI)
    return program, victim, policy


@pytest.mark.parametrize("strategy", ["full", "demand", "jit"])
@pytest.mark.parametrize("rest,expected", [
    (BOTTOM, "[execution] flow (LC,LI) -> (HC,HI) denied at fetch"),
    (UNIFORM, "[execution] flow (HC,LI) -> (HC,HI) denied at fetch"),
])
def test_fetch_clearance_folds_one_tainted_code_byte(strategy, rest,
                                                      expected):
    """One LC_LI byte (byte 2) in a code word fails the HC_HI clearance.

    Over a clean word the byte's own class is reported; over a HC_HI word
    the LUB HC_LI is, neither of which is byte 0's tag."""
    program, victim, policy = _fetch_case(rest)
    _, kwargs = STRATEGIES[strategy]
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode="record", **kwargs))
    platform.load(program)
    result = platform.run(max_instructions=10_000)
    assert result.reason == "security"
    assert [str(v) for v in result.violations] == \
        [f"{expected} pc={victim:#010x}"]
    assert platform.cpu.pc == victim


@pytest.mark.parametrize("rest", [BOTTOM, UNIFORM])
def test_replay_fetch_clearance_folds_one_tainted_code_byte(rest, tmp_path):
    """The one-tainted-code-byte fetch case, recorded and replayed."""
    program, victim, policy = _fetch_case(rest)
    platform = _record_and_replay(program, policy, tmp_path)
    assert [v.pc for v in platform.engine.violations] == [victim]


#: misaligned accesses across two 4 KiB page boundaries inside ``buf``:
#: at ``s0`` a clean page meets a mixed tag word, at ``s1`` a uniformly
#: tagged word meets a clean page.  The loads come first, then sub-word
#: and word stores of a clean and of a tainted register across both
STRADDLE_GUEST = """
.text
main:
    la   s0, buf
    li   t0, 4095
    add  s0, s0, t0
    li   t0, -4096
    and  s0, s0, t0
    li   t0, 4096
    add  s1, s0, t0
    lw   a1, -1(s0)
    lw   a2, -3(s0)
    lh   a3, -1(s0)
    lw   a4, -1(s1)
    lhu  a5, -1(s1)
    li   t6, 7
    sh   t6, -1(s1)
    sh   t6, -1(s0)
    sw   a1, -2(s0)
    sw   a1, -3(s1)
    lw   a6, -2(s0)
    lh   a7, -1(s1)
    li   a0, 0
    ret
.data
buf:
    .space 12288
"""


def test_page_straddling_accesses(tmp_path):
    """Misaligned lw/sw/lh/sh across a 4 KiB page boundary, one side
    clean and one side tainted: every strategy agrees with inline full,
    and the offline replay's page-crossing byte path with the live run."""
    program = assemble(runtime.program(STRADDLE_GUEST, include_lib=False))
    edge_a = (program.symbol("buf") + 4095) & -4096
    edge_b = edge_a + 4096
    policy = SecurityPolicy(builders.ifp3(), default_class=BOTTOM)
    for k, cls in enumerate(MIXED):
        policy.classify_region(edge_a + k, edge_a + k + 1, cls)
    policy.classify_region(edge_b - 4, edge_b, UNIFORM)
    platform = _record_and_replay(program, policy, tmp_path)
    tag_of = platform.engine.lattice.tag_of
    tags = platform.cpu.tags
    assert tags[11] == tag_of(builders.HC_LI)   # a1: clean + 3 mixed bytes
    assert tags[13] == tag_of(builders.HC_HI)   # a3: clean + HC_HI byte
    assert tags[14] == tag_of(UNIFORM)          # a4: tainted + 3 clean
    # the last stores left the tainted register's tag on both sides
    memory = platform.memory
    assert bytes(memory.tags[edge_a - 2:edge_a + 2]) == bytes([tags[11]]) * 4
    assert bytes(memory.tags[edge_b - 3:edge_b + 1]) == bytes([tags[11]]) * 4
    for strategy in STRATEGIES:
        if strategy == "plain":
            continue
        _, kwargs = STRATEGIES[strategy]
        other = Platform.from_config(PlatformConfig(policy=policy, **kwargs))
        other.load(program)
        other.run(max_instructions=100_000)
        assert other.cpu.regs == platform.cpu.regs, strategy
        assert other.cpu.tags == platform.cpu.tags, strategy
        assert bytes(other.memory.tags) == bytes(memory.tags), strategy


@pytest.mark.parametrize("ram_size,byteorder,named", [
    (0, "little", "ram_size"),
    (6, "little", "ram_size"),
    (4098, "little", "ram_size"),
    (-4, "little", "ram_size"),
    (MAX_RAM_SIZE + 4, "little", "ram_size"),
    (64 * 1024 * 1024, "little", "ram_size"),
    (8 * 1024 ** 3, "little", "ram_size"),
    (64 * 1024, "big", "sys.byteorder"),
])
def test_unmappable_ram_is_rejected_at_construction(monkeypatch, ram_size,
                                                     byteorder, named):
    monkeypatch.setattr(sys, "byteorder", byteorder)
    with pytest.raises(ValueError, match=named.replace(".", r"\.")):
        Platform.from_config(PlatformConfig(ram_size=ram_size))


def test_read_word_helpers_are_bounds_checked():
    size = 4096
    platform = Platform.from_config(PlatformConfig(ram_size=size))
    platform.memory.load(size - 4, b"\x78\x56\x34\x12")
    cpu, memory = platform.cpu, platform.memory
    assert cpu.read_word(cpu.ram_end - 4) == 0x12345678
    assert memory.read_word(size - 4) == 0x12345678
    for address in (cpu.ram_end - 2, cpu.ram_end, cpu.ram_base - 4):
        with pytest.raises(BusError) as err:
            cpu.read_word(address)
        assert err.value.address == address
    for offset in (size - 2, size, -4):
        with pytest.raises(BusError) as err:
            memory.read_word(offset)
        assert err.value.address == offset
