"""The two variants of a full-DIFT superblock, and the code tags under it.

Each full-DIFT superblock entry compiles in one of two flavours from the
one emitter: a *clean* variant (the plain block's code plus an entry
guard on the register tags, a tag test before each RAM load and a bottom
tag write per store) and the *generic* variant (every tag rule fused
in).  ``JitEngine`` compiles the variant the register tags call for, and
a clean variant that meets a tag exits before it (kind 3), so the
dispatcher runs the entry's generic twin or the interpreter.  These
tests pin what the differential suites cannot see from final states
alone:

* a guest that taints its loop registers mid-run keeps running compiled
  code: a failed clean guard is never barren, so nothing is dropped;
* a register a clean block writes before reading it may enter tagged,
  and leaves with the tag its last write gave it;
* guests that never see a tag run only clean variants;
* a loop whose skip region holds an instruction not run yet compiles
  whole: the scan decodes it;
* code tags that clear the fetch check do not keep blocks out, and a tag
  write into compiled code invalidates its blocks, as a data write does;
* the clean variant folds bottom into literals, so the JIT runs under a
  lattice whose bottom tag is not 0 as well.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.workloads import benchmark_policy
from repro.errors import ExecutionClearanceError
from repro.gen.corpus import load_case
from repro.obs import Observability
from repro.policy import SecurityPolicy, builders
from repro.policy.lattice import Lattice
from repro.sw import dhrystone, qsort, sha512
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform
from tests.test_jit_diff import (CORPUS_DIR, JIT_THRESHOLD, _doc_diff,
                                 _shape_pair, _shape_program)


def _final_state(platform, result):
    """Registers, tags, RAM, RAM tags, pc and violations."""
    cpu = platform.cpu
    return {"regs": list(cpu.regs), "tags": list(cpu.tags), "pc": cpu.pc,
            "ram": bytes(platform.memory.data),
            "ram_tags": bytes(platform.memory.tags),
            "reason": result.reason,
            "violations": [str(v) for v in result.violations]}


# ---------------------------------------------------------------------------
# a guest that taints its loop registers halfway through
# ---------------------------------------------------------------------------

_MIDRUN_TAINT = """
.text
main:
    li   t0, 4000
    li   a0, 0
    li   a1, 0x9e3779b9
    li   t2, UART_RXDATA
loop:
    add  a0, a0, a1
    xor  a1, a1, a0
    slli t1, a0, 3
    add  a0, a0, t1
    addi t0, t0, -1
    li   t1, 2000
    bne  t0, t1, next       # halfway: mix a classified UART byte into a1
    lbu  t3, 0(t2)
    add  a1, a1, t3
next:
    bnez t0, loop
    li   a0, 0
    ret
"""


def _midrun_platform(jit):
    platform = Platform.from_config(PlatformConfig(
        policy=benchmark_policy(), engine_mode="record", jit=jit))
    platform.load(_shape_program(_MIDRUN_TAINT))
    platform.uart.feed(b"K")
    return platform


def test_midrun_taint_keeps_running_compiled_blocks():
    """The loop compiles clean; once a UART byte taints ``a1`` its entry
    guard fails, and the generic twin runs the tainted half.  A failed
    guard is never barren, so no block is dropped."""
    off = _midrun_platform(False)
    on = _midrun_platform(JIT_THRESHOLD)
    for platform in (off, on):
        platform.run(pause_at=12_000, max_instructions=80_000)
    stats = on.jit.stats
    bottom = on.cpu._bottom
    assert on.cpu.tags[11] == bottom
    assert stats.block_execs > 0
    assert stats.clean_execs == stats.block_execs
    assert stats.generic_compiled == 0
    for platform in (off, on):
        platform.run(pause_at=20_000, max_instructions=80_000)
    assert on.cpu.tags[11] != bottom
    assert stats.dropped == 0
    assert stats.generic_compiled == 1
    traced, retired = stats.trace_instructions, on.total_instructions
    r_off = off.run(max_instructions=80_000)
    r_on = on.run(max_instructions=80_000)
    assert r_on.reason == r_off.reason == "halt"
    assert stats.dropped == 0
    assert (stats.trace_instructions - traced
            > (on.total_instructions - retired) * 3 // 4)
    assert _final_state(on, r_on) == _final_state(off, r_off)
    assert not _doc_diff(off.snapshot_document(), on.snapshot_document())


def test_loop_compiles_through_code_not_run_yet():
    """The loop's ``lbu``/``add`` run only at the halfway iteration, so
    they are not decoded when the loop turns hot.  The scan decodes them:
    one looping block holds the whole loop, instead of a line block that
    ends at the ``bne`` and leaves the back edge to the interpreter."""
    off = _midrun_platform(False)
    on = _midrun_platform(JIT_THRESHOLD)
    r_off = off.run(max_instructions=80_000)
    r_on = on.run(max_instructions=80_000)
    loop = on.program.symbol("loop")
    blk = on.jit.blocks[loop]
    assert blk.loop and blk.length == 11
    assert sorted(on.jit.blocks) == [loop]
    stats = on.jit.stats
    assert stats.block_execs < 10
    assert stats.trace_instructions > r_on.instructions * 9 // 10
    assert r_on.reason == r_off.reason == "halt"
    assert _final_state(on, r_on) == _final_state(off, r_off)
    assert not _doc_diff(off.snapshot_document(), on.snapshot_document())


_WRITTEN_FIRST = """
.text
main:
    mv   s1, ra
    li   t2, UART_RXDATA
    li   t4, 40
    li   a0, 0
again:
    lbu  t3, 0(t2)          # t3 tagged before each call ...
    jal  ra, work
    addi t4, t4, -1
    bnez t4, again
    mv   ra, s1
    li   a0, 0
    ret
work:
    li   t3, 7              # ... which writes it before reading it
    add  a0, a0, t3
    slli a1, a0, 1
    ret
"""


def test_register_written_first_sheds_its_tag():
    """A tagged register the block writes before reading it does not fail
    the clean guard; the clean variant runs and writes its tag bottom."""
    program = _shape_program(_WRITTEN_FIRST)
    states = []
    for jit in (False, JIT_THRESHOLD):
        platform = Platform.from_config(PlatformConfig(
            policy=benchmark_policy(), engine_mode="record", jit=jit))
        platform.load(program)
        platform.uart.feed(b"K" * 40)
        result = platform.run(max_instructions=50_000)
        states.append(_final_state(platform, result))
    work = platform.jit.blocks[program.symbol("work")]
    assert work.clean and work.generic is None
    assert work.completes >= 10
    assert states[1] == states[0]
    assert platform.cpu.tags[28] == platform.cpu._bottom


# ---------------------------------------------------------------------------
# guests that never see a tag run clean variants only
# ---------------------------------------------------------------------------

#: hostbench's compute inputs
_COMPUTE = {
    "dhrystone": lambda: dhrystone.build(iterations=5000),
    "qsort": lambda: qsort.build(n=2000, seed=0x1234_5678),
    "sha512": lambda: sha512.build(n=1024, seed=0xBEEF),
}


@pytest.mark.parametrize("name", sorted(_COMPUTE))
def test_clean_guests_run_only_clean_variants(name):
    platform = Platform.from_config(PlatformConfig(
        policy=benchmark_policy(), obs=Observability(), jit=True))
    platform.load(_COMPUTE[name]())
    platform.run(max_instructions=30_000)
    stats = platform.jit.stats
    assert stats.block_execs > 0
    assert stats.clean_execs == stats.block_execs
    assert stats.generic_compiled == 0
    metrics = platform.obs.snapshot()
    assert metrics["jit.exec.clean_blocks"] == stats.block_execs
    assert metrics["jit.blocks.generic"] == 0


# ---------------------------------------------------------------------------
# code tags that clear the fetch check, and writes to them
# ---------------------------------------------------------------------------

def test_classified_code_that_clears_fetch_runs_compiled():
    """A generated case classifies its code region above bottom, in a
    class that clears the fetch check: its blocks run, none is dropped."""
    case = load_case(os.path.join(
        CORPUS_DIR, "gen-c2094cac-stack-jmpbuf-direct-inject-176c0983.json"))
    program, attack, __ = case.build()
    policy = case.policy(program)
    runs = []
    for jit in (False, JIT_THRESHOLD):
        platform = Platform.from_config(PlatformConfig(
            policy=policy, engine_mode="record", jit=jit))
        platform.load(program)
        platform.uart.feed(attack)
        result = platform.run(max_instructions=200_000)
        runs.append((platform, result))
    (p_off, r_off), (p_on, r_on) = runs
    bottom = p_on.cpu._bottom
    assert p_on.memory.tags[program.entry - p_on.cpu.ram_base] != bottom
    stats = p_on.jit.stats
    assert stats.trace_instructions > 0
    assert stats.dropped == 0
    assert _final_state(p_on, r_on) == _final_state(p_off, r_off)
    assert not _doc_diff(p_off.snapshot_document(), p_on.snapshot_document())


_CODE_LOOP = """
.text
main:
    li   t0, 3000
    li   a0, 0
loop:
    addi a0, a0, 3
    xori a0, a0, 5
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


def _code_policy(program, classes):
    """The benchmark policy with the loop's instruction words classified
    ``classes``, one class per word (fetch clears ``(LC,LI)``)."""
    policy = benchmark_policy()
    loop = program.symbol("loop")
    for k, cls in enumerate(classes):
        policy.classify_region(loop + 4 * k, loop + 4 * k + 4, cls)
    return policy


@pytest.mark.parametrize("classes", [
    [builders.LC_LI] * 4,
    [builders.LC_LI, builders.LC_HI, builders.LC_LI, builders.LC_HI],
], ids=["uniform", "mixed"])
def test_cleared_code_tags_compile(classes):
    program = _shape_program(_CODE_LOOP)
    p_on = _shape_pair(program, True, "full",
                       policy=_code_policy(program, classes))
    blk = p_on.jit.blocks[program.symbol("loop")]
    assert blk.loop and blk.clean
    assert p_on.jit.stats.dropped == 0
    assert p_on.jit.trace_ratio() >= 0.9


def _tag_write_run(program, jit, tag):
    """Pause inside the loop, write ``tag`` into one code byte of it from
    the host, and run on (RAISE mode)."""
    platform = Platform.from_config(PlatformConfig(
        policy=_code_policy(program, [builders.LC_LI] * 4),
        engine_mode="raise", jit=jit))
    platform.load(program)
    platform.run(pause_at=4_000, max_instructions=50_000)
    compiled = jit and program.symbol("loop") in platform.jit.blocks
    offset = program.symbol("loop") + 2 - platform.cpu.ram_base
    platform.memory.fill_tags(offset, 1, platform.engine.lattice.tag_of(tag))
    try:
        result = platform.run(max_instructions=50_000)
        outcome = (result.reason, [str(v) for v in result.violations])
    except ExecutionClearanceError as err:
        outcome = ("raised", str(err))
    cpu = platform.cpu
    return compiled, platform, (outcome, cpu.pc, list(cpu.regs),
                                list(cpu.tags))


@pytest.mark.parametrize("tag", [builders.HC_HI, builders.LC_HI],
                         ids=["refused", "cleared"])
def test_tag_write_into_compiled_code_invalidates(tag):
    """Tags under a compiled block changed by a host write invalidate it,
    as a data write does.  A refused tag keeps the loop interpreted, and
    the interpreter's fetch check raises; a cleared one lets it compile
    again.  Either way the run equals the JIT-off run."""
    program = _shape_program(_CODE_LOOP)
    __, __, off = _tag_write_run(program, False, tag)
    compiled, p_on, on = _tag_write_run(program, JIT_THRESHOLD, tag)
    assert compiled
    assert on == off
    assert p_on.jit.stats.invalidated_blocks > 0
    if tag == builders.HC_HI:
        assert off[0][0] == "raised"
    else:
        assert program.symbol("loop") in p_on.jit.blocks


# ---------------------------------------------------------------------------
# a lattice whose bottom tag is not 0
# ---------------------------------------------------------------------------

def _chain_policy():
    """Three classes listed top first, so bottom is tag 2; the UART input
    is top and every execution clearance the middle class."""
    lattice = Lattice(["H", "M", "L"], [("L", "M"), ("M", "H")])
    policy = SecurityPolicy(lattice, default_class="L", name="chain")
    policy.classify_source("uart0.rx", "H")
    policy.clear_sink("uart0.tx", "M")
    policy.set_execution_clearance(fetch="M", branch="M", mem_addr="M")
    return policy


_ATTACKS = ["gen-d82c07cd-stack-fnptr-indirect-inject-5e13ea47.json",
            "gen-42485e3a-data-fnptr-indirect-reuse-12e60007.json"]


def _chain_guest(name):
    """``(program, uart input, instruction budget)`` of one guest."""
    if name in _COMPUTE:
        return _COMPUTE[name](), b"", 30_000
    program, attack, __ = load_case(os.path.join(CORPUS_DIR, name)).build()
    return program, attack, 200_000


@pytest.mark.parametrize("name", sorted(_COMPUTE) + _ATTACKS)
def test_bottom_tag_not_zero(name):
    program, feed, budget = _chain_guest(name)
    states = []
    for jit in (False, 1, True):
        platform = Platform.from_config(PlatformConfig(
            policy=_chain_policy(), engine_mode="record", jit=jit))
        assert platform.cpu._bottom == 2
        platform.load(program)
        platform.uart.feed(feed)
        result = platform.run(max_instructions=budget)
        states.append(_final_state(platform, result))
        if jit:
            assert platform.jit.stats.block_execs > 0
    assert states[1] == states[0]
    assert states[2] == states[0]
