"""Differential tests for the trace-compiled fast path (``repro.vp.jit``).

The trace compiler is an *execution strategy*, not a semantic feature:
with it on, every observable of a simulation — architectural state,
console bytes, DIFT violations, simulated time, snapshot documents —
must be byte-identical to the plain interpreter.  This suite proves that
across the whole workload registry and all three DIFT configurations,
on the committed attack corpus, and under self-modifying code, plus the
config plumbing and the decode-cache gauges the same PR fixed.

A deliberately low compile threshold (``JIT_THRESHOLD``) makes even the
short tier-1 budgets compile and dispatch real superblocks, so the
differential is never vacuous.
"""

from __future__ import annotations

import os

import pytest

from repro.asm import assemble
from repro.bench.workloads import benchmark_policy, get_workload, workload_names
from repro.campaign.worker import is_timing_metric
from repro.errors import ExecutionClearanceError
from repro.gen.corpus import corpus_files, load_case
from repro.obs import Observability
from repro.policy import builders
from repro.state import diff_documents
from repro.sw import runtime
from repro.vp.config import PlatformConfig
from repro.vp.jit import DEFAULT_THRESHOLD
from repro.vp.platform import Platform
from tests.conftest import run_guest

#: low enough that tier-1 budgets reach compilation, high enough that the
#: profiler (not the dispatcher) still does the discovery work
JIT_THRESHOLD = 4

#: instruction budget per leg: crosses several CPU quanta (4096) and at
#: least one platform quantum (8192) so dispatch/interp handover happens
BUDGET = 30_000

#: (dift, dift_mode) legs mirrored from the replay suite
MODES = [("plain", False, "full"),
         ("full", True, "full"),
         ("demand", True, "demand")]

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _doc_diff(doc_off: dict, doc_on: dict):
    """Snapshot-document diff minus the legitimately-divergent leaves.

    Host timings (``wall``/``mips``/``seconds``) differ by construction,
    and the ``jit.*`` gauges only exist on the jit-on platform — both are
    host-side observability, not simulated state, and get the same
    quarantine the replay verifier applies.
    """
    mismatches = []
    for line in diff_documents(doc_off, doc_on):
        path = line.split(": ", 1)[0]
        if is_timing_metric(path) or ".jit." in path:
            continue
        mismatches.append(line)
    return mismatches


def _run_pair(name: str, dift: bool, dift_mode: str):
    """The same workload twice — interpreter-only and trace-compiled."""
    pair = []
    for jit in (False, JIT_THRESHOLD):
        platform = get_workload(name).make_platform(
            "quick", dift, obs=Observability(), dift_mode=dift_mode,
            seed=0, jit=jit)
        result = platform.run(max_instructions=BUDGET)
        pair.append((platform, result))
    return pair


@pytest.mark.parametrize("mode,dift,dift_mode",
                         MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("name", workload_names())
def test_jit_is_observably_identical(name, mode, dift, dift_mode):
    """Registry x {plain, full, demand}: identical snapshot documents."""
    (p_off, r_off), (p_on, r_on) = _run_pair(name, dift, dift_mode)
    assert r_on.reason == r_off.reason
    assert r_on.exit_code == r_off.exit_code
    assert p_on.total_instructions == p_off.total_instructions
    assert p_on.console() == p_off.console()
    assert [str(v) for v in r_on.violations] == \
        [str(v) for v in r_off.violations]
    mismatches = _doc_diff(p_off.snapshot_document(),
                           p_on.snapshot_document())
    assert not mismatches, \
        f"{name}/{mode}: jit-on snapshot diverged: {mismatches[:8]}"


def test_jit_differential_is_not_vacuous():
    """The equality sweep means nothing if no block ever runs."""
    (_, _), (p_on, _) = _run_pair("dhrystone", False, "full")
    jit = p_on.jit
    assert jit is not None
    assert jit.stats.compiled > 0, "no superblock compiled within budget"
    assert jit.stats.block_execs > 0, "compiled blocks never dispatched"
    assert jit.stats.trace_instructions > 0
    metrics = p_on.obs.snapshot()
    assert metrics["jit.blocks.compiled"] == jit.stats.compiled
    assert metrics["jit.exec.blocks"] == jit.stats.block_execs
    assert 0.0 < metrics["jit.exec.trace_ratio"] <= 1.0


@pytest.mark.parametrize("mode,dift,dift_mode",
                         MODES[:2], ids=[m[0] for m in MODES[:2]])
@pytest.mark.parametrize("name", ["qsort", "primes"])
def test_jit_covers_loops_with_forward_branches(name, mode, dift, dift_mode):
    """Loops that open with a top test or hold if-thens compile whole.

    qsort's partition loop opens with ``bge`` and primes' trial division
    holds forward branches; blocks that ended at every branch left most
    of either guest to the interpreter.
    """
    (_, _), (p_on, _) = _run_pair(name, dift, dift_mode)
    assert p_on.jit.trace_ratio() >= 0.9


# ---------------------------------------------------------------------------
# attack corpus under the fast path
# ---------------------------------------------------------------------------

_CASE_FILES = [os.path.basename(p) for p in corpus_files(CORPUS_DIR)]


@pytest.mark.parametrize("filename", _CASE_FILES)
def test_jit_attack_corpus_detection_identical(filename):
    """Every committed attack detects identically with the jit on.

    A fast path that dropped a DIFT propagation would show up here first:
    the attack's violation record, stop reason, and final snapshot all
    have to match the interpreter run bit for bit.
    """
    case = load_case(os.path.join(CORPUS_DIR, filename))
    program, attack, _ = case.build()
    policy = case.policy(program)
    runs = []
    for jit in (False, JIT_THRESHOLD):
        platform = Platform.from_config(PlatformConfig(
            policy=policy, engine_mode="record", dift_mode="full", jit=jit))
        platform.load(program)
        platform.uart.feed(attack)
        result = platform.run(max_instructions=200_000)
        runs.append((platform, result))
    (p_off, r_off), (p_on, r_on) = runs
    assert r_on.detected == r_off.detected
    assert [str(v) for v in r_on.violations] == \
        [str(v) for v in r_off.violations]
    mismatches = _doc_diff(p_off.snapshot_document(),
                           p_on.snapshot_document())
    assert not mismatches, f"{filename}: {mismatches[:8]}"


# ---------------------------------------------------------------------------
# self-modifying code invalidates compiled traces
# ---------------------------------------------------------------------------

# addi a0, a0, 2 — the word the guest writes over ``patchme`` below
_PATCH_WORD = 0x00250513

_SMC_SOURCE = """
.text
main:
    li a0, 0
    li t3, 2            # two phases over the same loop
    li t4, 0            # patched-yet flag
phase:
    li t0, 300          # long enough that phase 1 is compiled AND
loop:                   # dispatched before the patch store runs
patchme:
    addi a0, a0, 1      # phase 2 executes this as addi a0, a0, 2
    addi t0, t0, -1
    bnez t0, loop
    bnez t4, patched
    li t4, 1
    li t1, 0x00250513
    la t2, patchme
    sw t1, 0(t2)        # store straight into compiled code
patched:
    addi t3, t3, -1
    bnez t3, phase
    ret                 # a0 = 300*1 + 300*2 = 900
"""


def test_jit_self_modifying_code():
    """A store into a compiled line retires the stale trace.

    If invalidation missed, phase 2 would keep running the old closure
    (``+1`` per iteration) and finish with a0 at 600 instead of 900 —
    the differential against the interpreter catches exactly that.
    """
    from repro.sw import runtime

    source = runtime.program(_SMC_SOURCE)
    result_off, p_off = run_guest(source)
    result_on, p_on = run_guest(source, jit=JIT_THRESHOLD)
    assert result_on.exit_code == result_off.exit_code
    assert p_on.total_instructions == p_off.total_instructions
    jit = p_on.jit
    assert jit.stats.invalidated_blocks > 0, \
        "store into compiled code did not invalidate any block"
    # the patched loop is hot again in phase 2 and recompiles
    assert jit.stats.compiled >= 2
    mismatches = _doc_diff(p_off.snapshot_document(),
                           p_on.snapshot_document())
    assert not mismatches, mismatches[:8]


# ---------------------------------------------------------------------------
# block shapes: superblocks that run through forward branches
# ---------------------------------------------------------------------------

_MODE_IDS = [m[0] for m in MODES]


def _shape_pair(program, dift: bool, dift_mode: str, policy=None,
                engine_mode: str = "record", budget: int = BUDGET):
    """One hand-written guest interpreter-only and trace-compiled.

    ``policy`` defaults to :func:`benchmark_policy`: all three execution
    clearances on and RAM at bottom, so DIFT blocks carry every
    clearance lookup and demand mode stays on its clean (plain-block)
    path.  Asserts identical observables and returns the jit-on
    platform; a RAISE-mode clearance error is an observable too.
    """
    runs = []
    for jit in (False, JIT_THRESHOLD):
        platform = Platform.from_config(PlatformConfig(
            policy=(policy or benchmark_policy()) if dift else None,
            engine_mode=engine_mode, dift_mode=dift_mode, jit=jit))
        platform.load(program)
        try:
            result = platform.run(max_instructions=budget)
            outcome = (result.reason, result.exit_code,
                       [str(v) for v in result.violations])
        except ExecutionClearanceError as err:
            outcome = ("raised", str(err))
        runs.append((platform, outcome))
    (p_off, o_off), (p_on, o_on) = runs
    assert o_on == o_off
    assert p_on.total_instructions == p_off.total_instructions
    assert p_on.console() == p_off.console()
    mismatches = _doc_diff(p_off.snapshot_document(),
                           p_on.snapshot_document())
    assert not mismatches, mismatches[:8]
    return p_on


def _shape_program(source: str):
    return assemble(runtime.program(source, include_lib=False))


def _entry_block(platform, dift_mode: str, entry: int):
    """The compiled block at ``entry``: DIFT blocks in full mode, plain
    blocks on the plain VP and on demand mode's clean path."""
    jit = platform.jit
    blocks = jit.blocks
    return blocks.get(entry)


_TOP_TESTED = """
.text
main:
    la   s0, table
    li   t0, 0
    li   t1, 240
    li   a0, 0
head:
    bge  t0, t1, done       # the whole loop header: one forward branch
    andi t2, t0, 15
    slli t2, t2, 2
    add  t2, s0, t2
    lw   t3, 0(t2)
    add  a0, a0, t3
    xor  t3, t3, a0
    sw   t3, 0(t2)
    addi t0, t0, 1
    j    head
done:
    li   a0, 0
    ret
.data
.align 4
table:
    .space 64
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_top_tested_loop_compiles_as_one_loop(mode, dift, dift_mode):
    program = _shape_program(_TOP_TESTED)
    p_on = _shape_pair(program, dift, dift_mode)
    blk = _entry_block(p_on, dift_mode, program.symbol("head"))
    assert blk is not None and blk.loop and blk.length == 10
    assert p_on.jit.trace_ratio() >= 0.8


_IF_THEN = """
.text
main:
    li   t0, 400
    li   a0, 0
    li   a1, 0
loop:
    andi t1, t0, 1
    beqz t1, even           # if-then
    addi a0, a0, 3
even:
    andi t1, t0, 6
    beqz t1, join           # outer if-then
    addi a1, a1, 1
    andi t2, t0, 2
    beqz t2, join           # nested, joining where the outer one does
    addi a1, a1, 5
    andi t3, t0, 4
    bnez t3, inner          # nested twice, joining earlier
    addi a0, a0, 7
inner:
    xor  a0, a0, a1
join:
    beq  t1, t2, next       # a branch to pc + 4
next:
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_if_then_regions_inside_a_loop(mode, dift, dift_mode):
    program = _shape_program(_IF_THEN)
    p_on = _shape_pair(program, dift, dift_mode)
    blk = _entry_block(p_on, dift_mode, program.symbol("loop"))
    assert blk is not None and blk.loop and blk.length == 16
    assert p_on.jit.trace_ratio() >= 0.9


_INNER_EXITS = """
.text
main:
    li   t0, 400
    li   a0, 0
    li   a1, 0
loop:
    andi t1, t0, 15
    beqz t1, rare           # past the block's end
    andi t2, t0, 3
    beqz t2, join           # opens a skip region ...
    andi t3, t0, 1
    bnez t3, cross          # ... that this target crosses
    addi a0, a0, 2
join:
    addi a0, a0, 4
cross:
    addi t0, t0, -1
    bnez t0, loop
    j    done
rare:
    addi a1, a1, 1
    addi t0, t0, -1
    bnez t0, loop
done:
    li   a0, 0
    ret
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_branches_out_of_the_block_or_across_a_region_exit(
        mode, dift, dift_mode):
    program = _shape_program(_INNER_EXITS)
    p_on = _shape_pair(program, dift, dift_mode)
    blk = _entry_block(p_on, dift_mode, program.symbol("loop"))
    assert blk is not None and blk.loop
    for label in ("rare", "cross"):
        assert f"x = {program.symbol(label)}\n" in blk.source, label


#: ``beq t1, zero, pc + 6``: the assembler only encodes aligned targets
_BEQ_T1_PLUS_6 = 0x00030363

_MISALIGNED_TARGET = f"""
.text
main:
    li   t0, 300
    li   a0, 0
loop:
    addi t1, t0, -1         # zero on the last iteration only
    .word {_BEQ_T1_PLUS_6:#x}
    addi a0, a0, 1
    addi a0, a0, 2
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_branch_to_a_misaligned_target_exits(mode, dift, dift_mode):
    program = _shape_program(_MISALIGNED_TARGET)
    p_on = _shape_pair(program, dift, dift_mode)
    loop = program.symbol("loop")
    blk = _entry_block(p_on, dift_mode, loop)
    assert blk is not None and blk.loop
    assert f"x = {loop + 4 + 6}\n" in blk.source
    assert p_on.cpu.halted and "cause=0 " in p_on.cpu.fault_info


_TAINTED_CONDITION = """
.text
main:
    la   s0, secret
    li   t0, 64
    li   a0, 0
    li   t3, 0
loop:
    andi t1, t0, 3
    beqz t1, skip           # a clean inner branch
    addi a0, a0, 1
skip:
    bltu t3, t1, skip2      # tainted once t3 holds the secret
    addi a0, a0, 2
skip2:
    addi t0, t0, -1
    li   t4, 16
    bne  t0, t4, cont
    lbu  t3, 0(s0)          # late in the run: compiled by then
cont:
    bnez t0, loop
    li   a0, 0
    ret
.data
secret:
    .byte 1
"""


@pytest.mark.parametrize("engine_mode", ["record", "raise"])
@pytest.mark.parametrize("dift_mode", ["full", "demand"])
def test_tainted_inner_branch_condition(dift_mode, engine_mode):
    """The inner ``bltu`` side-exits to the interpreter, which makes the
    ``check_execution`` call: RECORD mode records one violation per
    iteration, RAISE mode raises at the first."""
    program = _shape_program(_TAINTED_CONDITION)
    policy = benchmark_policy()
    secret = program.symbol("secret")
    policy.classify_region(secret, secret + 1, builders.HC_HI)
    p_on = _shape_pair(program, True, dift_mode, policy=policy,
                       engine_mode=engine_mode)
    assert p_on.engine.violations
    if dift_mode == "full":
        assert p_on.jit.stats.side_exits > 0


_STORE_FROM_SKIP = """
.text
main:
    li   t0, 200
    li   a0, 0
    la   t5, patch
    lw   t6, 0(t5)
    sw   t6, 0(t5)          # an unchanged rewrite that decodes the
                            # store's word before the loop compiles
    li   t6, 0x00250513     # addi a0, a0, 2
loop:
    addi t1, t0, -100
    bnez t1, patch          # skips the store on all but one iteration
    sw   t6, 0(t5)          # into this block's own code line
patch:
    addi a0, a0, 1          # addi a0, a0, 2 from then on
    addi t0, t0, -1
    bnez t0, loop
    addi a0, a0, -300       # 100 * 1 + 100 * 2
    ret
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_store_into_own_line_from_a_skip_region(mode, dift, dift_mode):
    program = _shape_program(_STORE_FROM_SKIP)
    p_on = _shape_pair(program, dift, dift_mode)
    assert p_on.cpu.halted and p_on.cpu.regs[10] == 0
    assert p_on.jit.stats.smc_exits == 1
    assert p_on.jit.stats.invalidated_blocks >= 1


_UNEVEN_PATHS = """
.text
main:
    li   t0, 100000
    li   a0, 0
loop:
    andi t1, t0, 1
    beqz t1, short          # 4 instructions on this path, 7 on the other
    addi a0, a0, 1
    xor  a0, a0, t0
    slli a1, a0, 1
short:
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_budget_ends_mid_iteration(mode, dift, dift_mode):
    """Every residue of both path lengths: the looping block stops while
    its longest path still fits, and the interpreter retires the rest."""
    program = _shape_program(_UNEVEN_PATHS)
    for budget in range(2_000, 2_008):
        p_on = _shape_pair(program, dift, dift_mode, budget=budget)
        assert p_on.total_instructions == budget
        assert p_on.jit.stats.trace_instructions > budget // 2


_MISALIGNED_FIRST = """
.text
main:
    la   t2, word
    addi t2, t2, 1
    li   t0, 200
loop:
    lw   t1, 0(t2)          # misaligned: every entry side-exits, retiring
    addi t0, t0, -1         # nothing
    bnez t0, loop
    li   a0, 0
    ret
.data
.align 2
word:
    .word 0x12345678, 0
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES[:2],
                         ids=_MODE_IDS[:2])
def test_barren_block_is_dropped_not_invalidated(mode, dift, dift_mode):
    p_on = _shape_pair(_shape_program(_MISALIGNED_FIRST), dift, dift_mode)
    stats = p_on.jit.stats
    assert stats.dropped == 1
    assert stats.invalidated_blocks == 0


_MISALIGNED_SECOND = """
.text
main:
    la   t2, word
    addi t2, t2, 2
    li   t0, 200
loop:
    addi t0, t0, -1
    lw   t1, 0(t2)          # misaligned: every entry side-exits after one
    bnez t0, loop           # instruction
    li   a0, 0
    ret
.data
.align 2
word:
    .word 0x12345678, 0
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_short_yield_block_is_dropped(mode, dift, dift_mode):
    """A block whose exits retire fewer than ``MIN_BLOCK_LEN``
    instructions is not worth its dispatch: it is dropped like one that
    retires nothing."""
    p_on = _shape_pair(_shape_program(_MISALIGNED_SECOND), dift, dift_mode)
    stats = p_on.jit.stats
    assert stats.dropped == 1
    assert stats.invalidated_blocks == 0


_EDGE_IMMS = (0, 1, 2047, -2048, -1)
_EDGE_WORDS = (0, 1, 0x7FF, 0x800, 0x7FFFFFFF, 0x80000000, 0xFFFFF800,
               0xFFFFFFFF)

_EDGE_OPERANDS = f"""
.text
main:
    li   s1, 12                 # passes over the table
pass:
    la   s0, edges
    la   s3, out
    li   s2, {len(_EDGE_WORDS)}
elem:
    lw    t0, 0(s0)             # a: an edge value, equal to each imm once
    lw    t1, 4(s0)             # b: the next one
    slti  t2, t0, 0
    sltiu t3, t0, 0
    slti  t4, t0, 1
    sltiu t5, t0, 1
    slti  t6, t0, 2047
    sltiu a1, t0, 2047
    slti  a2, t0, -2048
    sltiu a3, t0, -2048
    slti  a4, t0, -1
    sltiu a5, t0, -1
    sw    t2, 0(s3)
    sw    t3, 4(s3)
    sw    t4, 8(s3)
    sw    t5, 12(s3)
    sw    t6, 16(s3)
    sw    a1, 20(s3)
    sw    a2, 24(s3)
    sw    a3, 28(s3)
    sw    a4, 32(s3)
    sw    a5, 36(s3)
    slt   t2, t0, t0
    sltu  t3, t0, t0
    slt   t4, t0, t1
    sltu  t5, t0, t1
    sltiu t6, zero, 0
    addi  a1, t0, -1
    xori  a2, t0, -1
    ori   a3, t0, 2047
    andi  a4, t0, -2048
    srai  a5, t0, 31
    srli  a6, t0, 31
    slli  a7, t0, 31
    sw    t2, 40(s3)
    sw    t3, 44(s3)
    sw    t4, 48(s3)
    sw    t5, 52(s3)
    sw    t6, 56(s3)
    sw    a1, 60(s3)
    sw    a2, 64(s3)
    sw    a3, 68(s3)
    sw    a4, 72(s3)
    sw    a5, 76(s3)
    sw    a6, 80(s3)
    sw    a7, 84(s3)
    addi  s0, s0, 4
    addi  s3, s3, 88
    addi  s2, s2, -1
    bnez  s2, elem
    addi  s1, s1, -1
    bnez  s1, pass
    li    a0, 0
    ret
.data
.align 4
edges:
    .word {", ".join(hex(w) for w in _EDGE_WORDS)}, 0
out:
    .space {88 * len(_EDGE_WORDS)}
"""


def _edge_results(a: int, b: int):
    """What ``elem`` stores for operands ``a`` and ``b``."""
    def s(x):
        return x - (1 << 32) if x >> 31 else x

    mask = 0xFFFFFFFF
    results = []
    for imm in _EDGE_IMMS:
        results += [int(s(a) < imm), int(a < (imm & mask))]
    return results + [
        0, 0, int(s(a) < s(b)), int(a < b), 0, (a - 1) & mask, a ^ mask,
        a | 2047, a & (-2048 & mask), (s(a) >> 31) & mask, a >> 31,
        (a << 31) & mask]


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_edge_operands_in_compiled_blocks(mode, dift, dift_mode):
    """slti/sltiu at a == sext(imm), slt/sltu at a == b and the other
    range edges, in a loop hot enough to compile: compiled blocks and
    the interpreter must agree with each other and with the reference."""
    program = _shape_program(_EDGE_OPERANDS)
    p_on = _shape_pair(program, dift, dift_mode)
    blk = _entry_block(p_on, dift_mode, program.symbol("elem"))
    assert blk is not None and blk.loop
    assert p_on.jit.trace_ratio() >= 0.8
    out = program.symbol("out")
    words = _EDGE_WORDS + (0,)
    for i, a in enumerate(_EDGE_WORDS):
        stored = [p_on.cpu.read_word(out + 88 * i + 4 * k)
                  for k in range(22)]
        assert stored == _edge_results(a, words[i + 1]), hex(a)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_jit_config_threshold_plumbing():
    p_default = Platform.from_config(PlatformConfig(jit=True))
    assert p_default.jit is not None
    assert p_default.jit.threshold == DEFAULT_THRESHOLD

    p_custom = Platform.from_config(PlatformConfig(jit=3))
    assert p_custom.jit.threshold == 3

    p_off = Platform.from_config(PlatformConfig(jit=False))
    assert p_off.jit is None


def test_jit_is_host_side_and_not_serialized():
    """``jit`` never enters the config document: snapshots written with
    the fast path on restore cleanly anywhere, and turning it on cannot
    change a config hash or campaign snapshot key."""
    config = PlatformConfig(jit=7)
    document = config.to_json()
    assert "jit" not in document
    restored = PlatformConfig.from_json(document)
    assert restored.jit is False
    restored_on = PlatformConfig.from_json(document, jit=True)
    assert restored_on.jit is True
