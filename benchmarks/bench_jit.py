"""Trace-compiler speedup characterization (``repro.vp.jit``).

Measures the fast path against the plain interpreter on three synthetic
guests chosen to bracket its operating envelope, then sweeps the
workload registry:

* ``tight_loop`` — a straight-line arithmetic loop, the best case: one
  superblock covers essentially the whole run.  This is where the
  headline claim (>= 3x) is asserted.
* ``branchy`` — a forward-branch ladder inside the loop.  Superblocks
  run through forward branches, so the whole loop, its three if-thens
  compiled as skip regions, is one looping block (>= 5x asserted).
* ``mmio_heavy`` — a UART output loop on the plain VP.  Its store to
  the UART's TX register is an inline transport call, so the loop runs
  compiled (>= 1.3x asserted).

``tight_loop`` and ``branchy`` also run on the VP+ under
:func:`~repro.bench.workloads.benchmark_policy`, where no tag ever
leaves bottom and full-DIFT superblocks run their clean variant: the
DIFT jit must beat the DIFT interpreter by the same floors (>= 3x and
>= 5x).  Their records also carry DIFT-jit seconds over plain-jit
seconds, measured in the same process and not gated.

Every leg asserts the jit run retired exactly as many instructions as
the interpreter run — a benchmark that diverged would be measuring two
different programs.  Timings are best-of-3; the jit-on wall time is the
``data.seconds`` quantity gated by ``check_regression.py``.
"""

from time import perf_counter

import pytest

from repro.asm import assemble
from repro.bench.workloads import TABLE2_ORDER, WORKLOADS, benchmark_policy
from repro.sw import runtime
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

_ROUNDS = 3

#: (full iterations, quick iterations) per synthetic guest
_SCALE = {"tight_loop": (30_000, 3_000),
          "branchy": (12_000, 1_500),
          "mmio_heavy": (12_000, 1_500)}

_SPEEDUPS = {}
_DIFT_SPEEDUPS = {}

_TIGHT_LOOP = """
.text
main:
    li t0, %(iters)d
    li a0, 0
    li a1, 0x9e3779b9
loop:
    add a0, a0, a1
    xor a1, a1, a0
    slli t1, a0, 3
    srli t2, a1, 5
    add a0, a0, t1
    xor a1, a1, t2
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ret
"""

_BRANCHY = """
.text
main:
    li t0, %(iters)d
    li a0, 0
loop:
    andi t1, t0, 7
    beqz t1, skip0
    addi a0, a0, 1
skip0:
    andi t1, t0, 3
    beqz t1, skip1
    addi a0, a0, 2
skip1:
    andi t1, t0, 1
    beqz t1, skip2
    addi a0, a0, 3
skip2:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ret
"""

_MMIO_HEAVY = """
.text
main:
    li t0, %(iters)d
    li t2, UART_TXDATA
loop:
    andi t1, t0, 0x3f
    addi t1, t1, 0x20
    sb t1, 0(t2)
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ret
"""

_GUESTS = {"tight_loop": _TIGHT_LOOP,
           "branchy": _BRANCHY,
           "mmio_heavy": _MMIO_HEAVY}


def _run_once(program, jit, policy=None):
    platform = Platform.from_config(PlatformConfig(policy=policy, jit=jit))
    platform.load(program)
    started = perf_counter()
    result = platform.run()
    elapsed = perf_counter() - started
    assert result.reason == "halt" and result.exit_code == 0, \
        f"guest ended {result.reason}/{result.exit_code}"
    return platform, result, elapsed


def _best_of(program, jit, rounds=_ROUNDS, policy=None):
    best = None
    for __ in range(rounds):
        platform, result, elapsed = _run_once(program, jit, policy)
        if best is None or elapsed < best[2]:
            best = (platform, result, elapsed)
    return best


@pytest.mark.parametrize("name", sorted(_GUESTS))
def test_synthetic_guest(benchmark, name, quick, bench_json):
    benchmark.group = "jit-synthetic"
    iters = _SCALE[name][1 if quick else 0]
    program = assemble(runtime.program(_GUESTS[name] % {"iters": iters}))

    p_off, r_off, t_off = _best_of(program, jit=False)
    p_on, r_on, t_on = benchmark.pedantic(
        _best_of, args=(program, True), rounds=1, iterations=1)

    assert r_on.instructions == r_off.instructions
    assert p_on.console() == p_off.console()
    speedup = t_off / t_on
    ratio = p_on.jit.trace_ratio()
    _SPEEDUPS[name] = speedup
    benchmark.extra_info.update(
        speedup=round(speedup, 2), trace_ratio=round(ratio, 3),
        instructions=r_on.instructions)
    bench_json(f"jit_{name}",
               {"guest": name, "instructions": r_on.instructions,
                "seconds": t_on, "interp_seconds": t_off,
                "speedup": round(speedup, 3),
                "trace_ratio": round(ratio, 4),
                "blocks_compiled": p_on.jit.stats.compiled})


def test_tight_loop_meets_target(benchmark, quick):
    """In-process speed-up floors: >= 3x on the trace-friendly case,
    >= 5x on the forward-branch ladder and >= 1.3x on the UART loop."""
    if quick:
        pytest.skip("speedup target needs the full iteration budget")
    benchmark.group = "jit-synthetic"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if "tight_loop" not in _SPEEDUPS:
        pytest.skip("run the full module so tight_loop is measured")
    assert _SPEEDUPS["tight_loop"] >= 3.0, \
        f"tight loop speedup {_SPEEDUPS['tight_loop']:.2f}x < 3x target"
    assert _SPEEDUPS["branchy"] >= 5.0, \
        f"branchy speedup {_SPEEDUPS['branchy']:.2f}x < 5x target"
    assert _SPEEDUPS["mmio_heavy"] >= 1.3, \
        f"mmio_heavy speedup {_SPEEDUPS['mmio_heavy']:.2f}x < 1.3x target"


@pytest.mark.parametrize("name", ["branchy", "tight_loop"])
def test_dift_guest(benchmark, name, quick, bench_json):
    """VP+ full DIFT: interpreter vs trace-compiled, and the DIFT jit
    against the plain jit in the same process."""
    benchmark.group = "jit-dift"
    iters = _SCALE[name][1 if quick else 0]
    program = assemble(runtime.program(_GUESTS[name] % {"iters": iters}))
    policy = benchmark_policy()

    p_off, r_off, t_off = _best_of(program, False, policy=policy)
    p_on, r_on, t_on = benchmark.pedantic(
        _best_of, args=(program, True), kwargs={"policy": policy},
        rounds=1, iterations=1)
    __, r_plain, t_plain = _best_of(program, True)

    assert r_on.instructions == r_off.instructions == r_plain.instructions
    assert p_on.console() == p_off.console()
    stats = p_on.jit.stats
    speedup = t_off / t_on
    _DIFT_SPEEDUPS[name] = speedup
    benchmark.extra_info.update(
        speedup=round(speedup, 2), dift_over_plain=round(t_on / t_plain, 2))
    bench_json(f"jit_dift_{name}",
               {"guest": name, "instructions": r_on.instructions,
                "seconds": t_on, "interp_seconds": t_off,
                "plain_jit_seconds": t_plain,
                "speedup": round(speedup, 3),
                "dift_over_plain": round(t_on / t_plain, 3),
                "trace_ratio": round(p_on.jit.trace_ratio(), 4),
                "blocks_compiled": stats.compiled,
                "clean_execs": stats.clean_execs,
                "block_execs": stats.block_execs})


def test_dift_meets_target(benchmark, quick):
    """The plain legs' floors, on the VP+: >= 3x on tight_loop and >= 5x
    on branchy over the DIFT interpreter."""
    if quick:
        pytest.skip("speedup target needs the full iteration budget")
    benchmark.group = "jit-dift"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_DIFT_SPEEDUPS) < 2:
        pytest.skip("run the full module so both DIFT legs are measured")
    assert _DIFT_SPEEDUPS["tight_loop"] >= 3.0, \
        f"DIFT tight loop speedup {_DIFT_SPEEDUPS['tight_loop']:.2f}x < 3x"
    assert _DIFT_SPEEDUPS["branchy"] >= 5.0, \
        f"DIFT branchy speedup {_DIFT_SPEEDUPS['branchy']:.2f}x < 5x"


@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_workload_speedup(benchmark, name, quick, bench_json):
    """Registry sweep, plain VP: interpreter vs trace-compiled."""
    benchmark.group = "jit-workloads"
    budget = 20_000 if quick else 150_000
    workload = WORKLOADS[name]

    def run(jit):
        platform = workload.make_platform("quick", False, jit=jit)
        started = perf_counter()
        result = platform.run(max_instructions=budget)
        return platform, result, perf_counter() - started

    def best(jit):
        return min((run(jit) for __ in range(_ROUNDS)),
                   key=lambda leg: leg[2])

    p_off, r_off, t_off = best(False)
    p_on, r_on, t_on = benchmark.pedantic(
        best, args=(True,), rounds=1, iterations=1)

    assert r_on.instructions == r_off.instructions
    assert r_on.reason == r_off.reason
    speedup = t_off / t_on
    benchmark.extra_info.update(
        speedup=round(speedup, 2),
        trace_ratio=round(p_on.jit.trace_ratio(), 3))
    bench_json(f"jit_wk_{name}",
               {"workload": name, "instructions": r_on.instructions,
                "seconds": t_on, "interp_seconds": t_off,
                "speedup": round(speedup, 3),
                "trace_ratio": round(p_on.jit.trace_ratio(), 4),
                "blocks_compiled": p_on.jit.stats.compiled})
