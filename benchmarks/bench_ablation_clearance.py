"""Ablation: which execution-clearance checks cost what, and catch what.

The paper's Section V-B2 motivates three execution-clearance checks
(instruction fetch, branch condition, memory address) but Table II only
reports the all-on overhead.  This ablation fills that gap:

* **cost**: per-check overhead on a compute benchmark (primes), measured
  by enabling one check at a time;
* **coverage**: which checks actually detect which attack class — the
  code-injection attack needs the fetch check, the control-flow PIN leak
  needs the branch check, the tainted-pointer access needs the mem-addr
  check.
"""

import pytest

from repro.asm import assemble
from repro.dift.engine import RECORD
from repro.policy import SecurityPolicy, builders
from repro.sw import runtime
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

_VARIANTS = {
    "none": {},
    "fetch-only": dict(fetch=builders.LC_LI),
    "branch-only": dict(branch=builders.LC_LI),
    "mem-addr-only": dict(mem_addr=builders.LC_LI),
    "all": dict(fetch=builders.LC_LI, branch=builders.LC_LI,
                mem_addr=builders.LC_LI),
}


def _policy(execution) -> SecurityPolicy:
    policy = SecurityPolicy(builders.ifp3(), default_class=builders.LC_LI,
                            name="ablation")
    policy.clear_sink("uart0.tx", builders.LC_LI)
    if execution:
        policy.set_execution_clearance(**execution)
    return policy


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_clearance_cost(benchmark, variant):
    """Overhead contribution of each execution-clearance component."""
    from repro.sw import primes

    benchmark.group = "ablation-cost"
    program = primes.build(limit=2500)

    def run():
        platform = Platform(PlatformConfig(policy=_policy(_VARIANTS[variant])))
        platform.load(program)
        result = platform.run()
        assert result.exit_code == 0
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info.update(variant=variant,
                                mips=round(result.mips, 3))


_SECRET_BRANCH = runtime.program("""
.text
main:
    la t0, secret
    lbu t1, 0(t0)
    andi t1, t1, 1
    beqz t1, even
    li a0, 1
    ret
even:
    li a0, 0
    ret
.data
secret: .byte 0x42
""", include_lib=False)

_SECRET_POINTER = runtime.program("""
.text
main:
    la t0, secret
    lw t1, 0(t0)
    andi t1, t1, 0xFF
    la t2, table
    add t2, t2, t1
    lbu a0, 0(t2)          # memory access with secret-derived address
    ret
.data
secret: .word 0x00000007
table: .space 256
""", include_lib=False)


def _run_detection(source: str, execution) -> bool:
    program = assemble(source)
    policy = _policy(execution)
    policy.classify_region(program.symbol("secret"),
                           program.symbol("secret") + 4, builders.HC_HI)
    platform = Platform(PlatformConfig(policy=policy, engine_mode=RECORD))
    platform.load(program)
    result = platform.run(max_instructions=100_000)
    return result.detected


class TestCoverage:
    """Which execution-clearance component detects which leak class."""

    def test_branch_check_catches_control_flow_leak(self, benchmark):
        benchmark.group = "ablation-coverage"
        detected = benchmark.pedantic(
            _run_detection, args=(_SECRET_BRANCH,
                                  dict(branch=builders.LC_LI)),
            rounds=1, iterations=1)
        assert detected

    def test_without_branch_check_leak_is_missed(self, benchmark):
        benchmark.group = "ablation-coverage"
        detected = benchmark.pedantic(
            _run_detection, args=(_SECRET_BRANCH,
                                  dict(mem_addr=builders.LC_LI)),
            rounds=1, iterations=1)
        assert not detected

    def test_mem_addr_check_catches_tainted_pointer(self, benchmark):
        benchmark.group = "ablation-coverage"
        detected = benchmark.pedantic(
            _run_detection, args=(_SECRET_POINTER,
                                  dict(mem_addr=builders.LC_LI)),
            rounds=1, iterations=1)
        assert detected

    def test_without_mem_addr_check_pointer_is_missed(self, benchmark):
        benchmark.group = "ablation-coverage"
        detected = benchmark.pedantic(
            _run_detection, args=(_SECRET_POINTER,
                                  dict(branch=builders.LC_LI)),
            rounds=1, iterations=1)
        assert not detected

    def test_fetch_check_catches_code_injection(self, benchmark):
        from repro.bench import table1

        benchmark.group = "ablation-coverage"
        result = benchmark.pedantic(table1.run_attack, args=(3,), rounds=1,
                                    iterations=1)
        assert result.detected

    def test_without_fetch_check_injection_is_missed(self, benchmark):
        """Drop the fetch clearance from the WK policy: attack 3 sails by."""
        from repro.bench.table1 import code_injection_policy
        from repro.sw import wk_suite

        benchmark.group = "ablation-coverage"

        def run():
            program, attacker_input = wk_suite.build_attack(3)
            policy = code_injection_policy(program)
            policy.set_execution_clearance()  # all checks off
            platform = Platform(PlatformConfig(policy=policy,
                                               engine_mode=RECORD))
            platform.load(program)
            platform.uart.feed(attacker_input)
            return platform.run(max_instructions=200_000)

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert not result.detected
        assert result.reason == "ebreak"  # payload executed
