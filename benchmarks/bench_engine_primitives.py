"""Micro-benchmarks of the DIFT engine primitives (Fig. 1 / Fig. 3).

Not a paper table, but the cost model behind Table II: LUB lookups,
allowedFlow checks, Taint operator overloading and byte conversion are
the per-instruction costs the VP+ pays.  These microbenchmarks make the
constant factors visible and guard against regressions.
"""

import pytest

from repro.dift.engine import DiftEngine
from repro.dift.taint import Taint
from repro.policy import SecurityPolicy, builders


@pytest.fixture(scope="module")
def engine():
    policy = SecurityPolicy(builders.ifp3(), default_class=builders.LC_LI)
    return DiftEngine(policy)


def test_lattice_construction(benchmark):
    benchmark.group = "primitives"
    lattice = benchmark(builders.ifp3)
    assert len(lattice) == 4


def test_per_byte_lattice_construction(benchmark):
    """The 36-class per-byte key lattice (16 bytes) of Section VI-A."""
    benchmark.group = "primitives"
    lattice, byte_classes = benchmark(builders.per_byte_key_ifp, 16)
    assert len(byte_classes) == 16


def test_lub_table_lookup(benchmark, engine):
    benchmark.group = "primitives"
    lub = engine.lub

    def lookups():
        acc = 0
        for a in range(4):
            for b in range(4):
                acc = lub[a][b]
        return acc

    benchmark(lookups)


def test_flow_check(benchmark, engine):
    benchmark.group = "primitives"
    benchmark(engine.check_flow, 0, 3, "bench")


def test_taint_arithmetic(benchmark, engine):
    benchmark.group = "primitives"
    a = Taint(0x12345678, 1, engine)
    b = Taint(0x9ABCDEF0, 2, engine)

    def ops():
        return ((a + b) ^ (a & b)) << 3

    result = benchmark(ops)
    assert result.tag == engine.lub[1][2]


def test_taint_byte_round_trip(benchmark, engine):
    benchmark.group = "primitives"
    value = Taint(0xDEADBEEF, 2, engine)

    def round_trip():
        return Taint.from_bytes(value.to_bytes(), engine)

    result = benchmark(round_trip)
    assert result.value == 0xDEADBEEF


def test_iss_throughput_plain(benchmark):
    """Raw ISS speed (the VP column's MIPS at microbenchmark scale)."""
    from repro.sw import primes
    from repro.vp.platform import Platform

    benchmark.group = "iss-throughput"
    program = primes.build(limit=1500)

    def run():
        platform = Platform()
        platform.load(program)
        return platform.run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["mips"] = round(result.mips, 3)


def test_iss_throughput_dift(benchmark):
    """DIFT ISS speed (the VP+ column's MIPS at microbenchmark scale)."""
    from repro.bench.workloads import benchmark_policy
    from repro.sw import primes
    from repro.vp.config import PlatformConfig
    from repro.vp.platform import Platform

    benchmark.group = "iss-throughput"
    program = primes.build(limit=1500)

    def run():
        platform = Platform(PlatformConfig(policy=benchmark_policy()))
        platform.load(program)
        return platform.run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["mips"] = round(result.mips, 3)
