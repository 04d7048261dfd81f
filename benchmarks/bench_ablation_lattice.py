"""Ablation: DIFT overhead vs security-lattice size.

The engine precomputes LUB/allowedFlow as dense tables, so per-instruction
cost should be independent of how many security classes the policy uses —
the design reason the Section VI-A per-byte fix (a 36-class lattice for a
16-byte key) is affordable.  This ablation measures the same compute
workload under 2-, 4- and 36-class lattices and checks the run times stay
within noise of each other.
"""

import pytest

from repro.policy import SecurityPolicy, builders
from repro.sw import primes
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform


def _policy_for(n_classes: str) -> SecurityPolicy:
    if n_classes == "2-class":
        lattice, default = builders.ifp1(), builders.LC
    elif n_classes == "4-class":
        lattice, default = builders.ifp3(), builders.LC_LI
    else:  # "36-class"
        lattice, __ = builders.per_byte_key_ifp(16)
        default = "(LC,LI)"
    policy = SecurityPolicy(lattice, default_class=default,
                            name=f"lattice-{n_classes}")
    policy.set_execution_clearance(fetch=default, branch=default,
                                   mem_addr=default)
    return policy


_RESULTS = {}


@pytest.mark.parametrize("variant", ["2-class", "4-class", "36-class"])
def test_lattice_size_cost(benchmark, variant):
    benchmark.group = "ablation-lattice-size"
    program = primes.build(limit=2500)

    def run():
        platform = Platform(PlatformConfig(policy=_policy_for(variant)))
        platform.load(program)
        result = platform.run()
        assert result.exit_code == 0
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info.update(
        variant=variant,
        classes=len(_policy_for(variant).lattice),
        mips=round(result.mips, 3))
    _RESULTS[variant] = result.host_seconds


def test_cost_independent_of_lattice_size(benchmark, capsys):
    """O(1) table lookups: 36 classes must not cost more than 2."""
    benchmark.group = "ablation-lattice-size"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_RESULTS) < 3:
        pytest.skip("run the full module first")
    small, large = _RESULTS["2-class"], _RESULTS["36-class"]
    # generous noise bound: a real O(n) dependence would blow well past it
    assert large < small * 1.5
    with capsys.disabled():
        print()
        print("LATTICE-SIZE ABLATION (primes, VP+)")
        for variant in ("2-class", "4-class", "36-class"):
            print(f"  {variant:<9} {_RESULTS[variant]:.2f}s")
