"""The three differential oracles, their mutation-detection power, and
the automatic shrinker.

The mutation tests are the acceptance teeth of the generator: a
deliberately injected propagation bug (LUB table zeroed in place, so
taint merges silently drop) and a deliberately injected architectural
perturbation (a register flipped on the tagged platform only) must each
be caught by the matching oracle, and the failing case must auto-shrink
to a minimal repro that still fails the same oracle.
"""

import pytest

from repro.gen.generator import case_from_seed, generate_corpus
from repro.gen.lattices import minimal_lattice_spec
from repro.gen.oracles import MODE_IGNORE_PREFIXES, ORACLE_NAMES, run_case
from repro.gen.primitives import MIN_BUFFER, Primitive
from repro.gen.shrink import shrink
from repro.gen.spec import GeneratedAttack

#: fixed case seeds (one inject-mode, one reuse-mode under seed 0's
#: stream) — cheap but real coverage; the wide sweep lives behind the
#: ``fuzz`` marker in test_gen_fuzz.py
_SMOKE_SEEDS = [case.case_seed for case in generate_corpus(0, 2)]


def _break_lub(platform):
    """Injected propagation bug: every LUB collapses to tag 0 (bottom),
    so tainted data loses its class at the first merge."""
    for row in platform.engine.lub:
        for j in range(len(row)):
            row[j] = 0


def _perturb_register(platform):
    """Injected invisibility bug: the tagged platform diverges from the
    plain VP.  tp (x4) is never written by crt0 or the generated guest,
    so the perturbation survives to the final architectural state."""
    platform.cpu.regs[4] ^= 0x10


@pytest.mark.parametrize("case_seed", _SMOKE_SEEDS)
def test_oracles_green_on_generated_cases(case_seed):
    verdict = run_case(case_from_seed(case_seed))
    assert verdict.exploit_works
    assert verdict.passed, verdict.describe()


def test_verdict_names_every_failing_oracle():
    assert ORACLE_NAMES == ("invisibility", "mode-equivalence",
                            "detection")


def test_mode_ignore_list_is_bookkeeping_only():
    """The mode-equivalence oracle may only ignore *how* the run was
    executed, never what it computed."""
    for prefix in MODE_IGNORE_PREFIXES:
        assert prefix.startswith(("config.dift_mode", "modules.liveness"))


class TestMutationDetection:
    def test_lub_bug_caught_by_detection_oracle(self):
        case = case_from_seed(_SMOKE_SEEDS[0])
        verdict = run_case(case, mutate=_break_lub)
        assert not verdict.passed
        assert "detection" in verdict.failures, verdict.describe()

    def test_register_perturbation_caught_by_invisibility_oracle(self):
        case = case_from_seed(_SMOKE_SEEDS[0])
        verdict = run_case(case, mutate=_perturb_register)
        assert not verdict.passed
        assert "invisibility" in verdict.failures, verdict.describe()

    def test_lub_bug_shrinks_to_minimal_repro(self):
        """The acceptance-criteria path end to end: inject the bug,
        catch it, auto-shrink to the minimal failing case."""
        case = case_from_seed(_SMOKE_SEEDS[0])

        def check(candidate):
            return run_case(candidate, mutate=_break_lub)

        verdict = check(case)
        assert not verdict.passed
        small, small_verdict = shrink(case, verdict, check=check)

        # still fails the same oracle ...
        assert "detection" in small_verdict.failures
        # ... and is genuinely minimal
        assert len(small.primitives) == 1
        assert small.lattice_spec == minimal_lattice_spec()
        assert small.primitives[0].buffer_size == MIN_BUFFER
        assert small.primitives[0].gap == 0
        assert small.case_seed == case.case_seed, \
            "shrinking must preserve provenance"
        # and without the injected bug the minimal case is healthy
        assert run_case(small).passed


class TestShrinker:
    def _failing_pair(self):
        case = case_from_seed(_SMOKE_SEEDS[0])
        verdict = run_case(case, mutate=_break_lub)
        return case, verdict

    def test_shrink_requires_a_failing_verdict(self):
        case = case_from_seed(_SMOKE_SEEDS[0])
        healthy = run_case(case)
        with pytest.raises(ValueError):
            shrink(case, healthy)

    def test_shrink_never_increases_complexity(self):
        case, verdict = self._failing_pair()
        small, _ = shrink(
            case, verdict, check=lambda c: run_case(c, mutate=_break_lub))
        assert len(small.primitives) <= len(case.primitives)
        assert (len(small.lattice_spec["classes"])
                <= len(case.lattice_spec["classes"]))


def test_stripped_policy_lets_the_attack_run():
    """The invisibility oracle's premise: with clearance checks removed
    the attack executes to completion under full tag propagation."""
    case = case_from_seed(_SMOKE_SEEDS[0])
    program, attack, _ = case.build()
    stripped = case.policy_stripped(program)
    assert all(cls is None for _, cls in stripped.execution.units())
    full = case.policy(program)
    assert full.execution.fetch == case.hi_class


def test_benign_twin_never_flagged():
    for case_seed in _SMOKE_SEEDS:
        verdict = run_case(case_from_seed(case_seed))
        assert "detection" not in verdict.failures


def test_verdict_describe_names_the_case():
    case = case_from_seed(_SMOKE_SEEDS[0])
    verdict = run_case(case, mutate=_break_lub)
    assert case.name in verdict.describe()
    assert "detection" in verdict.describe()


def test_manual_case_with_non_demand_friendly_lattice():
    """hi above bottom forces the demand path to carry real tags; the
    mode-equivalence oracle must still hold."""
    from repro.policy.lattice import Lattice
    from repro.policy.serialize import lattice_to_spec

    lattice = Lattice(["L", "M", "H"], [("L", "M"), ("M", "H")])
    case = GeneratedAttack(
        case_seed=0xF00D,
        primitives=(Primitive("stack", "ret", "direct",
                              buffer_size=16, gap=0),),
        victim=0, payload_mode="reuse",
        lattice_spec=lattice_to_spec(lattice),
        lattice_strategy="chain", hi_class="M", li_class="H")
    verdict = run_case(case)
    assert verdict.passed, verdict.describe()
