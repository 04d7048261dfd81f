"""The three differential oracles run over every generated case.

Seven platform runs share one assembled binary per case:

=========  ========================  =====================================
variant    platform                  purpose
=========  ========================  =====================================
attack     plain VP (no DIFT)        ground truth: the exploit *works*
benign     plain VP                  ground truth: the twin is clean
attack     VP+ ``full``              detection + mode-equivalence baseline
benign     VP+ ``full``              false-positive check + baselines
attack     VP+ ``demand``            mode equivalence
benign     VP+ ``demand``            mode equivalence
attack     VP+ ``full``, *stripped*  invisibility under active tagging
=========  ========================  =====================================

**Oracle 1 — architectural invisibility.**  Tag propagation must never
change what the guest computes.  Compared via
:func:`repro.verify.differential.arch_state`: the benign run under the
full policy must equal the plain VP, and the *attack* run under the
stripped policy (same classifications, clearance checks disabled, so
nothing halts the exploit) must equal the plain VP too.

**Oracle 2 — mode equivalence.**  ``full`` and ``demand`` DIFT must end
in snapshot-identical states: the complete ``repro.snapshot/1``
documents are diffed leaf-by-leaf via
:func:`repro.state.diff_documents`, ignoring only the fields that
legitimately encode *how* the run was executed (the liveness
accelerator's own counters, the engine's check count and the config's
``dift_mode`` itself) — never *what* was computed.

**Oracle 3 — detection soundness.**  The generated policy must flag the
attack variant (in both modes) and stay perfectly silent on the benign
twin.

A ``mutate(platform)`` hook (applied to every DIFT platform after
construction, before the run) lets mutation tests inject propagation
bugs and prove the oracles catch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dift.engine import RECORD
from repro.gen.spec import GeneratedAttack
from repro.state import diff_documents
from repro.verify.differential import arch_state
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

ORACLE_NAMES = ("invisibility", "mode-equivalence", "detection")

#: instruction budget per run — generated guests retire a few thousand
#: instructions, so this only bounds pathological cases
DEFAULT_BUDGET = 200_000

#: snapshot paths that may legitimately differ between full and demand
#: mode: the mode selector itself and the liveness accelerator's private
#: counters.  Everything else — registers, tags, RAM, shadow RAM,
#: violations, the engine's check count, peripherals, kernel time — must
#: match bit-for-bit.
MODE_IGNORE_PREFIXES = (
    "config.dift_mode",
    "modules.liveness",
)

#: how many diff lines to carry into a failure message
_DIFF_LIMIT = 12


@dataclass
class CaseRun:
    """One platform run of a case variant."""

    platform: Platform
    result: object
    arch: dict

    @property
    def detected(self) -> bool:
        return bool(self.result.detected)


@dataclass
class OracleVerdict:
    """The oracle outcome for one generated case."""

    case: GeneratedAttack
    failures: Dict[str, str] = field(default_factory=dict)
    exploit_works: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return f"{self.case.name}: all oracles green"
        parts = [f"{name}: {msg}" for name, msg in self.failures.items()]
        return f"{self.case.name}: " + "; ".join(parts)


def _arch_mismatch(a: dict, b: dict) -> str:
    for key in a:
        if a[key] != b[key]:
            return f"{key} differs: {a[key]!r} != {b[key]!r}"
    return ""


def _run_variant(program, feed: bytes, policy, dift_mode: str,
                 mutate: Optional[Callable[[Platform], None]],
                 budget: int) -> CaseRun:
    if policy is None:
        platform = Platform()
    else:
        platform = Platform.from_config(PlatformConfig(
            policy=policy, engine_mode=RECORD, dift_mode=dift_mode))
    platform.load(program)
    platform.uart.feed(feed)
    if mutate is not None and policy is not None:
        mutate(platform)
    result = platform.run(max_instructions=budget)
    return CaseRun(platform, result, arch_state(platform, result))


def run_case(case: GeneratedAttack,
             mutate: Optional[Callable[[Platform], None]] = None,
             budget: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Run all seven variants of one case and apply the three oracles."""
    program, attack, benign = case.build()
    policy = case.policy(program)

    plain_atk = _run_variant(program, attack, None, "full", mutate, budget)
    plain_ben = _run_variant(program, benign, None, "full", mutate, budget)
    full_atk = _run_variant(program, attack, policy, "full", mutate, budget)
    full_ben = _run_variant(program, benign, policy, "full", mutate, budget)
    demand_atk = _run_variant(program, attack, policy, "demand",
                              mutate, budget)
    demand_ben = _run_variant(program, benign, policy, "demand",
                              mutate, budget)
    stripped_atk = _run_variant(program, attack,
                                case.policy_stripped(program), "full",
                                mutate, budget)

    verdict = OracleVerdict(case=case)
    verdict.exploit_works = (
        plain_atk.result.reason == "halt"
        and plain_atk.result.exit_code == 0
        and "X" in plain_atk.platform.console())
    if not verdict.exploit_works:
        verdict.failures["detection"] = (
            "exploit inert on the plain VP: "
            f"stop={plain_atk.result.reason!r} "
            f"console={plain_atk.platform.console()!r}")
        return verdict

    # ---- oracle 1: architectural invisibility -------------------------
    problems: List[str] = []
    mismatch = _arch_mismatch(plain_ben.arch, full_ben.arch)
    if mismatch:
        problems.append(f"benign/full vs plain: {mismatch}")
    mismatch = _arch_mismatch(plain_atk.arch, stripped_atk.arch)
    if mismatch:
        problems.append(f"attack/stripped vs plain: {mismatch}")
    if stripped_atk.result.violations:
        problems.append("stripped policy still raised violations")
    if problems:
        verdict.failures["invisibility"] = "; ".join(problems)

    # ---- oracle 2: full/demand mode equivalence -----------------------
    problems = []
    for label, full, demand in (("attack", full_atk, demand_atk),
                                ("benign", full_ben, demand_ben)):
        diff = diff_documents(full.platform.snapshot_document(),
                              demand.platform.snapshot_document(),
                              ignore_prefixes=MODE_IGNORE_PREFIXES)
        if diff:
            shown = diff[:_DIFF_LIMIT]
            if len(diff) > len(shown):
                shown.append(f"... {len(diff) - len(shown)} more")
            problems.append(f"{label}: " + "; ".join(shown))
    if problems:
        verdict.failures["mode-equivalence"] = " | ".join(problems)

    # ---- oracle 3: detection soundness --------------------------------
    problems = []
    if not full_atk.detected:
        problems.append(
            f"attack undetected in full mode "
            f"(stop={full_atk.result.reason!r}, "
            f"console={full_atk.platform.console()!r})")
    if not demand_atk.detected:
        problems.append("attack undetected in demand mode")
    for label, run in (("full", full_ben), ("demand", demand_ben)):
        if run.result.violations:
            problems.append(
                f"false positive on benign twin ({label} mode): "
                f"{run.result.violations[0]}")
    if problems:
        verdict.failures["detection"] = "; ".join(problems)
    return verdict


def run_cases(cases, mutate=None, budget: int = DEFAULT_BUDGET
              ) -> Tuple[List[OracleVerdict], List[OracleVerdict]]:
    """Run many cases; returns ``(passed, failed)`` verdict lists."""
    passed, failed = [], []
    for case in cases:
        verdict = run_case(case, mutate=mutate, budget=budget)
        (passed if verdict.passed else failed).append(verdict)
    return passed, failed
