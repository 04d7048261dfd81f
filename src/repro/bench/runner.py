"""Benchmark execution: run a workload on VP and VP+ and compare.

This is the measurement core behind Table II: for each workload it runs
the identical guest binary on the plain platform (VP) and the
DIFT-instrumented platform (VP+), recording executed instructions, host
wall-clock time, MIPS and the VP+/VP overhead factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bench.workloads import Workload, get_workload
from repro.vp.platform import RunResult


@dataclass
class Measurement:
    """One (workload, platform-mode) run."""

    workload: str
    mode: str                 # "VP", "VP+" or "VP+d" (demand DIFT)
    instructions: int
    loc_asm: int
    host_seconds: float
    mips: float
    reason: str
    exit_code: int
    violations: int


@dataclass
class Comparison:
    """VP vs VP+ for one workload (one Table II row)."""

    workload: str
    instructions: int
    loc_asm: int
    vp_seconds: float
    vp_plus_seconds: float
    vp_mips: float
    vp_plus_mips: float

    @property
    def overhead(self) -> float:
        if self.vp_seconds <= 0:
            return float("nan")
        return self.vp_plus_seconds / self.vp_seconds


def run_workload(workload: Workload, scale: str, dift: bool,
                 max_instructions: Optional[int] = None,
                 dift_mode: str = "full") -> Measurement:
    """Build, load and run one workload once.

    ``dift_mode`` — ``"full"`` (classic VP+) or ``"demand"`` (VP+d); the
    measurement is labelled with the mode that runs
    (:attr:`~repro.vp.platform.Platform.label`).
    """
    platform = workload.make_platform(scale, dift, dift_mode=dift_mode)
    mode = platform.label
    result: RunResult = platform.run(max_instructions=max_instructions)
    if result.reason not in ("halt", "budget"):
        raise RuntimeError(
            f"workload {workload.name!r} ({mode}) ended "
            f"abnormally: {result.reason} "
            f"(violations={len(result.violations)})")
    if result.reason == "halt" and result.exit_code != 0:
        raise RuntimeError(
            f"workload {workload.name!r} failed self-check: "
            f"exit={result.exit_code}")
    program = platform.program
    return Measurement(
        workload=workload.name,
        mode=mode,
        instructions=result.instructions,
        loc_asm=program.n_instructions if program else 0,
        host_seconds=result.host_seconds,
        mips=result.mips,
        reason=result.reason,
        exit_code=result.exit_code,
        violations=len(result.violations),
    )


def compare_workload(name: str, scale: str = "quick",
                     max_instructions: Optional[int] = None) -> Comparison:
    """Run one workload on VP and on VP+ and build the comparison row."""
    workload = get_workload(name)
    vp = run_workload(workload, scale, dift=False,
                      max_instructions=max_instructions)
    vp_plus = run_workload(workload, scale, dift=True,
                           max_instructions=max_instructions)
    if vp_plus.violations:
        raise RuntimeError(
            f"benchmark {name!r} unexpectedly violated the policy "
            f"({vp_plus.violations} violations)")
    return Comparison(
        workload=name,
        instructions=vp.instructions,
        loc_asm=vp.loc_asm,
        vp_seconds=vp.host_seconds,
        vp_plus_seconds=vp_plus.host_seconds,
        vp_mips=vp.mips,
        vp_plus_mips=vp_plus.mips,
    )


def compare_all(names: List[str], scale: str = "quick") -> List[Comparison]:
    return [compare_workload(name, scale) for name in names]
