"""Checkpoint/replay equivalence verifier.

A snapshot is only trustworthy if resuming it is *indistinguishable*
from never having stopped.  This harness proves that property run by
run: simulate a workload straight through, then simulate it again with a
pause at instruction ``N``, snapshot, resume the snapshot **in a fresh
OS process** (so nothing can leak through interpreter state), and
compare the two final states field by field:

* the :class:`~repro.vp.platform.RunResult` (stop reason, exit code),
* the cumulative instruction count,
* the console output,
* every DIFT violation record,
* the observability metrics — minus the quarantined host-timing
  metrics (``wall``/``mips``/``seconds``), which legitimately differ.

:func:`run_replay_suite` sweeps the whole workload registry across the
plain VP and both DIFT modes.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.campaign.worker import is_timing_metric
from repro.state import diff_documents
from repro.vp.cpu import DIFT_MODES

#: engine/DIFT variants the suite sweeps: the plain VP plus every DIFT
#: mode
REPLAY_MODES = ("plain",) + DIFT_MODES

#: suite defaults: deep enough to cross several quanta and at least one
#: sensor frame, small enough to keep the full sweep in CI budgets
DEFAULT_PAUSE_AT = 9000
DEFAULT_MAX_INSTRUCTIONS = 60000


@dataclass
class ReplayComparison:
    """Outcome of one straight-run vs snapshot-resume comparison."""

    workload: str
    mode: str                      # "plain" / "full" / "demand"
    pause_at: int
    paused_at: int                 # instruction the snapshot was taken at
    equivalent: bool
    mismatches: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        verdict = "ok" if self.equivalent else "MISMATCH"
        return (f"{self.workload:<16} {self.mode:<7} "
                f"pause@{self.paused_at:<8} {verdict}"
                + ("" if self.equivalent
                   else f" ({len(self.mismatches)} fields)"))


def final_state(platform, result) -> dict:
    """The replay-relevant final state of a finished simulation.

    ``jit.*`` metrics are quarantined alongside host timings: the trace
    cache is discarded at snapshot restore, so a resumed run legitimately
    recompiles — compilation counters are host-side execution-strategy
    state, not simulated state.
    """
    return {
        "reason": result.reason,
        "exit_code": result.exit_code,
        "instructions": platform.total_instructions,
        "console": platform.console(),
        "violations": [str(v) for v in result.violations],
        "metrics": {name: value
                    for name, value in platform.obs.snapshot().items()
                    if not is_timing_metric(name)
                    and not name.startswith("jit.")},
    }


def _make_platform(workload, mode: str, scale: str, seed: int,
                   jit: bool = False):
    from repro.obs import Observability

    dift = mode != "plain"
    return workload.make_platform(
        scale, dift, obs=Observability(),
        dift_mode=mode if dift else "full", seed=seed, jit=jit)


def _resume_child(conn, snapshot_path: str, workload_name: str, scale: str,
                  max_instructions: Optional[int],
                  jit: bool = False) -> None:
    """Fresh-process entry point: restore, finish, ship the final state."""
    from repro.bench.workloads import get_workload
    from repro.obs import Observability
    from repro.vp.platform import Platform

    try:
        workload = get_workload(workload_name)
        platform = Platform.restore(
            snapshot_path, obs=Observability(),
            program=workload.build(scale),
            externals=workload.restore_externals(scale), jit=jit)
        result = platform.run(max_instructions=max_instructions)
        conn.send(final_state(platform, result))
    except BaseException as exc:   # report, never hang the parent
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _resume_in_fresh_process(snapshot_path: str, workload_name: str,
                             scale: str,
                             max_instructions: Optional[int],
                             jit: bool = False) -> dict:
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    recv, send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_resume_child,
        args=(send, snapshot_path, workload_name, scale, max_instructions,
              jit),
        daemon=True)
    process.start()
    send.close()
    try:
        state = recv.recv()
    except EOFError:
        state = {"error": "resume process died without a result"}
    finally:
        recv.close()
        process.join(timeout=30.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
    return state


def verify_replay(workload_name: str, mode: str = "full",
                  pause_at: int = DEFAULT_PAUSE_AT, scale: str = "quick",
                  max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS,
                  seed: int = 0,
                  snapshot_path: Optional[str] = None,
                  jit: bool = False) -> ReplayComparison:
    """Straight run vs pause-snapshot-resume(fresh process), compared.

    ``snapshot_path`` keeps the intermediate snapshot file (for CI
    artifacts); when omitted, a temporary file is used and removed.
    ``jit`` runs every leg (reference, interrupted, resumed) with the
    trace compiler on — the resumed platform rebuilds its trace cache
    from scratch, so equivalence here proves the cache really is
    derived state.
    """
    from repro.bench.workloads import get_workload

    if mode not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {mode!r}; expected one of {REPLAY_MODES}")
    workload = get_workload(workload_name)

    reference = _make_platform(workload, mode, scale, seed, jit=jit)
    ref_result = reference.run(max_instructions=max_instructions)
    ref_state = final_state(reference, ref_result)

    interrupted = _make_platform(workload, mode, scale, seed, jit=jit)
    interrupted.run(pause_at=pause_at, max_instructions=max_instructions)
    paused_at = interrupted.total_instructions

    cleanup = snapshot_path is None
    if snapshot_path is None:
        handle = tempfile.NamedTemporaryFile(
            prefix=f"replay-{workload_name}-{mode}-", suffix=".json",
            delete=False)
        handle.close()
        snapshot_path = handle.name
    try:
        interrupted.save_snapshot(snapshot_path)
        resumed_state = _resume_in_fresh_process(
            snapshot_path, workload_name, scale, max_instructions, jit=jit)
    finally:
        if cleanup:
            try:
                os.unlink(snapshot_path)
            except OSError:
                pass

    if "error" in resumed_state:
        return ReplayComparison(
            workload=workload_name, mode=mode, pause_at=pause_at,
            paused_at=paused_at, equivalent=False,
            mismatches=[resumed_state["error"]])
    mismatches = diff_documents(ref_state, resumed_state)
    return ReplayComparison(
        workload=workload_name, mode=mode, pause_at=pause_at,
        paused_at=paused_at, equivalent=not mismatches,
        mismatches=mismatches)


def run_replay_suite(workloads: Optional[Sequence[str]] = None,
                     modes: Sequence[str] = REPLAY_MODES,
                     pause_at: int = DEFAULT_PAUSE_AT,
                     scale: str = "quick",
                     max_instructions: Optional[int]
                     = DEFAULT_MAX_INSTRUCTIONS,
                     seed: int = 0,
                     jit: bool = False) -> List[ReplayComparison]:
    """Replay-verify every registered workload under every mode."""
    from repro.bench.workloads import workload_names

    names = list(workloads) if workloads is not None else workload_names()
    return [verify_replay(name, mode, pause_at=pause_at, scale=scale,
                          max_instructions=max_instructions, seed=seed,
                          jit=jit)
            for name in names
            for mode in modes]


def format_report(results: Sequence[ReplayComparison]) -> str:
    """Human-readable suite table, one row per comparison."""
    lines = [f"{'workload':<16} {'mode':<7} {'snapshot':<15} verdict",
             "-" * 50]
    lines.extend(str(r) for r in results)
    bad = [r for r in results if not r.equivalent]
    lines.append("-" * 50)
    lines.append(f"{len(results) - len(bad)}/{len(results)} equivalent")
    for r in bad:
        for mismatch in r.mismatches[:10]:
            lines.append(f"  {r.workload}/{r.mode}: {mismatch}")
    return "\n".join(lines)
