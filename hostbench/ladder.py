"""Workloads, the execution ladder and the measurement loop.

One *op* is one guest run on one rung of the ladder, or one campaign
job.  Every op boots a fresh platform (program build, ``from_config``,
``load``, externals, prepare — the ``setup_s`` metric), runs it, and is
checked:

* stop reason, exit code and verdict fit the guest (a budget-capped
  compute guest stops on ``budget``; an attack is exploited on plain VP
  and detected on every VP+ rung; a benign twin is never flagged);
* instructions, simulated time, console digest, violation count and
  violation-list digest equal the reference: the committed seed-0
  expectations when they apply, else the first observation of the same
  guest (so every seed is checked for identity across rungs and
  repetitions);
* on the recording rung, offline ``reanalyze_stream`` reproduces the live
  violations.

A run has two timed phases after an untimed warm-up of each.  The op
phase repeats a *repetition* — every guest on the five rungs — and the
campaign phase repeats the campaign leg (a cold ``run_campaign``
followed by a fully cached re-run).  Nothing here imports outside the
public ``repro`` API.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bench.workloads import benchmark_policy
from repro.campaign.cache import ResultCache
from repro.campaign.matrix import parse_matrix
from repro.campaign.report import aggregate, deterministic_view
from repro.campaign.scheduler import run_campaign
from repro.casestudy.immobilizer import PIN, EngineEcu, baseline_policy
from repro.dift import monitor as monitor_mod
from repro.dift.engine import RAISE, RECORD
from repro.gen.campaign import make_matrix
from repro.gen.generator import iter_cases
from repro.policy import builders
from repro.sw import dhrystone, immobilizer, qsort, sensor_app, sha512
from repro.sysc.time import SimTime
from repro.vp.config import DEFAULT_SEED, PlatformConfig
from repro.vp.platform import Platform

from layers import RUNGS


@dataclass(frozen=True)
class Profile:
    """Input sizes: ``full`` for measurement, ``quick`` for smoke tests."""

    name: str
    compute_cap: int        # retired-instruction cap per compute guest
    sensor_frames: int
    immo_rounds: int
    attack_cases: int
    campaign_cap: int       # instruction cap of compute campaign jobs
    campaign_seeds: int     # PlatformConfig seeds per compute/io job
    min_reps: int           # op-phase repetitions, at least
    min_campaigns: int      # campaign-phase legs, at least


PROFILES = {
    "full": Profile("full", compute_cap=120_000, sensor_frames=160,
                    immo_rounds=64, attack_cases=20, campaign_cap=20_000,
                    campaign_seeds=2, min_reps=5, min_campaigns=5),
    "quick": Profile("quick", compute_cap=30_000, sensor_frames=12,
                     immo_rounds=6, attack_cases=3, campaign_cap=4_000,
                     campaign_seeds=1, min_reps=2, min_campaigns=2),
}

#: compute input sizes, small enough that the cap lands in the kernels:
#: qsort's in-guest fill loop retires 6 instructions per element (12,025
#: before ``qsort`` is entered, 10% of a 120k cap) and sha512's message
#: loop 7 per byte (8,131 before the first ``sha512_block``, 6.8%)
QSORT_N = 2000
SHA512_BYTES = 1024

#: op timings are CPU seconds of this thread: time the hypervisor
#: spends running other guests on this vCPU is not charged to an op.
#: Neither is the op's own off-CPU time (blocking writes of the event
#: stream, sleeps); each run's wall time is kept next to it for the
#: per-layer ``dift.events.offcpu_ratio``
cpu_clock = time.thread_time

#: iterations of the calibration loop (about 1 ms)
CALIBRATION_ITERS = 4500
#: the calibration loop's CPU time on the reference host, a 2-vCPU Xeon
#: VM with CPython 3.11; op times are scaled to this host speed
REFERENCE_CALIBRATION_S = 0.001
#: calibration loops per process in :func:`calibrate_pair`
PAIR_LOOPS = 10

#: share of ``--seconds`` given to the op phase; the campaign phase
#: gets the rest
OPS_SHARE = 0.55
#: a run stops adding repetitions or campaign legs past this many
#: seconds, even below the minimums, so one workload always ends well
#: inside 180 s
HARD_LIMIT_S = 120.0
#: attack guests stop here at the latest (they retire ~2-4k instructions)
ATTACK_BUDGET = 200_000


# ---------------------------------------------------------------------- #
# host-speed calibration
# ---------------------------------------------------------------------- #

def _loop() -> None:
    regs = [0] * 32
    table = {}
    acc = 0
    for i in range(CALIBRATION_ITERS):
        value = (regs[(i * 5) & 31] + i * 7) & 0xFFFFFFFF
        regs[i & 31] = value
        table[value & 0xFF] = acc
        acc = (acc ^ table.get((i * 3) & 0xFF, i)) & 0xFFFF


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop shaped like the ISS's
    (register list, table dict, masked integer arithmetic).

    It runs between ops; how much slower than on the reference host it
    runs next to an op is how much slower the host was for that op.  It
    touches no ``repro`` code, so a change to the simulator cannot move
    it.
    """
    started = cpu_clock()
    _loop()
    return cpu_clock() - started


def calibrate_pair() -> float:
    """Wall seconds of the calibration loop in two forked processes run
    at once: each times :data:`PAIR_LOOPS` loops and keeps its fastest,
    and the two are averaged.

    The campaign leg runs forked workers on both vCPUs and is timed by
    wall clock, so it is scaled by a calibration of the same shape: the
    one-thread :func:`calibrate` sees only the vCPU this process is on.
    The fastest loop tracks the host's speed without the spikes a single
    loop can catch.
    """
    children = []
    for __ in range(2):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:    # child: time the loops, report, leave at once
            try:
                fastest = float("inf")
                for __ in range(PAIR_LOOPS):
                    started = time.perf_counter()
                    _loop()
                    fastest = min(fastest, time.perf_counter() - started)
                os.write(write_end, struct.pack("d", fastest))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    total = 0.0
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as handle:
            total += struct.unpack("d", handle.read(8))[0]
        os.waitpid(pid, 0)
    return total / 2


# ---------------------------------------------------------------------- #
# guests
# ---------------------------------------------------------------------- #

def _nothing(platform, stimulus) -> None:
    return None


@dataclass
class Guest:
    """One guest program and how to boot it.

    ``build`` returns ``(program, policy, stimulus)``; the policy is used
    on the VP+ rungs only and ``stimulus`` is handed to ``prepare``.
    """

    gid: str
    build: Callable[[], tuple]
    #: "budget" / "halt" (must stop that way, clean), "attack", "benign"
    expect: str
    budget: Optional[int] = None
    engine_mode: str = RAISE
    config: dict = field(default_factory=dict)
    externals: Callable = _nothing
    prepare: Callable = _nothing

    @property
    def vp_same(self) -> bool:
        """Does plain VP compute exactly what VP+ computes?"""
        return self.expect != "attack"


def _derive(seed: int, label: str) -> int:
    """A 32-bit input seed; stable across processes and Python builds."""
    return random.Random(f"hostbench/{label}/{seed}").getrandbits(32)


def compute_guests(seed: int, profile: Profile) -> List[Guest]:
    # seed 0 keeps the registry's LCG seeds
    qsort_seed = 0x1234_5678 if seed == 0 else _derive(seed, "qsort")
    sha_seed = 0xBEEF if seed == 0 else _derive(seed, "sha512")
    cap = profile.compute_cap
    return [
        Guest("dhrystone", lambda: (dhrystone.build(iterations=5000),
                                    benchmark_policy(), None),
              "budget", cap),
        Guest("qsort", lambda: (qsort.build(n=QSORT_N, seed=qsort_seed),
                                benchmark_policy(), None),
              "budget", cap),
        Guest("sha512", lambda: (sha512.build(n=SHA512_BYTES, seed=sha_seed),
                                 benchmark_policy(), None),
              "budget", cap),
    ]


def io_guests(seed: int, profile: Profile) -> List[Guest]:
    platform_seed = DEFAULT_SEED if seed == 0 else _derive(seed, "platform")
    ecu_seed = 0xC0FFEE if seed == 0 else _derive(seed, "ecu")
    frames = profile.sensor_frames
    rounds = profile.immo_rounds

    def build_immo():
        program = immobilizer.build(variant="fixed", n_challenges=rounds)
        return program, baseline_policy(program), None

    def immo_externals(platform, stimulus) -> None:
        platform.register_external("engine_ecu", EngineEcu(
            platform.can_bus, PIN, n_challenges=rounds, seed=ecu_seed))

    def immo_prepare(platform, stimulus) -> None:
        platform.uart.feed(b"c")
        platform.external("engine_ecu").start()

    return [
        Guest("simple-sensor",
              lambda: (sensor_app.build(n_frames=frames),
                       benchmark_policy(), None),
              "halt", config={"sensor_period": SimTime.us(100),
                              "seed": platform_seed}),
        Guest("immo-fixed", build_immo, "halt",
              config={"aes_declassify_to": builders.LC_LI,
                      "seed": platform_seed},
              externals=immo_externals, prepare=immo_prepare),
    ]


def attack_guests(seed: int, profile: Profile) -> List[Guest]:
    stream = iter_cases(seed)
    guests = []
    for __ in range(profile.attack_cases):
        case = next(stream)
        for index, variant in enumerate(("attack", "benign")):
            def build(case=case, index=index):
                program, attack_input, benign_input = case.build()
                feed = (attack_input, benign_input)[index]
                return program, case.policy(program), feed

            guests.append(Guest(
                f"{case.case_seed:08x}/{variant}", build, variant,
                budget=ATTACK_BUDGET, engine_mode=RECORD,
                prepare=lambda platform, feed: platform.uart.feed(feed)))
    return guests


GUESTS = {"compute": compute_guests, "io": io_guests,
          "attacks": attack_guests}


def campaign_specs(workload: str, seed: int, profile: Profile) -> list:
    """The campaign leg: this workload's guests as campaign jobs.

    Every workload has one, because a run of a single workload reports
    every end-to-end metric, ``jobs_per_s`` included.  The attack leg
    runs in full DIFT mode only: the ops already cover
    demand mode, and a shorter leg fits more legs into a run.
    """
    if workload == "attacks":
        document = make_matrix(seed, profile.attack_cases,
                               dift_modes=("full",))
    else:
        seeds = [_derive(seed, f"job{i}") for i in range(
            profile.campaign_seeds)]
        document = {
            "schema": "repro.campaign.matrix/1",
            "axes": {"policy": ["none", "default"],
                     "dift_mode": ["full", "demand"], "seed": seeds},
        }
        if workload == "compute":
            document["axes"]["workload"] = ["dhrystone", "qsort", "sha512"]
            document["defaults"] = {"scale": "full",
                                    "max_instructions": profile.campaign_cap}
        else:
            document["axes"]["workload"] = ["simple-sensor", "immo-fixed"]
            document["defaults"] = {"scale": "quick"}
    return parse_matrix(document, source=f"<{workload}>").jobs()


# ---------------------------------------------------------------------- #
# one op
# ---------------------------------------------------------------------- #

def _config(guest: Guest, rung: str, policy, stream: Optional[str]):
    if rung == "vp":
        return PlatformConfig(**guest.config)
    extra = {"vppd": {"dift_mode": "demand"},
             "vpp_jit": {"jit": True},
             "vpp_rec": {"engine_mode": RECORD, "record_events": stream},
             }.get(rung, {})
    fields = {"policy": policy, "engine_mode": guest.engine_mode}
    fields.update(guest.config)
    fields.update(extra)
    return PlatformConfig(**fields)


def _violations(records) -> list:
    return [(v.kind, v.tag, v.required, v.unit, v.pc, v.context)
            for v in records]


def _verdict(guest: Guest, rung: str, result, console: bytes) -> str:
    """Empty when the stop fits the guest, else what is wrong."""
    got = f"stop={result.reason!r} exit={result.exit_code}"
    n = len(result.violations)
    if guest.expect == "attack":
        if rung == "vp":
            if not (result.reason == "halt" and result.exit_code == 0
                    and b"X" in console):
                return f"exploit inert on plain VP ({got})"
        elif not (n and result.reason == "security"):
            return f"attack missed ({got}, violations={n})"
        return ""
    want = "budget" if guest.expect == "budget" else "halt"
    if result.reason != want or result.exit_code != 0:
        return f"expected stop={want!r} exit=0, got {got}"
    if n:
        what = ("benign twin flagged" if guest.expect == "benign"
                else "unexpected violations")
        return f"{what} ({n})"
    return ""


class Ladder:
    """Runs one workload's two phases and keeps what they measured."""

    def __init__(self, workload: str, seed: int, profile: Profile,
                 workdir: str, expected: Optional[dict], tracer=None):
        self.workload = workload
        self.profile = profile
        self.workdir = workdir
        self.guests = GUESTS[workload](seed, profile)
        self.specs = campaign_specs(workload, seed, profile)
        self.workers = max(1, min(2, len(os.sched_getaffinity(0))))
        self.tracer = tracer
        #: reference signatures: gid -> {"vp"|"vpp": signature}
        self.refs: Dict[str, dict] = {}
        self.observed: Dict[str, dict] = {}
        self.ops = 0
        self.failures: List[str] = []
        if expected is not None:
            missing = [g.gid for g in self.guests if g.gid not in expected]
            if missing:
                self._fail(f"no committed seed-0 expectation for "
                           f"{len(missing)} guest(s), e.g. {missing[0]} "
                           f"(run with --refresh-expected)")
            self.refs = {gid: dict(sig) for gid, sig in expected.items()}
        #: timed repetitions of the op phase, and legs of the campaign phase
        self.reps: List[dict] = []
        self.campaigns: List[dict] = []
        #: the latest calibrations, shared by the ops (legs) on either side
        self._cal = 0.0
        self._pair = 0.0

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    # ---- ops ------------------------------------------------------------ #

    def _phase(self, name: str, traced: bool):
        if traced:
            return self.tracer.span(f"setup.{name}", f"setup.{name}")
        return nullcontext()

    def _boot_and_run(self, guest: Guest, rung: str, stream: Optional[str],
                      traced: bool) -> tuple:
        """``(platform, result, setup CPU seconds, run CPU seconds, run
        wall seconds)``."""
        started = cpu_clock()
        with self._phase("build", traced):
            program, policy, stimulus = guest.build()
        with self._phase("platform", traced):
            platform = Platform.from_config(
                _config(guest, rung, policy, stream))
        if traced:
            self.tracer.instrument(platform)
        with self._phase("load", traced):
            platform.load(program)
        with self._phase("prepare", traced):
            guest.externals(platform, stimulus)
            guest.prepare(platform, stimulus)
        booted = cpu_clock()
        wall = time.perf_counter()
        result = platform.run(max_instructions=guest.budget)
        if stream is not None:
            # a budget stop leaves the stream open; seal it
            platform.finish_recording()
        return (platform, result, booted - started, cpu_clock() - booted,
                time.perf_counter() - wall)

    def _check(self, guest: Guest, rung: str, label: str, platform,
               result) -> None:
        """Compare one op's outcome with its expectation and reference."""
        console = bytes(platform.uart.tx_log)
        problem = _verdict(guest, rung, result, console)
        signature = {
            "instructions": result.instructions,
            "sim_us": result.sim_time.ps / 1e6,
            "reason": result.reason,
            "exit_code": result.exit_code,
            "console_sha256": hashlib.sha256(console).hexdigest(),
            "violations": len(result.violations),
            "violations_sha256": hashlib.sha256(repr(_violations(
                result.violations)).encode()).hexdigest(),
        }
        cls = "vp" if rung == "vp" and not guest.vp_same else "vpp"
        self.observed.setdefault(guest.gid, {}).setdefault(cls, signature)
        ref = self.refs.setdefault(guest.gid, {}).setdefault(cls, signature)
        if ref != signature:
            diff = sorted(k for k in signature if signature[k] != ref.get(k))
            problem = problem or (
                "differs from the reference in " + ", ".join(
                    f"{k} ({signature[k]!r} != {ref.get(k)!r})"
                    for k in diff))
        if problem:
            self._fail(f"{label}: {problem}")

    @staticmethod
    def _collect(platform, result, stats: dict) -> None:
        """Per-op counts for the per-layer metrics (outside the timing)."""
        def add(key, value):
            stats[key] = stats.get(key, 0) + value

        add("violations", len(result.violations))
        add("sim_us", result.sim_time.ps / 1e6)
        add("delta_cycles", platform.kernel.delta_count)
        add("txns", platform.router.transactions_routed)
        if platform.engine is not None:
            add("checks", platform.engine.checks_performed)
        live = platform.cpu.liveness
        if live is not None:
            add("fast_steps", live.fast_steps)
            add("slow_steps", live.slow_steps)
            add("reclaims", live.reclaims)
            add("reclaim_attempts", live.reclaim_attempts)
            add("pages_scanned", live.pages_scanned)
        jit = platform.jit
        if jit is not None:
            add("blocks_compiled", jit.stats.compiled)
            add("side_exits", jit.stats.side_exits)
            add("invalidations", jit.stats.invalidated_blocks)
            add("trace_instructions", jit.stats.trace_instructions)

    def _reanalyze(self, label: str, path: str, live: list,
                   traced: bool) -> tuple:
        """Offline re-analysis of the stream the recording rung wrote:
        ``(CPU seconds, events, stream bytes)``."""
        size = os.path.getsize(path)
        started = cpu_clock()
        with (self.tracer.span("reanalyze_stream", "dift.monitor")
              if traced else nullcontext()):
            result = monitor_mod.reanalyze_stream(path)
        elapsed = cpu_clock() - started
        if _violations(result.violations) != live:
            self._fail(f"{label}: reanalysis found "
                       f"{len(result.violations)} violation(s), the live "
                       f"run {len(live)}")
        return elapsed, result.events, size

    def _op(self, guest: Guest, rung: str, rep: dict, traced: bool) -> None:
        """One guest on one rung (the recording rung adds its reanalysis),
        then the calibration that, with the one before, scales its times.
        """
        self.ops += 1
        label = f"{self.workload}/{guest.gid}@{rung}"
        stream = (os.path.join(self.workdir, "stream.ev")
                  if rung == "vpp_rec" else None)
        if traced:
            self.tracer.rung = rung
        started = cpu_clock()
        try:
            with self.tracer.class_hooks() if traced else nullcontext():
                platform, result, setup_s, run_s, wall_s = self._boot_and_run(
                    guest, rung, stream, traced)
                reanalysis = stream and self._reanalyze(
                    label, stream, _violations(result.violations), traced)
        except Exception as exc:   # an op that raised is a failed op
            self._fail(f"{label}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            elapsed = cpu_clock() - started
            # collect each op's garbage outside the timed regions
            gc.collect()
            before, self._cal = self._cal, calibrate()
        scale = 2 * REFERENCE_CALIBRATION_S / (before + self._cal)
        self._check(guest, rung, label, platform, result)
        slot = rep["rungs"][rung]
        self._collect(platform, result, slot["stats"])
        slot["op_instr"][guest.gid] = result.instructions
        slot["op_s"][guest.gid] = run_s * scale
        slot["cpu_s"] += run_s
        slot["wall_s"] += wall_s
        slot["setup_s"].append(setup_s * scale)
        rep["ops_s"] += elapsed * scale
        rep["scales"].append(scale)
        if reanalysis:
            seconds, events, size = reanalysis
            out = rep["reanalyze"]
            out["op_instr"][guest.gid] = result.instructions
            out["op_s"][guest.gid] = seconds * scale
            out["events"] += events
            out["bytes"] += size

    def repetition(self, index: int, traced: bool) -> dict:
        """Every guest on every rung.

        Guest-major: each guest runs on all five rungs back to back, the
        rung order rotated by one per guest and per repetition, so a
        burst of host noise lands on every rung alike instead of on
        whichever rung happened to own that stretch of the repetition.
        Times are CPU seconds scaled to the reference host; ``ops_s``
        covers whole ops (boot, run, reanalysis, tracing).  ``cpu_s`` and
        ``wall_s`` are the unscaled CPU and wall seconds of the runs, for
        the off-CPU share.
        """
        rep = {"traced": traced, "ops_s": 0.0, "scales": [],
               "rungs": {rung: {"setup_s": [], "stats": {},
                                "op_instr": {}, "op_s": {},
                                "cpu_s": 0.0, "wall_s": 0.0}
                         for rung in RUNGS},
               "reanalyze": {"events": 0, "bytes": 0,
                             "op_instr": {}, "op_s": {}}}
        if traced and not any(r["traced"] for r in self.reps):
            self.tracer.recording = True
        for position, guest in enumerate(self.guests):
            shift = (index + position) % len(RUNGS)
            for rung in RUNGS[shift:] + RUNGS[:shift]:
                self._op(guest, rung, rep, traced)
        if traced:
            self.tracer.recording = False
        return rep

    # ---- the campaign leg ----------------------------------------------- #

    def campaign_leg(self) -> Optional[dict]:
        """A cold ``run_campaign``, then a fully cached re-run.

        ``scale`` comes from the paired calibrations on either side of
        the cold run.  Every job of both runs counts as an op.
        """
        root = os.path.join(self.workdir, "campaign")
        n = len(self.specs)
        self.ops += 2 * n
        try:
            cache = ResultCache(os.path.join(root, "cache"))
            cold = run_campaign(self.specs, jobs=self.workers,
                                log_dir=os.path.join(root, "cold"),
                                cache=cache)
            before, self._pair = self._pair, calibrate_pair()
            cached = run_campaign(self.specs, jobs=self.workers,
                                  log_dir=os.path.join(root, "cached"),
                                  cache=cache)
        except Exception as exc:
            self._fail(f"{self.workload}: campaign raised "
                       f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(root, ignore_errors=True)
            gc.collect()
        for label, outcome in (("cold", cold), ("cached", cached)):
            for record in outcome.records:
                if record.status != "ok":
                    self._fail(f"{self.workload}: {label} campaign job "
                               f"{record.job.job_id} is {record.status}")
        if (deterministic_view(aggregate(cold.records))
                != deterministic_view(aggregate(cached.records))):
            self._fail(f"{self.workload}: cached campaign aggregate differs "
                       "from the cold one outside timing")
        return {
            "jobs": n, "workers": self.workers,
            "cold_s": cold.wall_seconds,
            # reference-host seconds per wall second of the cold run
            "scale": 2 * REFERENCE_CALIBRATION_S / (before + self._pair),
            "cached_s": cached.wall_seconds,
            "hits": cached.cache_hits,
            "job_run_s": sum(r.timing.get("wall_seconds", 0.0)
                             for r in cold.records),
        }

    # ---- the run -------------------------------------------------------- #

    def _late(self, started: float, count: int, what: str) -> bool:
        if time.perf_counter() - started < HARD_LIMIT_S:
            return False
        self._fail(f"{self.workload}: only {count} {what} fit in "
                   f"{HARD_LIMIT_S:.0f} s")
        return True

    def run(self, seconds: float, trace: bool) -> None:
        """Both phases: each an untimed warm-up, then timed rounds until
        its share of ``seconds`` and its minimum count are met.

        With tracing, op-phase repetitions alternate untraced/traced so
        the tracing overhead is measured in the same process.  The
        campaign runs in worker processes and is never traced.
        """
        # long-lived objects (modules, guest closures) leave the
        # collector's view, so per-op collections only scan op garbage
        gc.collect()
        gc.freeze()
        self._cal = calibrate()
        self.repetition(0, traced=False)
        started = time.perf_counter()
        index = 0
        while (index < self.profile.min_reps
               or time.perf_counter() - started < OPS_SHARE * seconds):
            if self._late(started, index, "repetition(s)"):
                return
            self.reps.append(self.repetition(
                index, traced=trace and index % 2 == 1))
            index += 1
        self._pair = calibrate_pair()
        self.campaign_leg()
        legs = 0
        while (legs < self.profile.min_campaigns
               or time.perf_counter() - started < seconds):
            if self._late(started, legs, "campaign leg(s)"):
                return
            leg = self.campaign_leg()
            if leg is not None:
                self.campaigns.append(leg)
            legs += 1

