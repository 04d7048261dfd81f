#!/usr/bin/env python3
"""Host-speed benchmark of the VP / VP+ reproduction (Table II's yardstick).

Run it from the repository root::

    python3 hostbench/suite.py run [--workload W]... [--seed S]
        [--seconds T] [--trace 0|1] [--trace-out FILE] [--out FILE]
        [--quick] [--refresh-expected]
    python3 hostbench/suite.py compare A.json B.json

``run`` measures each workload in its own child process, one at a time,
prints every metric as ``workload metric value unit`` with its median,
quartiles and n, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` swaps
the end-to-end metrics for the per-layer ones.  The exit code is
non-zero when an op failed or the benchmark could not run (then no JSON
line is printed).  See README.md for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected_seed0.json")
#: scratch space for event streams, campaign logs and child results;
#: kept inside the checkout and removed after each workload
WORKDIR = os.path.join(HERE, ".work")

WORKLOADS = ("compute", "io", "attacks")
DEFAULT_SECONDS = 40.0
#: a workload's child is killed past this (the whole run must end < 180 s)
CHILD_TIMEOUT_S = 170.0

RUNG_METRICS = (("vp_mips", "vp"), ("vpp_mips", "vpp"),
                ("vppd_mips", "vppd"), ("vpp_jit_mips", "vpp_jit"),
                ("vpp_rec_mips", "vpp_rec"))


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _spec() -> dict:
    """BENCHMARK.json: every metric's name, unit, direction and bound."""
    return _load_json(BENCHMARK_JSON)


# ---------------------------------------------------------------------- #
# child: one workload, in-process
# ---------------------------------------------------------------------- #

def _mips(slot: dict) -> float:
    return sum(slot["op_instr"].values()) / sum(slot["op_s"].values()) / 1e6


def _op_median_mips(slots: list) -> float:
    """Σ instructions / Σ per-op median seconds, in MIPS.

    ``slots`` holds one ``{"op_instr": {...}, "op_s": {...}}`` per
    repetition.  Taking the median per op, across repetitions that lie
    seconds apart, discards the host-noise bursts of a shared machine
    that a median of whole-repetition sums still absorbs.
    """
    times, instr = {}, {}
    for slot in slots:
        for gid, seconds in slot["op_s"].items():
            times.setdefault(gid, []).append(seconds)
            instr[gid] = slot["op_instr"][gid]
    total = sum(statistics.median(values) for values in times.values())
    return sum(instr.values()) / total / 1e6 if total else 0.0


def end_to_end(reps: list, campaigns: list, rss_mb: float) -> dict:
    """Every end-to-end metric over the untraced repetitions and the
    campaign legs.

    Times are reference-host seconds (see ``ladder.calibrate``).  The
    MIPS metrics are medians over repetitions taken per op (see
    :func:`_op_median_mips`); their quartiles are those of the
    per-repetition values Σ instructions / Σ seconds.
    """
    from verdict import summarize

    samples, centers = {}, {}
    rung_slots = {name: [rep["rungs"][rung] for rep in reps]
                  for name, rung in RUNG_METRICS}
    rung_slots["reanalyze_mips"] = [rep["reanalyze"] for rep in reps]
    for name, slots in rung_slots.items():
        samples[name] = [_mips(slot) for slot in slots if slot["op_s"]]
        centers[name] = _op_median_mips(slots)
    samples["setup_s"] = [seconds for rep in reps
                          for slot in rep["rungs"].values()
                          for seconds in slot["setup_s"]]
    samples["peak_rss_mb"] = [rss_mb]
    samples["jobs_per_s"] = [leg["jobs"] / (leg["cold_s"] * leg["scale"])
                             for leg in campaigns]
    return {entry["name"]: dict(summarize(samples[entry["name"]],
                                          centers.get(entry["name"])),
                                unit=entry["unit"])
            for entry in _spec()["end_to_end"]}


def cmd_child(args) -> int:
    sys.path.insert(0, SRC)
    import ladder
    import layers

    profile = ladder.PROFILES["quick" if args.quick else "full"]
    expected = None
    if args.seed == 0 and not args.refresh_expected:
        committed = _load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
        expected = committed.get(profile.name, {}).get(args.workload, {})
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = layers.Tracer() if args.trace else None
        bench = ladder.Ladder(args.workload, args.seed, profile, workdir,
                              expected, tracer)
        started = time.perf_counter()
        bench.run(args.seconds, bool(args.trace))
        measured = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = [rep for rep in bench.reps if not rep["traced"]]
    traced = [rep for rep in bench.reps if rep["traced"]]
    scales = [scale for rep in bench.reps for scale in rep["scales"]]
    record = {
        "workload": args.workload, "seed": args.seed,
        "profile": profile.name, "trace": bool(args.trace),
        "reps": len(bench.reps), "campaign_legs": len(bench.campaigns),
        "measured_s": measured,
        # reference-host seconds per CPU second, median over ops
        "host_scale": statistics.median(scales) if scales else 0.0,
        "ops": bench.ops, "failed_ops": len(bench.failures),
        "failures": bench.failures[:50],
        "end_to_end": end_to_end(untraced, bench.campaigns, rss_mb),
        "per_layer": {},
        "observed": bench.observed,
    }
    if tracer is not None:
        record["per_layer"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.derive(
                tracer, traced, untraced, bench.campaigns).items()}
        if args.trace_out:
            tracer.write_chrome(args.trace_out)
    with open(args.result, "w") as handle:
        json.dump(record, handle)
    return 0


# ---------------------------------------------------------------------- #
# parent: spawn, report
# ---------------------------------------------------------------------- #

def _child_argv(args, workload: str, result: str, trace_out: str) -> list:
    argv = [sys.executable, os.path.abspath(__file__), "child",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--result", result]
    if trace_out:
        argv += ["--trace-out", trace_out]
    if args.quick:
        argv.append("--quick")
    if args.refresh_expected:
        argv.append("--refresh-expected")
    return argv


def _spawn(args, workload: str, trace_out: str):
    """Run one workload's child process; its record, or None."""
    os.makedirs(WORKDIR, exist_ok=True)
    result = os.path.join(WORKDIR, f"result-{workload}-{os.getpid()}.json")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               TMPDIR=WORKDIR)
    # the child leads its own process group, campaign workers included,
    # so one killpg stops all of it
    proc = subprocess.Popen(_child_argv(args, workload, result, trace_out),
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:
        if code != 0:
            print(f"error: {workload} child exited with code {code}",
                  file=sys.stderr)
            return None
        return _load_json(result)
    except (OSError, ValueError) as exc:
        print(f"error: {workload} produced no result ({exc})",
              file=sys.stderr)
        return None
    finally:
        if os.path.exists(result):
            os.remove(result)


def _trace_path(base: str, workload: str, several: bool) -> str:
    if not base or not several:
        return base and os.path.abspath(base)
    stem, ext = os.path.splitext(os.path.abspath(base))
    return f"{stem}.{workload}{ext or '.json'}"


def _print_record(name: str, record: dict) -> None:
    for metric, s in record["end_to_end"].items():
        if "median" not in s or record["trace"]:
            continue
        line = (f"{name} {metric} {s['median']:.6g} {s['unit']}  "
                f"median={s['median']:.6g} q1={s['q1']:.6g} "
                f"q3={s['q3']:.6g} n={s['n']}")
        if "p90" in s:
            line += f" p90={s['p90']:.6g}"
        print(line)
    for metric, m in record["per_layer"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} ops {record['ops']} failed_ops {record['failed_ops']} "
          f"reps {record['reps']} campaign_legs {record['campaign_legs']} "
          f"host_scale {record['host_scale']:.4f}")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}")


def _final_metrics(records: dict, spec: dict, trace: int) -> dict:
    """The metrics of the last JSON line, exactly those BENCHMARK.json
    lists; raises KeyError naming one that was not produced."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    several = len(records) > 1
    out = {}
    for workload, record in records.items():
        for entry in wanted:
            name = entry["name"]
            if trace:
                got = record["per_layer"].get(name)
                value = got and got["value"]
            else:
                got = record["end_to_end"].get(name)
                value = got and got.get("median")
            if got is None or value is None or got["unit"] != entry["unit"]:
                raise KeyError(f"{workload}: metric {name} ({entry['unit']}) "
                               "was not produced")
            key = f"{workload}.{name}" if several else name
            out[key] = {"value": value, "unit": entry["unit"]}
    return out


def _refresh_expected(records: dict) -> None:
    committed = _load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
    for workload, record in records.items():
        committed.setdefault(record["profile"], {})[workload] = \
            record["observed"]
    with open(EXPECTED, "w") as handle:
        json.dump(committed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(EXPECTED, ROOT)}", file=sys.stderr)


def cmd_run(args) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.refresh_expected and args.seed != 0:
        print("error: --refresh-expected needs --seed 0", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    several = len(workloads) > 1
    records = {}
    for workload in workloads:
        record = _spawn(args, workload,
                        _trace_path(args.trace_out, workload, several))
        if record is None:
            return 2
        records[workload] = record
        _print_record(workload, record)
    spec = _spec()
    try:
        metrics = _final_metrics(records, spec, args.trace)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": "hostbench.result/1", "seed": args.seed,
                       "workloads": records}, handle, indent=1)
            handle.write("\n")
    if args.refresh_expected:
        _refresh_expected(records)
    attempted = sum(r["ops"] for r in records.values())
    failed = sum(r["failed_ops"] for r in records.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def cmd_compare(args) -> int:
    from verdict import compare

    a, b = _load_json(args.a), _load_json(args.b)
    metrics = {entry["name"]: entry for entry in _spec()["end_to_end"]}
    lines, ok = compare(a, b, metrics)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="VP/VP+ host-speed benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "child"):
        p = sub.add_parser(name, help=("measure workloads" if name == "run"
                                       else argparse.SUPPRESS))
        p.add_argument("--workload", action="append" if name == "run"
                       else "store", choices=WORKLOADS,
                       required=name == "child")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None,
                       help=f"timed seconds per workload (default "
                            f"{DEFAULT_SECONDS:g}; 1 with --quick)")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: report per-layer metrics from a traced run")
        p.add_argument("--trace-out", default="",
                       help="write the traced spans as Chrome trace JSON")
        p.add_argument("--quick", action="store_true",
                       help="tiny inputs and 2 repetitions (smoke test)")
        p.add_argument("--refresh-expected", action="store_true",
                       help="rewrite the committed seed-0 expectations")
        if name == "run":
            p.add_argument("--out", default="",
                           help="write the full record (for compare)")
        else:
            p.add_argument("--result", required=True)
    p = sub.add_parser("compare", help="compare two --out records")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return cmd_compare(args)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else DEFAULT_SECONDS
    if args.command == "child":
        return cmd_child(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
