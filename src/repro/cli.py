"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``asm``          assemble a guest source file to a flat binary (+ listing)
``disasm``       disassemble a flat binary
``run``          run a guest on the VP, optionally with a JSON policy (VP+)
``table1``       regenerate the paper's Table I (code-injection suite)
``table2``       regenerate the paper's Table II (DIFT overhead)
``casestudy``    run the Section VI-A immobilizer case study
``locdelta``     the Section V-B1 LoC integration-cost measurement
``report``       run every experiment and emit a markdown report
``differential`` VP-vs-VP+ differential testing on random programs
``fuzz``         adversarial attack-corpus generation + differential oracles
``policyfuzz``   policy stress-fuzzing of the immobilizer firmware
``campaign``     parallel simulation campaigns (``run`` / ``report``)
``worker``       attach to a campaign broker and pull jobs over TCP
``serve``        campaign-as-a-service: the HTTP submission API
``snapshot``     checkpoint/restore (``save`` / ``resume`` / ``diff``)
``replay``       snapshot-resume replay-equivalence verification
``reanalyze``    replay a recorded event stream offline (new policies,
                 no guest re-run)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.asm import assemble, disassemble
from repro.dift.engine import RAISE, RECORD
from repro.policy.serialize import policy_from_dict
from repro.vp.config import PlatformConfig
from repro.vp.cpu import DIFT_MODES
from repro.vp.platform import Platform


def _cmd_asm(args) -> int:
    with open(args.source) as handle:
        program = assemble(handle.read(), base=args.base)
    out = args.output or (args.source.rsplit(".", 1)[0] + ".bin")
    with open(out, "wb") as handle:
        handle.write(program.image)
    print(f"{out}: {program.size} bytes, {program.n_instructions} "
          f"instructions, entry {program.entry:#x}")
    if args.listing:
        for address, line, text in program.listing:
            print(f"  {address:08x}  {text}")
    return 0


def _cmd_disasm(args) -> int:
    with open(args.binary, "rb") as handle:
        image = handle.read()
    for line in disassemble(image, base=args.base):
        print(line)
    return 0


def _load_policy(path: Optional[str]):
    if path is None:
        return None
    with open(path) as handle:
        return policy_from_dict(json.load(handle))


# --------------------------------------------------------------------- #
# shared output-destination handling
#
# One idiom across every command: file-valued flags (--output, --json,
# --metrics-out, ...) accept '-' for stdout; directory-valued flags
# (--out) never do.  Destinations are validated *before* any expensive
# work — the export is the last step of a potentially minutes-long run.
# --------------------------------------------------------------------- #

#: the shared flags add_output_args() knows how to attach
_OUTPUT_FLAGS = {
    "output": (("-o", "--output"), "FILE",
               "write here instead of stdout ('-' = stdout)"),
    "json": (("--json",), "FILE",
             "also write a machine-readable JSON report to FILE "
             "('-' = stdout)"),
    "metrics_out": (("--metrics-out",), "FILE",
                    "write a metrics-snapshot JSON to FILE "
                    "('-' = stdout)"),
    "trace_out": (("--trace-out",), "FILE",
                  "write a Chrome trace_event JSON to FILE "
                  "(open in chrome://tracing / Perfetto; '-' = stdout)"),
    "out_dir": (("--out",), "DIR", "output directory"),
}


def add_output_args(parser, *names, **overrides) -> None:
    """Attach shared output flags; ``<name>_help``/``<name>_default``
    keyword overrides customize a flag for one command."""
    for name in names:
        flags, metavar, help_text = _OUTPUT_FLAGS[name]
        parser.add_argument(
            *flags, metavar=metavar,
            dest="out" if name == "out_dir" else name,
            default=overrides.get(f"{name}_default"),
            help=overrides.get(f"{name}_help", help_text))


def resolve_outputs(args, files=(), dirs=()) -> dict:
    """Validate every output destination up front; returns name->path.

    ``files`` entries may be '-' (stdout) but their parent directory
    must exist; ``dirs`` entries reject '-' (a directory cannot be
    stdout) and are created later by the command itself.
    """
    resolved = {}
    for name in files:
        path = getattr(args, name, None)
        if path and path != "-":
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise SystemExit(
                    f"error: output directory {parent!r} does not exist")
        resolved[name] = path
    for name in dirs:
        dest = "out" if name == "out_dir" else name
        path = getattr(args, dest, None)
        if path == "-":
            raise SystemExit(
                "error: this flag names a directory; '-' (stdout) is "
                "not valid here")
        resolved[name] = path
    return resolved


@contextmanager
def open_output(path: Optional[str]):
    """A writable text handle for ``path``; None or '-' yields stdout."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as handle:
            yield handle


def _parse_hostport(value: str,
                    default_host: str = "127.0.0.1") -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = default_host, value
    if not port.isdigit():
        raise SystemExit(f"error: expected HOST:PORT, got {value!r}")
    return host or default_host, int(port)


def _add_obs_options(parser) -> None:
    """Observability options shared by the simulating commands."""
    add_output_args(parser, "metrics_out", "trace_out")
    parser.add_argument("--obs-level", choices=("quantum", "instruction"),
                        default="quantum",
                        help="metric granularity; 'instruction' adds "
                             "per-opcode-group counts but single-steps "
                             "the ISS (slow); only takes effect together "
                             "with --metrics-out / --trace-out")


def _make_obs(args):
    """Build an Observability from CLI flags, or None if none requested."""
    if not (args.metrics_out or args.trace_out):
        return None
    resolve_outputs(args, files=("metrics_out", "trace_out"))
    from repro.obs import Observability

    return Observability(trace=args.trace_out is not None,
                         level=args.obs_level)


def _write_obs(obs, args) -> None:
    if obs is None:
        return
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        if args.metrics_out != "-":
            print(f"metrics: {args.metrics_out}")
    if args.trace_out:
        obs.write_trace(args.trace_out)
        if args.trace_out != "-":
            print(f"trace: {args.trace_out} "
                  f"({len(obs.tracer.events())} events, "
                  f"{obs.tracer.dropped} dropped)")


def _cmd_run(args) -> int:
    with open(args.source) as handle:
        program = assemble(handle.read(), base=args.base)
    policy = _load_policy(args.policy)
    obs = _make_obs(args)
    # stream recording needs a record-mode engine (a raise-mode engine
    # would truncate the stream before its final packets)
    record = args.record or args.record_events is not None
    config = PlatformConfig(policy=policy,
                            engine_mode=RECORD if record else RAISE,
                            obs=obs, dift_mode=args.dift_mode,
                            jit=args.jit,
                            record_events=args.record_events)
    try:
        platform = Platform.from_config(config)
    except ValueError as exc:
        # a configuration the platform rejects (e.g. demand or jit
        # together with --record-events): a usage error, not a finding
        print(f"error: {exc}", file=sys.stderr)
        return 2
    platform.load(program)
    if args.uart_input:
        platform.uart.feed(args.uart_input.encode())
    result = platform.run(max_instructions=args.max_instructions)
    print(f"stopped: {result.reason} (exit={result.exit_code}) after "
          f"{result.instructions} instructions, "
          f"{result.sim_time.to_ms():.3f} ms simulated, "
          f"{result.mips:.2f} MIPS host")
    if platform.console():
        print(f"uart: {platform.console()!r}")
    for violation in result.violations:
        print(f"violation: {violation}")
    if args.record_events is not None:
        # terminal stops already sealed it; budget/idle stops seal here
        platform.finish_recording()
        print(f"event stream: {args.record_events} "
              f"({platform._recorder.count} packets)")
    _write_obs(obs, args)
    return 1 if result.violations else 0


def _cmd_table1(args) -> int:
    from repro.bench import table1

    results = table1.run_suite()
    print(table1.format_table(results))
    missed = [r for r in results if r.result == "MISSED"]
    return 1 if missed else 0


def _cmd_table2(args) -> int:
    from repro.bench.table2 import (
        format_against_paper,
        format_table,
        run_table2,
    )

    rows = run_table2(scale=args.scale)
    print(format_table(rows))
    print()
    print(format_against_paper(rows))
    return 0


def _cmd_casestudy(args) -> int:
    from repro.casestudy import immobilizer as cs

    obs = _make_obs(args)
    results = cs.run_case_study(obs=obs, dift_mode=args.dift_mode)
    print(cs.format_report(results))
    _write_obs(obs, args)
    recovered = cs.capture_and_brute_force()
    print()
    print(f"brute force through the baseline-policy gap: recovered PIN "
          f"byte {recovered:#04x} (actual {cs.PIN[0]:#04x})")
    return 0 if all(r.as_expected for r in results) else 1


def _cmd_report(args) -> int:
    from repro.bench.report import generate, render_markdown

    results = generate(scale=args.scale)
    markdown = render_markdown(results)
    resolve_outputs(args, files=("output",))
    with open_output(args.output) as handle:
        handle.write(markdown if markdown.endswith("\n")
                     else markdown + "\n")
    if args.output and args.output != "-":
        print(f"wrote {args.output}")
    ok = (results["table1"]["missed"] == 0
          and results["casestudy"]["all_as_expected"]
          and results["verification"]["fuzz_sound"]
          == results["verification"]["fuzz_total"])
    return 0 if ok else 1


def _cmd_locdelta(args) -> int:
    from repro.bench import locdelta

    report = locdelta.analyze()
    print(report.summary())
    return 0


def _cmd_differential(args) -> int:
    from repro.verify.differential import sweep
    from repro.verify.reference import compare_with_iss

    results = sweep(range(args.seeds), n_instructions=args.length)
    failures = [r for r in results if not r.equivalent]
    total_instructions = sum(r.instructions for r in results)
    print(f"VP vs VP+: differential-tested {len(results)} programs "
          f"({total_instructions} instructions total): "
          f"{len(results) - len(failures)} equivalent")
    for failure in failures:
        print(f"  seed {failure.seed}: {failure.mismatch}")
    if args.oracle:
        oracle_results = [compare_with_iss(seed, n_instructions=args.length)
                          for seed in range(args.seeds)]
        oracle_failures = [r for r in oracle_results if not r.equivalent]
        print(f"ISS vs reference oracle: "
              f"{len(oracle_results) - len(oracle_failures)}/"
              f"{len(oracle_results)} equivalent")
        for failure in oracle_failures:
            print(f"  seed {failure.seed}: {failure.mismatch}")
        failures = failures + oracle_failures
    return 1 if failures else 0


def _cmd_policyfuzz(args) -> int:
    from repro.verify.policy_fuzz import fuzz_immobilizer, summarize

    outcomes = fuzz_immobilizer(n_runs=args.runs, seed=args.seed)
    print(summarize(outcomes))
    return 0 if all(o.sound for o in outcomes) else 1


def _cmd_fuzz(args) -> int:
    """Adversarial corpus generation: generate, oracle-check, shrink."""
    import hashlib

    from repro.gen import generate_corpus, run_case, save_case, shrink
    from repro.gen.corpus import case_document, default_corpus_dir, dump_case

    resolve_outputs(args, dirs=("out_dir",))
    cases = generate_corpus(args.seed, args.count)
    distinct = {case.spec_hash for case in cases}
    digest = hashlib.sha256()
    for case in cases:
        digest.update(dump_case(case_document(case)).encode())
    print(f"fuzz: seed={args.seed}: {len(cases)} cases, "
          f"{len(distinct)} distinct spec hashes")
    print(f"corpus digest: {digest.hexdigest()}")
    if args.out:
        for case in cases:
            save_case(args.out, case)
        print(f"wrote {len(cases)} case files to {args.out}/")

    failures = []
    for n, case in enumerate(cases, start=1):
        verdict = run_case(case, budget=args.budget)
        if not verdict.passed:
            failures.append(verdict)
            print(f"FAIL {verdict.describe()}")
        if not args.quiet and n % 50 == 0 and n < len(cases):
            print(f"  ... {n}/{len(cases)} cases checked")
    print(f"oracles: {len(cases) - len(failures)}/{len(cases)} green "
          "(invisibility, mode-equivalence, detection)")

    if failures and not args.no_shrink:
        corpus_dir = args.corpus_dir or default_corpus_dir()
        for verdict in failures:
            small, small_verdict = shrink(verdict.case, verdict)
            note = "failed: " + ", ".join(sorted(small_verdict.failures))
            path = save_case(corpus_dir, small, origin="shrunk", note=note)
            print(f"shrunk {verdict.case.name} -> minimal repro {path}")
    return 1 if failures else 0


def _cmd_campaign_run(args) -> int:
    from repro.campaign import (
        MatrixError,
        completed_ids,
        load_jsonl,
        load_matrix,
        run_campaign,
        run_campaign_distributed,
        write_outputs,
    )
    from repro.campaign.cache import CacheError, open_cache
    from repro.campaign.report import JSONL_NAME

    try:
        matrix = load_matrix(args.matrix)
        specs = matrix.jobs()
    except MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resolve_outputs(args, dirs=("out_dir",))
    try:
        cache = open_cache(args.cache_dir,
                           disabled=args.no_cache or not matrix.cache)
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    jsonl_path = os.path.join(args.out, JSONL_NAME)

    total = len(specs)
    prior = []
    if args.resume is not None:
        resume_path = (jsonl_path if args.resume == "auto"
                       else args.resume)
        if os.path.exists(resume_path):
            # any terminal record counts as done: crashed already
            # exhausted its retries, timeout is deliberately final
            wanted = {spec.job_id for spec in specs}
            prior = [record
                     for record in load_jsonl(resume_path, tolerant=True)
                     if record.job.job_id in wanted]
            done = completed_ids(prior)
            specs = [spec for spec in specs if spec.job_id not in done]
            print(f"resume: {len(done)} of {total} jobs already "
                  f"recorded in {resume_path}; {len(specs)} left to run")
        else:
            print(f"resume: no prior results at {resume_path}; "
                  "running the full matrix")

    progress = None if args.quiet else print
    warm = matrix.warm_start or args.warm_start
    records = list(prior)
    wall = 0.0
    cache_hits = 0
    if specs:
        # stream every terminal record to the JSONL as it lands so an
        # interrupted campaign can --resume from whatever finished
        with open(jsonl_path, "w", buffering=1) as stream:
            def emit(record) -> None:
                stream.write(json.dumps(record.to_json(),
                                        sort_keys=True) + "\n")

            for record in prior:
                emit(record)
            if args.listen:
                host, port = _parse_hostport(args.listen)
                result = run_campaign_distributed(
                    specs, host=host, port=port,
                    timeout=args.timeout, retries=args.retries,
                    warm_start=warm, cache=cache,
                    on_record=emit, progress=progress)
            else:
                result = run_campaign(
                    specs, jobs=args.jobs,
                    log_dir=os.path.join(args.out, "logs"),
                    timeout=args.timeout, retries=args.retries,
                    progress=progress, warm_start=warm,
                    cache=cache, on_record=emit)
        records += result.records
        wall = result.wall_seconds
        cache_hits = result.cache_hits

    document = write_outputs(args.out, records, wall_seconds=wall)
    counts = document["jobs"]["by_status"]
    summary = ", ".join(f"{counts[status]} {status}"
                        for status in ("ok", "failed", "crashed", "timeout")
                        if counts.get(status))
    mode_note = (f"--listen {args.listen}" if args.listen
                 else f"--jobs {args.jobs}")
    print(f"campaign: {len(records)} jobs in "
          f"{wall:.2f}s with {mode_note}: {summary}")
    if cache is not None:
        print(f"cache: {cache_hits} of {len(records)} jobs served from "
              f"{cache.root}")
    if prior:
        print(f"resume: {len(prior)} records carried over")
    print(f"results: {args.out}/campaign.jsonl, {args.out}/aggregate.json")
    for job_id in document["jobs"]["not_ok"]:
        print(f"  not ok: {job_id}")
    if args.strict and any(not record.ok for record in records):
        print("error: --strict and not every job is ok", file=sys.stderr)
        return 1
    return 0


def _cmd_worker(args) -> int:
    from repro.campaign import run_worker

    host, port = _parse_hostport(args.connect)
    progress = None if args.quiet else print
    try:
        stats = run_worker(host, port, name=args.name,
                           heartbeat=args.heartbeat,
                           connect_timeout=args.connect_timeout,
                           once=args.once, progress=progress)
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    by_status = ", ".join(f"{count} {status}" for status, count
                          in stats["by_status"].items()) or "none"
    print(f"worker: {stats['jobs']} jobs ({by_status})")
    return 0


def _cmd_serve(args) -> int:
    from repro.campaign import serve
    from repro.campaign.cache import CacheError, open_cache

    try:
        cache = open_cache(args.cache_dir, disabled=args.no_cache)
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        serve(host=args.host, port=args.port,
              worker_host=args.worker_host, worker_port=args.worker_port,
              cache=cache, local_workers=args.local_workers,
              data_dir=args.data_dir, progress=print)
    except KeyboardInterrupt:
        # a second Ctrl-C while the first is already shutting things
        # down: serve()'s finally block has run, nothing left to do
        pass
    return 0


def _snapshot_platform(args) -> Platform:
    """Build the platform ``snapshot save`` will checkpoint."""
    from repro.obs import Observability

    if bool(args.workload) == bool(args.source):
        raise SystemExit(
            "error: give exactly one of --workload NAME / --source FILE")
    if args.workload:
        from repro.bench.workloads import get_workload

        workload = get_workload(args.workload)
        dift = not args.plain
        return workload.make_platform(
            args.scale, dift, obs=Observability(),
            dift_mode=args.dift_mode if dift else "full",
            seed=args.seed, engine_mode=RECORD)
    with open(args.source) as handle:
        program = assemble(handle.read(), base=args.base)
    config = PlatformConfig(policy=_load_policy(args.policy),
                            engine_mode=RECORD, obs=Observability(),
                            dift_mode=args.dift_mode, seed=args.seed)
    platform = Platform.from_config(config)
    platform.load(program)
    if args.uart_input:
        platform.uart.feed(args.uart_input.encode())
    return platform


def _cmd_snapshot_save(args) -> int:
    platform = _snapshot_platform(args)
    if args.pause_at is not None:
        result = platform.run(pause_at=args.pause_at,
                              max_instructions=args.max_instructions)
        if result.reason != "paused":
            print(f"note: run ended ({result.reason}) before reaching "
                  f"{args.pause_at} instructions; snapshotting the final "
                  "state", file=sys.stderr)
    platform.save_snapshot(args.output)
    print(f"{args.output}: snapshot at instruction "
          f"{platform.total_instructions}, "
          f"{platform.kernel.now.to_ms():.3f} ms simulated")
    return 0


def _cmd_snapshot_resume(args) -> int:
    from repro.obs import Observability
    from repro.state import SnapshotError

    program = None
    externals = None
    if args.workload:
        from repro.bench.workloads import get_workload

        workload = get_workload(args.workload)
        program = workload.build(args.scale)
        externals = workload.restore_externals(args.scale)
    try:
        platform = Platform.restore(args.snapshot, obs=Observability(),
                                    program=program, externals=externals)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if platform.stop_reason:
        # only paused / boot-state snapshots are resumable: a terminal
        # stop means the guest's SystemC process has already returned
        print(f"snapshot is of a finished run (stopped: "
              f"{platform.stop_reason} after "
              f"{platform.total_instructions} instructions); "
              "nothing to resume")
        if platform.console():
            print(f"uart: {platform.console()!r}")
        return 0
    resumed_from = platform.total_instructions
    result = platform.run(max_instructions=args.max_instructions)
    print(f"stopped: {result.reason} (exit={result.exit_code}) after "
          f"{platform.total_instructions} instructions "
          f"(resumed from {resumed_from}), "
          f"{result.sim_time.to_ms():.3f} ms simulated")
    if platform.console():
        print(f"uart: {platform.console()!r}")
    for violation in result.violations:
        print(f"violation: {violation}")
    return 1 if result.violations else 0


def _cmd_snapshot_diff(args) -> int:
    from repro import state

    try:
        first = state.load_document(args.a)
        second = state.load_document(args.b)
    except state.SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ignore = tuple(args.ignore or ())
    lines = state.diff_documents(first, second, ignore_prefixes=ignore)
    for line in lines:
        print(line)
    if not lines:
        print("snapshots identical"
              + (f" (ignoring {', '.join(ignore)})" if ignore else ""))
    return 1 if lines else 0


def _cmd_replay(args) -> int:
    from repro.verify.replay import format_report, run_replay_suite

    results = run_replay_suite(workloads=args.workloads or None,
                               modes=args.modes,
                               pause_at=args.pause_at,
                               max_instructions=args.max_instructions,
                               jit=args.jit)
    print(format_report(results))
    return 0 if all(r.equivalent for r in results) else 1


def _cmd_reanalyze(args) -> int:
    from repro.dift.events import StreamError
    from repro.dift.monitor import reanalyze_stream

    resolve_outputs(args, files=("json",))
    try:
        override = _load_policy(args.policy)
        result = reanalyze_stream(args.stream, policy=override)
    except (OSError, StreamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = result.header["config"]
    recorded_name = (cfg["policy"] or {}).get("name", "policy")
    policy_name = result.engine.policy.name
    print(f"{args.stream}: {result.events} packets, "
          f"guest ram {cfg['ram_size']} bytes, recorded policy "
          f"{recorded_name!r}")
    print(f"re-analysis under {policy_name!r}: "
          f"{result.engine.checks_performed} checks, "
          f"{len(result.violations)} violations, "
          f"{result.monitor.events_consumed} events consumed")
    for violation in result.violations:
        print(f"violation: {violation}")
    if args.json:
        document = {
            "stream": args.stream,
            "schema": result.header["schema"],
            "policy": policy_name,
            "recorded_policy": recorded_name,
            "events": result.events,
            "checks_performed": result.engine.checks_performed,
            "violations": [
                {"kind": v.kind, "tag": v.tag, "required": v.required,
                 "unit": v.unit, "pc": v.pc, "context": v.context}
                for v in result.violations],
        }
        with open_output(args.json) as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if args.json != "-":
            print(f"report: {args.json}")
    return 1 if result.violations else 0


def _cmd_campaign_report(args) -> int:
    from repro.campaign import aggregate, load_jsonl, render_markdown
    from repro.campaign.report import find_jsonl

    path = find_jsonl(args.results)
    try:
        records = load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: no job records in {path}", file=sys.stderr)
        return 2
    markdown = render_markdown(records, aggregate(records))
    resolve_outputs(args, files=("output",))
    with open_output(args.output) as handle:
        handle.write(markdown)
    if args.output and args.output != "-":
        print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VP-DIFT: DIFT for embedded binaries on a "
                    "SystemC-style RISC-V virtual prototype")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a guest source file")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--base", type=lambda x: int(x, 0), default=0)
    p.add_argument("--listing", action="store_true")
    p.set_defaults(fn=_cmd_asm)

    p = sub.add_parser("disasm", help="disassemble a flat binary")
    p.add_argument("binary")
    p.add_argument("--base", type=lambda x: int(x, 0), default=0)
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("run", help="run a guest on the VP / VP+")
    p.add_argument("source")
    p.add_argument("--policy", help="JSON policy file (enables DIFT)")
    p.add_argument("--base", type=lambda x: int(x, 0), default=0)
    p.add_argument("--uart-input", default="")
    p.add_argument("--max-instructions", type=int, default=None)
    p.add_argument("--record", action="store_true",
                   help="record violations instead of raising")
    p.add_argument("--dift-mode", choices=DIFT_MODES, default="full",
                   help="DIFT execution mode: 'demand' skips tag "
                        "bookkeeping while the machine holds no taint "
                        "(identical detections, lower overhead)")
    p.add_argument("--record-events", metavar="FILE",
                   help="write the waypoint event stream to FILE as a "
                        "repro.dift.events/2 artifact for offline "
                        "re-analysis (implies --record; needs a policy "
                        "and no --jit; --dift-mode demand only under a "
                        "default class above bottom, which runs full)")
    p.add_argument("--jit", action="store_true",
                   help="enable the trace-compiled fast path (identical "
                        "simulation results, higher MIPS)")
    _add_obs_options(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("table1", help="reproduce Table I")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce Table II")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("casestudy", help="run the Section VI-A case study")
    p.add_argument("--dift-mode", choices=DIFT_MODES, default="full",
                   help="DIFT execution mode for every scenario platform")
    _add_obs_options(p)
    p.set_defaults(fn=_cmd_casestudy)

    p = sub.add_parser("locdelta", help="Section V-B1 LoC measurement")
    p.set_defaults(fn=_cmd_locdelta)

    p = sub.add_parser("report",
                       help="run every experiment, emit a markdown report")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    add_output_args(p, "output")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("differential",
                       help="VP vs VP+ differential testing")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--oracle", action="store_true",
                   help="also compare the ISS against the reference "
                        "interpreter")
    p.set_defaults(fn=_cmd_differential)

    p = sub.add_parser(
        "fuzz",
        help="generate an adversarial attack corpus and run the three "
             "differential oracles over every case")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed: the same seed reproduces the "
                        "identical corpus byte-for-byte (default 0)")
    p.add_argument("--count", type=int, default=50, metavar="N",
                   help="distinct cases to generate (default 50)")
    add_output_args(p, "out_dir",
                    out_dir_help="also write every generated case "
                                 "file to DIR")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="where shrunk minimal repros of failing cases "
                        "are committed (default: tests/corpus)")
    p.add_argument("--budget", type=int, default=200_000, metavar="N",
                   help="per-run instruction budget (default 200000)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without shrinking them")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("policyfuzz",
                       help="policy stress-fuzzing of the immobilizer "
                            "firmware")
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_policyfuzz)

    p = sub.add_parser(
        "campaign",
        help="parallel simulation campaigns over a job matrix")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    cp = csub.add_parser(
        "run", help="fan a job matrix out across a worker pool")
    cp.add_argument("--matrix", required=True, metavar="FILE",
                    help="JSON job matrix (repro.campaign.matrix/1)")
    cp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes (default 1)")
    cp.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="per-job wall-clock timeout override (seconds)")
    cp.add_argument("--retries", type=int, default=None, metavar="N",
                    help="retry-after-crash override")
    add_output_args(cp, "out_dir",
                    out_dir_default="campaign-out",
                    out_dir_help="output directory (JSONL, aggregate, "
                                 "worker logs; default campaign-out)")
    cp.add_argument("--strict", action="store_true",
                    help="exit 1 unless every job ended ok")
    cp.add_argument("--quiet", action="store_true",
                    help="suppress per-job progress lines")
    cp.add_argument("--warm-start", action="store_true",
                    help="boot each distinct platform configuration once, "
                         "snapshot it, and fork every job from the "
                         "snapshot (same as \"warm_start\": true in the "
                         "matrix file)")
    cp.add_argument("--cache-dir", metavar="DIR",
                    help="content-addressed result cache: jobs already "
                         "simulated under the same binary/config/seed "
                         "are served from here instead of re-running "
                         "(default: $REPRO_CACHE; off when neither is "
                         "set)")
    cp.add_argument("--no-cache", action="store_true",
                    help="ignore any configured result cache")
    cp.add_argument("--resume", nargs="?", const="auto", default=None,
                    metavar="JSONL",
                    help="treat jobs already recorded in JSONL (default: "
                         "<out>/campaign.jsonl) as done and run only the "
                         "rest; tolerates the torn last line an "
                         "interrupted campaign leaves behind")
    cp.add_argument("--listen", metavar="HOST:PORT",
                    help="run as a broker on HOST:PORT instead of a "
                         "local pool: jobs are pulled by 'repro worker "
                         "--connect' processes (possibly on other "
                         "machines); blocks until the matrix drains")
    cp.set_defaults(fn=_cmd_campaign_run)

    cp = csub.add_parser(
        "report", help="render a markdown summary from campaign results")
    cp.add_argument("--results", required=True, metavar="PATH",
                    help="campaign output directory or campaign.jsonl")
    add_output_args(cp, "output",
                    output_help="write the markdown here instead of "
                                "stdout ('-' = stdout)")
    cp.set_defaults(fn=_cmd_campaign_report)

    p = sub.add_parser(
        "worker",
        help="attach to a campaign broker and pull jobs over TCP")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="broker address (campaign run --listen / serve)")
    p.add_argument("--name", metavar="NAME",
                   help="worker name in broker logs "
                        "(default: <host>-<pid>)")
    p.add_argument("--heartbeat", type=float, default=2.0, metavar="S",
                   help="liveness heartbeat interval (default 2s)")
    p.add_argument("--connect-timeout", type=float, default=30.0,
                   metavar="S",
                   help="keep retrying the initial connection this long "
                        "(default 30s)")
    p.add_argument("--once", action="store_true",
                   help="exit after the first completed job")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="campaign-as-a-service: HTTP submission API over a broker")
    p.add_argument("--host", default="127.0.0.1",
                   help="HTTP bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8437,
                   help="HTTP port (default 8437)")
    p.add_argument("--worker-host", default="127.0.0.1", metavar="HOST",
                   help="interface the broker listens on for workers")
    p.add_argument("--worker-port", type=int, default=0, metavar="PORT",
                   help="broker port workers connect to (default: "
                        "ephemeral, printed at startup)")
    p.add_argument("--local-workers", type=int, default=0, metavar="N",
                   help="also spawn N worker processes in-house")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed result cache shared by every "
                        "submitted campaign (default: $REPRO_CACHE)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore any configured result cache")
    p.add_argument("--data-dir", metavar="DIR",
                   help="broker scratch space for warm-start snapshots "
                        "(default: a temporary directory)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "snapshot", help="checkpoint/restore (save / resume / diff)")
    ssub = p.add_subparsers(dest="snapshot_command", required=True)

    sp = ssub.add_parser(
        "save", help="run to a pause point and write a snapshot file")
    sp.add_argument("-o", "--output", required=True, metavar="FILE",
                    help="snapshot destination (repro.snapshot/1 JSON)")
    sp.add_argument("--workload", metavar="NAME",
                    help="snapshot a bench-registry workload")
    sp.add_argument("--source", metavar="FILE",
                    help="snapshot a guest assembly source instead")
    sp.add_argument("--pause-at", type=int, default=None, metavar="N",
                    help="pause at the first quantum boundary where at "
                         "least N instructions have retired (default: "
                         "snapshot the boot state before the first "
                         "instruction)")
    sp.add_argument("--max-instructions", type=int, default=None)
    sp.add_argument("--scale", choices=("quick", "full"), default="quick",
                    help="workload scale (with --workload)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--plain", action="store_true",
                    help="with --workload: run without DIFT")
    sp.add_argument("--dift-mode", choices=DIFT_MODES, default="full")
    sp.add_argument("--policy", metavar="FILE",
                    help="with --source: JSON policy file (enables DIFT)")
    sp.add_argument("--base", type=lambda x: int(x, 0), default=0)
    sp.add_argument("--uart-input", default="")
    sp.set_defaults(fn=_cmd_snapshot_save)

    sp = ssub.add_parser(
        "resume", help="restore a snapshot file and keep simulating")
    sp.add_argument("snapshot")
    sp.add_argument("--workload", metavar="NAME",
                    help="workload the snapshot came from (re-attaches "
                         "program symbols and external models; required "
                         "for snapshots that carry externals)")
    sp.add_argument("--scale", choices=("quick", "full"), default="quick")
    sp.add_argument("--max-instructions", type=int, default=None)
    sp.set_defaults(fn=_cmd_snapshot_resume)

    sp = ssub.add_parser(
        "diff", help="field-level diff between two snapshot files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--ignore", action="append", metavar="PREFIX",
                    help="skip leaves whose dotted path starts with "
                         "PREFIX (repeatable, e.g. --ignore obs.)")
    sp.set_defaults(fn=_cmd_snapshot_diff)

    p = sub.add_parser(
        "replay",
        help="verify snapshot-resume replay equivalence (fresh process)")
    p.add_argument("--workloads", nargs="*", metavar="NAME",
                   help="bench-registry workloads (default: all)")
    # the replay suite's REPLAY_MODES, spelled out here so building the
    # parser does not import the verification package
    replay_modes = ("plain",) + DIFT_MODES
    p.add_argument("--modes", nargs="*", choices=replay_modes,
                   default=list(replay_modes),
                   help="engine/DIFT variants to sweep")
    p.add_argument("--pause-at", type=int, default=9000, metavar="N",
                   help="snapshot point (instructions retired)")
    p.add_argument("--max-instructions", type=int, default=60000)
    p.add_argument("--jit", action="store_true",
                   help="run every leg with the trace compiler on "
                        "(proves the trace cache is derived state)")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "reanalyze",
        help="replay a recorded repro.dift.events/2 stream offline")
    p.add_argument("stream", help="event-stream file from --record-events")
    p.add_argument("--policy", metavar="FILE",
                   help="JSON policy to re-analyze under (must share the "
                        "recorded policy's class list; default: the "
                        "recorded policy, reproducing the live run)")
    p.add_argument("--json", metavar="FILE",
                   help="also write a machine-readable report to FILE")
    p.set_defaults(fn=_cmd_reanalyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
