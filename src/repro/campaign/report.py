"""Campaign reports: versioned JSONL records, aggregate, markdown.

Three artifacts per campaign, all derived from the same
:class:`~repro.campaign.result.JobResult` records:

* ``campaign.jsonl`` — one ``repro.campaign.job/1`` record per line, in
  job-id order (worker count never reorders the file).  While a
  campaign is *running* the CLI appends records in completion order;
  the sorted rewrite happens at the end — an interrupted campaign
  therefore leaves a valid (unordered, possibly torn-last-line) JSONL
  that ``--resume`` reads back tolerantly;
* ``aggregate.json`` — the ``repro.campaign/1`` summary.  Everything
  outside its ``"timing"`` key is deterministic: two runs of the same
  matrix agree byte-for-byte there regardless of ``--jobs``, of whether
  results came from local workers, remote workers or the result
  cache;
* the markdown summary table (``campaign report``).

Every entry point takes :class:`JobResult` records; on-disk documents
come back through :func:`load_jsonl` / :meth:`JobResult.from_json`.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Set

from repro.campaign.result import JobResult
from repro.obs.metrics import merge_snapshots

CAMPAIGN_SCHEMA = "repro.campaign/1"

JSONL_NAME = "campaign.jsonl"
AGGREGATE_NAME = "aggregate.json"


def write_jsonl(path: str, records: List[JobResult]) -> str:
    """Write records (sorted by job id) as one JSON object per line."""
    ordered = sorted(records, key=lambda r: r.job.job_id)
    with open(path, "w") as handle:
        for record in ordered:
            handle.write(json.dumps(record.to_json(), sort_keys=True)
                         + "\n")
    return path


def load_jsonl(path: str, tolerant: bool = False) -> List[JobResult]:
    """Read a campaign JSONL back into :class:`JobResult` records.

    ``tolerant`` skips unparseable lines instead of raising — the resume
    path uses it because a campaign killed mid-write (the kill -9 case)
    legitimately leaves a torn final line; every intact record before it
    is still a completed job.
    """
    records = []
    with open(path) as handle:
        for n, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(JobResult.from_json(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                if tolerant:
                    print(f"warning: {path}:{n}: skipping unreadable "
                          f"record ({exc})", file=sys.stderr)
                    continue
                raise ValueError(f"{path}:{n}: not a valid job record: "
                                 f"{exc}")
    return records


def completed_ids(records: Iterable) -> Set[str]:
    """Job ids with any terminal record — the resume 'done' set.

    Every recorded status counts: ``crashed`` means retries were already
    exhausted and ``timeout`` is deliberately never retried (PR 3's
    contract), so re-running either would just repeat the failure.
    """
    return {record.job.job_id for record in records}


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile over an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def aggregate(records: List[JobResult],
              wall_seconds: Optional[float] = None) -> dict:
    """Fold job records into the ``repro.campaign/1`` summary document."""
    ordered = sorted(records, key=lambda r: r.job.job_id)
    by_status: Dict[str, List[str]] = {}
    violations_by_policy: Dict[str, int] = {}
    instructions = 0
    snapshots = []
    latencies = []
    cache_hits = 0
    for record in ordered:
        by_status.setdefault(record.status, []).append(record.job.job_id)
        if record.cached:
            cache_hits += 1
        if record.ran:
            policy = record.job.policy
            violations_by_policy[policy] = (
                violations_by_policy.get(policy, 0) + record.violations)
            instructions += record.instructions
            snapshots.append(record.metrics)
            if not record.cached and "wall_seconds" in record.timing:
                latencies.append(record.timing["wall_seconds"])
    latencies.sort()
    completed = sum(len(ids) for status, ids in by_status.items()
                    if status in ("ok", "failed"))
    document = {
        "schema": CAMPAIGN_SCHEMA,
        "jobs": {
            "total": len(ordered),
            "by_status": {status: len(ids)
                          for status, ids in sorted(by_status.items())},
            "not_ok": sorted(job_id
                             for status, ids in by_status.items()
                             if status != "ok" for job_id in ids),
        },
        "instructions_total": instructions,
        "violations_by_policy": dict(sorted(violations_by_policy.items())),
        "metrics": merge_snapshots(*snapshots),
        "timing": {
            "campaign_wall_seconds": wall_seconds,
            "job_latency_p50_s": _quantile(latencies, 0.50),
            "job_latency_p95_s": _quantile(latencies, 0.95),
            "throughput_jobs_per_s": (
                completed / wall_seconds
                if wall_seconds else None),
            # host-side provenance, quarantined with the other timings:
            # a fully-cached re-run and a fresh run agree everywhere
            # outside "timing", including when this count differs
            "jobs.cache_hits": cache_hits,
        },
    }
    return document


def deterministic_view(document: dict) -> dict:
    """The aggregate minus its host-timing key (for run-to-run diffs)."""
    return {key: value for key, value in document.items()
            if key != "timing"}


def write_outputs(out_dir: str, records: List,
                  wall_seconds: Optional[float] = None) -> dict:
    """Write ``campaign.jsonl`` + ``aggregate.json`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_jsonl(os.path.join(out_dir, JSONL_NAME), records)
    document = aggregate(records, wall_seconds=wall_seconds)
    with open(os.path.join(out_dir, AGGREGATE_NAME), "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def find_jsonl(results: str) -> str:
    """Accept either a results directory or the JSONL file itself."""
    if os.path.isdir(results):
        return os.path.join(results, JSONL_NAME)
    return results


def render_markdown(records: List[JobResult],
                    document: Optional[dict] = None) -> str:
    """Markdown summary: per-job table plus the aggregate section."""
    if document is None:
        document = aggregate(records)
    ordered = sorted(records, key=lambda r: r.job.job_id)
    lines = [
        "# Campaign report",
        "",
        "| job | workload | policy | mode | seed | status | attempts "
        "| instructions | violations | wall [s] |",
        "|---|---|---|---|---:|---|---:|---:|---:|---:|",
    ]
    for record in ordered:
        job = record.job
        wall = record.timing.get("wall_seconds")
        if record.cached:
            tail = (f"{record.instructions:,} "
                    f"| {record.violations} | cached |")
        elif wall is not None:
            tail = (f"{record.instructions:,} "
                    f"| {record.violations} | {wall:.2f} |")
        else:
            tail = "- | - | - |"
        lines.append(
            f"| {job.job_id} | {job.workload} | {job.policy} "
            f"| {job.dift_mode} | {job.seed} | {record.status} "
            f"| {record.attempts} | {tail}")
    jobs = document["jobs"]
    timing = document.get("timing", {})
    lines += [
        "",
        "## Aggregate",
        "",
        f"- jobs: {jobs['total']} total, "
        + ", ".join(f"{n} {status}"
                    for status, n in jobs["by_status"].items()),
        f"- instructions (completed jobs): "
        f"{document['instructions_total']:,}",
        f"- violations by policy: "
        + (", ".join(f"{policy}: {count}" for policy, count
                     in document["violations_by_policy"].items())
           or "none"),
    ]
    hits = timing.get("jobs.cache_hits")
    if hits:
        lines.append(f"- result-cache hits: {hits} of {jobs['total']} "
                     "jobs served without a simulation")
    p50 = timing.get("job_latency_p50_s")
    p95 = timing.get("job_latency_p95_s")
    if p50 is not None:
        lines.append(f"- job latency: p50 {p50:.2f}s, p95 {p95:.2f}s")
    throughput = timing.get("throughput_jobs_per_s")
    if throughput:
        lines.append(f"- throughput: {throughput:.2f} jobs/s "
                     f"over {timing['campaign_wall_seconds']:.2f}s")
    if jobs["not_ok"]:
        lines += ["", "## Jobs needing attention", ""]
        for record in ordered:
            if record.status == "ok":
                continue
            error = record.error or {}
            lines.append(f"- `{record.job.job_id}` "
                         f"({record.status}): "
                         f"{error.get('type', record.reason or '?')}"
                         f" — {error.get('message', '')}".rstrip(" —"))
    return "\n".join(lines) + "\n"
