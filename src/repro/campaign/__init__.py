"""Parallel simulation campaigns: matrix → workers → report, as a service.

The paper sweeps binaries × policies × modes by hand; this package
industrializes that batch workload.  A declarative JSON matrix
(:mod:`repro.campaign.matrix`) expands to jobs, and one scheduler runs
them to :class:`~repro.campaign.result.JobResult` records: the broker of
:mod:`repro.campaign.service`, with crash isolation, per-job wall-clock
timeouts and bounded retry.  Its workers attach in one of two ways:

* local worker processes over ``socket.socketpair()``: ``run_campaign``
  (:mod:`repro.campaign.scheduler`, ``--jobs N``) forks them for a
  broker that binds no port;
* remote workers over TCP (``repro worker --connect``), pulling from a
  broker that listens (``campaign run --listen``, ``repro serve``).

Before any job reaches a worker, the content-addressed result cache
(:mod:`repro.campaign.cache`) answers those it has already seen,
without booting anything.  Every path produces byte-identical
``repro.campaign/1`` aggregates outside the quarantined ``timing``
section (:mod:`repro.campaign.report`).

CLI::

    python -m repro campaign run --matrix campaign.json \\
        --jobs 4 --out results/ --cache-dir ~/.cache/repro
    python -m repro campaign run --matrix campaign.json \\
        --listen 0.0.0.0:7421 --out results/     # workers pull jobs
    python -m repro worker --connect broker-host:7421
    python -m repro serve --port 8437 --local-workers 2
    python -m repro campaign report --results results/
"""

from __future__ import annotations

from repro.campaign.cache import (
    CACHE_SCHEMA,
    CacheError,
    ResultCache,
    cacheable,
    job_key,
    open_cache,
    resolve_cache_dir,
)
from repro.campaign.matrix import (
    MATRIX_SCHEMA,
    JobSpec,
    Matrix,
    MatrixError,
    full_matrix,
    load_matrix,
    parse_matrix,
)
from repro.campaign.proto import PROTO_SCHEMA, FrameBuffer, ProtocolError
from repro.campaign.report import (
    CAMPAIGN_SCHEMA,
    aggregate,
    completed_ids,
    deterministic_view,
    load_jsonl,
    render_markdown,
    write_outputs,
)
from repro.campaign.result import JOB_SCHEMA, JobResult
from repro.campaign.scheduler import run_campaign
from repro.campaign.service import (
    SERVICE_SCHEMA,
    Broker,
    CampaignResult,
    CampaignService,
    prepare_warm_snapshots,
    run_campaign_distributed,
    run_worker,
    serve,
)
from repro.campaign.worker import execute_job

__all__ = [
    "JobSpec",
    "JobResult",
    "Matrix",
    "MatrixError",
    "CampaignResult",
    "ResultCache",
    "CacheError",
    "Broker",
    "CampaignService",
    "FrameBuffer",
    "ProtocolError",
    "MATRIX_SCHEMA",
    "CAMPAIGN_SCHEMA",
    "JOB_SCHEMA",
    "CACHE_SCHEMA",
    "PROTO_SCHEMA",
    "SERVICE_SCHEMA",
    "load_matrix",
    "parse_matrix",
    "full_matrix",
    "run_campaign",
    "run_campaign_distributed",
    "run_worker",
    "serve",
    "execute_job",
    "prepare_warm_snapshots",
    "aggregate",
    "completed_ids",
    "deterministic_view",
    "load_jsonl",
    "render_markdown",
    "write_outputs",
    "cacheable",
    "job_key",
    "open_cache",
    "resolve_cache_dir",
]
