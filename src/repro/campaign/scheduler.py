"""Local campaigns: ``run_campaign`` runs a batch on N local workers.

The broker of :mod:`repro.campaign.service` schedules every campaign.
``run_campaign`` builds one that binds no TCP port, submits the batch,
forks up to ``jobs`` worker processes attached to it over
``socket.socketpair()`` and waits for the batch.  So a local run gets exactly the guarantees
of a distributed one:

* each attempt runs in its **own child process** of a worker, so a job
  that raises, hangs or hard-dies can never poison a neighbour or take
  the campaign down;
* a worker that sends a ``crashed`` payload (caught exception) or whose
  child dies without a payload (non-zero exit / killed) yields a
  ``crashed`` record with its traceback / log tail, retried up to
  ``spec.retries`` times with exponential backoff — crashes are treated
  as potentially transient (the ``flaky:N`` injection hook exercises
  exactly this);
* an attempt that exceeds ``spec.timeout`` wall-clock seconds is
  terminated (SIGTERM, then SIGKILL) and recorded as ``timeout`` — no
  retry, a hung simulation would hang again;
* everything else continues unaffected; the campaign itself completes
  unless every worker process has exited, which raises.

The broker merges each job's deterministic metrics snapshot into the
campaign aggregate (:func:`repro.obs.merge_snapshots`) and keeps host
timings separate, so the aggregate is byte-identical across ``--jobs 1``
and ``--jobs N`` runs of the same matrix.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.campaign.matrix import JobSpec
from repro.campaign.result import JobResult
from repro.campaign.service import Broker, CampaignResult, _run_batch


def run_campaign(specs: List[JobSpec], jobs: int = 1,
                 log_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 warm_start: bool = False,
                 cache=None,
                 on_record: Optional[Callable[[JobResult], None]] = None,
                 ) -> CampaignResult:
    """Run every spec to a terminal status; never raises for job failures.

    ``timeout`` / ``retries`` override the per-spec values when given
    (the CLI's ``--timeout`` / ``--retries`` flags).  ``log_dir``
    receives one ``<job_id>.a<attempt>.log`` per attempt; when omitted,
    logs go to a temporary directory and only their tails survive (in
    the records of failed jobs).  ``warm_start`` boots each distinct
    platform configuration once in the parent, snapshots it at
    instruction zero, and has every worker resume from the snapshot.

    ``cache`` (a :class:`repro.campaign.cache.ResultCache`) is consulted
    *before* any platform boots: jobs whose content key has a stored
    record are served from disk (``timing.cached`` marks them), and
    fresh ok/failed results of cacheable jobs are stored back.  A fully
    cached campaign runs zero simulations, boots zero snapshots and
    starts no worker.  ``on_record`` is invoked once per terminal record
    as it lands (cache hits first, then completions in finish order) —
    the CLI streams the JSONL through it so an interrupted campaign can
    resume.

    Raises ``RuntimeError`` if every worker process exits while jobs
    are left: nothing else could run them.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    broker = Broker(host=None, cache=cache, data_dir=log_dir,
                    progress=progress)
    return _run_batch(broker, specs, jobs, timeout=timeout,
                      retries=retries, warm_start=warm_start,
                      on_record=on_record)
