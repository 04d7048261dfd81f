"""The campaign job result: one frozen value type for every transport.

:class:`JobResult` is the single shape a finished job takes everywhere a
result travels — the broker, the worker socket protocol, the
content-addressed result cache, and the
``repro.campaign.job/1`` JSONL report all carry exactly this type (as a
Python object in memory, as its :meth:`to_json` document on the wire and
on disk).  Before this type existed each layer passed ad-hoc dicts
around and every consumer re-discovered which keys a record of a given
status carries; now the shape is written down once.

``to_json`` emits the historical ``repro.campaign.job/1`` document
unchanged: optional fields are omitted rather than null (a crashed
record has no ``metrics``, an ok record has no ``error``), so reports
produced before and after the redesign stay byte-compatible.  Use the
attributes in code and :meth:`JobResult.from_json` for on-disk records;
the transitional dict-style access shim has been removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple

from repro.campaign.matrix import JobSpec

JOB_SCHEMA = "repro.campaign.job/1"

#: statuses a job record can end with
JOB_STATUSES = ("ok", "failed", "crashed", "timeout")


@dataclass(frozen=True)
class JobResult:
    """One terminal campaign job outcome.

    ``metrics`` holds the deterministic slice of the job's obs snapshot
    (host timings live under ``timing`` and are quarantined from every
    determinism contract).  ``timing["cached"]`` marks a record that was
    served from the result cache instead of a fresh simulation — cache
    provenance is host-side execution strategy, so it rides in the
    quarantined section and never perturbs aggregate byte-identity.
    """

    job: JobSpec
    status: str
    reason: Optional[str] = None
    exit_code: Optional[int] = None
    instructions: int = 0
    violations: int = 0
    metrics: Mapping = field(default_factory=dict)
    timing: Mapping = field(default_factory=dict)
    error: Optional[Mapping] = None
    attempts: int = 1
    retried_errors: Tuple[Mapping, ...] = ()
    log_tail: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in JOB_STATUSES:
            raise ValueError(
                f"unknown job status {self.status!r}; "
                f"expected one of {list(JOB_STATUSES)}")

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    @property
    def ran(self) -> bool:
        """True when the guest actually simulated to a verdict (the
        record carries ``reason``/``metrics``/``timing``)."""
        return self.status in ("ok", "failed")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cached(self) -> bool:
        """True when this record came from the result cache."""
        return bool(self.timing.get("cached", False))

    # ------------------------------------------------------------------ #
    # serialization: the repro.campaign.job/1 document
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """The ``repro.campaign.job/1`` record (JSON-clean plain dict)."""
        document = {
            "schema": JOB_SCHEMA,
            "job": self.job.to_dict(),
            "status": self.status,
            "attempts": self.attempts,
        }
        if self.ran:
            document["reason"] = self.reason
            document["exit_code"] = self.exit_code
            document["instructions"] = self.instructions
            document["violations"] = self.violations
            document["metrics"] = dict(self.metrics)
            document["timing"] = dict(self.timing)
        elif self.timing:
            document["timing"] = dict(self.timing)
        if self.error is not None:
            document["error"] = dict(self.error)
        if self.retried_errors:
            document["retried_errors"] = [dict(e)
                                          for e in self.retried_errors]
        if self.log_tail:
            document["log_tail"] = list(self.log_tail)
        return document

    @classmethod
    def from_json(cls, data: Mapping) -> "JobResult":
        """Inverse of :meth:`to_json`; tolerant of omitted optionals."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"job record must be a JSON object, not {type(data).__name__}")
        schema = data.get("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ValueError(f"unsupported job record schema {schema!r} "
                             f"(expected {JOB_SCHEMA!r})")
        if "job" not in data or "status" not in data:
            raise ValueError("job record needs 'job' and 'status' keys")
        return cls(
            job=JobSpec.from_dict(dict(data["job"])),
            status=data["status"],
            reason=data.get("reason"),
            exit_code=data.get("exit_code"),
            instructions=data.get("instructions", 0),
            violations=data.get("violations", 0),
            metrics=dict(data.get("metrics", {})),
            timing=dict(data.get("timing", {})),
            error=data.get("error"),
            attempts=data.get("attempts", 1),
            retried_errors=tuple(data.get("retried_errors", ())),
            log_tail=tuple(data.get("log_tail", ())),
        )

    def rebind(self, spec: JobSpec) -> "JobResult":
        """This result re-attributed to ``spec`` and marked cache-served.

        The result cache stores outcomes under a content key that
        deliberately ignores presentation fields (``job_id`` suffixes,
        timeout/retry budgets, warm-start snapshot paths), so a hit must
        be rebound to the *requesting* spec before it enters a report.
        Cache provenance lands in the quarantined ``timing`` section;
        per-run provenance (``log_tail``/``retried_errors``) is dropped —
        it described the producing run, not this one.
        """
        return replace(self, job=spec,
                       timing={**dict(self.timing), "cached": True},
                       retried_errors=(), log_tail=())
