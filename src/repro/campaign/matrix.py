"""Declarative campaign matrices: workload × policy × dift_mode × seed.

A matrix file is JSON (schema ``repro.campaign.matrix/1``)::

    {
      "schema": "repro.campaign.matrix/1",
      "defaults": {"scale": "quick", "max_instructions": 150000,
                   "timeout": 120, "retries": 1},
      "axes": {
        "workload": ["qsort", "primes"],
        "policy": ["default"],
        "dift_mode": ["full", "demand"],
        "seed": [0]
      },
      "include": [{"workload": "qsort", "inject": "crash"}],
      "exclude": [{"workload": "primes", "dift_mode": "demand"}]
    }

``axes`` expands to the cartesian product; ``exclude`` entries drop
every product job whose fields all match; ``include`` entries append
explicit extra jobs (with ``defaults`` applied).  A top-level
``"warm_start": true`` makes the scheduler boot each distinct platform
configuration once, snapshot it at instruction zero, and fork every job
from the snapshot instead of re-booting per job; ``"cache": false``
opts the whole campaign out of the content-addressed result cache even
when one is configured (``--cache-dir`` / ``$REPRO_CACHE``).  Axis
semantics:

* ``workload`` — a :mod:`repro.bench.workloads` registry name;
* ``policy`` — ``"default"`` runs the workload's own security policy
  (VP+), ``"none"`` runs the plain VP.  For ``"none"`` the
  ``dift_mode`` axis is meaningless, so those jobs collapse to a single
  ``dift_mode="none"`` job instead of one per mode;
* ``dift_mode`` — ``"full"`` or ``"demand"``;
* ``seed`` — the platform seed (drives sensor data);
* ``jit`` — ``false``/``true``: run with the trace-compiled fast path.
  Host-side execution strategy only — it changes neither the simulated
  machine nor the warm-start snapshot key, so jit-on and jit-off jobs
  share boot snapshots.

Every job gets a stable id ``<workload>.<policy>.<dift_mode>.s<seed>``
(suffixed ``.jit`` when the trace compiler is on, and ``.i<N>`` for
duplicate ``include`` entries), which is the
sort key of the campaign report — so two runs of the same matrix
produce records in the same order regardless of worker count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from typing import Dict, List, Optional

from repro.bench.workloads import workload_names
from repro.vp.cpu import DIFT_MODES

MATRIX_SCHEMA = "repro.campaign.matrix/1"

POLICIES = ("default", "none")
SCALES = ("quick", "full")
#: failure-injection hooks understood by the worker (plus ``flaky:N``)
INJECT_KINDS = ("crash", "die", "hang")


class MatrixError(ValueError):
    """A malformed matrix file or an invalid job specification."""


@dataclass(frozen=True)
class JobSpec:
    """One fully resolved campaign job."""

    job_id: str
    workload: str
    policy: str = "default"            # "default" (VP+) or "none" (VP)
    dift_mode: str = "full"            # "full" / "demand" / "none"
    seed: int = 0
    scale: str = "quick"
    jit: bool = False                  # run with the trace compiler on
    max_instructions: Optional[int] = None
    timeout: float = 120.0             # wall-clock seconds per attempt
    retries: int = 1                   # extra attempts after a crash
    backoff: float = 0.1               # base retry delay (doubles)
    inject: Optional[str] = None       # crash / die / hang / flaky:N
    #: warm-start snapshot path, filled by the scheduler (not a matrix
    #: field): the worker restores this instead of booting the platform
    snapshot: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(**data)


#: job fields settable from ``defaults`` / ``include`` entries
_JOB_FIELDS = ("workload", "policy", "dift_mode", "seed", "scale", "jit",
               "max_instructions", "timeout", "retries", "backoff",
               "inject")
_AXIS_FIELDS = ("workload", "policy", "dift_mode", "seed", "jit")


def _validate_job(entry: dict, where: str) -> None:
    unknown = set(entry) - set(_JOB_FIELDS)
    if unknown:
        raise MatrixError(
            f"{where}: unknown job field(s) {sorted(unknown)}; "
            f"valid fields: {list(_JOB_FIELDS)}")
    workload = entry.get("workload")
    if not isinstance(workload, str):
        raise MatrixError(f"{where}: 'workload' (string) is required")
    if workload.startswith("gen/"):
        # dynamic generated-attack workload: gen/<case-seed-hex>/<variant>
        from repro.gen.campaign import parse_gen_name
        try:
            parse_gen_name(workload)
        except ValueError as exc:
            raise MatrixError(f"{where}: {exc}") from None
    elif workload not in workload_names():
        raise MatrixError(
            f"{where}: unknown workload {workload!r}; available: "
            f"{', '.join(workload_names())} (or a dynamic "
            f"'gen/<case-seed-hex>/<attack|benign>' name)")
    if entry.get("policy", "default") not in POLICIES:
        raise MatrixError(
            f"{where}: policy must be one of {list(POLICIES)}, "
            f"not {entry['policy']!r}")
    mode = entry.get("dift_mode", "full")
    if mode not in DIFT_MODES + ("none",):
        raise MatrixError(
            f"{where}: dift_mode must be one of {list(DIFT_MODES)}, "
            f"not {mode!r}")
    if entry.get("scale", "quick") not in SCALES:
        raise MatrixError(
            f"{where}: scale must be one of {list(SCALES)}, "
            f"not {entry['scale']!r}")
    if not isinstance(entry.get("seed", 0), int):
        raise MatrixError(f"{where}: seed must be an integer")
    if not isinstance(entry.get("jit", False), bool):
        raise MatrixError(f"{where}: jit must be a boolean")
    inject = entry.get("inject")
    if inject is not None and inject not in INJECT_KINDS:
        kind, _, count = inject.partition(":")
        if not (kind == "flaky" and count.isdigit()):
            raise MatrixError(
                f"{where}: inject must be one of {list(INJECT_KINDS)} "
                f"or 'flaky:N', not {inject!r}")


def _job_id(entry: dict) -> str:
    job_id = (f"{entry['workload']}.{entry.get('policy', 'default')}"
              f".{entry.get('dift_mode', 'full')}.s{entry.get('seed', 0)}")
    if entry.get("jit", False):
        # suffix only when on, so pre-jit matrices keep their job ids
        # (and hence their report sort order and baselines)
        job_id += ".jit"
    return job_id


def _normalize(entry: dict) -> dict:
    # plain-VP jobs have no DIFT loop to choose: collapse the mode axis
    if entry.get("policy") == "none":
        entry = dict(entry, dift_mode="none")
    return entry


def _make_spec(entry: dict, defaults: dict, where: str,
               job_id: Optional[str] = None) -> JobSpec:
    merged = dict(defaults)
    merged.update(entry)
    merged = _normalize(merged)
    _validate_job(merged, where)
    return JobSpec(job_id=job_id or _job_id(merged), **merged)


@dataclass
class Matrix:
    """A parsed matrix: expand to the final job list with :meth:`jobs`."""

    axes: Dict[str, list]
    defaults: dict = field(default_factory=dict)
    include: List[dict] = field(default_factory=list)
    exclude: List[dict] = field(default_factory=list)
    source: str = "<memory>"
    #: boot/prepare each distinct platform configuration once, snapshot
    #: it at instruction zero, and fork every job from the snapshot
    warm_start: bool = False
    #: consult the content-addressed result cache (when one is
    #: configured); matrices that must re-simulate set this to false
    cache: bool = True

    def jobs(self) -> List[JobSpec]:
        specs: Dict[str, JobSpec] = {}
        axis_values = [self.axes.get(name) or [None] for name in _AXIS_FIELDS]
        for combo in product(*axis_values):
            entry = {name: value
                     for name, value in zip(_AXIS_FIELDS, combo)
                     if value is not None}
            entry = _normalize(dict(self.defaults, **entry))
            if any(all(entry.get(k) == v for k, v in rule.items())
                   for rule in self.exclude):
                continue
            spec = _make_spec(entry, {}, f"{self.source}: axes")
            specs.setdefault(spec.job_id, spec)
        for n, extra in enumerate(self.include):
            spec = _make_spec(extra, self.defaults,
                              f"{self.source}: include[{n}]")
            if spec.job_id in specs:
                spec = replace(spec, job_id=f"{spec.job_id}.i{n}")
            specs[spec.job_id] = spec
        if not specs:
            raise MatrixError(f"{self.source}: matrix expands to zero jobs")
        return [specs[job_id] for job_id in sorted(specs)]


def parse_matrix(document: dict, source: str = "<memory>") -> Matrix:
    """Validate and parse a matrix document (already JSON-decoded)."""
    if not isinstance(document, dict):
        raise MatrixError(f"{source}: matrix document must be a JSON object")
    schema = document.get("schema", MATRIX_SCHEMA)
    if schema != MATRIX_SCHEMA:
        raise MatrixError(
            f"{source}: unsupported matrix schema {schema!r} "
            f"(expected {MATRIX_SCHEMA!r})")
    unknown = set(document) - {"schema", "defaults", "axes", "include",
                               "exclude", "warm_start", "cache"}
    if unknown:
        raise MatrixError(
            f"{source}: unknown top-level key(s) {sorted(unknown)}")
    axes = document.get("axes", {})
    if not isinstance(axes, dict):
        raise MatrixError(f"{source}: 'axes' must be an object")
    bad_axes = set(axes) - set(_AXIS_FIELDS)
    if bad_axes:
        raise MatrixError(
            f"{source}: unknown axis name(s) {sorted(bad_axes)}; "
            f"valid axes: {list(_AXIS_FIELDS)}")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise MatrixError(
                f"{source}: axis {name!r} must be a non-empty list")
    include = document.get("include", [])
    exclude = document.get("exclude", [])
    defaults = document.get("defaults", {})
    for key, kind in (("include", include), ("exclude", exclude)):
        if not isinstance(kind, list) or any(
                not isinstance(e, dict) for e in kind):
            raise MatrixError(f"{source}: {key!r} must be a list of objects")
    if not isinstance(defaults, dict):
        raise MatrixError(f"{source}: 'defaults' must be an object")
    if not axes.get("workload") and not include:
        raise MatrixError(
            f"{source}: need a 'workload' axis or explicit 'include' jobs")
    warm_start = document.get("warm_start", False)
    if not isinstance(warm_start, bool):
        raise MatrixError(f"{source}: 'warm_start' must be a boolean")
    cache = document.get("cache", True)
    if not isinstance(cache, bool):
        raise MatrixError(f"{source}: 'cache' must be a boolean")
    return Matrix(axes=axes, defaults=defaults, include=include,
                  exclude=exclude, source=source, warm_start=warm_start,
                  cache=cache)


def load_matrix(path: str) -> Matrix:
    """Load, validate and parse a matrix JSON file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise MatrixError(f"cannot read matrix file {path!r}: "
                          f"{exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise MatrixError(f"{path}: not valid JSON: {exc}") from None
    return parse_matrix(document, source=path)


def full_matrix(dift_modes=DIFT_MODES, **defaults) -> Matrix:
    """The whole-registry matrix: every workload × the given DIFT modes."""
    return Matrix(axes={"workload": workload_names(),
                        "policy": ["default"],
                        "dift_mode": list(dift_modes),
                        "seed": [0]},
                  defaults=defaults, source="<full>")
