"""The campaign driver: one broker, its workers, and the HTTP facade.

Every campaign runs through the same three layers, whatever its entry
point (``run_campaign``, ``campaign run --listen``, ``repro serve``):

* :class:`Broker` — a single-threaded ``selectors`` event loop (run on a
  daemon thread) that owns the job queue.  Workers speak
  :mod:`repro.campaign.proto` and *pull* jobs; the broker folds each
  returned ``repro.campaign.job/1`` record into its batch incrementally
  (:func:`repro.obs.merge_snapshots`) and is the one place that decides
  retries: crashed jobs retry with exponential backoff, timeouts never
  retry, and a worker that vanishes mid-job (dead socket, silent
  heartbeat or exited process) gets its job requeued as a retryable
  crash.  The result cache is consulted at submit time, so a fully
  cached batch completes without a single worker.
* Workers — local ones are forked by the broker's owner and attached
  over ``socket.socketpair()``; remote ones connect over TCP
  (``repro worker --connect HOST:PORT``, :func:`run_worker`).  Both run
  the same loop, and each attempt runs in a child process
  (:func:`repro.campaign.worker.child_main`) so the worker survives
  crashes and enforces the per-job wall-clock budget locally,
  heartbeating while the simulation runs.  A broker built without a
  host (``run_campaign``) binds no port at all.
* :class:`CampaignService` / :func:`serve` — a stdlib ``http.server``
  facade over one broker: ``POST /campaigns`` submits a matrix document
  and returns 202 + an id, ``GET /campaigns/<id>`` polls progress,
  ``GET /campaigns/<id>/report`` serves the final aggregate (or the
  markdown report with ``?format=markdown``).

Determinism: worker count and transport only change *when* records
arrive, never their content, so the ``repro.campaign/1`` aggregate is
byte-identical outside ``timing`` across ``--jobs 1``, ``--jobs N``,
remote workers and the cache.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import selectors
import socket
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.matrix import JobSpec
from repro.campaign.proto import (
    PROTO_SCHEMA,
    FrameBuffer,
    ProtocolError,
    check_handshake,
    hello,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.campaign.result import JOB_STATUSES, JobResult
from repro.obs.metrics import merge_snapshots

SERVICE_SCHEMA = "repro.campaign.service/1"

#: extra wall-clock slack the broker grants on top of a job's timeout
#: before declaring it timed out itself (the worker enforces the real
#: budget locally; the grace only covers transport and scheduling lag)
DEFAULT_GRACE = 10.0

#: a worker silent for this long (no result, heartbeat or request) is
#: considered dead and its job is requeued
DEFAULT_WORKER_TIMEOUT = 15.0

_LOG_TAIL_LINES = 20


def _mp_context():
    # fork is markedly cheaper for a pure-Python ISS; callers fork before
    # starting any thread.  Fall back to spawn where fork does not exist
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _log_tail(path: str, lines: int = _LOG_TAIL_LINES) -> List[str]:
    try:
        with open(path, errors="replace") as handle:
            return handle.read().splitlines()[-lines:]
    except OSError:
        return []


def _timeout_payload(spec: JobSpec, seconds: float) -> dict:
    return {
        "job": spec.to_dict(),
        "status": "timeout",
        "error": {
            "type": "JobTimeout",
            "message": f"exceeded the {seconds:g}s wall-clock budget "
                       "and was terminated",
        },
    }


@dataclass
class CampaignResult:
    """Everything one campaign produced, in job-id order."""

    records: List[JobResult]
    wall_seconds: float
    #: how many records were served from the result cache (no simulator
    #: boot happened for these)
    cache_hits: int = 0

    @property
    def status_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in JOB_STATUSES}
        for record in self.records:
            counts[record.status] += 1
        return counts

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.records)


def prepare_warm_snapshots(specs: List[JobSpec], snapshot_dir: str,
                           note: Callable[[str], None]) -> List[JobSpec]:
    """Boot each distinct platform configuration once and snapshot it.

    Jobs sharing (workload, policy, dift_mode, seed, scale) fork from
    one instruction-zero snapshot — boot and stimulus preparation run
    once per configuration instead of once per job.  ``jit`` is
    deliberately *not* part of the key: the trace compiler never travels
    in snapshots, so compiled and interpreted jobs share the same boot
    image (the worker re-enables it at restore).  The snapshot is
    taken before any guest instruction retires and no SystemC process
    has started, so a restored platform is indistinguishable from a
    freshly booted one.
    """
    from repro.bench.workloads import get_workload
    from repro.dift.engine import RECORD
    from repro.obs import Observability

    paths: Dict[tuple, str] = {}
    out = []
    for spec in specs:
        key = (spec.workload, spec.policy, spec.dift_mode, spec.seed,
               spec.scale)
        path = paths.get(key)
        if path is None:
            workload = get_workload(spec.workload)
            dift = spec.policy != "none"
            platform = workload.make_platform(
                spec.scale, dift, obs=Observability(),
                dift_mode=spec.dift_mode if dift else "full",
                seed=spec.seed, engine_mode=RECORD)
            path = os.path.join(
                snapshot_dir,
                f"warm.{spec.workload}.{spec.policy}.{spec.dift_mode}"
                f".s{spec.seed}.{spec.scale}.json")
            platform.save_snapshot(path)
            paths[key] = path
            note(f"warm  {os.path.basename(path)}")
        out.append(replace(spec, snapshot=path))
    return out


# --------------------------------------------------------------------- #
# broker
# --------------------------------------------------------------------- #

@dataclass
class _BrokerJob:
    batch: "Batch"
    spec: JobSpec
    attempt: int = 0
    ready_at: float = 0.0
    history: List[dict] = field(default_factory=list)


@dataclass
class _Conn:
    sock: socket.socket
    addr: tuple
    buffer: FrameBuffer = field(default_factory=FrameBuffer)
    outbox: bytearray = field(default_factory=bytearray)
    name: str = "?"
    worker_id: int = -1
    hello_done: bool = False
    requested: bool = False
    job: Optional[_BrokerJob] = None
    deadline: float = 0.0
    last_seen: float = 0.0
    #: the worker process behind a local (socketpair) connection
    proc: Optional["multiprocessing.process.BaseProcess"] = None


class Batch:
    """One submitted campaign: records accumulate until all jobs land.

    Thread-safe: the broker loop, the submitting thread (cache hits) and
    HTTP status readers all go through the internal lock.  ``metrics``
    is the *incrementally* folded deterministic snapshot — each ok or
    failed record is merged as it arrives, so a status poll can show
    live aggregate metrics without replaying the record list.
    """

    def __init__(self, batch_id: str, specs: List[JobSpec],
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 cache=None,
                 on_record: Optional[Callable[[JobResult], None]] = None):
        self.batch_id = batch_id
        self.specs = list(specs)
        self.timeout = timeout
        self.retries = retries
        self.cache = cache
        self.cache_keys: Dict[str, str] = {}
        self.cache_hits = 0
        self.started = time.perf_counter()
        self.wall_seconds: Optional[float] = None
        self._on_record = on_record
        self._records: Dict[str, JobResult] = {}
        self._metrics: dict = {}
        self._error: Optional[Exception] = None
        self._lock = threading.Lock()
        self._done = threading.Event()

    def record(self, result: JobResult) -> None:
        with self._lock:
            self._records[result.job.job_id] = result
            if result.cached:
                self.cache_hits += 1
            if result.ran:
                self._metrics = merge_snapshots(self._metrics,
                                                result.metrics)
            finished = len(self._records) >= len(self.specs)
            if finished and self.wall_seconds is None:
                self.wall_seconds = time.perf_counter() - self.started
        if self._on_record is not None:
            self._on_record(result)
        if finished:
            self._done.set()

    def fail(self, error: Exception) -> None:
        """End the batch unfinished: :meth:`wait` raises ``error``."""
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> CampaignResult:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"batch {self.batch_id} did not finish within {timeout}s")
        if self._error is not None:
            raise self._error
        return self.result()

    def result(self) -> CampaignResult:
        with self._lock:
            records = [self._records[job_id]
                       for job_id in sorted(self._records)]
            return CampaignResult(records=records,
                                  wall_seconds=self.wall_seconds or 0.0,
                                  cache_hits=self.cache_hits)

    def status(self) -> dict:
        """A JSON-clean progress snapshot (the HTTP poll body)."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(
                    record.status, 0) + 1
            return {
                "schema": SERVICE_SCHEMA,
                "id": self.batch_id,
                "state": "done" if self._done.is_set() else "running",
                "jobs": {
                    "total": len(self.specs),
                    "completed": len(self._records),
                    "by_status": dict(sorted(by_status.items())),
                },
                "cache_hits": self.cache_hits,
                "wall_seconds": self.wall_seconds,
            }


class Broker:
    """The job distributor: submit batches, let workers pull them.

    All queue state lives on the loop thread; :meth:`submit` only does
    caller-side work (cache consult, warm-snapshot prep) and hands jobs
    over through a locked queue plus a socketpair wakeup, so any thread
    may submit.  With ``host=None`` the broker binds no listener: only
    the local workers forked by :meth:`_spawn_local_workers` can reach
    it, and when all of them have exited with jobs left, the unfinished
    batches fail instead of waiting for a worker that cannot come.
    """

    def __init__(self, host: Optional[str] = "127.0.0.1", port: int = 0,
                 name: str = "broker",
                 cache=None,
                 worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
                 grace: float = DEFAULT_GRACE,
                 tick: float = 0.2,
                 data_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None):
        self.name = name
        self.cache = cache
        self.worker_timeout = worker_timeout
        self.grace = grace
        self.tick = tick
        self._note = progress or (lambda message: None)
        self._host, self._port = host, port
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._submit_lock = threading.Lock()
        self._submitted: List[List[_BrokerJob]] = []
        self._artifacts: Dict[str, str] = {}
        self._batch_seq = 0
        self._worker_seq = 0
        self._worker_count = 0
        self._local: List[_Conn] = []
        if data_dir is None:
            self._tmp = tempfile.TemporaryDirectory(
                prefix="repro-broker-")
            self.data_dir = self._tmp.name
        else:
            self._tmp = None
            self.data_dir = data_dir
            os.makedirs(data_dir, exist_ok=True)

    # ----------------------------------------------------------------- #
    # public api (any thread)
    # ----------------------------------------------------------------- #

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("broker is not listening")
        return self._listener.getsockname()[:2]

    @property
    def worker_count(self) -> int:
        return self._worker_count

    def start(self) -> Optional[Tuple[str, int]]:
        """Bind the listener (when given a host) and start the loop.

        Returns the bound address, or ``None`` for a local-only broker.
        """
        if self._host is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(64)
            listener.setblocking(False)
            self._listener = listener
        self._thread = threading.Thread(target=self._loop,
                                        name="campaign-broker",
                                        daemon=True)
        self._thread.start()
        if self._listener is None:
            return None
        host, port = self.address
        self._note(f"broker listening on {host}:{port}")
        return host, port

    def stop(self) -> None:
        self._stopping.set()
        self._wakeup()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        for conn in self._local:
            conn.sock.close()   # already closed unless the loop never ran
            conn.proc.join(timeout=5.0)
            if conn.proc.is_alive():
                conn.proc.terminate()
                conn.proc.join(timeout=2.0)
        self._wake_r.close()
        self._wake_w.close()
        if self._tmp is not None:
            self._tmp.cleanup()

    def submit(self, specs: List[JobSpec],
               timeout: Optional[float] = None,
               retries: Optional[int] = None,
               warm_start: bool = False,
               cache: Optional[object] = "inherit",
               on_record: Optional[Callable[[JobResult], None]] = None,
               batch_id: Optional[str] = None) -> Batch:
        """Queue a campaign; returns a live :class:`Batch` immediately.

        The cache is consulted before any platform boots (hits land as
        records before this returns), and warm snapshots are prepared
        for the *misses* only; a listening broker ships them to workers
        as shared artifacts.  The loop need not run yet: jobs wait in
        the queue until it starts.  ``cache`` defaults to the broker's
        own; pass ``None`` to disable for this batch.
        """
        from repro.campaign.cache import consult

        specs = list(specs)
        if not specs:
            raise ValueError("no jobs to run")
        ids = [spec.job_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in the campaign")
        if cache == "inherit":
            cache = self.cache
        if batch_id is None:
            with self._submit_lock:
                self._batch_seq += 1
                batch_id = f"c{self._batch_seq:04d}"
        batch = Batch(batch_id, specs, timeout=timeout, retries=retries,
                      cache=cache, on_record=on_record)
        hits, misses, batch.cache_keys = consult(cache, specs, self._note)
        for record in hits:
            batch.record(record)
        if warm_start and misses:
            snap_dir = os.path.join(self.data_dir, f"{batch_id}-snap")
            os.makedirs(snap_dir, exist_ok=True)
            misses = prepare_warm_snapshots(misses, snap_dir, self._note)
            if self._host is not None:
                # remote workers cannot read this disk: ship the files
                misses = [replace(spec,
                                  snapshot=self._register_artifact(
                                      spec.snapshot))
                          for spec in misses]
        jobs = [_BrokerJob(batch=batch, spec=spec) for spec in misses]
        if jobs:
            with self._submit_lock:
                self._submitted.append(jobs)
            self._wakeup()
        self._note(f"batch {batch_id}: {len(hits)} cached, "
                   f"{len(jobs)} queued")
        return batch

    def _spawn_local_workers(self, count: int) -> None:
        """Fork ``count`` workers attached over socketpairs.

        Called before :meth:`start`, so that no worker is forked while
        the loop thread runs.  Their logs land in ``data_dir``, and
        :meth:`stop` joins them.
        """
        if self._thread is not None:
            raise RuntimeError("local workers must fork before start()")
        ctx = _mp_context()
        for index in range(count):
            ours, theirs = socket.socketpair()
            # not daemonic: each worker forks a child per job attempt
            proc = ctx.Process(target=_local_worker,
                               args=(theirs, ours, f"local-{index}",
                                     self.data_dir),
                               name=f"campaign-worker-{index}")
            proc.start()
            theirs.close()
            ours.setblocking(False)
            self._local.append(_Conn(sock=ours, addr=("local",),
                                     proc=proc))

    # ----------------------------------------------------------------- #
    # loop internals (loop thread only, except _register_artifact which
    # is called before the jobs referencing the artifact are queued)
    # ----------------------------------------------------------------- #

    def _register_artifact(self, path: str) -> str:
        with open(path) as handle:
            data = handle.read()
        artifact_id = ("snap-"
                       + hashlib.sha256(data.encode()).hexdigest()[:16])
        self._artifacts.setdefault(artifact_id, data)
        return f"artifact:{artifact_id}"

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except OSError:
            pass

    def _effective_timeout(self, job: _BrokerJob) -> float:
        if job.batch.timeout is not None:
            return job.batch.timeout
        return job.spec.timeout

    def _effective_retries(self, job: _BrokerJob) -> int:
        if job.batch.retries is not None:
            return job.batch.retries
        return job.spec.retries

    def _loop(self) -> None:
        sel = selectors.DefaultSelector()
        if self._listener is not None:
            sel.register(self._listener, selectors.EVENT_READ, "listener")
        sel.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        pending: deque = deque()
        delayed: List[_BrokerJob] = []
        conns: Dict[socket.socket, _Conn] = {}
        for conn in self._local:
            conn.last_seen = time.perf_counter()
            conns[conn.sock] = conn
            sel.register(conn.sock, selectors.EVENT_READ, conn)

        def want(conn: _Conn) -> None:
            events = selectors.EVENT_READ
            if conn.outbox:
                events |= selectors.EVENT_WRITE
            sel.modify(conn.sock, events, conn)

        def push(conn: _Conn, message: dict) -> None:
            conn.outbox.extend(pack_frame(message))
            want(conn)

        def worker_lost(job: _BrokerJob, why: str) -> None:
            payload = {
                "job": job.spec.to_dict(),
                "status": "crashed",
                "error": {"type": "WorkerLost",
                          "message": f"worker connection lost mid-job "
                                     f"({why}); requeued"},
            }
            self._handle_outcome(job, payload, pending, delayed)

        def drop(conn: _Conn, why: str) -> None:
            self._note(f"worker {conn.name}#{conn.worker_id}: {why}")
            if conn.hello_done:
                self._worker_count -= 1
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conns.pop(conn.sock, None)
            try:
                conn.sock.close()
            except OSError:
                pass
            if conn.job is not None:
                job, conn.job = conn.job, None
                worker_lost(job, why)

        def dispatch() -> None:
            if not pending:
                return
            for conn in list(conns.values()):
                if not pending:
                    return
                if (conn.hello_done and conn.requested
                        and conn.job is None):
                    job = pending.popleft()
                    job_timeout = self._effective_timeout(job)
                    conn.job = job
                    conn.requested = False
                    conn.deadline = (time.perf_counter() + job_timeout
                                     + self.grace)
                    message = {"type": "job",
                               "spec": job.spec.to_dict(),
                               "attempt": job.attempt,
                               "timeout": job_timeout}
                    push(conn, message)
                    self._note(f"assign {job.spec.job_id} -> "
                               f"{conn.name}#{conn.worker_id} "
                               f"(attempt {job.attempt})")

        def on_message(conn: _Conn, message: dict) -> None:
            kind = message.get("type")
            if not conn.hello_done:
                if (kind != "hello"
                        or message.get("proto") != PROTO_SCHEMA):
                    push(conn, {"type": "error",
                                "message": f"handshake must be a "
                                           f"{PROTO_SCHEMA} hello"})
                    raise ProtocolError("bad handshake")
                conn.hello_done = True
                conn.name = str(message.get("name") or "worker")
                self._worker_seq += 1
                conn.worker_id = self._worker_seq
                self._worker_count += 1
                push(conn, {"type": "welcome", "proto": PROTO_SCHEMA,
                            "name": self.name, "id": conn.worker_id})
                self._note(f"worker {conn.name}#{conn.worker_id} "
                           f"connected from {conn.addr[0]}")
                return
            if kind == "request":
                conn.requested = True
                dispatch()
            elif kind == "heartbeat":
                pass   # last_seen was already refreshed
            elif kind == "result":
                record = message.get("record")
                job, conn.job = conn.job, None
                if job is None or not isinstance(record, dict):
                    self._note(f"worker {conn.name}#{conn.worker_id}: "
                               "dropping late/unsolicited result")
                    return
                record.setdefault("job", job.spec.to_dict())
                if record["job"].get("job_id") != job.spec.job_id:
                    conn.job = job   # not ours: keep waiting
                    return
                self._handle_outcome(job, record, pending, delayed)
                dispatch()
            elif kind == "fetch":
                artifact_id = message.get("artifact_id")
                data = self._artifacts.get(artifact_id)
                if data is None:
                    push(conn, {"type": "error",
                                "message": f"unknown artifact "
                                           f"{artifact_id!r}"})
                else:
                    push(conn, {"type": "artifact",
                                "artifact_id": artifact_id,
                                "data": data})
            else:
                raise ProtocolError(f"unexpected message {kind!r}")

        while not self._stopping.is_set():
            for key, events in sel.select(timeout=self.tick):
                if key.data == "wakeup":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except BlockingIOError:
                        pass
                elif key.data == "listener":
                    try:
                        sock, addr = self._listener.accept()
                    except OSError:
                        continue
                    sock.setblocking(False)
                    conn = _Conn(sock=sock, addr=addr,
                                 last_seen=time.perf_counter())
                    conns[sock] = conn
                    sel.register(sock, selectors.EVENT_READ, conn)
                else:
                    conn = key.data
                    if events & selectors.EVENT_WRITE and conn.outbox:
                        try:
                            sent = conn.sock.send(conn.outbox)
                            del conn.outbox[:sent]
                            want(conn)
                        except BlockingIOError:
                            pass
                        except OSError as exc:
                            drop(conn, f"send failed: {exc}")
                            continue
                    if events & selectors.EVENT_READ:
                        try:
                            data = conn.sock.recv(65536)
                        except BlockingIOError:
                            continue
                        except OSError as exc:
                            drop(conn, f"recv failed: {exc}")
                            continue
                        if not data:
                            drop(conn, "disconnected")
                            continue
                        conn.last_seen = time.perf_counter()
                        try:
                            for message in conn.buffer.feed(data):
                                on_message(conn, message)
                        except ProtocolError as exc:
                            drop(conn, f"protocol error: {exc}")

            # pick up newly submitted batches
            with self._submit_lock:
                fresh, self._submitted = self._submitted, []
            for jobs in fresh:
                pending.extend(jobs)
            # backoff-delayed retries that are ready again
            now = time.perf_counter()
            for job in [j for j in delayed if j.ready_at <= now]:
                delayed.remove(job)
                pending.append(job)
            dispatch()
            # liveness: exited and silent workers are dead workers
            for conn in list(conns.values()):
                if conn.proc is not None and not conn.proc.is_alive():
                    drop(conn, f"exited with code {conn.proc.exitcode}")
                elif (conn.hello_done
                        and now - conn.last_seen > self.worker_timeout):
                    drop(conn, "heartbeat silence "
                               f"({self.worker_timeout:g}s); "
                               "requeueing its job")
                elif conn.job is not None and now >= conn.deadline:
                    # the worker should have enforced the budget itself;
                    # it did not report back in time, so the broker rules
                    job, conn.job = conn.job, None
                    self._handle_outcome(
                        job, _timeout_payload(job.spec,
                                              self._effective_timeout(job)),
                        pending, delayed)
            if self._listener is None and not conns and (pending
                                                         or delayed):
                self._abandon(pending, delayed)

        # drain: tell every worker the campaign service is going away
        for conn in list(conns.values()):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(1.0)
                conn.sock.sendall(bytes(conn.outbox)
                                  + pack_frame({"type": "shutdown"}))
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        sel.close()
        if self._listener is not None:
            self._listener.close()

    def _abandon(self, pending: deque, delayed: List[_BrokerJob]) -> None:
        """Every local worker is gone and none can connect: fail the
        unfinished batches rather than wait forever."""
        for conn in self._local:
            conn.proc.join(timeout=1.0)   # an EOF can beat the exit
        codes = ", ".join(str(conn.proc.exitcode) for conn in self._local)
        left = len(pending) + len(delayed)
        error = RuntimeError(f"every local worker exited (exit codes "
                             f"{codes}) with {left} jobs left")
        self._note(str(error))
        for batch in {job.batch for job in [*pending, *delayed]}:
            batch.fail(error)
        pending.clear()
        delayed.clear()

    def _handle_outcome(self, job: _BrokerJob, payload: dict,
                        pending: deque, delayed: List[_BrokerJob]) -> None:
        """The terminal-or-retry decision, for every campaign."""
        if (payload.get("status") == "crashed"
                and job.attempt < self._effective_retries(job)):
            job.history.append(payload.get("error", {}))
            delay = job.spec.backoff * (2 ** job.attempt)
            self._note(f"retry {job.spec.job_id} in {delay:.2f}s "
                       f"(attempt {job.attempt + 1})")
            delayed.append(replace(job, attempt=job.attempt + 1,
                                   ready_at=time.perf_counter() + delay))
            return
        record = replace(
            JobResult.from_json(payload),
            attempts=job.attempt + 1,
            retried_errors=tuple(job.history))
        batch = job.batch
        if (batch.cache is not None and record.ran
                and record.job.job_id in batch.cache_keys):
            batch.cache.put(batch.cache_keys[record.job.job_id], record)
        batch.record(record)
        self._note(f"done  {record.job.job_id}: {record.status}")


# --------------------------------------------------------------------- #
# worker
# --------------------------------------------------------------------- #

def _connect(host: str, port: int, connect_timeout: float,
             note: Callable[[str], None]) -> socket.socket:
    deadline = time.monotonic() + connect_timeout
    attempt = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            # a worker writes ``result`` then ``request``: without this,
            # Nagle holds the second frame until the broker's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            attempt += 1
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not reach broker at {host}:{port} within "
                    f"{connect_timeout:g}s: {exc}") from None
            if attempt == 1:
                note(f"waiting for broker at {host}:{port} ...")
            time.sleep(0.2)


def _recv_or_heartbeat(sock: socket.socket, buffer: FrameBuffer,
                       heartbeat: float,
                       job_id: Optional[str] = None) -> Optional[dict]:
    """Next broker message; heartbeats through recv timeouts forever."""
    while True:
        try:
            return recv_frame(sock, buffer, timeout=heartbeat)
        except socket.timeout:
            message = {"type": "heartbeat"}
            if job_id is not None:
                message["job_id"] = job_id
            send_frame(sock, message)


def _fetch_artifact(sock: socket.socket, buffer: FrameBuffer,
                    artifact_id: str, cache_dir: str,
                    heartbeat: float) -> str:
    """Download a broker artifact once; reuse it for later jobs."""
    path = os.path.join(cache_dir, f"{artifact_id}.json")
    if os.path.exists(path):
        return path
    send_frame(sock, {"type": "fetch", "artifact_id": artifact_id})
    message = _recv_or_heartbeat(sock, buffer, heartbeat)
    if message is None or message.get("type") != "artifact":
        raise ProtocolError(
            f"broker did not deliver artifact {artifact_id!r}: "
            f"{message and message.get('message')}")
    with open(path + ".tmp", "w") as handle:
        handle.write(message["data"])
    os.replace(path + ".tmp", path)
    return path


def _run_one_job(spec: JobSpec, attempt: int, job_timeout: float,
                 log_path: str, sock: socket.socket,
                 heartbeat: float) -> dict:
    """One attempt in a child process, with local budget enforcement.

    The worker's own process stays alive whatever the job does: a job
    that raises, hard-dies or hangs only ever takes down its own child.
    Heartbeats flow to the broker while the simulation runs.
    """
    from repro.campaign.worker import child_main

    ctx = _mp_context()
    recv, send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=child_main,
        args=(send, spec.to_dict(), attempt, log_path),
        name=f"worker-{spec.job_id}", daemon=True)
    process.start()
    send.close()
    deadline = time.monotonic() + job_timeout
    last_beat = time.monotonic()
    payload: Optional[dict] = None
    while True:
        now = time.monotonic()
        if now - last_beat >= heartbeat:
            send_frame(sock, {"type": "heartbeat",
                              "job_id": spec.job_id})
            last_beat = now
        try:
            if recv.poll(0.1):
                payload = recv.recv()
                break
        except (EOFError, OSError):
            break
        if not process.is_alive():
            break
        if now >= deadline:
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
            payload = _timeout_payload(spec, job_timeout)
            break
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=2.0)
    recv.close()
    if payload is None:
        exitcode = process.exitcode
        payload = {
            "job": spec.to_dict(),
            "status": "crashed",
            "error": {
                "type": "WorkerDied",
                "message": f"worker exited with code {exitcode} "
                           "before sending a result",
                "exitcode": exitcode,
            },
        }
    if payload.get("status") != "ok":
        payload.setdefault("log_tail", _log_tail(log_path))
    return payload


def run_worker(host: str, port: int, name: Optional[str] = None,
               heartbeat: float = 2.0,
               connect_timeout: float = 30.0,
               once: bool = False,
               progress: Optional[Callable[[str], None]] = None) -> dict:
    """Connect to a broker and pull jobs until it says shutdown.

    Returns worker statistics (``{"jobs": n, "by_status": {...}}``).
    ``once`` exits after the first completed job (handy in tests and for
    scale-to-zero deployments).
    """
    note = progress or (lambda message: None)
    sock = _connect(host, port, connect_timeout, note)
    return _pull_jobs(sock, name or f"{socket.gethostname()}-{os.getpid()}",
                      heartbeat=heartbeat, once=once, note=note)


def _pull_jobs(sock: socket.socket, name: str, heartbeat: float = 2.0,
               once: bool = False,
               note: Callable[[str], None] = lambda message: None,
               log_dir: Optional[str] = None) -> dict:
    """The worker loop over a connected socket, TCP or socketpair.

    Attempt logs go to ``log_dir``, or to a private directory that is
    removed when the worker exits.
    """
    stats: Dict[str, int] = {}
    jobs_done = 0
    buffer = FrameBuffer()
    try:
        send_frame(sock, hello(name))
        welcome = check_handshake(
            recv_frame(sock, buffer, timeout=10.0), "welcome")
        note(f"connected to {welcome.get('name')} "
             f"as worker #{welcome.get('id')}")
        with tempfile.TemporaryDirectory(
                prefix="repro-worker-") as workdir:
            artifact_dir = os.path.join(workdir, "artifacts")
            os.makedirs(artifact_dir, exist_ok=True)
            while True:
                send_frame(sock, {"type": "request"})
                message = _recv_or_heartbeat(sock, buffer, heartbeat)
                if message is None or message.get("type") == "shutdown":
                    note("broker finished; shutting down")
                    break
                kind = message.get("type")
                if kind == "error":
                    raise ProtocolError(
                        f"broker error: {message.get('message')}")
                if kind != "job":
                    raise ProtocolError(
                        f"unexpected broker message {kind!r}")
                spec = JobSpec.from_dict(dict(message["spec"]))
                attempt = int(message.get("attempt", 0))
                job_timeout = float(message.get("timeout",
                                                spec.timeout))
                if spec.snapshot and spec.snapshot.startswith(
                        "artifact:"):
                    local = _fetch_artifact(
                        sock, buffer, spec.snapshot.split(":", 1)[1],
                        artifact_dir, heartbeat)
                    spec = replace(spec, snapshot=local)
                # job ids may embed path separators (dynamic gen/...
                # workloads): flatten them so every log lands in one dir
                safe_id = (spec.job_id.replace(os.sep, "_")
                           .replace("/", "_"))
                log_path = os.path.join(
                    log_dir or workdir, f"{safe_id}.a{attempt}.log")
                note(f"run   {spec.job_id} (attempt {attempt})")
                payload = _run_one_job(spec, attempt, job_timeout,
                                       log_path, sock, heartbeat)
                send_frame(sock, {"type": "result", "record": payload})
                status = payload.get("status", "?")
                stats[status] = stats.get(status, 0) + 1
                jobs_done += 1
                note(f"sent  {spec.job_id}: {status}")
                if once:
                    break
    except (ConnectionError, BrokenPipeError, OSError) as exc:
        note(f"connection to broker lost: {exc}")
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return {"jobs": jobs_done, "by_status": dict(sorted(stats.items()))}


def _local_worker(sock: socket.socket, broker_end: socket.socket,
                  name: str, log_dir: str) -> None:
    # the fork copied the broker's end of the pair; holding it would keep
    # this worker from ever seeing EOF should the broker die
    broker_end.close()
    try:
        _pull_jobs(sock, name, log_dir=log_dir)
    except KeyboardInterrupt:
        # a Ctrl-C at the terminal reaches the whole process group and the
        # parent handles it; leaving quietly also terminates the attempt's
        # daemonic child
        pass


def _run_batch(broker: Broker, specs: List[JobSpec], workers: int,
               wait_timeout: Optional[float] = None,
               **submit) -> CampaignResult:
    """Submit one batch, fork up to ``workers`` local workers for what
    the cache did not answer, run the loop until the batch is done, and
    tear everything down."""
    try:
        batch = broker.submit(specs, **submit)
        if not batch.done:
            broker._spawn_local_workers(
                min(workers, len(batch.specs) - batch.cache_hits))
            broker.start()
        return batch.wait(timeout=wait_timeout)
    finally:
        broker.stop()


def run_campaign_distributed(
        specs: List[JobSpec],
        host: str = "127.0.0.1", port: int = 0,
        workers: int = 0,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        warm_start: bool = False,
        cache=None,
        on_record: Optional[Callable[[JobResult], None]] = None,
        progress: Optional[Callable[[str], None]] = None,
        wait_timeout: Optional[float] = None) -> CampaignResult:
    """One campaign over the socket path, broker lifecycle included.

    Starts a broker on ``host:port``, optionally forks ``workers`` local
    worker processes, waits for the batch, and tears everything down.
    With ``workers=0`` the call blocks until *external* workers
    (``repro worker --connect``) drain the queue — that is the
    ``campaign run --listen`` mode.  A batch the cache answers in full
    returns without binding or forking anything.
    """
    broker = Broker(host=host, port=port, cache=cache, progress=progress)
    return _run_batch(broker, specs, workers, wait_timeout=wait_timeout,
                      timeout=timeout, retries=retries,
                      warm_start=warm_start, on_record=on_record)


# --------------------------------------------------------------------- #
# http facade
# --------------------------------------------------------------------- #

class CampaignService:
    """Campaign submissions over HTTP, backed by one :class:`Broker`.

    The API is deliberately async-poll (202 + status URL) because a
    campaign runs for minutes: nothing in the stack holds an HTTP
    connection open across a simulation.
    """

    def __init__(self, broker: Broker):
        self.broker = broker
        self._lock = threading.Lock()
        self._seq = 0
        self._campaigns: Dict[str, Batch] = {}
        self._errors: Dict[str, str] = {}

    def submit(self, document: dict) -> dict:
        """Parse a matrix document and queue it; returns the 202 body."""
        from repro.campaign.matrix import parse_matrix

        matrix = parse_matrix(document, source="<http>")
        specs = matrix.jobs()
        with self._lock:
            self._seq += 1
            campaign_id = f"c{self._seq:06d}"
        cache = self.broker.cache if matrix.cache else None
        batch = self.broker.submit(
            specs, warm_start=matrix.warm_start, cache=cache,
            batch_id=campaign_id)
        with self._lock:
            self._campaigns[campaign_id] = batch
        return {
            "schema": SERVICE_SCHEMA,
            "id": campaign_id,
            "jobs": len(specs),
            "status_url": f"/campaigns/{campaign_id}",
            "report_url": f"/campaigns/{campaign_id}/report",
        }

    def get(self, campaign_id: str) -> Optional[Batch]:
        with self._lock:
            return self._campaigns.get(campaign_id)

    def health(self) -> dict:
        with self._lock:
            campaigns = len(self._campaigns)
        return {"schema": SERVICE_SCHEMA, "ok": True,
                "workers": self.broker.worker_count,
                "campaigns": campaigns}


def _make_handler(service: CampaignService):
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-campaign/1"

        def log_message(self, format, *args):   # noqa: A002 - stdlib name
            pass   # the progress callback is the service's log

        def _reply(self, code: int, body, content_type="application/json"):
            if isinstance(body, (dict, list)):
                data = (json.dumps(body, indent=2, sort_keys=True)
                        + "\n").encode()
            else:
                data = body.encode() if isinstance(body, str) else body
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            if parts == ["healthz"]:
                return self._reply(200, service.health())
            if len(parts) >= 2 and parts[0] == "campaigns":
                batch = service.get(parts[1])
                if batch is None:
                    return self._reply(404, {"error": "no such campaign",
                                             "id": parts[1]})
                if len(parts) == 2:
                    return self._reply(200, batch.status())
                if parts[2] == "report":
                    if not batch.done:
                        return self._reply(
                            409, {"error": "campaign still running",
                                  "status": batch.status()})
                    from repro.campaign.report import (
                        aggregate, render_markdown)
                    result = batch.result()
                    document = aggregate(
                        result.records,
                        wall_seconds=result.wall_seconds)
                    if "format=markdown" in query:
                        return self._reply(
                            200, render_markdown(result.records,
                                                 document),
                            content_type="text/markdown")
                    return self._reply(200, document)
            return self._reply(404, {"error": f"no route for {path}"})

        def do_POST(self):
            path = self.path.partition("?")[0].rstrip("/")
            if path != "/campaigns":
                return self._reply(404, {"error": f"no route for {path}"})
            try:
                length = int(self.headers.get("Content-Length", 0))
                document = json.loads(self.rfile.read(length) or b"{}")
                body = service.submit(document)
            except ValueError as exc:
                return self._reply(400, {"error": str(exc)})
            return self._reply(202, body)

    return Handler


def serve(host: str = "127.0.0.1", port: int = 8437,
          worker_host: str = "127.0.0.1", worker_port: int = 0,
          cache=None, local_workers: int = 0,
          data_dir: Optional[str] = None,
          progress: Optional[Callable[[str], None]] = None,
          ready: Optional[Callable[[dict], None]] = None) -> None:
    """Run the campaign service until interrupted.

    Forks ``local_workers`` worker processes, starts the broker (remote
    workers connect to ``worker_host:worker_port``), and serves the HTTP
    API on ``host:port``.  ``ready`` (if given) receives the bound
    addresses once everything is listening — tests use it, humans read
    the progress lines.
    """
    from http.server import ThreadingHTTPServer

    note = progress or (lambda message: None)
    broker = Broker(host=worker_host, port=worker_port, cache=cache,
                    data_dir=data_dir, progress=note)
    service = CampaignService(broker)
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    broker._spawn_local_workers(local_workers)
    bound_host, bound_port = broker.start()
    addresses = {"http": server.server_address[:2],
                 "broker": (bound_host, bound_port),
                 # embedders (tests) stop the service through this; the
                 # CLI stops it with SIGINT
                 "shutdown": server.shutdown}
    note(f"campaign service on http://{addresses['http'][0]}:"
         f"{addresses['http'][1]} (broker {bound_host}:{bound_port}, "
         f"{local_workers} local workers)")
    if ready is not None:
        ready(addresses)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        note("interrupted; shutting down")
    finally:
        server.shutdown()
        server.server_close()
        broker.stop()
