"""Tests for campaign-as-a-service: the broker/worker socket path, its
determinism contract across local and distributed runs, dead-worker
requeue, the local broker's guarantees (no port, fork ordering, no hang
once its workers are gone), the HTTP facade, and campaign resume after a
hard kill."""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.campaign import (
    JobSpec,
    ResultCache,
    aggregate,
    deterministic_view,
    run_campaign,
    run_campaign_distributed,
    run_worker,
    serve,
)
from repro.campaign.proto import (
    FrameBuffer,
    hello,
    recv_frame,
    send_frame,
)
from repro.campaign.service import Broker, _connect


def spec(job_id="primes.default.full.s0", **kwargs):
    kwargs.setdefault("workload", "primes")
    kwargs.setdefault("max_instructions", 20_000)
    kwargs.setdefault("timeout", 120.0)
    return JobSpec(job_id=job_id, **kwargs)


def small_specs():
    return [spec(),
            spec("primes.default.demand.s0", dift_mode="demand"),
            spec("qsort.default.full.s0", workload="qsort")]


def _strip_timing(record):
    return {k: v for k, v in record.to_json().items() if k != "timing"}


class TestDistributedDeterminism:
    @pytest.fixture(scope="class")
    def runs(self):
        local = run_campaign(small_specs(), jobs=2)
        remote = run_campaign_distributed(small_specs(), workers=2,
                                          wait_timeout=300.0)
        return local, remote

    def test_all_jobs_complete(self, runs):
        local, remote = runs
        assert local.all_ok and remote.all_ok
        assert len(remote.records) == len(small_specs())

    def test_records_identical_outside_timing(self, runs):
        local, remote = runs
        assert ([_strip_timing(r) for r in local.records]
                == [_strip_timing(r) for r in remote.records])

    def test_aggregates_identical_outside_timing(self, runs):
        local, remote = runs
        view = lambda result: json.dumps(
            deterministic_view(aggregate(result.records)), sort_keys=True)
        assert view(local) == view(remote)


class TestBrokerCache:
    def test_fully_cached_batch_needs_no_workers(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = small_specs()
        run_campaign(specs, jobs=2, cache=cache)    # populate
        # zero workers attached: only the cache can complete this
        result = run_campaign_distributed(specs, workers=0, cache=cache,
                                          wait_timeout=30.0)
        assert result.cache_hits == len(specs)
        assert all(r.cached for r in result.records)

    def test_fully_cached_distributed_run_starts_no_worker(
            self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = small_specs()
        run_campaign(specs, jobs=2, cache=cache)    # populate
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(process):
            started.append(process.name)
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            start)
        began = time.monotonic()
        result = run_campaign_distributed(specs, workers=2, cache=cache,
                                          wait_timeout=30.0)
        assert time.monotonic() - began < 3.0
        assert started == []
        assert result.cache_hits == len(specs)

    def test_distributed_run_populates_the_shared_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        specs = small_specs()[:1]
        remote = run_campaign_distributed(specs, workers=1, cache=cache,
                                          wait_timeout=300.0)
        assert remote.all_ok and remote.cache_hits == 0
        assert len(cache) == 1
        local = run_campaign(specs, jobs=1, cache=cache)
        assert local.cache_hits == 1


class TestLocalBroker:
    """``run_campaign`` drives the broker with socketpair workers only."""

    def test_local_run_binds_no_port(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("a local campaign must not bind or listen")

        monkeypatch.setattr(socket.socket, "bind", refuse)
        monkeypatch.setattr(socket.socket, "listen", refuse)
        result = run_campaign(small_specs(), jobs=2)
        assert result.all_ok

    def test_killing_every_local_worker_raises(self):
        killed = []

        def kill_workers(message):
            # runs on the broker thread as the first job is handed out
            if message.startswith("assign") and not killed:
                for proc in multiprocessing.active_children():
                    if proc.name.startswith("campaign-worker-"):
                        os.kill(proc.pid, signal.SIGKILL)
                        killed.append(proc.pid)

        def hung(signum, frame):
            raise AssertionError("run_campaign waited on dead workers")

        specs = [spec(f"primes.{index}", max_instructions=200_000,
                      retries=1, backoff=0.01) for index in range(4)]
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError,
                               match="every local worker exited") as error:
                run_campaign(specs, jobs=2, progress=kill_workers)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 15.0
        assert len(killed) == 2
        assert f"-{signal.SIGKILL:d}" in str(error.value)


class TestForkOrdering:
    """No local worker forks while a broker thread runs: a fork copies
    only the forking thread, and CPython 3.12+ warns about it."""

    @pytest.fixture
    def forks(self, monkeypatch):
        seen = []
        real_fork = os.fork

        def fork():
            seen.append([thread.name for thread in threading.enumerate()
                         if thread.name == "campaign-broker"])
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return seen

    def test_run_campaign(self, forks):
        assert run_campaign(small_specs(), jobs=2).all_ok
        assert forks and not any(forks)

    def test_run_campaign_distributed(self, forks):
        result = run_campaign_distributed(small_specs(), workers=2,
                                          wait_timeout=300.0)
        assert result.all_ok
        assert forks and not any(forks)

    def test_serve(self, forks):
        ready = threading.Event()
        addresses = {}

        def on_ready(info):
            addresses.update(info)
            ready.set()

        thread = threading.Thread(
            target=serve,
            kwargs={"port": 0, "local_workers": 1, "ready": on_ready},
            daemon=True)
        thread.start()
        assert ready.wait(timeout=60.0)
        addresses["shutdown"]()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert forks and not any(forks)


class TestWorkerSocket:
    def test_connect_sets_tcp_nodelay(self):
        # a worker writes two small frames per job (result, request);
        # Nagle would hold the second one for a delayed ACK
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()[:2]
            sock = _connect(host, port, 5.0, lambda message: None)
            try:
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
            finally:
                sock.close()
        finally:
            listener.close()


class TestDeadWorkerRequeue:
    def test_lost_worker_requeues_as_retryable_crash(self):
        broker = Broker()
        host, port = broker.start()
        try:
            batch = broker.submit(
                [spec(retries=1, backoff=0.01, max_instructions=5_000)])
            # a fake worker takes the job and drops dead (socket close)
            sock = socket.create_connection((host, port), timeout=10.0)
            buffer = FrameBuffer()
            send_frame(sock, hello("doomed"))
            assert recv_frame(sock, buffer,
                              timeout=10.0)["type"] == "welcome"
            send_frame(sock, {"type": "request"})
            message = recv_frame(sock, buffer, timeout=10.0)
            assert message["type"] == "job"
            assert message["attempt"] == 0
            sock.close()
            # a real worker picks up the requeued attempt
            worker = threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"name": "rescue", "once": True}, daemon=True)
            worker.start()
            result = batch.wait(timeout=120.0)
            worker.join(timeout=30.0)
        finally:
            broker.stop()
        record = result.records[0]
        assert record.status == "ok"
        assert record.attempts == 2
        assert record.retried_errors[0]["type"] == "WorkerLost"


class TestHttpService:
    @pytest.fixture(scope="class")
    def service(self):
        addresses = {}
        started = threading.Event()

        def on_ready(info):
            addresses.update(info)
            started.set()

        thread = threading.Thread(
            target=serve,
            kwargs={"port": 0, "local_workers": 2, "ready": on_ready},
            daemon=True)
        thread.start()
        assert started.wait(timeout=60.0)
        host, port = addresses["http"]
        yield f"http://{host}:{port}"
        addresses["shutdown"]()
        thread.join(timeout=30.0)

    def _get(self, url, expect=200):
        try:
            with urllib.request.urlopen(url, timeout=30.0) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            assert error.code == expect
            return error.code, error.read()

    def test_submit_poll_report_round_trip(self, service):
        matrix = {
            "schema": "repro.campaign.matrix/1",
            "defaults": {"max_instructions": 20000},
            "axes": {"workload": ["primes"], "policy": ["default"],
                     "dift_mode": ["full", "demand"], "seed": [0]},
        }
        request = urllib.request.Request(
            f"{service}/campaigns", data=json.dumps(matrix).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.status == 202
            body = json.loads(response.read())
        assert body["jobs"] == 2
        status_url = f"{service}{body['status_url']}"
        deadline = time.monotonic() + 300.0
        while True:
            _, raw = self._get(status_url)
            status = json.loads(raw)
            if status["state"] == "done":
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.5)
        assert status["jobs"]["by_status"] == {"ok": 2}
        _, raw = self._get(f"{service}{body['report_url']}")
        report = json.loads(raw)
        assert report["schema"] == "repro.campaign/1"
        assert report["jobs"]["by_status"] == {"ok": 2}
        # byte-identical to the same matrix run in-process
        local = run_campaign([spec(timeout=120.0),
                              spec("primes.default.demand.s0",
                                   dift_mode="demand", timeout=120.0)],
                             jobs=2)
        assert (deterministic_view(report)
                == json.loads(json.dumps(deterministic_view(
                    aggregate(local.records)))))
        code, raw = self._get(
            f"{service}{body['report_url']}?format=markdown")
        assert code == 200
        assert raw.decode().startswith("# Campaign report")

    def test_health_and_error_paths(self, service):
        _, raw = self._get(f"{service}/healthz")
        health = json.loads(raw)
        assert health["ok"] is True
        code, _ = self._get(f"{service}/campaigns/c999999", expect=404)
        assert code == 404
        code, _ = self._get(f"{service}/nonesuch", expect=404)
        assert code == 404
        request = urllib.request.Request(
            f"{service}/campaigns", data=b'{"schema": "bogus/9"}',
            headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=30.0)
            raise AssertionError("expected a 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "schema" in json.loads(error.read())["error"]


MATRIX_DOC = {
    "schema": "repro.campaign.matrix/1",
    "defaults": {"max_instructions": 20000, "timeout": 120.0},
    "axes": {
        "workload": ["primes", "qsort"],
        "policy": ["default"],
        "dift_mode": ["full", "demand"],
        "seed": [0],
    },
}


class TestResumeAfterKill:
    """Satellite contract: kill -9 mid-campaign, resume, identical
    aggregate outside timing."""

    def _run_cli(self, args, **kwargs):
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + args,
            cwd=os.path.join(os.path.dirname(__file__), os.pardir),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, **kwargs)

    def test_kill_nine_then_resume_matches_clean_run(self, tmp_path):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps(MATRIX_DOC))
        out = tmp_path / "out"
        jsonl = out / "campaign.jsonl"

        victim = self._run_cli(["campaign", "run", "--matrix",
                                str(matrix), "--jobs", "1", "--out",
                                str(out), "--no-cache"])
        # wait for at least one streamed record, then kill -9
        deadline = time.monotonic() + 240.0
        while True:
            if jsonl.exists() and jsonl.read_text().count("\n") >= 1:
                break
            if victim.poll() is not None:
                raise AssertionError(
                    "campaign finished before it could be killed:\n"
                    + victim.stdout.read())
            assert time.monotonic() < deadline
            time.sleep(0.1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30.0)

        done_before = len([line for line
                           in jsonl.read_text().splitlines()
                           if line.strip()])
        assert done_before >= 1

        resumed = self._run_cli(["campaign", "run", "--matrix",
                                 str(matrix), "--jobs", "1", "--out",
                                 str(out), "--resume", "--no-cache"])
        output, _ = resumed.communicate(timeout=600.0)
        assert resumed.returncode == 0, output
        assert "resume:" in output

        clean_out = tmp_path / "clean"
        clean = self._run_cli(["campaign", "run", "--matrix",
                               str(matrix), "--jobs", "1", "--out",
                               str(clean_out), "--no-cache"])
        output, _ = clean.communicate(timeout=600.0)
        assert clean.returncode == 0, output

        resumed_doc = json.loads((out / "aggregate.json").read_text())
        clean_doc = json.loads(
            (clean_out / "aggregate.json").read_text())
        assert (deterministic_view(resumed_doc)
                == deterministic_view(clean_doc))
        # the resumed JSONL holds every job exactly once, sorted
        ids = [json.loads(line)["job"]["job_id"]
               for line in jsonl.read_text().splitlines() if line.strip()]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        assert len(ids) == clean_doc["jobs"]["total"]
