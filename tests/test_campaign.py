"""Tests for the campaign runner: matrix expansion, the process-per-job
scheduler (crash isolation, timeouts, retry) through both entry points,
and report determinism."""

import json

import pytest

from repro.bench.workloads import workload_names
from repro.campaign import (
    JobSpec,
    MatrixError,
    aggregate,
    deterministic_view,
    full_matrix,
    load_matrix,
    parse_matrix,
    render_markdown,
    run_campaign,
    run_campaign_distributed,
    write_outputs,
)
from repro.campaign.report import JSONL_NAME, load_jsonl
from repro.campaign.worker import DIE_EXIT_CODE, split_timing_metrics


def make_spec(job_id, workload="primes", **kwargs):
    kwargs.setdefault("max_instructions", 20_000)
    kwargs.setdefault("timeout", 60.0)
    return JobSpec(job_id=job_id, workload=workload, **kwargs)


MATRIX_DOC = {
    "schema": "repro.campaign.matrix/1",
    "defaults": {"max_instructions": 20000},
    "axes": {
        "workload": ["qsort", "primes"],
        "policy": ["default", "none"],
        "dift_mode": ["full", "demand"],
        "seed": [0],
    },
}


class TestMatrix:
    def test_cartesian_expansion_with_none_collapse(self):
        jobs = parse_matrix(dict(MATRIX_DOC)).jobs()
        ids = [j.job_id for j in jobs]
        # 2 workloads x (default x 2 modes + none collapsed to one job)
        assert len(jobs) == 6
        assert ids == sorted(ids)
        assert "primes.default.demand.s0" in ids
        assert "primes.none.none.s0" in ids
        assert not any(".none.full." in i or ".none.demand." in i
                       for i in ids)

    def test_defaults_apply_to_every_job(self):
        for job in parse_matrix(dict(MATRIX_DOC)).jobs():
            assert job.max_instructions == 20000

    def test_exclude_drops_matching_jobs(self):
        doc = dict(MATRIX_DOC,
                   exclude=[{"workload": "primes", "dift_mode": "demand"}])
        ids = [j.job_id for j in parse_matrix(doc).jobs()]
        assert "primes.default.demand.s0" not in ids
        assert "qsort.default.demand.s0" in ids

    def test_include_appends_and_dedups(self):
        doc = dict(MATRIX_DOC,
                   include=[{"workload": "sha512"},
                            {"workload": "qsort", "seed": 0}])
        ids = [j.job_id for j in parse_matrix(doc).jobs()]
        assert "sha512.default.full.s0" in ids
        # collides with an axes job, so it gets the .i<N> suffix
        assert "qsort.default.full.s0.i1" in ids

    def test_include_inherits_defaults(self):
        doc = dict(MATRIX_DOC, include=[{"workload": "sha512"}])
        sha = [j for j in parse_matrix(doc).jobs()
               if j.workload == "sha512"][0]
        assert sha.max_instructions == 20000

    def test_unknown_workload_lists_available(self):
        doc = dict(MATRIX_DOC, axes=dict(MATRIX_DOC["axes"],
                                         workload=["nonesuch"]))
        with pytest.raises(MatrixError, match="nonesuch") as err:
            parse_matrix(doc).jobs()
        assert "qsort" in str(err.value)   # message lists the registry

    def test_unknown_axis_rejected(self):
        doc = dict(MATRIX_DOC, axes=dict(MATRIX_DOC["axes"], turbo=[1]))
        with pytest.raises(MatrixError, match="turbo"):
            parse_matrix(doc)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(MatrixError, match="jobz"):
            parse_matrix(dict(MATRIX_DOC, jobz=[]))

    def test_wrong_schema_rejected(self):
        with pytest.raises(MatrixError, match="schema"):
            parse_matrix(dict(MATRIX_DOC, schema="repro.campaign.matrix/9"))

    def test_bad_inject_rejected(self):
        doc = dict(MATRIX_DOC, include=[{"workload": "qsort",
                                         "inject": "explode"}])
        with pytest.raises(MatrixError, match="inject"):
            parse_matrix(doc).jobs()

    def test_flaky_inject_accepted(self):
        doc = dict(MATRIX_DOC, include=[{"workload": "qsort",
                                         "inject": "flaky:2"}])
        assert any(j.inject == "flaky:2" for j in parse_matrix(doc).jobs())

    def test_empty_matrix_rejected(self):
        with pytest.raises(MatrixError, match="workload"):
            parse_matrix({"axes": {}})

    def test_load_matrix_missing_file(self, tmp_path):
        with pytest.raises(MatrixError, match="cannot read"):
            load_matrix(str(tmp_path / "nope.json"))

    def test_load_matrix_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixError, match="not valid JSON"):
            load_matrix(str(path))

    def test_full_matrix_covers_registry(self):
        jobs = full_matrix(max_instructions=1000).jobs()
        assert {j.workload for j in jobs} == set(workload_names())
        assert len(jobs) == 2 * len(workload_names())   # full + demand


class _InjectionCases:
    """Crash, hard death, hang and retry, whichever way the campaign is
    driven: each subclass supplies ``campaign(specs, jobs, tmp_path)``."""

    def test_crash_is_contained_and_reported(self, tmp_path):
        specs = [make_spec("boom", inject="crash", retries=1, backoff=0.01),
                 make_spec("fine")]
        result = self.campaign(specs, 2, tmp_path)
        by_id = {r.job.job_id: r for r in result.records}
        crashed = by_id["boom"]
        assert crashed.status == "crashed"
        assert crashed.error["type"] == "InjectedFailure"
        assert any("InjectedFailure" in line
                   for line in crashed.error["traceback_tail"])
        assert crashed.attempts == 2             # initial + 1 retry
        assert len(crashed.retried_errors) == 1
        assert crashed.log_tail                  # traceback landed in the log
        # the neighbour is unaffected and the campaign itself never raises
        assert by_id["fine"].status == "ok"

    def test_hard_death_is_contained(self, tmp_path):
        specs = [make_spec("dead", inject="die", retries=0),
                 make_spec("fine")]
        result = self.campaign(specs, 2, tmp_path)
        by_id = {r.job.job_id: r for r in result.records}
        dead = by_id["dead"]
        assert dead.status == "crashed"
        assert dead.error["type"] == "WorkerDied"
        assert dead.error["exitcode"] == DIE_EXIT_CODE
        assert any("injected hard death" in line
                   for line in dead.log_tail)
        assert by_id["fine"].status == "ok"

    def test_hang_hits_timeout_without_retry(self, tmp_path):
        specs = [make_spec("stuck", inject="hang", timeout=1.0, retries=3),
                 make_spec("fine")]
        result = self.campaign(specs, 2, tmp_path)
        by_id = {r.job.job_id: r for r in result.records}
        stuck = by_id["stuck"]
        assert stuck.status == "timeout"
        assert stuck.error["type"] == "JobTimeout"
        assert stuck.attempts == 1               # hangs are never retried
        assert by_id["fine"].status == "ok"

    def test_flaky_job_retries_then_succeeds(self, tmp_path):
        specs = [make_spec("flaky", inject="flaky:2", retries=2,
                           backoff=0.01)]
        result = self.campaign(specs, 1, tmp_path)
        record = result.records[0]
        assert record.status == "ok"
        assert record.attempts == 3              # 2 injected failures + 1
        assert len(record.retried_errors) == 2
        assert all(e["type"] == "InjectedFailure"
                   for e in record.retried_errors)

    def test_retries_exhausted_stays_crashed(self, tmp_path):
        specs = [make_spec("flaky", inject="flaky:5", retries=1,
                           backoff=0.01)]
        result = self.campaign(specs, 1, tmp_path)
        assert result.records[0].status == "crashed"
        assert result.records[0].attempts == 2


class TestScheduler(_InjectionCases):
    def campaign(self, specs, jobs, tmp_path):
        return run_campaign(specs, jobs=jobs, log_dir=str(tmp_path))

    def test_small_campaign_all_ok(self, tmp_path):
        specs = [make_spec("primes.default.full.s0"),
                 make_spec("qsort.default.full.s0", workload="qsort")]
        result = run_campaign(specs, jobs=2, log_dir=str(tmp_path))
        assert result.all_ok
        assert result.status_counts["ok"] == 2
        ids = [r.job.job_id for r in result.records]
        assert ids == sorted(ids)
        for record in result.records:
            assert record.to_json()["schema"] == "repro.campaign.job/1"
            assert record.attempts == 1
            assert record.instructions > 0
            assert "cpu.instructions" in record.metrics
        # per-attempt worker logs land in log_dir
        assert (tmp_path / "primes.default.full.s0.a0.log").exists()

    def test_rejects_duplicate_ids_and_bad_pool(self):
        spec = make_spec("a")
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([spec, spec], jobs=1)
        with pytest.raises(ValueError, match="jobs"):
            run_campaign([spec], jobs=0)
        with pytest.raises(ValueError, match="no jobs"):
            run_campaign([], jobs=1)


class TestSchedulerDistributed(_InjectionCases):
    """The same cases through a listening broker and two local workers."""

    def campaign(self, specs, jobs, tmp_path):
        return run_campaign_distributed(specs, workers=2,
                                        wait_timeout=300.0)


def _strip_host_timing(record):
    doc = record.to_json()
    return {k: v for k, v in doc.items() if k != "timing"}


class TestDeterminism:
    """--jobs 1 and --jobs 4 must agree byte-for-byte modulo timing."""

    @pytest.fixture(scope="class")
    def runs(self):
        specs = full_matrix(max_instructions=25_000, timeout=120).jobs()
        serial = run_campaign(specs, jobs=1)
        fanned = run_campaign(specs, jobs=4)
        return serial, fanned

    def test_full_matrix_completes_clean(self, runs):
        serial, fanned = runs
        assert serial.status_counts["crashed"] == 0
        assert fanned.status_counts["crashed"] == 0
        assert serial.status_counts["timeout"] == 0
        assert fanned.status_counts["timeout"] == 0

    def test_records_identical_modulo_timing(self, runs):
        serial, fanned = runs
        canon = lambda result: json.dumps(
            [_strip_host_timing(r) for r in result.records],
            sort_keys=True)
        assert canon(serial) == canon(fanned)

    def test_aggregate_identical_modulo_timing(self, runs):
        serial, fanned = runs
        view = lambda result: json.dumps(
            deterministic_view(aggregate(result.records)), sort_keys=True)
        assert view(serial) == view(fanned)
        doc = aggregate(serial.records, wall_seconds=serial.wall_seconds)
        assert doc["schema"] == "repro.campaign/1"
        assert doc["jobs"]["total"] == len(serial.records)
        assert doc["instructions_total"] > 0
        assert doc["timing"]["throughput_jobs_per_s"] > 0


class TestReport:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        log_dir = tmp_path_factory.mktemp("logs")
        specs = [make_spec("primes.default.full.s0"),
                 make_spec("boom", inject="crash", retries=0)]
        return run_campaign(specs, jobs=2, log_dir=str(log_dir))

    def test_write_outputs_round_trips(self, result, tmp_path):
        doc = write_outputs(str(tmp_path), result.records,
                            wall_seconds=result.wall_seconds)
        loaded = load_jsonl(str(tmp_path / JSONL_NAME))
        assert [r.job.job_id for r in loaded] == ["boom",
                                                  "primes.default.full.s0"]
        on_disk = json.loads((tmp_path / "aggregate.json").read_text())
        assert on_disk == json.loads(json.dumps(doc))  # json-clean
        assert on_disk["jobs"]["by_status"] == {"crashed": 1, "ok": 1}
        assert on_disk["jobs"]["not_ok"] == ["boom"]

    def test_render_markdown_sections(self, result):
        text = render_markdown(result.records)
        assert "| primes.default.full.s0 |" in text
        assert "## Aggregate" in text
        assert "## Jobs needing attention" in text
        assert "InjectedFailure" in text

    def test_split_timing_metrics(self):
        deterministic, timing = split_timing_metrics(
            {"cpu.instructions": 10, "run.wall_seconds": 0.5,
             "run.mips": 2.0, "engine.checks_performed": 3})
        assert deterministic == {"cpu.instructions": 10,
                                 "engine.checks_performed": 3}
        assert set(timing) == {"run.wall_seconds", "run.mips"}
