"""Replay-equivalence and warm-start tests: resuming a snapshot (in a
fresh process) must be indistinguishable from an uninterrupted run, and
a warm-started campaign must aggregate identically to a cold one."""

import pytest

from repro.campaign import (
    aggregate,
    deterministic_view,
    parse_matrix,
    run_campaign,
)
from repro.verify.replay import (
    REPLAY_MODES,
    format_report,
    run_replay_suite,
    verify_replay,
)

#: CI-sized suite knobs: one snapshot point a few quanta in, a budget
#: small enough that the slowest workload finishes in a few seconds
PAUSE_AT = 3000
BUDGET = 30000


class TestReplayEquivalence:
    @pytest.mark.parametrize("mode", REPLAY_MODES)
    def test_qsort_replays_identically(self, mode):
        comparison = verify_replay("qsort", mode, pause_at=PAUSE_AT,
                                   max_instructions=BUDGET)
        assert comparison.equivalent, comparison.mismatches
        assert comparison.paused_at >= PAUSE_AT

    @pytest.mark.parametrize("mode", REPLAY_MODES)
    def test_sensor_workload_replays_identically(self, mode):
        # simple-sensor reads its frames through the CPU's DMI window, so
        # a restore must refill the granted buffer in place
        comparison = verify_replay("simple-sensor", mode, pause_at=PAUSE_AT,
                                   max_instructions=BUDGET)
        assert comparison.equivalent, comparison.mismatches

    def test_workload_with_externals_replays_identically(self):
        # immo-fixed carries an external ECU model (its own RNG stream
        # and CAN traffic) through the snapshot
        comparison = verify_replay("immo-fixed", "full", pause_at=PAUSE_AT,
                                   max_instructions=BUDGET)
        assert comparison.equivalent, comparison.mismatches

    def test_suite_runs_selected_workloads(self):
        results = run_replay_suite(workloads=["primes"], modes=["demand"],
                                   pause_at=PAUSE_AT,
                                   max_instructions=BUDGET)
        assert len(results) == 1
        assert results[0].equivalent, results[0].mismatches
        report = format_report(results)
        assert "1/1 equivalent" in report

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            verify_replay("qsort", "turbo")


class TestReplayWithJit:
    """The trace cache is derived state: a resumed run recompiles from
    scratch and still converges on the same final state."""

    @pytest.mark.parametrize("mode", REPLAY_MODES)
    def test_dhrystone_replays_identically_under_jit(self, mode):
        # dhrystone is the registry's most jit-friendly workload, so the
        # resumed leg provably re-enters compiled code before finishing
        comparison = verify_replay("dhrystone", mode, pause_at=PAUSE_AT,
                                   max_instructions=BUDGET, jit=True)
        assert comparison.equivalent, comparison.mismatches
        assert comparison.paused_at >= PAUSE_AT

    def test_jit_suite_leg_runs(self):
        results = run_replay_suite(workloads=["qsort"], modes=["full"],
                                   pause_at=PAUSE_AT,
                                   max_instructions=BUDGET, jit=True)
        assert len(results) == 1
        assert results[0].equivalent, results[0].mismatches


class TestWarmStart:
    MATRIX = {
        "schema": "repro.campaign.matrix/1",
        "defaults": {"max_instructions": 20000, "timeout": 120.0},
        "axes": {
            "workload": ["qsort", "primes"],
            "policy": ["default", "none"],
            "dift_mode": ["full", "demand"],
            "seed": [0],
        },
    }

    def _run(self, tmp_path, warm_start, sub):
        matrix = parse_matrix(dict(self.MATRIX), source="<test>")
        result = run_campaign(matrix.jobs(), jobs=2,
                              log_dir=str(tmp_path / sub),
                              warm_start=warm_start)
        assert result.all_ok, [r["status"] for r in result.records]
        return result

    def test_warm_aggregate_matches_cold_outside_timing(self, tmp_path):
        cold = self._run(tmp_path, False, "cold")
        warm = self._run(tmp_path, True, "warm")
        assert (deterministic_view(aggregate(cold.records))
                == deterministic_view(aggregate(warm.records)))

    def test_warm_start_shares_snapshots_across_jobs(self, tmp_path):
        # two jobs differing only in max_instructions share one boot
        # configuration, hence one snapshot file
        matrix = parse_matrix({
            "schema": "repro.campaign.matrix/1",
            "defaults": {"max_instructions": 20000, "timeout": 120.0},
            "axes": {"workload": ["qsort"]},
            "include": [{"workload": "qsort", "max_instructions": 5000}],
        }, source="<test>")
        result = run_campaign(matrix.jobs(), jobs=1,
                              log_dir=str(tmp_path / "share"),
                              warm_start=True)
        assert result.all_ok
        paths = {record.job.snapshot for record in result.records}
        assert len(result.records) == 2
        assert len(paths) == 1
        assert None not in paths

    def test_matrix_warm_start_flag_parses(self):
        doc = dict(self.MATRIX, warm_start=True)
        assert parse_matrix(doc, source="<test>").warm_start is True
        with pytest.raises(Exception, match="warm_start"):
            parse_matrix(dict(self.MATRIX, warm_start="yes"),
                         source="<test>")

    def test_jobspec_snapshot_not_settable_from_matrix(self):
        doc = dict(self.MATRIX,
                   include=[{"workload": "qsort", "snapshot": "x.json"}])
        with pytest.raises(Exception, match="snapshot"):
            parse_matrix(doc, source="<test>").jobs()

    def test_cold_jobs_carry_no_snapshot(self, tmp_path):
        cold = self._run(tmp_path, False, "cold")
        assert all(r.job.snapshot is None for r in cold.records)
