"""Tests for the benchmark harness (Table II machinery + LoC delta) and
the ``check_regression.py`` gate script."""

import importlib.util
import json
import os

import pytest

from repro.bench import locdelta
from repro.bench.runner import compare_workload, run_workload
from repro.bench.table2 import PAPER_TABLE2, format_against_paper, format_table
from repro.bench.workloads import (
    TABLE2_ORDER,
    WORKLOADS,
    UnknownWorkloadError,
    benchmark_policy,
    get_workload,
    workload_names,
)


class TestWorkloadRegistry:
    def test_paper_benchmark_set(self):
        assert TABLE2_ORDER == ["qsort", "dhrystone", "primes", "sha512",
                                "simple-sensor", "freertos-tasks",
                                "immo-fixed"]
        assert set(TABLE2_ORDER) == set(WORKLOADS)

    def test_paper_reference_covers_all(self):
        assert set(PAPER_TABLE2) == set(TABLE2_ORDER)

    def test_benchmark_policy_enables_all_checks(self):
        policy = benchmark_policy()
        assert policy.execution.fetch is not None
        assert policy.execution.branch is not None
        assert policy.execution.mem_addr is not None

    def test_workload_names_matches_table_order(self):
        assert workload_names() == TABLE2_ORDER
        assert workload_names() is not workload_names()   # defensive copy

    def test_get_workload(self):
        assert get_workload("primes") is WORKLOADS["primes"]

    def test_get_workload_unknown_lists_registry(self):
        with pytest.raises(UnknownWorkloadError) as err:
            get_workload("nonesuch")
        message = str(err.value)
        assert "nonesuch" in message
        for name in TABLE2_ORDER:
            assert name in message


class TestRunner:
    def test_run_workload_plain(self):
        measurement = run_workload(WORKLOADS["primes"], "quick", dift=False)
        assert measurement.mode == "VP"
        assert measurement.instructions > 10_000
        assert measurement.exit_code == 0
        assert measurement.loc_asm > 50

    def test_run_workload_dift_no_violations(self):
        measurement = run_workload(WORKLOADS["primes"], "quick", dift=True)
        assert measurement.mode == "VP+"
        assert measurement.violations == 0

    def test_vp_and_vp_plus_execute_same_instructions(self):
        comparison = compare_workload("dhrystone", "quick")
        vp = run_workload(WORKLOADS["dhrystone"], "quick", dift=True)
        assert comparison.instructions == vp.instructions

    def test_overhead_is_positive(self):
        comparison = compare_workload("qsort", "quick")
        assert comparison.overhead > 0.8  # VP+ should never be faster

    def test_interrupt_workload_runs_both_modes(self):
        comparison = compare_workload("freertos-tasks", "quick")
        assert comparison.instructions > 10_000

    def test_peripheral_workload_runs_both_modes(self):
        comparison = compare_workload("simple-sensor", "quick")
        assert comparison.instructions > 1_000

    def test_immobilizer_workload(self):
        comparison = compare_workload("immo-fixed", "quick")
        assert comparison.instructions > 1_000


class TestFormatting:
    @pytest.fixture(scope="class")
    def rows(self):
        return [compare_workload("primes", "quick"),
                compare_workload("sha512", "quick")]

    def test_format_table(self, rows):
        text = format_table(rows)
        assert "primes" in text
        assert "average" in text
        assert "Ov" in text

    def test_format_against_paper(self, rows):
        text = format_against_paper(rows)
        assert "paper Ov" in text
        assert "2.1x" in text  # the paper's primes overhead


class TestLocDelta:
    def test_analyze_produces_sane_numbers(self):
        report = locdelta.analyze()
        assert report.total_lines > 500
        assert 0 < report.dift_lines < report.total_lines
        assert 0.0 < report.dift_fraction < 0.5
        assert 0.0 <= report.conversion_fraction <= 1.0

    def test_summary_mentions_paper_numbers(self):
        assert "6.81%" in locdelta.analyze().summary()

    def test_per_file_breakdown(self):
        report = locdelta.analyze()
        breakdown = locdelta.per_file_breakdown(report)
        assert "cpu.py" in breakdown
        # the ISS carries the bulk of the instrumentation
        assert breakdown["cpu.py"] > breakdown["decode.py"]

    def test_analyze_file_skips_docstrings_and_comments(self, tmp_path):
        source = tmp_path / "sample.py"
        source.write_text('"""docstring mentioning tag"""\n'
                          "# comment mentioning taint\n"
                          "x = 1\n"
                          "tag = 2\n")
        delta = locdelta.analyze_file(source)
        assert delta.code_lines == 2
        assert delta.dift_lines == 1
        # a docstring that closes at the end of a text line hides nothing
        closing = tmp_path / "closing.py"
        closing.write_text("def f():\n"
                           '    """A docstring whose text line\n'
                           '    closes it: taint."""\n'
                           "    tag = 1  # a comment\n"
                           "    return tag\n")
        delta = locdelta.analyze_file(closing)
        assert delta.code_lines == 3
        assert delta.dift_lines == 2


def _load_check_regression():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_bench(directory, name, seconds, total=100):
    directory.mkdir(parents=True, exist_ok=True)
    record = {"schema": "repro.bench/1", "bench": name,
              "data": {"seconds": seconds, "total": total}}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(record))


class TestRegressionGate:
    """The CI gate script must fail loudly on dropped benchmarks."""

    @pytest.fixture(scope="class")
    def gate(self):
        return _load_check_regression()

    def test_identical_runs_pass(self, gate, tmp_path):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 0

    def test_regression_fails(self, gate, tmp_path, capsys):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 2.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_benchmark_fails_with_clear_message(self, gate,
                                                        tmp_path, capsys):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "base", "beta", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        code = gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISSING" in captured.out
        assert "beta" in captured.err
        assert "dropped, renamed or crashed" in captured.err

    def test_allow_missing_downgrades_to_warning(self, gate, tmp_path,
                                                 capsys):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "base", "beta", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        code = gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur"),
                          "--allow-missing"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err
        assert "beta" in captured.err

    def test_new_benchmark_only_warns(self, gate, tmp_path, capsys):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        _write_bench(tmp_path / "cur", "gamma", 1.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 0
        assert "new benchmark" in capsys.readouterr().err

    def test_count_drift_warns_but_passes(self, gate, tmp_path, capsys):
        _write_bench(tmp_path / "base", "alpha", 1.0, total=100)
        _write_bench(tmp_path / "cur", "alpha", 1.0, total=200)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 0
        assert "drifted" in capsys.readouterr().err

    def test_min_delta_floor_guards_jitter(self, gate, tmp_path):
        # 2x relative slowdown but only 20ms absolute: under the floor
        _write_bench(tmp_path / "base", "alpha", 0.02)
        _write_bench(tmp_path / "cur", "alpha", 0.04)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 0

    def test_update_copies_current_over_baselines(self, gate, tmp_path):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 2.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur"),
                          "--update"]) == 0
        stored = json.loads(
            (tmp_path / "base" / "BENCH_alpha.json").read_text())
        assert stored["data"]["seconds"] == 2.0

    def test_update_prunes_stale_baselines(self, gate, tmp_path, capsys):
        # beta was deleted from the suite: --update must remove its
        # baseline, or every later gate run fails it as MISSING
        _write_bench(tmp_path / "base", "alpha", 1.0)
        _write_bench(tmp_path / "base", "beta", 1.0)
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur"),
                          "--update"]) == 0
        assert not (tmp_path / "base" / "BENCH_beta.json").exists()
        assert (tmp_path / "base" / "BENCH_alpha.json").exists()
        assert "pruned stale baseline BENCH_beta.json" in (
            capsys.readouterr().out)
        # and the refreshed baselines now gate clean
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur")]) == 0

    def test_update_ignores_non_bench_files(self, gate, tmp_path):
        _write_bench(tmp_path / "base", "alpha", 1.0)
        (tmp_path / "base" / "README.md").write_text("keep me\n")
        _write_bench(tmp_path / "cur", "alpha", 1.0)
        assert gate.main(["--baseline", str(tmp_path / "base"),
                          "--current", str(tmp_path / "cur"),
                          "--update"]) == 0
        assert (tmp_path / "base" / "README.md").exists()
