"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.sw import runtime

GUEST = runtime.program("""
.text
main:
    la t0, key
    lbu t1, 0(t0)
    li t2, UART_TXDATA
    sb t1, 0(t2)
    li a0, 0
    ret
.data
key: .byte 0x41
""", include_lib=False)


@pytest.fixture
def guest_file(tmp_path):
    path = tmp_path / "guest.s"
    path.write_text(GUEST)
    return path


class TestAsmDisasm:
    def test_asm_writes_binary(self, guest_file, tmp_path, capsys):
        out = tmp_path / "guest.bin"
        assert main(["asm", str(guest_file), "-o", str(out)]) == 0
        assert out.stat().st_size > 0
        assert "instructions" in capsys.readouterr().out

    def test_asm_listing(self, guest_file, tmp_path, capsys):
        out = tmp_path / "guest.bin"
        main(["asm", str(guest_file), "-o", str(out), "--listing"])
        assert "main" in capsys.readouterr().out

    def test_disasm(self, guest_file, tmp_path, capsys):
        out = tmp_path / "guest.bin"
        main(["asm", str(guest_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["disasm", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sb" in text


class TestRun:
    def test_run_plain(self, guest_file, capsys):
        assert main(["run", str(guest_file)]) == 0
        out = capsys.readouterr().out
        assert "halt" in out
        assert "'A'" in out

    def test_run_with_policy_detects(self, guest_file, tmp_path, capsys):
        from repro.asm import assemble
        program = assemble(GUEST)
        key = program.symbol("key")
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps({
            "ifp": "ifp1",
            "default_class": "LC",
            "sinks": {"uart0.tx": "LC"},
            "regions": [[key, key + 1, "HC"]],
        }))
        status = main(["run", str(guest_file), "--policy",
                       str(policy_file), "--record"])
        assert status == 1  # violations found
        assert "violation" in capsys.readouterr().out

    def test_run_with_uart_input(self, tmp_path, capsys):
        echo = tmp_path / "echo.s"
        echo.write_text(runtime.program("""
.text
main:
    li t0, UART_RXDATA
    lw t1, 0(t0)
    li t2, UART_TXDATA
    sb t1, 0(t2)
    li a0, 0
    ret
""", include_lib=False))
        main(["run", str(echo), "--uart-input", "Z"])
        assert "'Z'" in capsys.readouterr().out


class TestAnalysisCommands:
    def test_locdelta(self, capsys):
        assert main(["locdelta"]) == 0
        assert "DIFT-related" in capsys.readouterr().out

    def test_differential(self, capsys):
        assert main(["differential", "--seeds", "2", "--length", "60"]) == 0
        assert "2 programs" in capsys.readouterr().out

    def test_policyfuzz(self, capsys):
        assert main(["policyfuzz", "--runs", "2"]) == 0

    def test_fuzz_generates_and_checks(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "out"
        assert main(["fuzz", "--seed", "5", "--count", "2", "--quiet",
                     "--out", str(out),
                     "--corpus-dir", str(corpus)]) == 0
        text = capsys.readouterr().out
        assert "2 distinct spec hashes" in text
        assert "oracles: 2/2 green" in text
        assert len(list(out.glob("*.json"))) == 2

    def test_fuzz_reproduces_corpus_byte_for_byte(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["fuzz", "--seed", "7", "--count", "2", "--quiet",
                         "--out", str(out)]) == 0
            outs.append(sorted(p.read_bytes()
                               for p in out.glob("*.json")))
        first_digest = None
        for chunk in capsys.readouterr().out.splitlines():
            if chunk.startswith("corpus digest: "):
                if first_digest is None:
                    first_digest = chunk
                else:
                    assert chunk == first_digest
        assert outs[0] == outs[1]

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "detected: 10" in out

    def test_casestudy(self, capsys):
        assert main(["casestudy"]) == 0
        assert "DETECTED" in capsys.readouterr().out


class TestObservabilityCli:
    def test_run_metrics_and_trace_out(self, guest_file, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(["run", str(guest_file),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert str(metrics) in out and str(trace) in out

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.metrics/1"
        assert doc["metrics"]["cpu.instructions"] > 0
        assert doc["metrics"]["cpu.stop.halt"] == 1

        tdoc = json.loads(trace.read_text())
        assert tdoc["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "quantum"
                   for e in tdoc["traceEvents"])

    def test_run_obs_level_instruction(self, guest_file, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(["run", str(guest_file), "--metrics-out", str(metrics),
                     "--obs-level", "instruction"]) == 0
        snap = json.loads(metrics.read_text())["metrics"]
        groups = {k: v for k, v in snap.items()
                  if k.startswith("cpu.inst.")}
        assert groups and sum(groups.values()) == snap["cpu.instructions"]

    def test_casestudy_metrics_and_trace_out(self, tmp_path, capsys):
        metrics = tmp_path / "cs_metrics.json"
        trace = tmp_path / "cs_trace.json"
        assert main(["casestudy", "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.metrics/1"
        snap = doc["metrics"]
        # metrics aggregate across all nine scenario platforms
        assert snap["cpu.instructions"] > 0
        assert snap["engine.lub_calls"] > 0
        # the attack scenarios each record a detection
        violation_total = sum(v for k, v in snap.items()
                              if k.startswith("engine.violations."))
        assert violation_total >= 6
        tdoc = json.loads(trace.read_text())
        assert any(e["name"] == "violation" and e["ph"] == "i"
                   for e in tdoc["traceEvents"])


class TestReanalyzeCli:
    @pytest.fixture
    def policy_file(self, guest_file, tmp_path):
        from repro.asm import assemble
        program = assemble(GUEST)
        key = program.symbol("key")
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({
            "ifp": "ifp1",
            "default_class": "LC",
            "sinks": {"uart0.tx": "LC"},
            "regions": [[key, key + 1, "HC"]],
        }))
        return path

    def test_record_and_reanalyze(self, guest_file, policy_file, tmp_path,
                                  capsys):
        stream = tmp_path / "run.ev"
        report = tmp_path / "report.json"
        # --record-events implies --record; the guest leaks the HC key
        assert main(["run", str(guest_file), "--policy", str(policy_file),
                     "--record-events", str(stream)]) == 1
        assert "event stream" in capsys.readouterr().out
        assert main(["reanalyze", str(stream),
                     "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "1 violations" in out and "flow HC -> LC" in out
        doc = json.loads(report.read_text())
        assert doc["violations"][0]["unit"] == "uart0.tx"
        assert doc["events"] > 0

    def test_reanalyze_under_override_policy(self, guest_file, policy_file,
                                             tmp_path, capsys):
        stream = tmp_path / "run.ev"
        assert main(["run", str(guest_file), "--policy", str(policy_file),
                     "--record-events", str(stream)]) == 1
        relaxed = tmp_path / "relaxed.json"
        relaxed.write_text(json.dumps({
            "ifp": "ifp1",
            "default_class": "LC",
            "sinks": {"uart0.tx": "HC"},
        }))
        capsys.readouterr()
        assert main(["reanalyze", str(stream),
                     "--policy", str(relaxed)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_run_rejects_demand_recording(self, guest_file, policy_file,
                                          tmp_path, capsys):
        """A configuration the platform rejects is a usage error (exit
        2, one-line reason), not a traceback or a violation exit."""
        stream = tmp_path / "run.ev"
        assert main(["run", str(guest_file), "--policy", str(policy_file),
                     "--dift-mode", "demand",
                     "--record-events", str(stream)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record_events is incompatible with "
                              "dift_mode='demand'")
        assert "record with dift_mode='full'" in err
        assert not stream.exists()

    def test_reanalyze_rejects_corrupt_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.ev"
        bad.write_bytes(b"not a stream")
        assert main(["reanalyze", str(bad)]) == 2
        assert "byte offset" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReport:
    def test_report_generation(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        status = main(["report", "-o", str(out)])
        assert status == 0
        text = out.read_text()
        assert "Table I" in text
        assert "Table II" in text
        assert "immobilizer" in text
        assert "differential" in text


class TestSnapshotCli:
    def test_save_resume_workload(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(["snapshot", "save", "--workload", "qsort",
                     "--pause-at", "3000", "-o", str(snap)]) == 0
        assert "snapshot at instruction" in capsys.readouterr().out
        assert main(["snapshot", "resume", str(snap),
                     "--workload", "qsort"]) == 0
        out = capsys.readouterr().out
        assert "stopped: halt" in out
        assert "resumed from" in out

    def test_save_source_and_diff(self, guest_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        # boot snapshots of the same guest are identical...
        for path in (a, b):
            assert main(["snapshot", "save", "--source", str(guest_file),
                         "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out
        # ...and differ from a paused mid-run snapshot
        c = tmp_path / "c.json"
        main(["snapshot", "save", "--workload", "qsort",
              "--pause-at", "100", "-o", str(c)])
        capsys.readouterr()
        assert main(["snapshot", "diff", str(a), str(c)]) == 1
        assert capsys.readouterr().out.strip()

    def test_resume_finished_snapshot_is_a_noop(self, guest_file,
                                                tmp_path, capsys):
        snap = tmp_path / "done.json"
        # the tiny guest halts before the pause point: the snapshot is
        # of a finished run and must not be re-simulated
        assert main(["snapshot", "save", "--source", str(guest_file),
                     "--pause-at", "5", "-o", str(snap)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "resume", str(snap)]) == 0
        assert "finished run" in capsys.readouterr().out

    def test_resume_rejects_bad_schema(self, tmp_path, capsys):
        snap = tmp_path / "bad.json"
        snap.write_text(json.dumps({"schema": "repro.snapshot/99",
                                    "config": {}, "kernel": {},
                                    "modules": {}}))
        assert main(["snapshot", "resume", str(snap)]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_rejects_retired_dift_mode(self, tmp_path, capsys):
        """Snapshots of the removed live-monitor modes name a dift_mode
        this platform no longer builds: rejected with the supported
        modes, exit 2, before any module is restored."""
        from repro.state import SnapshotError
        from repro.vp.platform import Platform

        snap = tmp_path / "snap.json"
        assert main(["snapshot", "save", "--workload", "qsort",
                     "-o", str(snap)]) == 0
        capsys.readouterr()
        document = json.loads(snap.read_text())
        document["config"]["dift_mode"] = "decoupled"
        document["modules"]["monitor"] = {
            "reg_tags": [0] * 32, "csr_tags": {}, "events_consumed": 0,
            "stopped": False, "fatal_unit": "", "drains": 0,
            "mmio_syncs": 0}
        snap.write_text(json.dumps(document))
        assert main(["snapshot", "resume", str(snap),
                     "--workload", "qsort"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot config names dift_mode "
                              "'decoupled'")
        assert "supported: full, demand" in err
        with pytest.raises(SnapshotError, match="'decoupled'"):
            Platform.restore(document)

    @pytest.mark.parametrize("ram_size", [6, 64 * 1024 * 1024,
                                          8 * 1024 ** 3])
    def test_resume_rejects_unmappable_ram_size(self, tmp_path, capsys,
                                                ram_size):
        """A snapshot config the platform cannot build is a snapshot
        error, exit 2, raised before RAM is allocated."""
        snap = tmp_path / "snap.json"
        assert main(["snapshot", "save", "--workload", "qsort",
                     "-o", str(snap)]) == 0
        capsys.readouterr()
        document = json.loads(snap.read_text())
        document["config"]["ram_size"] = ram_size
        snap.write_text(json.dumps(document))
        assert main(["snapshot", "resume", str(snap),
                     "--workload", "qsort"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot config is rejected: "
                              "ram_size")

    def test_save_requires_exactly_one_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["snapshot", "save", "-o", str(tmp_path / "x.json")])

    def test_replay_command(self, capsys):
        assert main(["replay", "--workloads", "qsort", "--modes", "full",
                     "--pause-at", "2000",
                     "--max-instructions", "20000"]) == 0
        assert "1/1 equivalent" in capsys.readouterr().out
