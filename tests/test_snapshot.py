"""Tests for the checkpoint/restore layer: the ``repro.snapshot/1``
document format, sparse binary codecs, :class:`PlatformConfig`, and full
platform save/restore round trips."""

import json

import pytest

from repro import state
from repro.bench.workloads import benchmark_policy, get_workload
from repro.dift.engine import RECORD
from repro.dift.liveness import PAGE_SIZE
from repro.obs import Observability
from repro.state import SnapshotError
from repro.sysc.time import SimTime
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform


def make_paused(workload="qsort", mode="full", pause_at=3000, seed=0):
    wk = get_workload(workload)
    dift = mode != "plain"
    platform = wk.make_platform(
        "quick", dift, obs=Observability(),
        dift_mode=mode if dift else "full", seed=seed, engine_mode=RECORD)
    platform.run(pause_at=pause_at)
    return platform


class TestCodecs:
    def test_bytes_round_trip(self):
        data = bytes(range(256))
        assert state.decode_bytes(state.encode_bytes(data)) == data

    def test_sparse_pages_round_trip(self):
        buf = bytearray(5 * PAGE_SIZE)
        buf[0] = 7
        buf[PAGE_SIZE * 2 + 100:PAGE_SIZE * 2 + 104] = b"\x01\x02\x03\x04"
        buf[-1] = 9
        pages = state.encode_sparse_pages(buf, 0)
        assert sorted(pages) == ["0", "2", "4"]
        out = bytearray(b"\xff" * len(buf))   # stale content must clear
        state.decode_sparse_pages(pages, out, 0)
        assert out == buf

    def test_sparse_pages_skip_uniform(self):
        buf = bytearray(b"\x05" * (3 * PAGE_SIZE))
        assert state.encode_sparse_pages(buf, 5) == {}

    def test_sparse_page_out_of_range_rejected(self):
        out = bytearray(PAGE_SIZE)
        pages = {"9": state.encode_bytes(b"\x01" * PAGE_SIZE)}
        with pytest.raises(SnapshotError, match="outside buffer"):
            state.decode_sparse_pages(pages, out, 0)

    def test_dump_document_deterministic(self):
        a = state.dump_document({"b": 1, "a": [2, {"z": 0, "y": 1}]})
        b = state.dump_document({"a": [2, {"y": 1, "z": 0}], "b": 1})
        assert a == b


class TestSchema:
    def test_check_schema_accepts_current(self):
        doc = {"schema": state.SNAPSHOT_SCHEMA, "config": {},
               "kernel": {}, "modules": {}}
        assert state.check_schema(doc) is doc

    @pytest.mark.parametrize("schema", [
        None, "repro.snapshot/0", "repro.snapshot/2", "something-else"])
    def test_check_schema_rejects_other_versions(self, schema):
        doc = {"schema": schema, "config": {}, "kernel": {}, "modules": {}}
        with pytest.raises(SnapshotError, match="unsupported"):
            state.check_schema(doc)

    def test_check_schema_rejects_missing_sections(self):
        with pytest.raises(SnapshotError, match="'kernel'"):
            state.check_schema({"schema": state.SNAPSHOT_SCHEMA,
                                "config": {}, "modules": {}})

    def test_load_document_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            state.load_document(str(tmp_path / "absent.json"))

    def test_load_document_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            state.load_document(str(path))

    def test_restore_rejects_future_schema(self, tmp_path):
        platform = make_paused()
        path = tmp_path / "snap.json"
        platform.save_snapshot(str(path))
        doc = json.loads(path.read_text())
        doc["schema"] = "repro.snapshot/2"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="unsupported"):
            Platform.restore(str(path))

    def test_restore_rejects_tag_renumbering(self, tmp_path):
        platform = make_paused()
        path = tmp_path / "snap.json"
        platform.save_snapshot(str(path))
        doc = json.loads(path.read_text())
        doc["tag_names"] = list(reversed(doc["tag_names"]))
        with pytest.raises(SnapshotError, match="tag numbering"):
            platform.restore_snapshot(doc)

    def test_restore_requires_registered_externals(self, tmp_path):
        platform = make_paused("immo-fixed", pause_at=500)
        path = tmp_path / "snap.json"
        platform.save_snapshot(str(path))
        with pytest.raises(SnapshotError, match="external"):
            Platform.restore(str(path))   # no externals callback


class TestDiffDocuments:
    def test_identical(self):
        doc = {"a": [1, 2], "b": {"c": 3}}
        assert state.diff_documents(doc, doc) == []

    def test_leaf_difference_and_absence(self):
        lines = state.diff_documents({"a": 1, "b": 2}, {"a": 1, "c": 3})
        assert any(line.startswith("b:") for line in lines)
        assert any("<absent>" in line for line in lines)

    def test_ignore_prefixes(self):
        a, b = {"obs": {"x": 1}, "k": 1}, {"obs": {"x": 2}, "k": 1}
        assert state.diff_documents(a, b) != []
        assert state.diff_documents(a, b, ignore_prefixes=("obs",)) == []


class TestPlatformConfig:
    def test_json_round_trip_with_policy(self):
        config = PlatformConfig(policy=benchmark_policy(),
                                engine_mode=RECORD, quantum=1234,
                                clock_period=SimTime.ns(20),
                                sensor_period=SimTime.us(50),
                                aes_declassify_to="LC", seed=7,
                                dift_mode="demand")
        data = json.loads(json.dumps(config.to_json()))   # JSON-safe
        back = PlatformConfig.from_json(data)
        assert back.to_json() == config.to_json()
        assert back.quantum == 1234
        assert back.clock_period == SimTime.ns(20)
        assert back.dift_mode == "demand"

    def test_obs_not_serialized(self):
        config = PlatformConfig(obs=Observability())
        data = config.to_json()
        assert "obs" not in data
        restored = PlatformConfig.from_json(data, obs="sink")
        assert restored.obs == "sink"

    def test_frozen(self):
        with pytest.raises(Exception):
            PlatformConfig().seed = 1   # type: ignore[misc]

    def test_platform_rejects_keyword_arguments(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Platform(policy=None, quantum=2048)

    def test_from_config_does_not_warn(self, recwarn):
        Platform.from_config(PlatformConfig())
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestPlatformRoundTrip:
    @pytest.mark.parametrize("mode", ["plain", "full", "demand"])
    def test_save_restore_save_is_byte_identical(self, tmp_path, mode):
        platform = make_paused(mode=mode)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        platform.save_snapshot(str(first))
        restored = Platform.restore(str(first), obs=Observability())
        restored.save_snapshot(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_boot_snapshot_round_trip(self, tmp_path):
        wk = get_workload("qsort")
        platform = wk.make_platform("quick", True, obs=Observability(),
                                    engine_mode=RECORD)
        first = tmp_path / "boot.json"
        platform.save_snapshot(str(first))
        restored = Platform.restore(str(first), obs=Observability())
        second = tmp_path / "boot2.json"
        restored.save_snapshot(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_restored_run_matches_uninterrupted(self, tmp_path):
        reference = get_workload("qsort").make_platform(
            "quick", True, obs=Observability(), engine_mode=RECORD)
        ref_result = reference.run()

        platform = make_paused()
        path = tmp_path / "snap.json"
        platform.save_snapshot(str(path))
        resumed = Platform.restore(
            str(path), obs=Observability(),
            program=get_workload("qsort").build("quick"))
        result = resumed.run()

        assert result.reason == ref_result.reason
        assert result.exit_code == ref_result.exit_code
        assert resumed.total_instructions == reference.total_instructions
        assert resumed.console() == reference.console()

    def test_decode_cache_stays_out_of_snapshots(self, tmp_path):
        """The decode cache is derived state: a snapshot carries neither
        it nor a miss count, and an older snapshot that still carries
        both restores and runs on as the uninterrupted run does."""
        reference = get_workload("qsort").make_platform(
            "quick", True, obs=Observability(), engine_mode=RECORD)
        ref_result = reference.run()

        platform = make_paused()
        doc = platform.snapshot_document()
        cpu = doc["modules"]["cpu"]
        assert "decode_cache" not in cpu and "decode_misses" not in cpu
        cache = platform.cpu._decode_cache
        cpu["decode_cache"] = {str(word): list(entry)
                               for word, entry in cache.items()}
        cpu["decode_misses"] = len(cache)
        path = tmp_path / "older.json"
        path.write_text(state.dump_document(doc))
        resumed = Platform.restore(
            str(path), obs=Observability(),
            program=get_workload("qsort").build("quick"))
        assert "decode_cache" not in resumed.snapshot_document()[
            "modules"]["cpu"]
        result = resumed.run()
        assert result.reason == ref_result.reason
        assert resumed.total_instructions == reference.total_instructions
        assert resumed.console() == reference.console()

    def test_snapshot_header_carries_config(self, tmp_path):
        platform = make_paused(mode="demand")
        path = tmp_path / "snap.json"
        platform.save_snapshot(str(path))
        doc = state.load_document(str(path))
        config = PlatformConfig.from_json(doc["config"])
        assert config.dift_mode == "demand"
        assert config.engine_mode == RECORD
        assert doc["config"] == platform.config.to_json()

    def test_plain_snapshot_has_no_engine_section(self, tmp_path):
        platform = make_paused(mode="plain")
        doc = platform.snapshot_document()
        assert "engine" not in doc["modules"]
        assert doc["tag_names"] is None

    def test_restore_into_wrong_instrumentation_rejected(self):
        dift_doc = make_paused(mode="full").snapshot_document()
        # the tag-numbering header check fires first; silence it to
        # reach the structural engine-section check underneath
        dift_doc["tag_names"] = None
        plain = get_workload("qsort").make_platform(
            "quick", False, obs=Observability())
        with pytest.raises(SnapshotError, match="instrumentation"):
            plain.restore_snapshot(dift_doc)


#: every peripheral byte buffer a snapshot carries: (module, field, length)
PERIPHERAL_BUFFERS = [
    ("sensor0", "frame", 64), ("sensor0", "frame_tags", 64),
    ("aes0", "key", 16), ("aes0", "key_tags", 16), ("aes0", "input", 16),
    ("aes0", "input_tags", 16), ("aes0", "output", 16),
    ("can0", "tx_buf", 8), ("can0", "tx_tags", 8),
]


class TestPeripheralBuffers:
    """Peripheral buffers restore in place and at their exact length:
    the CPU holds DMI windows on some of them for the platform's life."""

    @pytest.mark.parametrize("module, field, length", PERIPHERAL_BUFFERS)
    @pytest.mark.parametrize("delta", [-1, 2])
    def test_wrong_length_rejected(self, module, field, length, delta):
        platform = Platform(PlatformConfig(ram_size=4096))
        doc = platform.snapshot_document()
        doc["modules"][module][field] = state.encode_bytes(
            bytes(length + delta))
        with pytest.raises(SnapshotError,
                           match=rf"{module}\.{field}: snapshot holds "
                                 rf"{length + delta} bytes, expected "
                                 rf"{length}"):
            Platform(PlatformConfig(ram_size=4096)).restore_snapshot(doc)

    @pytest.mark.parametrize("module, field, length", PERIPHERAL_BUFFERS)
    def test_restored_in_place(self, module, field, length):
        attr = {"sensor0": "sensor", "aes0": "aes", "can0": "can"}[module]
        platform = Platform(PlatformConfig(ram_size=4096))
        doc = platform.snapshot_document()
        content = bytes(range(1, length + 1))
        doc["modules"][module][field] = state.encode_bytes(content)
        buffer = getattr(getattr(platform, attr), field)
        platform.restore_snapshot(doc)
        assert getattr(getattr(platform, attr), field) is buffer
        assert buffer == content

    def test_aes_output_tags_follow_output_tag(self):
        platform = Platform(PlatformConfig(
            policy=benchmark_policy(), ram_size=4096))
        doc = platform.snapshot_document()
        doc["modules"]["aes0"]["output_tag"] = 2
        platform.restore_snapshot(doc)
        assert platform.aes.output_tags == bytes([2]) * 16
        assert platform.snapshot_document() == doc
