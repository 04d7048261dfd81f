"""Tests for the ``repro.dift.events/2`` stream codec.

Four layers: packet-level round-trip properties over randomized event
sequences, the batched writer and the chunked reader against the
per-packet reference codec (plus one pinned golden vector, so the packet
table cannot drift the wire format, and a property that any chunk size
decodes the same packets and errors), file-level writer/reader
behaviour including truncation and corruption rejection (always naming
the byte offset), and determinism — two recordings of the same guest
are byte-identical streams.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dift import events as ev
from repro.dift.engine import RECORD
from repro.dift.events import (
    EV_BRANCH,
    EV_END,
    EV_IMAGE,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_SINK,
    EV_TAINT,
    EV_TAINT_FILL,
    EV_TRAP,
    EventWriter,
    StreamError,
    decode_event,
    encode_event,
    encode_header,
    event_name,
    iter_stream,
    make_header,
    read_stream,
)
from repro.dift.monitor import reanalyze_stream
from repro.policy import SecurityPolicy, builders
from repro.vp.config import PlatformConfig

# ---------------------------------------------------------------------- #
# randomized event strategies
# ---------------------------------------------------------------------- #

# the field extremes are drawn on purpose, not left to chance
_u32 = (st.sampled_from((0, 0xFFFF_FFFF))
        | st.integers(min_value=0, max_value=0xFFFF_FFFF))
_u8 = st.sampled_from((0, 0xFF)) | st.integers(min_value=0, max_value=0xFF)
_i32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=40)

_events = st.one_of(
    st.tuples(st.just(ev.EV_LOAD), _u32, _u32),
    st.tuples(st.just(ev.EV_STORE), _u32, _u32),
    st.tuples(st.just(ev.EV_MMIO_LOAD), _u32, _u32, _u8),
    st.tuples(st.just(ev.EV_MMIO_STORE), _u32, _u32),
    st.tuples(st.just(ev.EV_BRANCH), _u32),
    st.tuples(st.just(ev.EV_JUMP), _u32, _u32),
    st.tuples(st.just(ev.EV_FAULT), _u32, _u32),
    st.tuples(st.just(ev.EV_TRAP), _u32, _u32, _u32),
    st.tuples(st.just(ev.EV_STOP), _u32, _u8),
    st.tuples(st.just(ev.EV_QUANTUM), _u32),
    st.tuples(st.just(ev.EV_CODE), _u32, _u32),
    st.tuples(st.just(ev.EV_TAINT_FILL), _u32, _u32, _u8),
    st.tuples(st.just(ev.EV_TAINT), _u32, st.binary(max_size=64)),
    st.tuples(st.just(ev.EV_SINK), _text, _u8, _u8, _text, _i32),
    st.tuples(st.just(ev.EV_IMAGE), _u32, _u32, st.binary(max_size=64)),
)

#: the terminal packet's fields: final pc, retired instructions
_END = st.tuples(_u32, st.integers(min_value=0, max_value=2 ** 64 - 1))


def _header():
    return make_header(PlatformConfig(), extra={"ram_base": 0})


class TestPacketRoundTrip:
    @given(st.lists(_events, max_size=30))
    def test_sequence_round_trips(self, events):
        blob = b"".join(encode_event(e) for e in events)
        pos, decoded = 0, []
        while pos < len(blob):
            event, pos = decode_event(blob, pos)
            decoded.append(event)
        assert decoded == list(events)
        assert pos == len(blob)

    @given(_events)
    def test_single_event_is_self_delimiting(self, event):
        blob = encode_event(event)
        decoded, end = decode_event(blob + b"\xff trailing", 0)
        assert decoded == event
        assert end == len(blob)

    @given(_events, st.integers(min_value=0, max_value=200))
    def test_base_offsets_error_reports(self, event, base):
        """Any strict prefix must be rejected with an absolute offset."""
        blob = encode_event(event)
        truncated = blob[:-1]
        with pytest.raises(StreamError) as err:
            pos = 0
            while pos < len(truncated):
                _, pos = decode_event(truncated, pos, base=base)
        assert err.value.offset == base + len(truncated)
        assert f"byte offset {base + len(truncated)}" in str(err.value)

    def test_unknown_type_rejected_at_its_offset(self):
        blob = encode_event((ev.EV_CODE, 1, 2)) + bytes([0x7F])
        pos = 0
        _, pos = decode_event(blob, pos)
        with pytest.raises(StreamError) as err:
            decode_event(blob, pos)
        assert err.value.offset == pos
        assert "unknown packet type 127" in str(err.value)

    def test_event_names(self):
        assert event_name(EV_BRANCH) == "branch"
        assert event_name(EV_END) == "end"
        assert event_name(99) == "unknown(99)"


def _reference_read(blob: bytes, events=None) -> list:
    """:func:`read_stream`'s packet walk, one :func:`decode_event` call per
    packet over the whole file: the events, ``EV_END`` last, or the
    :class:`StreamError` it raises.  ``events`` collects the packets
    delivered before an error (a terminal packet with data after it is
    not delivered)."""
    pos = blob.index(b"\n") + 1
    events = [] if events is None else events
    while True:
        if pos == len(blob):
            raise StreamError(
                "truncated event stream: missing terminal packet", pos)
        event, pos = decode_event(blob, pos, 0)
        if event[0] == EV_END and pos != len(blob):
            raise StreamError(
                "corrupt event stream: data after terminal packet", pos)
        events.append(event)
        if event[0] == EV_END:
            return events


def _write_stream(path: str, events, end=(0, 0)) -> bytes:
    writer = EventWriter(path, _header())
    writer.write_many(events)
    writer.close(*end)
    with open(path, "rb") as handle:
        return handle.read()


def _chunked(path: str, chunk_size: int, events: list) -> None:
    """Decode ``path`` with :func:`iter_stream` into ``events``, checking
    that each chunk's offset is its first packet's."""
    stream = iter_stream(path, chunk_size)
    with open(path, "rb") as handle:
        blob = handle.read()
    next(stream)
    for offset, chunk in stream:
        assert decode_event(blob, offset)[0] == chunk[0]
        events.extend(chunk)


class TestBatchedCodec:
    """``write_many`` and ``read_stream`` use the packet table inline;
    they must agree with the per-packet reference byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_events, max_size=12), _END)
    def test_batch_matches_reference(self, events, end):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "s.ev")
            blob = _write_stream(path, events, end)
            body = blob[len(encode_header(_header())):]
            assert body == b"".join(encode_event(e) for e in events) \
                + encode_event((EV_END, *end))
            _, decoded = read_stream(path)
            assert decoded == _reference_read(blob) == [*events,
                                                        (EV_END, *end)]
            # every cut after the header line is rejected at the offset
            # the reference walk names
            for end in range(blob.index(b"\n") + 1, len(blob)):
                # a fresh file per cut: ext4 flushes a file truncated and
                # rewritten in place when it is closed, tens of ms each
                cut = os.path.join(scratch, f"cut{end}.ev")
                with open(cut, "wb") as handle:
                    handle.write(blob[:end])
                with pytest.raises(StreamError) as ref:
                    _reference_read(blob[:end])
                with pytest.raises(StreamError) as err:
                    read_stream(cut)
                assert err.value.offset == ref.value.offset, end
                assert str(err.value) == str(ref.value), end

    #: one packet of every type, in type-byte order, terminal last
    GOLDEN = [
        (EV_LOAD, 0x00001004, 0x00002000),
        (ev.EV_STORE, 0x00001008, 0xFFFFFFFF),
        (EV_MMIO_LOAD, 0x0000100C, 0x10000000, 2),
        (ev.EV_MMIO_STORE, 0x00001010, 0x10000000),
        (EV_BRANCH, 0x00001014),
        (ev.EV_JUMP, 0x00001018, 0x00001000),
        (ev.EV_FAULT, 0x0000101C, 5),
        (EV_TRAP, 0x0000101C, 5, 0x00000400),
        (ev.EV_STOP, 0x00001020, 1),
        (ev.EV_QUANTUM, 0x00001024),
        (ev.EV_CODE, 0x00001028, 0x00000013),
        (EV_TAINT_FILL, 0x00000100, 0x00000040, 3),
        (EV_TAINT, 0x00000200, b"\x00\x01\x02\xff"),
        (EV_SINK, "uart0.tx", 2, 1, "byte=0x41", -1),
        (EV_IMAGE, 0x00001000, 0x00001000, b"\x13\x00\x00\x00"),
        (EV_END, 0x0000102C, 10),
    ]
    GOLDEN_HEX = (
        "000410000000200000"
        "0108100000ffffffff"
        "020c1000000000001002"
        "031010000000000010"
        "0414100000"
        "051810000000100000"
        "061c10000005000000"
        "071c1000000500000000040000"
        "082010000001"
        "0924100000"
        "0b2810000013000000"
        "0c000100004000000003"
        "0d0002000004000000000102ff"
        "0e080075617274302e747802010900627974653d30783431ffffffff"
        "0f00100000001000000400000013000000"
        "0a2c1000000a00000000000000")

    def test_golden_vector(self, tmp_path):
        golden = bytes.fromhex(self.GOLDEN_HEX)
        assert sorted({e[0] for e in self.GOLDEN}) == list(range(16))
        assert b"".join(encode_event(e) for e in self.GOLDEN) == golden
        path = str(tmp_path / "golden.ev")
        blob = _write_stream(path, self.GOLDEN[:-1], self.GOLDEN[-1][1:])
        assert blob == encode_header(_header()) + golden
        assert read_stream(path)[1] == self.GOLDEN

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_events, max_size=10), _END, st.data())
    def test_any_chunk_size_decodes_alike(self, events, end, data):
        """Chunked decoding of a stream -- whole, cut short, with a byte
        flipped or with bytes appended -- yields the packets, and raises
        the error at the offset, of decoding the whole file at once."""
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "s.ev")
            blob = _write_stream(path, events, end)
            start = blob.index(b"\n") + 1
            cut = data.draw(st.integers(start, len(blob)), "cut")
            spoiled = bytearray(blob[:cut])
            if cut > start and data.draw(st.booleans(), "flip"):
                at = data.draw(st.integers(start, cut - 1), "at")
                spoiled[at] = data.draw(_u8, "byte")
            spoiled += data.draw(st.binary(max_size=3), "tail")
            with open(path, "wb") as handle:
                handle.write(bytes(spoiled))
            want, got = [], []
            try:
                _reference_read(bytes(spoiled), want)
                error = None
            except StreamError as err:
                error = str(err)
            chunk_size = data.draw(st.integers(1, len(spoiled) + 1),
                                   "chunk_size")
            try:
                _chunked(path, chunk_size, got)
                assert error is None, error
            except StreamError as err:
                assert str(err) == error
            assert got == want


class TestHeader:
    def test_dift_mode_is_scrubbed(self):
        header = make_header(PlatformConfig(dift_mode="demand"))
        assert "dift_mode" not in header["config"]
        same = make_header(PlatformConfig(dift_mode="full"))
        assert encode_header(header) == encode_header(same)

    def test_encoding_is_deterministic(self):
        blob = encode_header(_header())
        assert blob.endswith(b"\n")
        assert blob == encode_header(_header())
        # one line of JSON: parseable, sorted, compact
        parsed = json.loads(blob.decode("utf-8"))
        assert parsed["schema"] == ev.SCHEMA == "repro.dift.events/2"

    def test_version_1_stream_rejected(self, tmp_path):
        """A stream of the per-instruction schema is not replayed as
        waypoints: its header is rejected, naming both schemas."""
        path = str(tmp_path / "v1.ev")
        header = dict(_header(), schema="repro.dift.events/1")
        with open(path, "wb") as handle:
            handle.write(encode_header(header))
            handle.write(bytes.fromhex("000010000013000000"))
        message = ("corrupt header: schema 'repro.dift.events/1' is not "
                   "'repro.dift.events/2' at byte offset 0")
        for read in (read_stream, reanalyze_stream):
            with pytest.raises(StreamError) as err:
                read(path)
            assert str(err.value) == message
            assert err.value.offset == 0


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.ev")
        events = [(EV_BRANCH, 0), (EV_LOAD, 4, 0x100),
                  (EV_TAINT, 8, b"\x01\x02"), (EV_TRAP, 0x40, 11, 0x80),
                  (EV_SINK, "uart0.tx", 2, 0, "byte=0x41", -1)]
        writer = EventWriter(path, _header())
        writer.write(events[0])
        writer.write_many(events[1:])
        assert writer.count == len(events)
        writer.close(0x84, 9)
        assert writer.closed
        header, decoded = read_stream(path)
        assert decoded == events + [(EV_END, 0x84, 9)]
        assert header["config"]["ram_size"] == PlatformConfig().ram_size

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, _header())
        writer.close(8, 2)
        writer.close(12, 3)
        _, decoded = read_stream(path)
        assert decoded == [(EV_END, 8, 2)]

    def test_truncated_stream_names_offset(self, tmp_path):
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, _header())
        writer.write_many([(EV_BRANCH, 4 * i) for i in range(5)])
        writer.close()
        with open(path, "rb") as handle:
            blob = handle.read()
        cut = str(tmp_path / "cut.ev")
        with open(cut, "wb") as handle:
            handle.write(blob[:-3])
        with pytest.raises(StreamError) as err:
            read_stream(cut)
        assert err.value.offset == len(blob) - 3
        assert f"byte offset {len(blob) - 3}" in str(err.value)

    def test_missing_terminal_packet(self, tmp_path):
        """A clean cut right between packets is still truncation: the
        terminal EV_END is missing."""
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, _header())
        writer.write((EV_BRANCH, 0))
        writer.close()
        with open(path, "rb") as handle:
            blob = handle.read()
        end_size = len(encode_event((EV_END, 0, 1)))
        cut = str(tmp_path / "cut.ev")
        with open(cut, "wb") as handle:
            handle.write(blob[:-end_size])
        with pytest.raises(StreamError, match="missing terminal"):
            read_stream(cut)

    def test_unterminated_header(self, tmp_path):
        path = str(tmp_path / "s.ev")
        with open(path, "wb") as handle:
            handle.write(b'{"schema": "repro.dift.events/2"')
        with pytest.raises(StreamError) as err:
            read_stream(path)
        assert err.value.offset == 32

    def test_corrupt_header_json(self, tmp_path):
        path = str(tmp_path / "s.ev")
        with open(path, "wb") as handle:
            handle.write(b"not json\n")
        with pytest.raises(StreamError) as err:
            read_stream(path)
        assert err.value.offset == 0

    def test_wrong_schema(self, tmp_path):
        path = str(tmp_path / "s.ev")
        with open(path, "wb") as handle:
            handle.write(b'{"schema": "other/1", "config": {}}\n')
        with pytest.raises(StreamError, match="schema"):
            read_stream(path)

    def test_data_after_terminal_packet(self, tmp_path):
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, _header())
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(StreamError, match="after terminal"):
            read_stream(path)

    def test_terminal_count_mismatch(self, tmp_path):
        """The terminal packet counts instructions, not packets: the
        replay, which counts what it walks, rejects a wrong count at the
        terminal packet's offset."""
        policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, make_header(
            PlatformConfig(policy=policy), extra={"ram_base": 0}))
        nop = (0x13).to_bytes(4, "little")
        writer.write((EV_IMAGE, 0x100, 0x100, nop * 3))
        writer.close(0x10C, 7)
        with open(path, "rb") as handle:
            size = len(handle.read())
        with pytest.raises(StreamError, match="end packet counts 7 "
                           "instructions, the replay 3") as err:
            reanalyze_stream(path)
        assert err.value.offset == size - len(encode_event((EV_END, 0, 0)))

    def test_corrupt_packet_type_offset(self, tmp_path):
        path = str(tmp_path / "s.ev")
        writer = EventWriter(path, _header())
        writer.write((EV_TAINT_FILL, 0, 4, 1))
        writer.close()
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        header_len = blob.index(b"\n") + 1
        blob[header_len] = 0x63  # overwrite the first packet's type byte
        bad = str(tmp_path / "bad.ev")
        with open(bad, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(StreamError) as err:
            read_stream(bad)
        assert err.value.offset == header_len


# ---------------------------------------------------------------------- #
# recording determinism
# ---------------------------------------------------------------------- #

def _record(path: str) -> bytes:
    from repro.bench.table1 import code_injection_policy
    from repro.sw import wk_suite
    from repro.vp.platform import Platform

    program, attacker_input = wk_suite.build_attack(3)
    policy = code_injection_policy(program)
    platform = Platform.from_config(PlatformConfig(
        policy=policy, engine_mode=RECORD, record_events=path))
    platform.load(program)
    platform.uart.feed(attacker_input)
    platform.run(max_instructions=200_000)
    platform.finish_recording()
    with open(path, "rb") as handle:
        return handle.read()


class TestRecordingDeterminism:
    def test_two_inline_recordings_identical(self, tmp_path):
        """The stream is a property of the guest execution: two
        recordings of the same guest must be byte-identical artifacts
        (including the violating tail — the attack ends in a fatal fetch
        check)."""
        first = _record(str(tmp_path / "first.ev"))
        second = _record(str(tmp_path / "second.ev"))
        assert first == second
        header, events = read_stream(str(tmp_path / "first.ev"))
        assert events, "stream recorded no events"
        assert "dift_mode" not in header["config"]
        # the stream carries the attack's fatal sink/trap context
        types = {event[0] for event in events}
        assert EV_LOAD in types and EV_MMIO_LOAD in types
        assert EV_TAINT_FILL in types or EV_TAINT in types
        assert events[0][0] != EV_IMAGE and EV_IMAGE in types
