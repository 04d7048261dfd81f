"""The ``repro.dift.events/1`` instruction-event stream.

This is the vocabulary between the recording ISS (producer) and the
offline DIFT monitor (consumer) — the same minimal packet set the gem5
monitoring-core exemplars define: enough to replay *tag propagation and
clearance checking*, not the architectural computation.  The ISS already
knows every value it computes; the monitor only needs to know *which*
instruction ran (pc + encoding), where memory traffic went (address), and
what crossed the taint boundary (MMIO read tags, non-ISS taint writes,
peripheral sink checks).  Streams are written by ``--record-events`` and
replayed by ``repro reanalyze`` under arbitrary policies without
re-running the guest.

Wire format: one header line of deterministic JSON (sorted keys, compact
separators, ``\\n``-terminated), then packed little-endian packets — a
type byte followed by the fields of that packet type — and a terminal
``EV_END`` packet carrying the event count.  Truncation and corruption
are both rejected with a :class:`StreamError` naming the byte offset.

The codec is table-driven: the eight fixed-size packet types each have
one ``struct.Struct`` whose format starts with the type byte, so an
event tuple *is* its packet's field list — ``pack(*ev)`` is the wire
form and ``unpack_from`` returns the tuple.  :meth:`EventWriter.write_many`
and :func:`read_stream` use the table inline, a quantum's queue or a
whole stream per call; :func:`encode_event`/:func:`decode_event` are the
per-packet reference and handle the variable-size ``taint``, ``sink``
and ``end`` packets.

The header embeds the platform configuration *minus* ``dift_mode``: how
DIFT was executed is a host-side strategy, not a property of the
simulated machine, so the mode is kept out of the artifact.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

from repro.errors import ReproError

SCHEMA = "repro.dift.events/1"

# ---------------------------------------------------------------------- #
# packet types
# ---------------------------------------------------------------------- #

EV_STEP = 0          # (pc, word)               non-memory instruction
EV_LOAD = 1          # (pc, word, addr)         RAM load
EV_STORE = 2         # (pc, word, addr)         RAM store
EV_MMIO_LOAD = 3     # (pc, word, addr, tag)    MMIO load + payload tag
EV_MMIO_STORE = 4    # (pc, word, addr)         MMIO store
EV_FAULT_ACCESS = 5  # (pc, word, addr)         load that bus-faulted
EV_TRAP = 6          # (pc, cause)              trap entry (pc = trapping pc)
EV_TAINT_FILL = 7    # (offset, length, tag)    non-ISS uniform tag write
EV_TAINT = 8         # (offset, tags)           non-ISS per-byte tag write
EV_SINK = 9          # (unit, tag, required, context, pc)  peripheral check
EV_END = 10          # (count)                  terminal packet

_NAMES = {
    EV_STEP: "step", EV_LOAD: "load", EV_STORE: "store",
    EV_MMIO_LOAD: "mmio-load", EV_MMIO_STORE: "mmio-store",
    EV_FAULT_ACCESS: "fault-access", EV_TRAP: "trap",
    EV_TAINT_FILL: "taint-fill", EV_TAINT: "taint", EV_SINK: "sink",
    EV_END: "end",
}

# wire formats of the fixed-size packets; the first field is the type byte
_FIXED_FORMATS = {
    EV_STEP: "<BII",
    EV_LOAD: "<BIII",
    EV_STORE: "<BIII",
    EV_MMIO_LOAD: "<BIIIB",
    EV_MMIO_STORE: "<BIII",
    EV_FAULT_ACCESS: "<BIII",
    EV_TRAP: "<BII",
    EV_TAINT_FILL: "<BIIB",
}
#: The packet table, indexed by type byte: a ``struct.Struct`` for each
#: fixed-size packet, ``None`` for the variable-size packets and unused
#: type bytes.
_FIXED: Tuple[Optional[struct.Struct], ...] = tuple(
    struct.Struct(_FIXED_FORMATS[t]) if t in _FIXED_FORMATS else None
    for t in range(256))
# the same table as bound methods and sizes, for the batched loops
_PACK = tuple(s.pack if s else None for s in _FIXED)
_UNPACK = tuple(s.unpack_from if s else None for s in _FIXED)
_SIZE = tuple(s.size if s else 0 for s in _FIXED)

_S_II = struct.Struct("<II")
_S_H = struct.Struct("<H")
_S_BB = struct.Struct("<BB")
_S_i = struct.Struct("<i")
_S_Q = struct.Struct("<Q")


class StreamError(ReproError):
    """A malformed ``repro.dift.events/1`` stream.

    ``offset`` is the absolute byte offset (from the start of the file,
    header line included) at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


def event_name(ev_type: int) -> str:
    """Human-readable packet-type name (for reports and errors)."""
    return _NAMES.get(ev_type, f"unknown({ev_type})")


# ---------------------------------------------------------------------- #
# encoding
# ---------------------------------------------------------------------- #

def _enc_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string field too long ({len(raw)} bytes)")
    return _S_H.pack(len(raw)) + raw


def encode_event(ev: Tuple) -> bytes:
    """Pack one event tuple into its wire form (type byte + fields)."""
    t = ev[0]
    fixed = _FIXED[t] if 0 <= t <= 0xFF else None
    if fixed is not None:
        return fixed.pack(*ev)
    if t == EV_TAINT:
        tags = bytes(ev[2])
        return bytes([t]) + _S_II.pack(ev[1], len(tags)) + tags
    if t == EV_SINK:
        return (bytes([t]) + _enc_str(ev[1]) + _S_BB.pack(ev[2], ev[3])
                + _enc_str(ev[4]) + _S_i.pack(ev[5]))
    if t == EV_END:
        return bytes([t]) + _S_Q.pack(ev[1])
    raise ValueError(f"unknown event type {t!r}")


# ---------------------------------------------------------------------- #
# decoding
# ---------------------------------------------------------------------- #

def _need(buf: bytes, pos: int, n: int, base: int) -> None:
    if pos + n > len(buf):
        raise StreamError("truncated event stream", base + len(buf))


def _dec_str(buf: bytes, pos: int, base: int) -> Tuple[str, int]:
    _need(buf, pos, 2, base)
    (n,) = _S_H.unpack_from(buf, pos)
    pos += 2
    _need(buf, pos, n, base)
    return buf[pos:pos + n].decode("utf-8"), pos + n


def decode_event(buf: bytes, pos: int, base: int = 0) -> Tuple[Tuple, int]:
    """Decode one event at ``buf[pos:]``; return ``(event, next_pos)``.

    ``base`` is the byte offset of ``buf[0]`` within the containing file
    so :class:`StreamError` offsets stay absolute.
    """
    start = pos
    _need(buf, pos, 1, base)
    t = buf[pos]
    fixed = _FIXED[t]
    if fixed is not None:
        _need(buf, pos, fixed.size, base)
        return fixed.unpack_from(buf, pos), pos + fixed.size
    pos += 1
    if t == EV_TAINT:
        _need(buf, pos, _S_II.size, base)
        offset, n = _S_II.unpack_from(buf, pos)
        pos += _S_II.size
        _need(buf, pos, n, base)
        return (t, offset, bytes(buf[pos:pos + n])), pos + n
    if t == EV_SINK:
        unit, pos = _dec_str(buf, pos, base)
        _need(buf, pos, 2, base)
        tag, required = _S_BB.unpack_from(buf, pos)
        pos += 2
        context, pos = _dec_str(buf, pos, base)
        _need(buf, pos, 4, base)
        (pc,) = _S_i.unpack_from(buf, pos)
        return (t, unit, tag, required, context, pc), pos + 4
    if t == EV_END:
        _need(buf, pos, _S_Q.size, base)
        (count,) = _S_Q.unpack_from(buf, pos)
        return (t, count), pos + _S_Q.size
    raise StreamError(f"corrupt event stream: unknown packet type {t}",
                      base + start)


# ---------------------------------------------------------------------- #
# header
# ---------------------------------------------------------------------- #

def make_header(config, extra: Optional[dict] = None) -> dict:
    """Build the stream header from a :class:`PlatformConfig`.

    ``dift_mode`` is scrubbed (see module docstring); ``extra`` keys are
    merged in at the top level (e.g. ``default_tag``).
    """
    cfg = config.to_json()
    cfg.pop("dift_mode", None)
    header = {"schema": SCHEMA, "config": cfg}
    if extra:
        header.update(extra)
    return header


def encode_header(header: dict) -> bytes:
    return (json.dumps(header, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------- #
# writer / reader
# ---------------------------------------------------------------------- #

class EventWriter:
    """Append-only stream writer; ``close()`` seals with ``EV_END``."""

    def __init__(self, path: str, header: dict):
        if header.get("schema") != SCHEMA:
            raise ValueError(f"header schema must be {SCHEMA!r}")
        self.path = path
        self.count = 0
        self.closed = False
        self._fh = open(path, "wb")
        self._fh.write(encode_header(header))

    def write(self, ev: Tuple) -> None:
        self._fh.write(encode_event(ev))
        self.count += 1

    def write_many(self, events) -> None:
        """Write a batch (one quantum's queue) with a single ``write``."""
        pack = _PACK
        parts = [p(*ev) if (p := pack[ev[0]]) is not None
                 else encode_event(ev) for ev in events]
        self._fh.write(b"".join(parts))
        self.count += len(parts)

    def close(self) -> None:
        if self.closed:
            return
        self._fh.write(encode_event((EV_END, self.count)))
        self._fh.close()
        self.closed = True


def read_stream(path: str) -> Tuple[dict, List[Tuple]]:
    """Read and validate a recorded stream; return ``(header, events)``.

    Raises :class:`StreamError` (with a byte offset) on truncation,
    unknown packet types, a missing/duplicated terminal packet, an event
    count mismatch, or trailing garbage.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise StreamError("truncated event stream: unterminated header",
                          len(blob))
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamError(f"corrupt header: {exc}", 0) from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise StreamError(
            f"corrupt header: schema is not {SCHEMA!r}", 0)
    events: List[Tuple] = []
    append = events.append
    unpack = _UNPACK
    size = _SIZE
    n = len(blob)
    pos = nl + 1
    while pos < n:
        t = blob[pos]
        u = unpack[t]
        if u is not None:
            end = pos + size[t]
            if end > n:
                raise StreamError("truncated event stream", n)
            append(u(blob, pos))
            pos = end
            continue
        ev, pos = decode_event(blob, pos)
        if t == EV_END:
            if pos != n:
                raise StreamError(
                    "corrupt event stream: data after terminal packet", pos)
            if ev[1] != len(events):
                raise StreamError(
                    f"corrupt event stream: terminal count {ev[1]} != "
                    f"{len(events)} events", pos - _S_Q.size - 1)
            return header, events
        append(ev)
    raise StreamError("truncated event stream: missing terminal packet", pos)
