"""The ``repro.dift.events/2`` waypoint event stream.

This is the vocabulary between the recording ISS (producer) and the
offline DIFT monitor (consumer).  It carries only what the monitor
cannot work out from the program: straight-line code is rebuilt from
the loaded image, so the stream records the *waypoints* where execution
leaves it -- taken branches and jumps, memory addresses, trap entries,
faults and refused checks -- plus what crossed the taint boundary (MMIO
read tags, host-side tag writes, peripheral sink checks).  Wahab et
al.'s ARM DIFT coprocessor is fed the same way from a branch-waypoint
trace.  Streams are written by ``--record-events`` and replayed by
``repro reanalyze`` under arbitrary policies without re-running the
guest.

Wire format: one header line of deterministic JSON (sorted keys, compact
separators, ``\\n``-terminated), then packed little-endian packets — a
type byte followed by the fields of that packet type — and a terminal
``EV_END`` packet carrying the final pc and the retired-instruction
count.  Truncation and corruption are both rejected with a
:class:`StreamError` naming the byte offset.

Packets ``EV_LOAD`` ... ``EV_END`` name a pc: the monitor walks the
straight-line code from where it stands up to that pc, then applies the
packet there.  The rest apply where they fall.  A code-word packet
(``EV_CODE``) is written whenever the CPU fetches a word that differs
from the recorder's copy of the monitor's image, so injected and
self-modifying code replays.

The codec is table-driven: the fixed-size packet types each have one
``struct.Struct`` whose format starts with the type byte, so an event
tuple *is* its packet's field list — ``pack(*ev)`` is the wire form and
``unpack_from`` returns the tuple.  :meth:`EventWriter.write_many` and
:func:`iter_stream` use the table inline, a quantum's queue or a chunk
per call; :func:`encode_event`/:func:`decode_event` are the per-packet
reference and handle the variable-size ``taint``, ``sink`` and ``image``
packets.  :func:`iter_stream` decodes a stream in fixed-size chunks, so
replay runs in bounded memory.

The header embeds the platform configuration *minus* ``dift_mode``: how
DIFT was executed is a host-side strategy, not a property of the
simulated machine, so the mode is kept out of the artifact.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError

SCHEMA = "repro.dift.events/2"

# ---------------------------------------------------------------------- #
# packet types
# ---------------------------------------------------------------------- #

EV_LOAD = 0          # (pc, addr)              RAM load
EV_STORE = 1         # (pc, addr)              RAM store
EV_MMIO_LOAD = 2     # (pc, addr, tag)         MMIO load + payload tag
EV_MMIO_STORE = 3    # (pc, addr)              MMIO store, before its bus
EV_BRANCH = 4        # (pc,)                   taken branch, or jal
EV_JUMP = 5          # (pc, target)            jalr or mret
EV_FAULT = 6         # (pc, cause)             retired without moving on:
#                                                sync fault, or ebreak (3)
EV_TRAP = 7          # (pc, cause, handler)    trap entry
EV_STOP = 8          # (pc, entry)             a refused check stopped the
#                                                run; entry=1: a trap entry's
EV_QUANTUM = 9       # (pc,)                   quantum boundary
EV_END = 10          # (pc, count)             terminal: final pc, retired
EV_CODE = 11         # (pc, word)              fetched word the image lacks
EV_TAINT_FILL = 12   # (offset, length, tag)   non-ISS uniform tag write
EV_TAINT = 13        # (offset, tags)          non-ISS per-byte tag write
EV_SINK = 14         # (unit, tag, required, context, pc)  peripheral check
EV_IMAGE = 15        # (entry, offset, data)   loaded program image

_NAMES = {
    EV_LOAD: "load", EV_STORE: "store", EV_MMIO_LOAD: "mmio-load",
    EV_MMIO_STORE: "mmio-store", EV_BRANCH: "branch", EV_JUMP: "jump",
    EV_FAULT: "fault", EV_TRAP: "trap", EV_STOP: "stop",
    EV_QUANTUM: "quantum", EV_END: "end", EV_CODE: "code",
    EV_TAINT_FILL: "taint-fill", EV_TAINT: "taint", EV_SINK: "sink",
    EV_IMAGE: "image",
}

# wire formats of the fixed-size packets; the first field is the type byte
_FIXED_FORMATS = {
    EV_LOAD: "<BII",
    EV_STORE: "<BII",
    EV_MMIO_LOAD: "<BIIB",
    EV_MMIO_STORE: "<BII",
    EV_BRANCH: "<BI",
    EV_JUMP: "<BII",
    EV_FAULT: "<BII",
    EV_TRAP: "<BIII",
    EV_STOP: "<BIB",
    EV_QUANTUM: "<BI",
    EV_END: "<BIQ",
    EV_CODE: "<BII",
    EV_TAINT_FILL: "<BIIB",
}
#: The packet table, indexed by type byte: a ``struct.Struct`` for each
#: fixed-size packet, ``None`` for the variable-size packets and unused
#: type bytes.
_FIXED: Tuple[Optional[struct.Struct], ...] = tuple(
    struct.Struct(_FIXED_FORMATS[t]) if t in _FIXED_FORMATS else None
    for t in range(256))
# the same table as bound methods and sizes, for the batched loops; the
# terminal packet takes the per-packet path so the loops need no test
_PACK = tuple(s.pack if s else None for s in _FIXED)
_UNPACK = tuple(s.unpack_from if s and t != EV_END else None
                for t, s in enumerate(_FIXED))
_SIZE = tuple(s.size if s else 0 for s in _FIXED)

_S_II = struct.Struct("<II")
_S_III = struct.Struct("<III")
_S_H = struct.Struct("<H")
_S_BB = struct.Struct("<BB")
_S_i = struct.Struct("<i")

#: bytes :func:`iter_stream` reads per chunk by default
CHUNK_SIZE = 1 << 16


class StreamError(ReproError):
    """A malformed ``repro.dift.events/2`` stream.

    ``offset`` is the absolute byte offset (from the start of the file,
    header line included) at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class _Truncated(StreamError):
    """A packet runs past the end of the bytes at hand: a truncated
    stream at the end of the file, the next chunk's business before."""


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
    if t == EV_IMAGE:
        data = bytes(ev[3])
        return bytes([t]) + _S_III.pack(ev[1], ev[2], len(data)) + data
    raise ValueError(f"unknown event type {t!r}")


# ---------------------------------------------------------------------- #
# decoding
# ---------------------------------------------------------------------- #

def _need(buf: bytes, pos: int, n: int, base: int) -> None:
    if pos + n > len(buf):
        raise _Truncated("truncated event stream", base + len(buf))


def _dec_str(buf: bytes, pos: int, base: int) -> Tuple[str, int]:
    _need(buf, pos, 2, base)
    (n,) = _S_H.unpack_from(buf, pos)
    pos += 2
    _need(buf, pos, n, base)
    try:
        return buf[pos:pos + n].decode("utf-8"), pos + n
    except UnicodeDecodeError:
        raise StreamError("corrupt event stream: a string field is not "
                          "UTF-8", base + pos - 2) from None


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
    if t == EV_IMAGE:
        _need(buf, pos, _S_III.size, base)
        entry, offset, n = _S_III.unpack_from(buf, pos)
        pos += _S_III.size
        _need(buf, pos, n, base)
        return (t, entry, offset, bytes(buf[pos:pos + n])), pos + n
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

    def close(self, pc: int = 0, instructions: int = 0) -> None:
        """Seal the stream: ``EV_END`` with the run's final pc and its
        retired-instruction count (what the replay must end at)."""
        if self.closed:
            return
        self._fh.write(encode_event((EV_END, pc, instructions)))
        self._fh.close()
        self.closed = True


def _read_header(fh) -> Tuple[dict, int]:
    """The header line of an open stream: ``(header, its length)``."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise StreamError("truncated event stream: unterminated header",
                          len(line))
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamError(f"corrupt header: {exc}", 0) from None
    if not isinstance(header, dict):
        raise StreamError("corrupt header: not a JSON object", 0)
    if header.get("schema") != SCHEMA:
        raise StreamError(
            f"corrupt header: schema {header.get('schema')!r} is not "
            f"{SCHEMA!r}", 0)
    return header, len(line)


def iter_stream(path: str, chunk_size: int = CHUNK_SIZE) -> Iterator:
    """Read and validate a recorded stream in bounded memory.

    Yields the header first, then ``(offset, events)`` for each chunk:
    the packets that end within the next ``chunk_size`` bytes of the
    file (a packet straddling the boundary goes with the later chunk),
    the first of them at absolute byte ``offset``.  The last event is
    the terminal ``EV_END`` packet.  Raises :class:`StreamError` (with a
    byte offset) on truncation, unknown packet types, a missing terminal
    packet, or data after it.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    unpack = _UNPACK
    size = _SIZE
    with open(path, "rb") as fh:
        header, base = _read_header(fh)
        yield header
        buf = b""   # the bytes from file offset ``base`` not yet decoded
        while True:
            data = fh.read(chunk_size)
            final = not data
            buf = buf + data if buf else data
            n = len(buf)
            pos = 0
            events: List[Tuple] = []
            append = events.append
            error = None
            while pos < n:
                t = buf[pos]
                u = unpack[t]
                if u is not None:
                    end = pos + size[t]
                    if end > n:
                        if final:
                            error = StreamError("truncated event stream",
                                                base + n)
                        break
                    append(u(buf, pos))
                    pos = end
                    continue
                try:
                    ev, end = decode_event(buf, pos, base)
                except _Truncated as err:
                    if final:
                        error = err
                    break
                except StreamError as err:
                    error = err
                    break
                if t == EV_END:
                    if end != n or fh.read(1):
                        error = StreamError(
                            "corrupt event stream: data after terminal "
                            "packet", base + end)
                        break
                    append(ev)
                    yield base, events
                    return
                append(ev)
                pos = end
            # the packets before an error go out first, as a whole-file
            # decode would have delivered them
            if events:
                yield base, events
            if error is not None:
                raise error
            if final:
                raise StreamError(
                    "truncated event stream: missing terminal packet",
                    base + n)
            buf = buf[pos:]
            base += pos


def _packet_size(ev: Tuple) -> int:
    """Bytes ``ev`` takes on the wire."""
    return _SIZE[ev[0]] or len(encode_event(ev))


def offset_of(events: List[Tuple], index: int, offset: int) -> int:
    """Byte offset of ``events[index]``, ``events[0]`` being at
    ``offset``: packets are self-delimiting, so their sizes add up."""
    return offset + sum(map(_packet_size, events[:index]))


def read_stream(path: str) -> Tuple[dict, List[Tuple]]:
    """Read and validate a whole recorded stream: ``(header, events)``.

    ``events`` ends with the terminal ``EV_END`` packet.  For tests and
    tools; :func:`iter_stream` reads in bounded memory.
    """
    stream = iter_stream(path)
    header = next(stream)
    events: List[Tuple] = []
    for __, chunk in stream:
        events.extend(chunk)
    return header, events
