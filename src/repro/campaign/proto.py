"""Broker/worker wire protocol: length-prefixed JSON frames.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Every message is an object with a ``"type"`` key;
the protocol version travels once, in the ``hello``/``welcome``
handshake, as ``repro.campaign.proto/1``.

Message types
-------------

========== ========= ====================================================
type       direction payload
========== ========= ====================================================
hello      w -> b    ``proto``, worker ``name``
welcome    b -> w    ``proto``, broker ``name``, assigned worker ``id``
request    w -> b    idle worker asks for the next job
job        b -> w    ``spec`` (a JobSpec dict), ``attempt``
result     w -> b    a ``repro.campaign.job/1`` document in ``record``
heartbeat  w -> b    liveness while a job simulates (``job_id``)
fetch      w -> b    request a shared artifact by ``artifact_id``
artifact   b -> w    ``artifact_id`` + ``data`` (warm-start snapshots)
shutdown   b -> w    campaign over; worker disconnects (or exits)
error      either    terminal protocol failure, ``message``
========== ========= ====================================================

The framing layer is transport-dumb on purpose: :class:`FrameBuffer`
turns a byte stream into messages without ever blocking, so the broker
can run all connections off one ``selectors`` loop, and the worker can
use plain blocking sockets.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import List, Optional

PROTO_SCHEMA = "repro.campaign.proto/1"

_HEADER = struct.Struct(">I")

#: refuse frames above this size — a corrupted length prefix must not
#: make a peer allocate gigabytes (largest legit frame is a warm-start
#: snapshot artifact, single-digit MiB)
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not this protocol."""


def pack_frame(message: dict) -> bytes:
    """Serialize one message into its wire frame."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode()
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(MAX_FRAME is {MAX_FRAME})")
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(pack_frame(message))


class FrameBuffer:
    """Incremental frame decoder: feed bytes in, get messages out.

    Never blocks and never raises on a *partial* frame — only on a
    malformed one — so it drives both the broker's non-blocking loop and
    the worker's blocking reads.  Messages decoded beyond what a caller
    consumed can be :meth:`pushback`-ed and reappear first on the next
    :meth:`feed`.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._ready: List[dict] = []

    def feed(self, data: bytes) -> List[dict]:
        """Absorb ``data``; return every now-complete message."""
        messages, self._ready = self._ready, []
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} exceeds MAX_FRAME "
                    f"({MAX_FRAME}); stream is corrupt or not ours")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"frame is not JSON: {exc}")
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError("frame is not a typed message object")
            messages.append(message)

    def pushback(self, messages: List[dict]) -> None:
        """Return unconsumed messages; the next feed() yields them first."""
        self._ready = list(messages) + self._ready

    def __len__(self) -> int:
        return len(self._buffer) + sum(1 for _ in self._ready)


def recv_frame(sock: socket.socket, buffer: FrameBuffer,
               timeout: Optional[float] = None) -> Optional[dict]:
    """Blocking single-message read for the worker side.

    Returns the next message, or None when the peer closed the
    connection cleanly.  ``timeout`` bounds the wait (``socket.timeout``
    propagates so callers can heartbeat and retry).
    """
    pending = buffer.feed(b"")
    if pending:
        buffer.pushback(pending[1:])
        return pending[0]
    sock.settimeout(timeout)
    while True:
        data = sock.recv(65536)
        if not data:
            return None
        messages = buffer.feed(data)
        if messages:
            buffer.pushback(messages[1:])
            return messages[0]


def hello(name: str) -> dict:
    return {"type": "hello", "proto": PROTO_SCHEMA, "name": name}


def check_handshake(message: Optional[dict], expected_type: str) -> dict:
    """Validate the first message a peer sends; raise on any mismatch."""
    if message is None:
        raise ProtocolError("peer closed the connection mid-handshake")
    if message.get("type") == "error":
        raise ProtocolError(
            f"peer rejected handshake: {message.get('message')}")
    if message.get("type") != expected_type:
        raise ProtocolError(
            f"expected a {expected_type!r} message, "
            f"got {message.get('type')!r}")
    proto = message.get("proto")
    if proto != PROTO_SCHEMA:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {proto!r}, "
            f"this side speaks {PROTO_SCHEMA!r}")
    return message
