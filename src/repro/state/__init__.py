"""Checkpoint/restore artifact layer (``repro.snapshot/1``).

A snapshot is one deterministic JSON document composed from the
``state_dict()`` of every :class:`Snapshotable` component — the kernel's
pending-event schedule, the CPU's architectural state, sparse RAM pages,
shadow tags, all peripheral FIFOs/IRQ lines/RNG streams — plus a header
embedding the :class:`~repro.vp.config.PlatformConfig` the platform was
built from, so a snapshot file is self-describing.

Determinism contract: :func:`dump_document` sorts keys and uses compact
separators, so *save → restore → save* produces byte-identical files
(property-tested in ``tests/test_snapshot.py``).  Binary payloads (RAM
pages, tag pages, FIFO contents) travel as base64.

Version policy: :func:`load_document` is **strict** — any schema string
other than :data:`SNAPSHOT_SCHEMA` is rejected with
:class:`SnapshotError`, including newer minor revisions.  A snapshot is
a full serialization of interpreter-level simulation state; guessing at
forward compatibility would silently corrupt a resumed run.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Iterable, List, Protocol, runtime_checkable

SNAPSHOT_SCHEMA = "repro.snapshot/1"


class SnapshotError(ValueError):
    """A snapshot document is missing, malformed, or version-mismatched."""


@runtime_checkable
class Snapshotable(Protocol):
    """The two-method protocol every checkpointable component implements."""

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...


# --------------------------------------------------------------------- #
# binary codecs
# --------------------------------------------------------------------- #


def encode_bytes(data: bytes) -> str:
    """bytes -> base64 text (ASCII, JSON-safe)."""
    return base64.b64encode(bytes(data)).decode("ascii")


def decode_bytes(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def restore_bytes(buffer: bytearray, text: str, module: str,
                  field: str) -> None:
    """Decode ``text`` into ``buffer`` **in place**.

    Peripheral buffers keep their identity for the platform's lifetime
    (the CPU may hold a DMI window on them), and their length with it,
    so a snapshot buffer of any other length raises
    :class:`SnapshotError` naming ``module`` and ``field``.
    """
    data = decode_bytes(text)
    if len(data) != len(buffer):
        raise SnapshotError(
            f"{module}.{field}: snapshot holds {len(data)} bytes, "
            f"expected {len(buffer)}")
    buffer[:] = data


def encode_sparse_pages(data, default: int, page_size: int = 4096
                        ) -> Dict[str, str]:
    """Encode a flat byte buffer as ``{page_index: base64}`` keeping only
    pages that differ from an all-``default`` page.

    One C-speed ``count`` per page decides whether it is stored, so a
    clean multi-megabyte RAM snapshots in O(pages) with near-zero output.
    """
    pages: Dict[str, str] = {}
    size = len(data)
    for start in range(0, size, page_size):
        end = min(start + page_size, size)
        if data.count(default, start, end) != end - start:
            pages[str(start // page_size)] = encode_bytes(data[start:end])
    return pages


def decode_sparse_pages(pages: Dict[str, str], out, default: int,
                        page_size: int = 4096) -> None:
    """Apply a sparse page dict onto ``out`` **in place**.

    The buffer is first reset to ``default`` — restoring over a live
    platform must clear state the snapshot does not mention.  In-place
    assignment preserves aliasing (the CPU holds DMI references into the
    same bytearray).
    """
    size = len(out)
    out[:] = bytes([default]) * size
    for key, encoded in pages.items():
        start = int(key) * page_size
        chunk = decode_bytes(encoded)
        if start < 0 or start + len(chunk) > size:
            raise SnapshotError(
                f"sparse page {key} ([{start}, {start + len(chunk)})) "
                f"outside buffer of {size} bytes")
        out[start:start + len(chunk)] = chunk


# --------------------------------------------------------------------- #
# document I/O
# --------------------------------------------------------------------- #


def dump_document(document: dict) -> str:
    """Deterministic text form: sorted keys, compact separators."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")) + "\n"


def check_schema(document: dict) -> dict:
    """Validate the header; returns the document for chaining."""
    if not isinstance(document, dict):
        raise SnapshotError(
            f"snapshot root must be an object, got {type(document).__name__}")
    schema = document.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"unsupported snapshot schema {schema!r} "
            f"(this build reads exactly {SNAPSHOT_SCHEMA!r})")
    for key in ("config", "kernel", "modules"):
        if key not in document:
            raise SnapshotError(f"snapshot is missing its {key!r} section")
    return document


def save_document(path: str, document: dict) -> str:
    """Write a validated snapshot document to ``path``."""
    check_schema(document)
    with open(path, "w") as handle:
        handle.write(dump_document(document))
    return path


def load_document(path: str) -> dict:
    """Read + strictly validate a snapshot file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}")
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: not valid JSON: {exc}")
    return check_schema(document)


# --------------------------------------------------------------------- #
# diff (CLI `repro snapshot diff` + the replay verifier's error reports)
# --------------------------------------------------------------------- #


def _flatten(value, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key),
                     out)
    elif isinstance(value, list):
        out[f"{prefix}#len"] = len(value)
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}[{index}]", out)
    else:
        out[prefix] = value


def diff_documents(a: dict, b: dict,
                   ignore_prefixes: Iterable[str] = ()) -> List[str]:
    """Human-readable leaf-level differences between two snapshots.

    Returns one ``path: a-value != b-value`` line per differing leaf
    (missing leaves render as ``<absent>``); an empty list means the
    documents are identical outside ``ignore_prefixes``.
    """
    flat_a: Dict[str, object] = {}
    flat_b: Dict[str, object] = {}
    _flatten(a, "", flat_a)
    _flatten(b, "", flat_b)
    ignored = tuple(ignore_prefixes)
    lines = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if any(key.startswith(prefix) for prefix in ignored):
            continue
        left = flat_a.get(key, "<absent>")
        right = flat_b.get(key, "<absent>")
        if left != right:
            lines.append(f"{key}: {left!r} != {right!r}")
    return lines


__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "Snapshotable",
    "encode_bytes",
    "decode_bytes",
    "restore_bytes",
    "encode_sparse_pages",
    "decode_sparse_pages",
    "dump_document",
    "check_schema",
    "save_document",
    "load_document",
    "diff_documents",
]
