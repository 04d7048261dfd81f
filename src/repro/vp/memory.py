"""Tainted RAM as a TLM target.

The memory stores data bytes plus (on a DIFT platform) one security tag per
byte, mirroring the paper's modification 3: the memory interface carries
``Taint<uint8_t>`` arrays through TLM transactions.  It also grants DMI so
the ISS can access RAM without per-access transaction overhead — the same
optimization the original RISC-V VP uses.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import BusError
from repro.state import decode_sparse_pages, encode_sparse_pages
from repro.sysc.kernel import Kernel
from repro.sysc.module import Module
from repro.sysc.time import SimTime
from repro.sysc.tlm import (ADDRESS_ERROR, OK, READ, GenericPayload,
                             TargetSocket)


class Memory(Module):
    """Byte-addressable RAM with optional per-byte security tags."""

    def __init__(self, kernel: Kernel, name: str, size: int,
                 tagged: bool = False, default_tag: int = 0,
                 access_delay: SimTime = SimTime.ns(5)):
        super().__init__(kernel, name)
        self.size = size
        self.data = bytearray(size)
        self.tags: Optional[bytearray] = (
            bytearray([default_tag]) * size if tagged else None)
        self.default_tag = default_tag
        self.access_delay = access_delay
        self.tsock = TargetSocket(f"{name}.tsock")
        self.tsock.register_b_transport(self.transport)
        # write observers, each called as fn(offset, length, tags) after
        # every write outside the ISS loops (TLM/DMA writes, the loader,
        # host-side pokes); ``tags`` is what the write stored in the
        # shadow: an int for a uniform fill, the bytes otherwise, None
        # when it left the shadow alone.  The JIT keeps compiled code
        # coherent, demand mode marks dirty pages, recording queues taint
        # packets (the ISS store paths do their own bookkeeping inline)
        self.observers: List[Callable[[int, int, object], None]] = []
        # merge-tags support (``GenericPayload.merge_tags``): the raw
        # LUB table plus the engine's memoized uniform-tag translate
        # tables; None until the platform wires an engine in
        self._lub = None
        self._lub_translation = None

    def set_lub_table(self, lub_table, translation_fn) -> None:
        """Enable merge-tags writes (``dst = lub(dst, src)``).

        ``lub_table`` is the engine's raw dense table; ``translation_fn``
        maps a uniform tag to a 256-entry translate table (see
        :meth:`repro.dift.engine.DiftEngine.lub_translation`) so the
        common uniform-source burst merges at C speed.
        """
        self._lub = lub_table
        self._lub_translation = translation_fn

    def transport(self, trans: GenericPayload, delay: SimTime) -> SimTime:
        """TLM blocking transport (payload address is memory-local)."""
        address = trans.address
        length = len(trans.data)
        if address < 0 or address + length > self.size:
            trans.response = ADDRESS_ERROR
            return delay
        if trans.command == READ:
            trans.data[:] = self.data[address:address + length]
            if trans.tags is not None and self.tags is not None:
                trans.tags[:] = self.tags[address:address + length]
        else:
            merge = (self.tags is not None and trans.tags is not None
                     and trans.merge_tags and length)
            if merge and self._lub is None:
                raise BusError("merge-tags write but no LUB table attached "
                               "(Memory.set_lub_table)", address)
            self.data[address:address + length] = trans.data
            stored = None
            if merge:
                src = bytes(trans.tags)
                if src.count(src[0]) == length:
                    # uniform source (the common DMA burst): one C-speed
                    # translate over the destination span
                    table = self._lub_translation(src[0])
                    stored = bytes(
                        self.tags[address:address + length]).translate(table)
                else:
                    lub = self._lub
                    dst = self.tags
                    stored = bytes(lub[dst[address + i]][s]
                                   for i, s in enumerate(src))
                self.tags[address:address + length] = stored
                trans.tags[:] = stored
            elif trans.tags is not None and self.tags is not None:
                stored = trans.tags
                self.tags[address:address + length] = stored
            elif self.tags is not None:
                stored = self.default_tag
                self.tags[address:address + length] = bytes([stored]) * length
            for fn in self.observers:
                fn(address, length, stored)
        trans.response = OK
        return delay + self.access_delay

    # ------------------------------------------------------------------ #
    # host-side (loader / test) access, bypassing TLM
    # ------------------------------------------------------------------ #

    def load(self, offset: int, blob: bytes, tag: Optional[int] = None) -> None:
        """Copy ``blob`` into memory; optionally tag the written bytes."""
        self.data[offset:offset + len(blob)] = blob
        if self.tags is None:
            tag = None
        elif tag is not None:
            self.tags[offset:offset + len(blob)] = bytes([tag]) * len(blob)
        for fn in self.observers:
            fn(offset, len(blob), tag)

    def read_word(self, offset: int) -> int:
        if offset < 0 or offset + 4 > self.size:
            raise BusError(f"word read at offset {offset:#x} is outside "
                           f"RAM of {self.size} bytes", offset)
        return int.from_bytes(self.data[offset:offset + 4], "little")

    def write_word(self, offset: int, value: int,
                   tag: Optional[int] = None) -> None:
        self.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(
            4, "little")
        if self.tags is None:
            tag = None
        elif tag is not None:
            self.tags[offset:offset + 4] = bytes([tag]) * 4
        for fn in self.observers:
            fn(offset, 4, tag)

    def read_block(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset:offset + length])

    def tag_of(self, offset: int) -> int:
        return self.tags[offset] if self.tags is not None else 0

    def fill_tags(self, offset: int, length: int, tag: int) -> None:
        if self.tags is not None:
            self.tags[offset:offset + length] = bytes([tag]) * length
            for fn in self.observers:
                fn(offset, length, tag)

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Sparse page encoding: only pages differing from the all-zero
        (data) / all-default-tag (shadow) background are stored."""
        state = {
            "size": self.size,
            "data_pages": encode_sparse_pages(self.data, 0),
        }
        if self.tags is not None:
            state["tag_pages"] = encode_sparse_pages(self.tags,
                                                     self.default_tag)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore **in place** — the CPU holds DMI references into the
        same bytearrays, which re-assignment would silently orphan.
        The write observers are deliberately not called: liveness state
        is restored from its own snapshot section, not re-derived, and
        the JIT flushes on restore."""
        if state["size"] != self.size:
            raise ValueError(
                f"snapshot RAM size {state['size']} != configured "
                f"{self.size}")
        decode_sparse_pages(state["data_pages"], self.data, 0)
        if self.tags is not None:
            decode_sparse_pages(state.get("tag_pages", {}), self.tags,
                                self.default_tag)
