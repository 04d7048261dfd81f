"""Common base class for memory-mapped peripherals.

Translates TLM payloads (with per-byte security tags) into simple
``read(offset, size)`` / ``write(offset, size, value, tag)`` register
callbacks, so each peripheral model stays close to the paper's Fig. 4
``transport`` function without repeating the payload plumbing.

Tag convention: a multi-byte register read returns one tag for the whole
value (every byte of the response carries it); a multi-byte write merges
the incoming byte tags with LUB before the register callback sees it —
the ``from_bytes`` rule of the paper's Taint type.

Direct memory interface: a peripheral may declare DMI windows
(:class:`DmiWindow`) over byte storage whose accesses in one direction
have no side effect; none by default.  The platform grants each window
to the CPU at its bus address, and the CPU serves an access lying
wholly inside one from the window's data and tag bytes, as TLM-2.0's
``get_direct_mem_ptr`` lets an initiator do.  Such an access is not a
transaction: it reaches neither :meth:`MmioPeripheral.transport` nor
its counters.  The grant lasts as long as the platform, so a window's
bytearrays are only ever updated in place.

A write that starts inside one of :attr:`MmioPeripheral.write_buffers`
and runs past its end is answered ``ADDRESS_ERROR`` before any byte
lands.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.sysc.kernel import Kernel
from repro.sysc.module import Module
from repro.sysc.time import SimTime
from repro.sysc.tlm import (ADDRESS_ERROR, COMMAND_ERROR, OK, READ, WRITE,
                             GenericPayload, TargetSocket)


class DmiWindow(NamedTuple):
    """Peripheral storage the CPU may access without a transaction.

    ``offset`` is the window's local address and ``command`` the one
    direction it serves (``READ`` or ``WRITE``).  ``data`` and ``tags``
    are the peripheral's own bytearrays, one tag per data byte.
    """

    offset: int
    command: str
    data: bytearray
    tags: bytearray


class MmioPeripheral(Module):
    """A TLM target exposing word/byte registers at local offsets."""

    #: ``(offset, length)`` of each byte buffer a write must not run past
    write_buffers: Tuple[Tuple[int, int], ...] = ()

    def __init__(self, kernel: Kernel, name: str, size: int,
                 engine: Optional[DiftEngine] = None,
                 access_delay: SimTime = SimTime.ns(20)):
        super().__init__(kernel, name)
        self.size = size
        self.engine = engine
        self.access_delay = access_delay
        self.tsock = TargetSocket(f"{name}.tsock")
        self.tsock.register_b_transport(self.transport)
        # observability; None keeps transport free of metric lookups
        self._obs_tracer = None
        self._m_reads = None
        self._m_writes = None

    def attach_obs(self, obs) -> None:
        """Count register accesses / emit TLM spans into ``obs``."""
        self._obs_tracer = obs.tracer
        self._m_reads = obs.metrics.counter(f"periph.{self.name}.reads")
        self._m_writes = obs.metrics.counter(f"periph.{self.name}.writes")

    def dmi_windows(self) -> Tuple[DmiWindow, ...]:
        """The storage this peripheral grants the CPU direct access to."""
        return ()

    @property
    def bottom_tag(self) -> int:
        return self.engine.bottom_tag if self.engine else 0

    @property
    def default_tag(self) -> int:
        return self.engine.default_tag if self.engine else 0

    def transport(self, trans: GenericPayload, delay: SimTime) -> SimTime:
        offset = trans.address
        length = len(trans.data)
        if offset < 0 or offset + length > self.size:
            trans.response = ADDRESS_ERROR
            return delay
        command = trans.command
        if command == READ:
            value, tag = self.read(offset, length)
            trans.data[:] = (value & ((1 << (8 * length)) - 1)).to_bytes(
                length, "little")
            if trans.tags is not None:
                trans.tags[:] = bytes([tag]) * length
        elif command == WRITE:
            for start, n in self.write_buffers:
                if start <= offset < start + n < offset + length:
                    trans.response = ADDRESS_ERROR
                    return delay
            self.write_bytes(offset, bytes(trans.data),
                             bytes(trans.tags) if trans.tags is not None
                             else None)
        else:
            trans.response = COMMAND_ERROR
            return delay
        trans.response = OK
        if self._m_reads is not None:
            is_read = command == READ
            (self._m_reads if is_read else self._m_writes).inc()
            if self._obs_tracer is not None:
                self._obs_tracer.complete(
                    f"{self.name}.{'rd' if is_read else 'wr'}",
                    "tlm", ts=self._obs_tracer.clock(),
                    dur=self.access_delay.ps / 1e6,
                    args={"offset": offset, "length": length})
        return delay + self.access_delay

    # -- register interface; peripherals override these ------------------- #

    def write_bytes(self, offset: int, data: bytes,
                    tags: Optional[bytes]) -> None:
        """Byte-level write hook.

        The default folds the byte tags with LUB (``from_bytes`` rule) and
        calls :meth:`write`.  Peripherals that need *per-byte* tag
        semantics (e.g. the AES key register under a per-byte key policy)
        override this instead.
        """
        value = int.from_bytes(data, "little")
        if tags is not None and self.engine is not None:
            tag = self.engine.lub_bytes(tags)
        else:
            tag = self.default_tag
        self.write(offset, len(data), value, tag)

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        """Read ``size`` bytes at ``offset``; returns (value, tag)."""
        raise NotImplementedError

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        """Write ``size`` bytes at ``offset`` carrying security ``tag``."""
        raise NotImplementedError
