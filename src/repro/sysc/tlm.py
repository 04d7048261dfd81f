"""TLM-2.0-style transaction-level modelling layer.

Reproduces the parts of OSCI TLM-2.0 the VP uses:

* :class:`GenericPayload` — command, address, data, response status.  In
  addition to the data bytes it optionally carries **per-byte security
  tags**; this is the Python analogue of the paper's convention of casting
  a ``Taint<uint8_t>`` array into the payload's ``char*`` data pointer so
  tags travel through the interconnect with the data (Section V-B1,
  modification 3).
* :class:`TargetSocket` / :class:`InitiatorSocket` — blocking transport
  (``b_transport``) with a timing-annotation delay, loosely-timed style.
* :class:`Router` — address-map based routing from initiators to targets
  with global-to-local address translation, like the VP's TLM bus.
* **DMI** (direct memory interface): targets may grant a direct pointer to
  their backing store so the ISS can skip transaction overhead on RAM,
  exactly as the original RISC-V VP does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import BusError
from repro.sysc.time import SimTime

# Commands (tlm_command)
READ = "read"
WRITE = "write"

# Response status (tlm_response_status)
OK = "ok"
ADDRESS_ERROR = "address-error"
COMMAND_ERROR = "command-error"
GENERIC_ERROR = "generic-error"
INCOMPLETE = "incomplete"


class GenericPayload:
    """A TLM generic payload extended with per-byte security tags.

    ``data`` is the transported bytes (read results are written into it by
    the target).  ``tags`` — when present — has one security tag per data
    byte and travels in both directions alongside ``data``; a plain
    (non-DIFT) platform leaves it ``None`` and pays no cost.

    ``merge_tags`` asks a write's target to fold the payload tags into
    its existing ones with the lattice LUB (``dst = lub(dst, src)``)
    instead of overwriting — the conservative choice for engines that
    scatter into buffers whose prior classification must survive (e.g. a
    DMA gather over a partially tainted destination).  Targets without
    tag state ignore it; the memory updates ``tags`` in place to the
    merged result so the initiator sees what actually landed.

    A slotted class rather than a dataclass: one payload is built per
    transaction, so construction and attribute access are hot.
    """

    __slots__ = ("command", "address", "data", "tags", "merge_tags",
                 "response")

    def __init__(self, command: str = READ, address: int = 0,
                 data: Optional[bytearray] = None,
                 tags: Optional[bytearray] = None,
                 merge_tags: bool = False, response: str = INCOMPLETE):
        self.command = command
        self.address = address
        self.data = bytearray() if data is None else data
        self.tags = tags
        self.merge_tags = merge_tags
        self.response = response

    @property
    def length(self) -> int:
        return len(self.data)

    def is_read(self) -> bool:
        return self.command == READ

    def is_write(self) -> bool:
        return self.command == WRITE

    def ok(self) -> bool:
        return self.response == OK

    @classmethod
    def make_read(cls, address: int, length: int, tagged: bool = False
                  ) -> "GenericPayload":
        return cls(
            command=READ,
            address=address,
            data=bytearray(length),
            tags=bytearray(length) if tagged else None,
        )

    @classmethod
    def make_write(cls, address: int, data: bytes,
                   tags: Optional[bytes] = None,
                   merge_tags: bool = False) -> "GenericPayload":
        return cls(
            command=WRITE,
            address=address,
            data=bytearray(data),
            tags=bytearray(tags) if tags is not None else None,
            merge_tags=merge_tags,
        )


TransportFn = Callable[[GenericPayload, SimTime], SimTime]


class TargetSocket:
    """Receives transactions; the owning module registers its transport."""

    def __init__(self, name: str = "tsock"):
        self.name = name
        self._transport: Optional[TransportFn] = None

    def register_b_transport(self, fn: TransportFn) -> None:
        self._transport = fn

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        """Deliver a transaction; returns the accumulated delay annotation."""
        if self._transport is None:
            raise BusError(
                f"target socket {self.name!r} has no registered transport",
                payload.address,
            )
        return self._transport(payload, delay)


class InitiatorSocket:
    """Sends transactions into a bound target socket or router."""

    def __init__(self, name: str = "isock"):
        self.name = name
        self._target: Optional[TargetSocket] = None

    def bind(self, target: TargetSocket) -> None:
        self._target = target

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        if self._target is None:
            raise BusError(f"initiator socket {self.name!r} is unbound",
                           payload.address)
        return self._target.b_transport(payload, delay)


@dataclass(frozen=True)
class MapEntry:
    """One address-map range ``[start, end)`` routed to ``socket``."""

    start: int
    end: int
    socket: TargetSocket
    name: str

    def __contains__(self, address: int) -> bool:
        return self.start <= address < self.end


class DmiRegion:
    """A granted direct-memory region (TLM DMI analogue).

    ``data`` (and ``tags`` on a DIFT platform) are the live backing stores
    of the target; index them with ``address - start``.
    """

    __slots__ = ("start", "end", "data", "tags")

    def __init__(self, start: int, end: int, data: bytearray,
                 tags: Optional[bytearray]):
        self.start = start
        self.end = end
        self.data = data
        self.tags = tags

    def __contains__(self, address: int) -> bool:
        return self.start <= address < self.end


class Router:
    """Address-routed interconnect (the VP's TLM bus).

    Targets are mapped with absolute ranges; the router translates the
    payload address to a target-local offset before forwarding, and
    restores it afterwards (non-destructive routing).  A transaction to
    an unmapped address, or one crossing the end of its target, is
    answered with ``ADDRESS_ERROR`` like any target-side rejection; the
    initiator decides what a failed transaction means.
    """

    def __init__(self, name: str = "bus", latency: SimTime = SimTime.ns(10)):
        self.name = name
        self.latency = latency
        self._map: List[MapEntry] = []
        # entry starts in map order, for the bisect decode
        self._starts: List[int] = []
        self._dmi_providers: dict = {}
        self.transactions_routed = 0
        # MRU decode cache: MMIO traffic clusters on one target (a guest
        # polling a peripheral), making the last entry the overwhelmingly
        # likely hit before the bisect
        self._last_entry: Optional[MapEntry] = None
        # observability; None keeps routing free of metric lookups.  The
        # per-target counter dict is filled lazily because targets may be
        # mapped after attach.
        self._metrics = None
        self._target_counters: dict = {}

    def attach_metrics(self, metrics) -> None:
        """Count routed transactions per target into ``metrics``."""
        self._metrics = metrics
        self._target_counters = {
            entry.name: metrics.counter(
                f"tlm.target.{entry.name}.transactions")
            for entry in self._map
        }

    def map_target(self, start: int, size: int, socket: TargetSocket,
                   name: str = "") -> None:
        """Map ``[start, start+size)`` to a target socket."""
        end = start + size
        for entry in self._map:
            if start < entry.end and entry.start < end:
                raise BusError(
                    f"address range [{start:#x}, {end:#x}) for "
                    f"{name or socket.name!r} overlaps {entry.name!r}",
                    start,
                )
        self._map.append(MapEntry(start, end, socket, name or socket.name))
        self._map.sort(key=lambda e: e.start)
        self._starts = [entry.start for entry in self._map]
        self._last_entry = None

    def register_dmi(self, start: int, size: int, data: bytearray,
                     tags: Optional[bytearray] = None) -> None:
        """Record a DMI grant for ``[start, start+size)``."""
        self._dmi_providers[start] = DmiRegion(start, start + size, data, tags)

    def get_dmi(self, address: int) -> Optional[DmiRegion]:
        """DMI region covering ``address``, if any target granted one."""
        for region in self._dmi_providers.values():
            if address in region:
                return region
        return None

    def decode(self, address: int) -> MapEntry:
        """Map entry covering ``address`` (raises BusError if unmapped)."""
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            entry = self._map[index]
            if address < entry.end:
                return entry
        raise BusError(f"no target mapped at address {address:#010x}", address)

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        """Route a transaction to its target with address translation."""
        address = payload.address
        entry = self._last_entry
        if entry is None or not entry.start <= address < entry.end:
            # MRU miss: the entry with the greatest start <= address is
            # the only candidate (the map has no overlaps)
            index = bisect_right(self._starts, address) - 1
            if index < 0:
                payload.response = ADDRESS_ERROR
                return delay
            entry = self._map[index]
            if address >= entry.end:
                payload.response = ADDRESS_ERROR
                return delay
            self._last_entry = entry
        if address + len(payload.data) > entry.end:
            payload.response = ADDRESS_ERROR
            return delay
        self.transactions_routed += 1
        if self._metrics is not None:
            counter = self._target_counters.get(entry.name)
            if counter is None:
                counter = self._metrics.counter(
                    f"tlm.target.{entry.name}.transactions")
                self._target_counters[entry.name] = counter
            counter.inc()
        payload.address = address - entry.start
        try:
            return entry.socket.b_transport(payload, delay + self.latency)
        finally:
            payload.address = address

    def target_names(self) -> List[str]:
        return [entry.name for entry in self._map]

    def state_dict(self) -> dict:
        """Per-target transaction counters live in the metrics registry
        and are restored with it; only the raw total is owned here."""
        return {"transactions_routed": self.transactions_routed}

    def load_state_dict(self, state: dict) -> None:
        self.transactions_routed = state["transactions_routed"]

    def __repr__(self) -> str:
        return f"Router({self.name!r}, targets={self.target_names()})"
