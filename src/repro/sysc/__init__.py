"""A SystemC-like event-driven simulation kernel with TLM-2.0-style transport.

This package is the substrate the paper assumes (IEEE-1666 SystemC + OSCI
TLM-2.0), re-implemented from scratch in Python: generator-based SC_THREAD
processes, delta cycles, timed events, blocking transport with per-byte
security tags on the payload, an address-routed bus and DMI.
"""

from repro.sysc.event import Event
from repro.sysc.kernel import DELTA, Kernel, Process
from repro.sysc.module import Module
from repro.sysc.time import MS, NS, PS, SEC, US, ZERO_TIME, SimTime
from repro.sysc.tlm import (
    ADDRESS_ERROR,
    COMMAND_ERROR,
    GENERIC_ERROR,
    INCOMPLETE,
    OK,
    READ,
    WRITE,
    DmiRegion,
    GenericPayload,
    InitiatorSocket,
    MapEntry,
    Router,
    TargetSocket,
)

__all__ = [
    "Event",
    "Kernel",
    "Process",
    "DELTA",
    "Module",
    "SimTime",
    "ZERO_TIME",
    "PS",
    "NS",
    "US",
    "MS",
    "SEC",
    "GenericPayload",
    "InitiatorSocket",
    "TargetSocket",
    "Router",
    "MapEntry",
    "DmiRegion",
    "READ",
    "WRITE",
    "OK",
    "ADDRESS_ERROR",
    "COMMAND_ERROR",
    "GENERIC_ERROR",
    "INCOMPLETE",
]
