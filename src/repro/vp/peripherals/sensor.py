"""The sensor peripheral of the paper's Fig. 4.

A memory-mapped 64-byte data frame is refilled periodically (default every
25 ms — "40 times per second") by a SystemC thread with pseudo-random
printable data.  Each generated byte carries the security class held in the
``data_tag`` register, so differently-classified sensor sources can be
modelled by software writing that register.  After each refill the sensor
raises its interrupt (IRQ 2 in the paper).

Register map::

    0x00..0x3F  data frame (read)
    0x80        DATA_TAG   (rw) security tag for *newly generated* data
    0x84        FRAME_NO   (read) number of frames generated so far
    0x88        PERIOD_US  (rw)  regeneration period in microseconds

Matching the paper's Fig. 4: reading ``DATA_TAG`` returns the configured
tag *as a value* classified non-confidential, and writing it re-configures
the classification of future frames (Lines 43-47).

The data frame is the CPU's DMI read window: reading it has no side
effect, and software cannot write it.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.state import encode_bytes, restore_bytes
from repro.sysc.kernel import Kernel
from repro.sysc.time import SimTime
from repro.sysc.tlm import READ
from repro.vp.peripherals.base import DmiWindow, MmioPeripheral

FRAME_SIZE = 64
DATA_TAG = 0x80
FRAME_NO = 0x84
PERIOD_US = 0x88

SIZE = 0x90


class SimpleSensor(MmioPeripheral):
    """Periodic data-frame generator (paper Fig. 4)."""

    def __init__(self, kernel: Kernel, name: str = "sensor0",
                 engine: Optional[DiftEngine] = None,
                 raise_irq: Optional[Callable[[], None]] = None,
                 period: SimTime = SimTime.ms(25), seed: int = 0x5EED):
        super().__init__(kernel, name, SIZE, engine)
        self.frame = bytearray(FRAME_SIZE)
        self.frame_tags = bytearray(FRAME_SIZE)
        self.data_tag = (engine.policy.source_tag(name) if engine else 0)
        self.frame_no = 0
        self.period_us = max(1, int(period.to_us()))
        self._raise_irq = raise_irq
        self._rng = random.Random(seed)
        self.sc_thread(self.run, "run")

    def dmi_windows(self) -> Tuple[DmiWindow, ...]:
        return (DmiWindow(0, READ, self.frame, self.frame_tags),)

    def run(self):
        """SystemC thread: refill the frame every period (Fig. 4 ``run``)."""
        while True:
            yield SimTime.us(self.period_us)
            tag = self.data_tag
            for i in range(FRAME_SIZE):
                # printable pseudo-random data, tagged with the configured
                # security class (Fig. 4 Line 21)
                self.frame[i] = self._rng.randrange(96) + 32
                self.frame_tags[i] = tag
            self.frame_no += 1
            if self._raise_irq:
                self._raise_irq()

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        # The thread has exactly one yield (its period wait), so a fresh
        # generator primed at restore suspends at the same position the
        # original held; the next refill then replays from the restored
        # Mersenne-Twister state bit-identically.
        version, internal, gauss_next = self._rng.getstate()
        return {
            "frame": encode_bytes(self.frame),
            "frame_tags": encode_bytes(self.frame_tags),
            "data_tag": self.data_tag,
            "frame_no": self.frame_no,
            "period_us": self.period_us,
            "rng": [version, list(internal), gauss_next],
        }

    def load_state_dict(self, state: dict) -> None:
        restore_bytes(self.frame, state["frame"], self.name, "frame")
        restore_bytes(self.frame_tags, state["frame_tags"], self.name,
                      "frame_tags")
        self.data_tag = state["data_tag"]
        self.frame_no = state["frame_no"]
        self.period_us = state["period_us"]
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))

    # ------------------------------------------------------------------ #
    # register interface
    # ------------------------------------------------------------------ #

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        if offset + size <= FRAME_SIZE:
            value = int.from_bytes(self.frame[offset:offset + size], "little")
            if self.engine is not None:
                tag = self.engine.lub_bytes(self.frame_tags[offset:offset + size])
            else:
                tag = 0
            return value, tag
        if offset == DATA_TAG:
            # the configured security class, itself non-confidential data
            return self.data_tag, self.bottom_tag
        if offset == FRAME_NO:
            return self.frame_no, self.bottom_tag
        if offset == PERIOD_US:
            return self.period_us, self.bottom_tag
        return 0, self.bottom_tag

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        if offset == DATA_TAG:
            if self.engine is not None:
                n_classes = len(self.engine.lattice)
                if not 0 <= value < n_classes:
                    return  # ignore writes of unknown security classes
            self.data_tag = value
        elif offset == PERIOD_US:
            if value > 0:
                self.period_us = value
        # the data frame itself is read-only to software
