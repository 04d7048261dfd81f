"""DMA controller: tag-preserving memory-to-memory copies.

DMA is one of the "fine-grained HW/SW interactions" the paper argues
source-level DIFT cannot model (Section I): data moves between memory
regions *without any CPU instruction executing*, so a CPU-only taint
engine loses track of it.  This controller copies through TLM transactions
whose payloads carry per-byte tags, so security classes survive the copy.

Register map::

    0x00  SRC    (rw) source bus address
    0x04  DST    (rw) destination bus address
    0x08  LEN    (rw) bytes to copy
    0x0C  CTRL   (write) bit0 = start, bit1 = merge tags
    0x10  STATUS (read) bit0 = busy, bit1 = done

CTRL bit 1 selects **merge mode**: destination tags become
``lub(dst, src)`` instead of being overwritten, so a DMA gather into a
partially classified buffer cannot *launder* taint away — the write
payloads carry ``merge_tags`` and the memory folds them with the
engine's LUB (at C speed for the uniform-tag bursts DMA produces, see
``Memory.set_lub_table``).  Data bytes are always copied verbatim; the
bit only changes tag semantics and is latched per transfer at start.

The copy runs in a SystemC thread, transferring a burst per bus cycle and
raising its interrupt on completion.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.sysc.kernel import Kernel
from repro.sysc.time import ZERO_TIME, SimTime
from repro.sysc.tlm import GenericPayload, Router
from repro.vp.peripherals.base import MmioPeripheral

SRC = 0x00
DST = 0x04
LEN = 0x08
CTRL = 0x0C
STATUS = 0x10

SIZE = 0x14

#: bytes moved per bus burst
BURST = 64


class DmaController(MmioPeripheral):
    """A single-channel memory-to-memory DMA engine."""

    def __init__(self, kernel: Kernel, name: str = "dma0",
                 engine: Optional[DiftEngine] = None,
                 router: Optional[Router] = None,
                 raise_irq: Optional[Callable[[], None]] = None,
                 burst_delay: SimTime = SimTime.ns(100)):
        super().__init__(kernel, name, SIZE, engine)
        self.router = router
        self._raise_irq = raise_irq
        self.burst_delay = burst_delay
        self.src = 0
        self.dst = 0
        self.len = 0
        self.busy = False
        self.done = False
        self.merge = False
        self.transfers_completed = 0
        self._start_pending = False
        # transfer cursor, held as instance state (not generator locals)
        # so a checkpoint taken mid-transfer can resume the copy
        self._cur_src = 0
        self._cur_dst = 0
        self._remaining = 0
        self._start_event = self.make_event("start")
        self.sc_thread(self.run, "run")

    def run(self):
        """SystemC thread performing the copies burst by burst.

        A pending-start flag makes the handshake robust against the
        classic lost-wakeup: software may hit CTRL before this thread has
        reached its first wait.

        The loop is restore-safe: every yield returns control to the loop
        top, which re-reads the instance-attribute cursor — so a fresh
        generator primed during snapshot restore (suspended side-effect
        free at the guard) resumes a mid-transfer copy exactly where the
        checkpointed one stopped.
        """
        while True:
            if self.kernel.restoring:
                yield None
                continue
            if self.busy:
                if self._remaining > 0:
                    if self._burst():
                        yield self.burst_delay
                        continue
                    self._remaining = 0  # bus error: abandon the transfer
                self.busy = False
                self.done = True
                self.transfers_completed += 1
                if self._raise_irq:
                    self._raise_irq()
                continue
            if not self._start_pending:
                yield self._start_event
                continue
            self._start_pending = False
            self.busy = True
            self.done = False
            self._cur_src = self.src
            self._cur_dst = self.dst
            self._remaining = self.len

    def _burst(self) -> bool:
        """Copy one burst at the cursor; False on a bus error."""
        chunk = min(self._remaining, BURST)
        tagged = self.engine is not None
        read = GenericPayload.make_read(self._cur_src, chunk, tagged=tagged)
        self.router.b_transport(read, ZERO_TIME)
        if not read.ok():
            return False
        write = GenericPayload.make_write(
            self._cur_dst, bytes(read.data),
            bytes(read.tags) if read.tags is not None else None,
            merge_tags=self.merge and read.tags is not None)
        self.router.b_transport(write, ZERO_TIME)
        if not write.ok():
            return False
        self._cur_src += chunk
        self._cur_dst += chunk
        self._remaining -= chunk
        return True

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "len": self.len,
            "busy": self.busy,
            "done": self.done,
            "merge": self.merge,
            "transfers_completed": self.transfers_completed,
            "start_pending": self._start_pending,
            "cur_src": self._cur_src,
            "cur_dst": self._cur_dst,
            "remaining": self._remaining,
        }

    def load_state_dict(self, state: dict) -> None:
        self.src = state["src"]
        self.dst = state["dst"]
        self.len = state["len"]
        self.busy = state["busy"]
        self.done = state["done"]
        self.merge = state.get("merge", False)
        self.transfers_completed = state["transfers_completed"]
        self._start_pending = state["start_pending"]
        self._cur_src = state["cur_src"]
        self._cur_dst = state["cur_dst"]
        self._remaining = state["remaining"]

    # ------------------------------------------------------------------ #
    # register interface
    # ------------------------------------------------------------------ #

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        if offset == SRC:
            return self.src, self.bottom_tag
        if offset == DST:
            return self.dst, self.bottom_tag
        if offset == LEN:
            return self.len, self.bottom_tag
        if offset == STATUS:
            return (1 if self.busy else 0) | (2 if self.done else 0), \
                self.bottom_tag
        return 0, self.bottom_tag

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        if offset == SRC:
            self.src = value
        elif offset == DST:
            self.dst = value
        elif offset == LEN:
            self.len = value
        elif offset == CTRL and value & 1 and not self.busy:
            self.merge = bool(value & 2)
            self._start_pending = True
            self._start_event.notify()
