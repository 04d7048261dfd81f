"""UART peripheral with DIFT clearance on the TX path.

Register map (local offsets)::

    0x00  TXDATA   (write) transmit one byte; clearance-checked
    0x04  RXDATA   (read)  pop one received byte (0 if empty)
    0x08  STATUS   (read)  bit0 = rx available, bit1 = tx ready (always 1)
    0x0C  IRQ_EN   (rw)    bit0 = raise IRQ on rx available

The TX register is a *sink* in the security policy (name
``"<name>.tx"``): writing a byte whose tag may not flow to the sink's
clearance raises a :class:`ClearanceException` (or records it and drops the
byte in record mode) — this is how the immobilizer case study catches the
UART memory-dump leak (Section VI-A).

Host-side helpers: :meth:`feed` pushes bytes into the RX queue with the
classification the policy assigns to source ``"<name>.rx"`` (e.g. LI serial
input in the code-injection experiment), and :attr:`tx_log` collects
successfully transmitted bytes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.state import decode_bytes, encode_bytes
from repro.sysc.kernel import Kernel
from repro.vp.peripherals.base import MmioPeripheral

TXDATA = 0x00
RXDATA = 0x04
STATUS = 0x08
IRQ_EN = 0x0C

SIZE = 0x10

#: ``check_sink`` context per TX byte value (recorded sink events carry it)
_TX_CONTEXT = tuple(f"byte={byte:#04x}" for byte in range(256))


class Uart(MmioPeripheral):
    """A polled/interrupt-capable UART."""

    def __init__(self, kernel: Kernel, name: str = "uart0",
                 engine: Optional[DiftEngine] = None,
                 raise_irq: Optional[Callable[[], None]] = None):
        super().__init__(kernel, name, SIZE, engine)
        self._rx: Deque[Tuple[int, int]] = deque()
        self._tx_sink = f"{name}.tx"
        self.tx_log = bytearray()
        self.tx_tags: List[int] = []
        self.blocked_tx = 0
        self.irq_en = 0
        self._raise_irq = raise_irq
        self._rx_tag: Optional[int] = None  # resolved lazily from policy

    # ------------------------------------------------------------------ #
    # host side
    # ------------------------------------------------------------------ #

    def feed(self, data: bytes, tag: Optional[int] = None) -> None:
        """Queue received bytes, classified per the policy source map."""
        if tag is None:
            if self._rx_tag is None:
                self._rx_tag = (self.engine.policy.source_tag(f"{self.name}.rx")
                                if self.engine else 0)
            tag = self._rx_tag
        for byte in data:
            self._rx.append((byte, tag))
        if self._rx and self.irq_en & 1 and self._raise_irq:
            self._raise_irq()

    def text(self) -> str:
        """Transmitted bytes as text (lossy decode for reports)."""
        return self.tx_log.decode("ascii", errors="replace")

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "rx": [[byte, tag] for byte, tag in self._rx],
            "tx_log": encode_bytes(self.tx_log),
            "tx_tags": list(self.tx_tags),
            "blocked_tx": self.blocked_tx,
            "irq_en": self.irq_en,
        }

    def load_state_dict(self, state: dict) -> None:
        self._rx = deque((byte, tag) for byte, tag in state["rx"])
        self.tx_log = bytearray(decode_bytes(state["tx_log"]))
        self.tx_tags = list(state["tx_tags"])
        self.blocked_tx = state["blocked_tx"]
        self.irq_en = state["irq_en"]

    # ------------------------------------------------------------------ #
    # register interface
    # ------------------------------------------------------------------ #

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        if offset == RXDATA:
            if self._rx:
                return self._rx.popleft()
            return 0, self.bottom_tag
        if offset == STATUS:
            return (1 if self._rx else 0) | 0x2, self.bottom_tag
        if offset == IRQ_EN:
            return self.irq_en, self.bottom_tag
        return 0, self.bottom_tag

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        if offset == TXDATA:
            byte = value & 0xFF
            if self.engine is not None:
                allowed = self.engine.check_sink(
                    self._tx_sink, tag, context=_TX_CONTEXT[byte])
                if not allowed:
                    self.blocked_tx += 1
                    return
            self.tx_log.append(byte)
            self.tx_tags.append(tag)
        elif offset == IRQ_EN:
            self.irq_en = value & 1
            if self._rx and self.irq_en and self._raise_irq:
                self._raise_irq()
