"""CAN controller peripheral + a two-node CAN bus channel.

The immobilizer case study (Section VI-A) communicates with the engine ECU
"by reading and writing to a CAN peripheral".  :class:`CanController` is
the memory-mapped controller on the VP; :class:`CanBus` is the channel
connecting it to other nodes — in the case study a behavioural engine-ECU
model registered as a plain Python callback.

Frames carry up to 8 data bytes plus per-byte security tags, so information
flow is tracked *across* the bus: a confidential byte written to the TX
buffer is caught by the clearance check on send (sink ``"<name>.tx"``),
and bytes received from the wire are classified per the policy source
``"<name>.rx"`` unless the sending node supplies explicit tags.

Register map::

    0x00  STATUS  (read)  bit0 = rx frame available, bit1 = tx ready
    0x04  TX_LEN  (rw)    length of the next tx frame (0..8)
    0x08  RX_LEN  (read)  length of the head rx frame
    0x0C  TX_SEND (write) 1 = transmit the tx buffer
    0x10  RX_POP  (write) 1 = drop the head rx frame
    0x20  TX buffer (8 bytes, write)
    0x40  RX buffer (8 bytes, read: head frame)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.state import decode_bytes, encode_bytes
from repro.sysc.kernel import Kernel
from repro.vp.peripherals.base import MmioPeripheral

STATUS = 0x00
TX_LEN = 0x04
RX_LEN = 0x08
TX_SEND = 0x0C
RX_POP = 0x10
TX_BUF = 0x20
RX_BUF = 0x40

SIZE = 0x48
MAX_FRAME = 8


@dataclass
class CanFrame:
    """One CAN frame with per-byte security tags."""

    data: bytes
    tags: bytes
    sender: str = ""

    def __post_init__(self) -> None:
        if len(self.data) > MAX_FRAME:
            raise ValueError("CAN frame longer than 8 bytes")
        # empty tags = "classify at the receiver" (external/untagged node)
        if self.tags and len(self.tags) != len(self.data):
            raise ValueError("CAN frame tag/data length mismatch")

    def to_state(self) -> dict:
        return {"data": encode_bytes(self.data),
                "tags": encode_bytes(self.tags),
                "sender": self.sender}

    @classmethod
    def from_state(cls, state: dict) -> "CanFrame":
        return cls(decode_bytes(state["data"]), decode_bytes(state["tags"]),
                   state["sender"])


class CanBus:
    """A broadcast channel between CAN nodes.

    Nodes are callables ``node(frame)``; every transmitted frame is
    delivered to all nodes except the sender (identified by name).
    """

    def __init__(self) -> None:
        self._nodes: List[Tuple[str, Callable[[CanFrame], None]]] = []
        self.frames_transferred = 0

    def attach(self, name: str, deliver: Callable[[CanFrame], None]) -> None:
        self._nodes.append((name, deliver))

    def transmit(self, frame: CanFrame) -> None:
        self.frames_transferred += 1
        for name, deliver in self._nodes:
            if name != frame.sender:
                deliver(frame)

    def state_dict(self) -> dict:
        """Nodes re-attach at construction time; only the counter is
        bus-owned state."""
        return {"frames_transferred": self.frames_transferred}

    def load_state_dict(self, state: dict) -> None:
        self.frames_transferred = state["frames_transferred"]


class CanController(MmioPeripheral):
    """Memory-mapped CAN controller with DIFT-checked TX."""

    def __init__(self, kernel: Kernel, name: str = "can0",
                 engine: Optional[DiftEngine] = None,
                 bus: Optional[CanBus] = None,
                 raise_irq: Optional[Callable[[], None]] = None):
        super().__init__(kernel, name, SIZE, engine)
        self.bus = bus
        self._raise_irq = raise_irq
        self.tx_buf = bytearray(MAX_FRAME)
        self.tx_tags = bytearray(MAX_FRAME)
        self.tx_len = 0
        self._rx: List[CanFrame] = []
        self.sent: List[CanFrame] = []
        self.blocked_tx = 0
        self._tx_sink = f"{name}.tx"  # checked per frame byte
        if bus is not None:
            bus.attach(name, self.receive)

    # ------------------------------------------------------------------ #
    # wire side
    # ------------------------------------------------------------------ #

    def receive(self, frame: CanFrame) -> None:
        """Deliver a frame from the bus into the RX queue."""
        if self.engine is not None and not frame.tags:
            tag = self.engine.policy.source_tag(f"{self.name}.rx")
            frame = CanFrame(frame.data, bytes([tag]) * len(frame.data),
                             frame.sender)
        self._rx.append(frame)
        if self._raise_irq:
            self._raise_irq()

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "tx_buf": encode_bytes(self.tx_buf),
            "tx_tags": encode_bytes(self.tx_tags),
            "tx_len": self.tx_len,
            "rx": [frame.to_state() for frame in self._rx],
            "sent": [frame.to_state() for frame in self.sent],
            "blocked_tx": self.blocked_tx,
        }

    def load_state_dict(self, state: dict) -> None:
        self.tx_buf = bytearray(decode_bytes(state["tx_buf"]))
        self.tx_tags = bytearray(decode_bytes(state["tx_tags"]))
        self.tx_len = state["tx_len"]
        self._rx = [CanFrame.from_state(f) for f in state["rx"]]
        self.sent = [CanFrame.from_state(f) for f in state["sent"]]
        self.blocked_tx = state["blocked_tx"]

    # ------------------------------------------------------------------ #
    # register interface
    # ------------------------------------------------------------------ #

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        if offset == STATUS:
            return (1 if self._rx else 0) | 0x2, self.bottom_tag
        if offset == TX_LEN:
            return self.tx_len, self.bottom_tag
        if offset == RX_LEN:
            return (len(self._rx[0].data) if self._rx else 0), self.bottom_tag
        if RX_BUF <= offset < RX_BUF + MAX_FRAME:
            if not self._rx:
                return 0, self.bottom_tag
            frame = self._rx[0]
            index = offset - RX_BUF
            window = frame.data[index:index + size]
            value = int.from_bytes(window.ljust(size, b"\0"), "little")
            if self.engine is not None and frame.tags:
                tag = self.engine.lub_bytes(frame.tags[index:index + size]
                                            or b"\0")
            else:
                tag = self.bottom_tag
            return value, tag
        return 0, self.bottom_tag

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        if offset == TX_LEN:
            self.tx_len = min(value, MAX_FRAME)
        elif offset == TX_SEND:
            if value & 1:
                self._send()
        elif offset == RX_POP:
            if value & 1 and self._rx:
                self._rx.pop(0)
        elif TX_BUF <= offset < TX_BUF + MAX_FRAME:
            index = offset - TX_BUF
            data = value.to_bytes(size, "little")
            self.tx_buf[index:index + size] = data
            self.tx_tags[index:index + size] = bytes([tag]) * size

    def _send(self) -> None:
        length = self.tx_len
        data = bytes(self.tx_buf[:length])
        tags = bytes(self.tx_tags[:length])
        if self.engine is not None:
            for i, tag in enumerate(tags):
                if not self.engine.check_sink(
                        self._tx_sink, tag, context=f"frame byte {i}"):
                    self.blocked_tx += 1
                    return
        frame = CanFrame(data, tags, sender=self.name)
        self.sent.append(frame)
        if self.bus is not None:
            self.bus.transmit(frame)
