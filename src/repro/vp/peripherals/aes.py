"""AES-128 peripheral with declassification.

The immobilizer's crypto engine (Section VI-A): software loads a key and a
plaintext block, starts the engine, and reads back the ciphertext.  The
peripheral has high clearance — secret data may flow *into* it — and it is
the one component the policy allows to **declassify**: ciphertext leaves
with a public classification so it can be sent out on the CAN bus, exactly
the paper's main declassification use case ("changing the data
classification to non-confidential after it has been encrypted").

Register map::

    0x00  CTRL    (write) 1 = start encryption
    0x04  STATUS  (read)  bit0 = done
    0x10  KEY     (write) 16 bytes
    0x20  INPUT   (write) 16 bytes
    0x30  OUTPUT  (read)  16 bytes, declassified

Inputs above the peripheral's clearance are rejected (clearance check on
every KEY/INPUT write), so an attacker cannot launder arbitrary data
through the declassifier.

``OUTPUT`` is the CPU's DMI read window: reading it has no side effect.
Its tag view holds the output classification once per byte.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.state import encode_bytes, restore_bytes
from repro.sysc.kernel import Kernel
from repro.sysc.tlm import READ
from repro.vp.peripherals.aes_core import encrypt_block
from repro.vp.peripherals.base import DmiWindow, MmioPeripheral

CTRL = 0x00
STATUS = 0x04
KEY = 0x10
INPUT = 0x20
OUTPUT = 0x30

SIZE = 0x40


class AesAccelerator(MmioPeripheral):
    """Declassifying AES-128 engine."""

    write_buffers = ((KEY, 16), (INPUT, 16))

    def __init__(self, kernel: Kernel, name: str = "aes0",
                 engine: Optional[DiftEngine] = None,
                 declassify_to: Optional[str] = None):
        super().__init__(kernel, name, SIZE, engine)
        self.key = bytearray(16)
        self.key_tags = bytearray(16)
        self.input = bytearray(16)
        self.input_tags = bytearray(16)
        self.output = bytearray(16)
        self.output_tags = bytearray((self.bottom_tag,)) * 16
        self.done = False
        self.blocked_writes = 0
        self.encryptions = 0
        self._declassify_to = declassify_to
        # built once: the clearance check runs per plaintext byte
        self._in_sink = f"{name}.in"
        self._clearance: Optional[int] = (
            engine.policy.sink_tag(self._in_sink) if engine else None)

    def dmi_windows(self) -> Tuple[DmiWindow, ...]:
        return (DmiWindow(OUTPUT, READ, self.output, self.output_tags),)

    @property
    def output_tag(self) -> int:
        """The ciphertext's classification, carried by every output byte."""
        return self.output_tags[0]

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "key": encode_bytes(self.key),
            "key_tags": encode_bytes(self.key_tags),
            "input": encode_bytes(self.input),
            "input_tags": encode_bytes(self.input_tags),
            "output": encode_bytes(self.output),
            "output_tag": self.output_tag,
            "done": self.done,
            "blocked_writes": self.blocked_writes,
            "encryptions": self.encryptions,
        }

    def load_state_dict(self, state: dict) -> None:
        for field in ("key", "key_tags", "input", "input_tags", "output"):
            restore_bytes(getattr(self, field), state[field], self.name,
                          field)
        self.output_tags[:] = bytes((state["output_tag"],)) * 16
        self.done = state["done"]
        self.blocked_writes = state["blocked_writes"]
        self.encryptions = state["encryptions"]

    # ------------------------------------------------------------------ #
    # register interface
    # ------------------------------------------------------------------ #

    def read(self, offset: int, size: int) -> Tuple[int, int]:
        if offset == STATUS:
            return (1 if self.done else 0), self.bottom_tag
        if OUTPUT <= offset < OUTPUT + 16:
            index = offset - OUTPUT
            value = int.from_bytes(self.output[index:index + size], "little")
            return value, self.output_tag
        return 0, self.bottom_tag

    def write_bytes(self, offset: int, data: bytes,
                    tags: Optional[bytes]) -> None:
        """Per-byte write path: the KEY register honours per-byte sinks.

        Under the Section VI-A "per-byte key classes" policy each key byte
        position *i* has its own sink ``"<name>.key<i>"``; a key byte of
        the wrong class (e.g. byte 1's class written to position 2) fails
        the flow check — this is what detects the entropy-reduction
        attack.  Without per-byte sinks the whole engine clearance
        (``"<name>.in"``) applies.
        """
        if tags is None or self.engine is None:
            tags = bytes([self.default_tag]) * len(data)
        if KEY <= offset < KEY + 16:
            for i, (byte, tag) in enumerate(zip(data, tags)):
                index = offset - KEY + i
                if not self._admit_key_byte(index, tag):
                    continue
                self.key[index] = byte
                self.key_tags[index] = tag
            return
        if INPUT <= offset < INPUT + 16:
            for i, (byte, tag) in enumerate(zip(data, tags)):
                if not self._admit(tag):
                    continue
                index = offset - INPUT + i
                self.input[index] = byte
                self.input_tags[index] = tag
            return
        super().write_bytes(offset, data, tags)

    def write(self, offset: int, size: int, value: int, tag: int) -> None:
        if offset == CTRL and value & 1:
            self._encrypt()

    def _admit_key_byte(self, index: int, tag: int) -> bool:
        """Clearance for key byte position ``index``.

        Precedence: per-byte sink ``"<name>.key<i>"`` if declared, else the
        whole-key sink ``"<name>.key"`` if declared, else the engine-wide
        input clearance.  The key port typically carries a *High-Integrity*
        clearance so untrusted data cannot influence the key, while the
        plaintext port accepts low-integrity data (challenges arrive from
        the outside world by design).
        """
        if self.engine is None:
            return True
        policy = self.engine.policy
        for sink in (f"{self.name}.key{index}", f"{self.name}.key"):
            if policy.has_sink(sink):
                if self.engine.check_sink(sink, tag):
                    return True
                self.blocked_writes += 1
                return False
        return self._admit(tag)

    def _admit(self, tag: int) -> bool:
        """Clearance check on data entering the crypto engine."""
        if self.engine is None or self._clearance is None:
            return True
        if self.engine.check_sink(self._in_sink, tag):
            return True
        self.blocked_writes += 1
        return False

    def _encrypt(self) -> None:
        self.output[:] = encrypt_block(bytes(self.key), bytes(self.input))
        self.encryptions += 1
        self.done = True
        if self.engine is not None and self._declassify_to is not None:
            # trusted-HW declassification: ciphertext becomes public
            tag = self.engine.declassify(self.name, self._declassify_to)
        elif self.engine is not None:
            # without declassification the ciphertext keeps the LUB of
            # everything that went in (key + plaintext)
            tag = self.engine.lub_bytes(
                bytes(self.key_tags) + bytes(self.input_tags))
        else:
            tag = 0
        self.output_tags[:] = bytes((tag,)) * 16
