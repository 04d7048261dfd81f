"""Tests for the CAN controller/bus and the declassifying AES engine."""

import pytest

from repro.asm import assemble
from repro.dift.engine import RECORD, DiftEngine
from repro.policy import SecurityPolicy, builders
from repro.state import decode_bytes
from repro.sysc import GenericPayload, Kernel, SimTime
from repro.vp.config import PlatformConfig
from repro.vp.csr import CAUSE_STORE_FAULT
from repro.vp.peripherals import aes as aes_regs
from repro.vp.peripherals.aes import AesAccelerator
from repro.vp.peripherals.aes_core import encrypt_block, expand_key
from repro.vp.peripherals.can import (
    RX_BUF,
    RX_LEN,
    RX_POP,
    STATUS,
    TX_BUF,
    TX_LEN,
    TX_SEND,
    CanBus,
    CanController,
    CanFrame,
)
from repro.vp.platform import AES_BASE, CAN_BASE, Platform

LC, HC = builders.LC, builders.HC


def make_engine(mode="raise") -> DiftEngine:
    policy = SecurityPolicy(builders.ifp1(), default_class=LC)
    policy.clear_sink("can0.tx", LC)
    policy.classify_source("can0.rx", LC)
    policy.clear_sink("aes0.in", HC)
    policy.allow_declassification("aes0", LC)
    return DiftEngine(policy, mode=mode)


def write(periph, offset, value, size=4, tag=None):
    tags = bytes([tag]) * size if tag is not None else None
    payload = GenericPayload.make_write(
        offset, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"),
        tags)
    periph.tsock.b_transport(payload, SimTime(0))
    assert payload.ok()


def read(periph, offset, size=4, tagged=False):
    payload = GenericPayload.make_read(offset, size, tagged=tagged)
    periph.tsock.b_transport(payload, SimTime(0))
    assert payload.ok()
    return int.from_bytes(payload.data, "little"), (
        payload.tags[0] if tagged else None)


class TestAesCore:
    def test_fips_197_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert encrypt_block(key, plaintext).hex() == \
            "3925841d02dc09fbdc118597196a0b32"

    def test_nist_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert encrypt_block(key, plaintext).hex() == \
            "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_key_schedule_shape(self):
        round_keys = expand_key(bytes(16))
        assert len(round_keys) == 11
        assert all(len(rk) == 16 for rk in round_keys)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            encrypt_block(bytes(15), bytes(16))
        with pytest.raises(ValueError):
            encrypt_block(bytes(16), bytes(8))

    def test_every_key_byte_matters(self):
        base = encrypt_block(bytes(16), bytes(16))
        for i in range(16):
            key = bytearray(16)
            key[i] = 1
            assert encrypt_block(bytes(key), bytes(16)) != base


class TestAesPeripheral:
    def _load(self, aes, base, data: bytes, tag: int):
        for i, byte in enumerate(data):
            write(aes, base + i, byte, size=1, tag=tag)

    def test_encrypt_matches_core(self):
        engine = make_engine()
        aes = AesAccelerator(Kernel(), "aes0", engine=engine,
                             declassify_to=LC)
        hc = engine.lattice.tag_of(HC)
        key = bytes(range(16))
        block = bytes(range(16, 32))
        self._load(aes, aes_regs.KEY, key, hc)
        self._load(aes, aes_regs.INPUT, block, hc)
        write(aes, aes_regs.CTRL, 1)
        assert read(aes, aes_regs.STATUS)[0] == 1
        out = bytes(read(aes, aes_regs.OUTPUT + i, size=1)[0]
                    for i in range(16))
        assert out == encrypt_block(key, block)

    def test_output_declassified(self):
        engine = make_engine()
        aes = AesAccelerator(Kernel(), "aes0", engine=engine,
                             declassify_to=LC)
        hc = engine.lattice.tag_of(HC)
        self._load(aes, aes_regs.KEY, bytes(16), hc)
        write(aes, aes_regs.CTRL, 1)
        __, tag = read(aes, aes_regs.OUTPUT, size=4, tagged=True)
        assert tag == engine.lattice.tag_of(LC)

    def test_without_declassification_output_stays_secret(self):
        engine = make_engine()
        aes = AesAccelerator(Kernel(), "aes0", engine=engine,
                             declassify_to=None)
        hc = engine.lattice.tag_of(HC)
        self._load(aes, aes_regs.KEY, bytes(16), hc)
        write(aes, aes_regs.CTRL, 1)
        __, tag = read(aes, aes_regs.OUTPUT, size=4, tagged=True)
        assert tag == hc

    def test_input_above_clearance_rejected(self):
        """Data above the engine's clearance cannot be laundered through."""
        policy = SecurityPolicy(builders.ifp1(), default_class=LC)
        policy.clear_sink("aes0.in", LC)      # engine only cleared for LC
        policy.allow_declassification("aes0", LC)
        engine = DiftEngine(policy, mode=RECORD)
        aes = AesAccelerator(Kernel(), "aes0", engine=engine,
                             declassify_to=LC)
        hc = engine.lattice.tag_of(HC)
        write(aes, aes_regs.KEY, 0xAB, size=1, tag=hc)
        assert aes.blocked_writes == 1
        assert aes.key[0] == 0  # write dropped

    def test_per_byte_key_sinks(self):
        """Section VI-A: per-byte key clearances catch misplaced bytes."""
        lattice, byte_classes = builders.per_byte_key_ifp(16)
        policy = SecurityPolicy(lattice, default_class="(LC,LI)")
        for i, cls in enumerate(byte_classes):
            policy.clear_sink(f"aes0.key{i}", cls)
        policy.clear_sink("aes0.in", "(HCtop,LI)")
        policy.allow_declassification("aes0", "(LC,LI)")
        engine = DiftEngine(policy, mode=RECORD)
        aes = AesAccelerator(Kernel(), "aes0", engine=engine,
                             declassify_to="(LC,LI)")
        tag0 = lattice.tag_of(byte_classes[0])
        tag1 = lattice.tag_of(byte_classes[1])
        # correct positions: fine
        write(aes, aes_regs.KEY + 0, 0x11, size=1, tag=tag0)
        write(aes, aes_regs.KEY + 1, 0x22, size=1, tag=tag1)
        assert engine.violation_count == 0
        # byte-0-classified data written to position 1: violation
        write(aes, aes_regs.KEY + 1, 0x11, size=1, tag=tag0)
        assert engine.violation_count == 1
        assert aes.key[1] == 0x22  # write dropped


class TestCan:
    def test_loopback_via_bus(self):
        bus = CanBus()
        kernel = Kernel()
        node_a = CanController(kernel, "can0", bus=bus)
        node_b = CanController(kernel, "can1", bus=bus)
        write(node_a, TX_BUF, 0x44332211)
        write(node_a, TX_BUF + 4, 0x88776655)
        write(node_a, TX_LEN, 8)
        write(node_a, TX_SEND, 1)
        assert bus.frames_transferred == 1
        assert read(node_b, STATUS)[0] & 1
        assert read(node_b, RX_LEN)[0] == 8
        assert read(node_b, RX_BUF)[0] == 0x44332211
        assert read(node_b, RX_BUF + 4)[0] == 0x88776655
        # sender does not receive its own frame
        assert not read(node_a, STATUS)[0] & 1

    def test_rx_pop(self):
        bus = CanBus()
        can = CanController(Kernel(), "can0", bus=bus)
        can.receive(CanFrame(b"\x01", b"\x00"))
        can.receive(CanFrame(b"\x02", b"\x00"))
        assert read(can, RX_BUF, size=1)[0] == 1
        write(can, RX_POP, 1)
        assert read(can, RX_BUF, size=1)[0] == 2
        write(can, RX_POP, 1)
        assert not read(can, STATUS)[0] & 1

    def test_untagged_frame_classified_at_receiver(self):
        engine = make_engine()
        can = CanController(Kernel(), "can0", engine=engine)
        can.receive(CanFrame(b"\xAA", b"", sender="ext"))
        __, tag = read(can, RX_BUF, size=1, tagged=True)
        assert tag == engine.lattice.tag_of(LC)

    def test_tx_clearance_blocks_secret(self):
        engine = make_engine(mode=RECORD)
        bus = CanBus()
        can = CanController(Kernel(), "can0", engine=engine, bus=bus)
        hc = engine.lattice.tag_of(HC)
        write(can, TX_BUF, 0x99, size=1, tag=hc)
        write(can, TX_LEN, 1)
        write(can, TX_SEND, 1)
        assert can.blocked_tx == 1
        assert bus.frames_transferred == 0
        assert engine.violation_count == 1

    def test_frame_length_capped(self):
        with pytest.raises(ValueError):
            CanFrame(bytes(9), bytes(9))

    def test_tag_data_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CanFrame(b"\x01\x02", b"\x00")

    def test_irq_on_receive(self):
        raised = []
        can = CanController(Kernel(), "can0",
                            raise_irq=lambda: raised.append(1))
        can.receive(CanFrame(b"\x01", b"\x00"))
        assert raised


STRADDLE_GUEST = """
    la t0, handler
    csrw mtvec, t0
    li t0, {address}
    li t1, 0x44332211
    sw t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
handler:
    csrr a0, mcause
    csrr a1, mtval
    li a7, 93
    ecall
"""


class TestStraddlingWrites:
    """A word store that starts in a peripheral buffer and runs past its
    end is a store access fault, and no byte of it lands."""

    @staticmethod
    def _run(address, dift, setup):
        policy = SecurityPolicy(builders.ifp1(), default_class=LC) \
            if dift else None
        platform = Platform.from_config(PlatformConfig(policy=policy))
        platform.load(assemble(STRADDLE_GUEST.format(address=address)))
        setup(platform)
        result = platform.run(max_instructions=100)
        assert result.reason == "halt"
        assert result.exit_code == CAUSE_STORE_FAULT
        assert platform.cpu.regs[11] == address   # mtval
        return platform

    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    @pytest.mark.parametrize("register", [aes_regs.KEY, aes_regs.INPUT],
                             ids=["key", "input"])
    def test_aes_buffer_end(self, dift, register):
        def fill(platform):
            platform.aes.key[:] = bytes(range(16))
            platform.aes.input[:] = bytes(range(16, 32))

        platform = self._run(AES_BASE + register + 14, dift, fill)
        aes = platform.aes
        assert (aes.key, aes.input) == (bytes(range(16)),
                                        bytes(range(16, 32)))
        assert (aes.key_tags, aes.input_tags) == (bytes(16), bytes(16))

    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    def test_can_tx_buffer_end(self, dift):
        def fill(platform):
            platform.can.tx_buf[:] = bytes(range(1, 9))

        platform = self._run(CAN_BASE + TX_BUF + 6, dift, fill)
        assert platform.can.tx_buf == bytes(range(1, 9))
        assert platform.can.tx_tags == bytes(8)
        snapshot = platform.can.state_dict()
        assert len(decode_bytes(snapshot["tx_buf"])) == 8
