"""Peripheral DMI windows: a window access equals its TLM transaction.

The platform grants the CPU three windows over side-effect-free
peripheral storage: the sensor data frame and the AES ``OUTPUT`` bytes
(read), and the CAN TX buffer (write).  ``Cpu._mmio_read`` and
``Cpu._mmio_write`` serve an access lying wholly inside one from the
window's bytes, and every other access (a register, a straddle of the
window end) through TLM.  These tests drive every offset around each
window with sizes 1, 2 and 4 on VP and VP+, and require the window path
to return, or store, exactly what the transaction does, without
routing one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BusError
from repro.policy import SecurityPolicy, builders
from repro.sysc.time import ZERO_TIME
from repro.sysc.tlm import GenericPayload
from repro.vp.config import PlatformConfig
from repro.vp.peripherals import aes, can, sensor
from repro.vp.platform import AES_BASE, CAN_BASE, SENSOR_BASE, Platform

#: the lattice's tags; IFP-3 has incomparable classes, so a mixed span
#: can have a LUB none of its bytes carries
TAGS = range(len(builders.ifp3()))

SENSOR_FRAME = SENSOR_BASE
AES_OUTPUT = AES_BASE + aes.OUTPUT
CAN_TX = CAN_BASE + can.TX_BUF

SIZES = (1, 2, 4)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def make_platform(dift: bool) -> Platform:
    policy = (SecurityPolicy(builders.ifp3(), default_class=builders.LC_HI)
              if dift else None)
    return Platform(PlatformConfig(policy=policy, ram_size=4096))


def addresses(start: int, length: int):
    """Every access start from 3 bytes before ``start`` to the last
    window byte: misaligned starts, and straddles of both window ends."""
    return range(start - 3, start + length)


def tlm_read(platform: Platform, address: int, size: int):
    """(value, tag) a GenericPayload read through the CPU's socket
    returns, or BusError."""
    engine = platform.engine
    payload = GenericPayload.make_read(address, size,
                                       tagged=engine is not None)
    platform.cpu.isock.b_transport(payload, ZERO_TIME)
    if not payload.ok():
        return BusError
    value = int.from_bytes(payload.data, "little")
    if engine is None:
        return value, 0
    return value, engine.lub_bytes(payload.tags)


def cpu_read(platform: Platform, address: int, size: int):
    try:
        return platform.cpu._mmio_read(address, size)
    except BusError:
        return BusError


def check_reads(platform: Platform, start: int, length: int) -> int:
    """Compare every access around one read window; returns how many
    lay wholly inside it."""
    router = platform.router
    inside = 0
    for address in addresses(start, length):
        for size in SIZES:
            expected = tlm_read(platform, address, size)
            routed = router.transactions_routed
            assert cpu_read(platform, address, size) == expected, \
                (hex(address), size)
            if start <= address and address + size <= start + length:
                assert router.transactions_routed == routed
                inside += 1
    return inside


frames = st.binary(min_size=sensor.FRAME_SIZE, max_size=sensor.FRAME_SIZE)
uniform_frame_tags = st.sampled_from(TAGS).map(
    lambda tag: bytes([tag]) * sensor.FRAME_SIZE)
mixed_frame_tags = st.lists(st.sampled_from(TAGS),
                            min_size=sensor.FRAME_SIZE,
                            max_size=sensor.FRAME_SIZE).map(bytes)
frame_tags = st.one_of(uniform_frame_tags, mixed_frame_tags)


class TestReadWindows:
    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    @SETTINGS
    @given(data=frames, tags=frame_tags)
    def test_sensor_frame_read_equals_tlm(self, dift, data, tags):
        platform = make_platform(dift)
        platform.sensor.frame[:] = data
        platform.sensor.frame_tags[:] = tags
        inside = check_reads(platform, SENSOR_FRAME, sensor.FRAME_SIZE)
        assert inside == 64 + 63 + 61

    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    @SETTINGS
    @given(data=st.binary(min_size=16, max_size=16),
           tag=st.sampled_from(TAGS))
    def test_aes_output_read_equals_tlm(self, dift, data, tag):
        platform = make_platform(dift)
        # the engine fills the output and its uniform tag view together
        platform.aes.output[:] = data
        platform.aes.output_tags[:] = bytes([tag if dift else 0]) * 16
        inside = check_reads(platform, AES_OUTPUT, 16)
        assert inside == 16 + 15 + 13

    def test_vp_window_has_no_tag_view(self):
        platform = make_platform(False)
        platform.sensor.frame_tags[:] = b"\x01" * sensor.FRAME_SIZE
        assert platform.cpu._mmio_read(SENSOR_FRAME, 4)[1] == 0


def tlm_write(platform: Platform, address: int, size: int, value: int,
              tag: int):
    """A TLM write shaped like the one the CPU's transaction path sends."""
    payload = GenericPayload.make_write(
        address, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"),
        bytes([tag]) * size if platform.engine is not None else None)
    platform.cpu.isock.b_transport(payload, ZERO_TIME)
    return None if payload.ok() else BusError


def cpu_write(platform: Platform, address: int, size: int, value: int,
              tag: int):
    try:
        platform.cpu._mmio_write(address, size, value, tag)
    except BusError:
        return BusError
    return None


class TestWriteWindow:
    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    @SETTINGS
    @given(value=st.integers(0, 0xFFFF_FFFF), tag=st.sampled_from(TAGS),
           before=st.binary(min_size=8, max_size=8),
           before_tags=st.lists(st.sampled_from(TAGS), min_size=8,
                                max_size=8).map(bytes))
    def test_can_tx_write_equals_tlm(self, dift, value, tag, before,
                                     before_tags):
        if not dift:
            # the VP stores no tags: its TX tags stay bottom
            tag, before_tags = 0, bytes(8)
        window, twin = make_platform(dift), make_platform(dift)
        for address in addresses(CAN_TX, can.MAX_FRAME):
            for size in SIZES:
                for platform in (window, twin):
                    platform.can.tx_buf[:] = before
                    platform.can.tx_tags[:] = before_tags
                routed = window.router.transactions_routed
                outcome = cpu_write(window, address, size, value, tag)
                assert outcome == tlm_write(twin, address, size, value,
                                            tag), (hex(address), size)
                assert window.can.tx_buf == twin.can.tx_buf
                assert window.can.tx_tags == twin.can.tx_tags
                assert len(window.can.tx_buf) == can.MAX_FRAME
                if CAN_TX <= address \
                        and address + size <= CAN_TX + can.MAX_FRAME:
                    assert window.router.transactions_routed == routed

    def test_tx_window_is_write_only(self):
        # TX buffer reads keep the register path, which reads as zero
        platform = make_platform(True)
        platform.can.tx_buf[:] = b"\xff" * 8
        assert platform.cpu._mmio_read(CAN_TX, 4)[0] == 0

    def test_write_to_read_window_keeps_tlm(self):
        # the sensor frame is read-only to software
        platform = make_platform(True)
        routed = platform.router.transactions_routed
        platform.cpu._mmio_write(SENSOR_FRAME, 4, 0x41424344, 0)
        assert platform.router.transactions_routed == routed + 1
        assert bytes(platform.sensor.frame) == bytes(sensor.FRAME_SIZE)


class TestWindowsAfterRestore:
    @pytest.mark.parametrize("dift", [False, True], ids=["vp", "vpp"])
    @SETTINGS
    @given(data=frames, tags=frame_tags,
           output=st.binary(min_size=16, max_size=16),
           output_tag=st.sampled_from(TAGS),
           tx=st.binary(min_size=8, max_size=8))
    def test_window_reads_restored_bytes(self, dift, data, tags, output,
                                         output_tag, tx):
        source = make_platform(dift)
        source.sensor.frame[:] = data
        source.sensor.frame_tags[:] = tags if dift else bytes(len(tags))
        source.aes.output[:] = output
        # the snapshot carries only output_tag; restore rebuilds the view
        source.aes.output_tags[:] = bytes([output_tag if dift else 0]) * 16
        source.can.tx_buf[:] = tx
        document = source.snapshot_document()

        target = make_platform(dift)
        target.cpu._mmio_write(CAN_TX, 4, 0x5A5A5A5A, 0)
        target.restore_snapshot(document)
        for address in range(SENSOR_FRAME, SENSOR_FRAME + 64):
            assert target.cpu._mmio_read(address, 1) == \
                tlm_read(source, address, 1)
        for address in range(AES_OUTPUT, AES_OUTPUT + 16, 4):
            assert target.cpu._mmio_read(address, 4) == \
                tlm_read(source, address, 4)
        assert target.can.tx_buf == tx
        target.cpu._mmio_write(CAN_TX + 2, 2, 0xBEEF, 0)
        assert target.can.tx_buf == tx[:2] + b"\xef\xbe" + tx[4:]
