"""Tests for the TLM layer: payloads, sockets, routing, DMI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.errors import BusError
from repro.obs import Observability
from repro.policy import SecurityPolicy, builders
from repro.sw import runtime
from repro.sysc import (
    ADDRESS_ERROR,
    OK,
    ZERO_TIME,
    GenericPayload,
    InitiatorSocket,
    Kernel,
    Router,
    SimTime,
    TargetSocket,
)
from repro.vp.config import PlatformConfig
from repro.vp.memory import Memory
from repro.vp.platform import UART_BASE, Platform


class TestPayload:
    def test_make_read(self):
        payload = GenericPayload.make_read(0x100, 4)
        assert payload.is_read()
        assert payload.length == 4
        assert payload.tags is None
        assert not payload.ok()

    def test_make_read_tagged(self):
        payload = GenericPayload.make_read(0x100, 4, tagged=True)
        assert payload.tags is not None
        assert len(payload.tags) == 4

    def test_make_write(self):
        payload = GenericPayload.make_write(0x10, b"\x01\x02",
                                            tags=b"\x00\x01")
        assert payload.is_write()
        assert payload.data == bytearray(b"\x01\x02")
        assert payload.tags == bytearray(b"\x00\x01")


class TestSockets:
    def test_unbound_initiator_raises(self):
        socket = InitiatorSocket("i")
        with pytest.raises(BusError, match="unbound"):
            socket.b_transport(GenericPayload.make_read(0, 4), SimTime(0))

    def test_unregistered_target_raises(self):
        target = TargetSocket("t")
        with pytest.raises(BusError, match="no registered transport"):
            target.b_transport(GenericPayload.make_read(0, 4), SimTime(0))

    def test_bound_round_trip(self):
        target = TargetSocket("t")
        seen = []

        def transport(payload, delay):
            seen.append(payload.address)
            payload.response = OK
            return delay + SimTime.ns(7)

        target.register_b_transport(transport)
        initiator = InitiatorSocket("i")
        initiator.bind(target)
        delay = initiator.b_transport(GenericPayload.make_read(0x42, 4),
                                      SimTime.ns(3))
        assert seen == [0x42]
        assert delay == SimTime.ns(10)


def make_memory_router(size=0x100, base=0x1000):
    kernel = Kernel()
    memory = Memory(kernel, "ram", size)
    router = Router("bus", latency=SimTime.ns(10))
    router.map_target(base, size, memory.tsock, "ram")
    return router, memory


class TestRouter:
    def test_address_translation(self):
        router, memory = make_memory_router()
        memory.load(0x10, b"\xAA\xBB\xCC\xDD")
        payload = GenericPayload.make_read(0x1010, 4)
        router.b_transport(payload, SimTime(0))
        assert payload.ok()
        assert bytes(payload.data) == b"\xAA\xBB\xCC\xDD"
        # address restored after routing (non-destructive)
        assert payload.address == 0x1010

    def test_write_then_read(self):
        router, memory = make_memory_router()
        write = GenericPayload.make_write(0x1020, b"hello")
        router.b_transport(write, SimTime(0))
        assert write.ok()
        assert memory.read_block(0x20, 5) == b"hello"

    def test_unmapped_address_answers_address_error(self):
        router, __ = make_memory_router()
        # below the first entry, just past the last, far above
        for address in (0x0FFF, 0x1100, 0x9999):
            payload = GenericPayload.make_read(address, 4)
            delay = router.b_transport(payload, SimTime.ns(3))
            assert payload.response == ADDRESS_ERROR
            assert payload.address == address
            assert delay == SimTime.ns(3)
        assert router.transactions_routed == 0

    def test_crossing_target_boundary_answers_address_error(self):
        router, memory = make_memory_router(size=0x100, base=0x1000)
        payload = GenericPayload.make_write(0x10FE, b"\xAA\xBB\xCC\xDD")
        router.b_transport(payload, SimTime(0))
        assert payload.response == ADDRESS_ERROR
        assert memory.read_block(0xFE, 2) == b"\x00\x00"  # nothing landed
        assert router.transactions_routed == 0

    def test_overlapping_map_rejected(self):
        router, memory = make_memory_router()
        with pytest.raises(BusError, match="overlaps"):
            router.map_target(0x1080, 0x100, memory.tsock, "ram2")

    def test_adjacent_maps_allowed(self):
        router, memory = make_memory_router()
        kernel = Kernel()
        other = Memory(kernel, "ram2", 0x100)
        router.map_target(0x1100, 0x100, other.tsock, "ram2")
        assert router.target_names() == ["ram", "ram2"]

    def test_transaction_counter(self):
        router, __ = make_memory_router()
        assert router.transactions_routed == 0
        router.b_transport(GenericPayload.make_read(0x1000, 4), SimTime(0))
        assert router.transactions_routed == 1

    def test_decode(self):
        router, __ = make_memory_router()
        entry = router.decode(0x1050)
        assert entry.name == "ram"
        with pytest.raises(BusError):
            router.decode(0x50)


def _linear_decode(ranges, address):
    """Reference decode: first ``(start, end)`` covering ``address``."""
    for start, end in ranges:
        if start <= address < end:
            return start, end
    return None


class TestRouterDecodeDifferential:
    """Bisect decode plus the MRU entry against a linear-scan reference."""

    @settings(max_examples=200, deadline=None)
    @given(layout=st.lists(st.tuples(st.sampled_from([0, 0, 1, 7, 40]),
                                     st.integers(1, 24)),
                           min_size=1, max_size=10),
           base=st.integers(0, 48),
           shuffle=st.randoms(use_true_random=False),
           split=st.integers(0, 10),
           probes=st.lists(st.tuples(st.integers(0, 700),
                                     st.sampled_from([0, 1, 1, 4])),
                           max_size=40))
    def test_decode_matches_linear_scan(self, layout, base, shuffle, split,
                                        probes):
        # gap 0 makes adjacent ranges; the others leave holes
        ranges, cursor = [], base
        for gap, size in layout:
            ranges.append((cursor + gap, cursor + gap + size))
            cursor += gap + size
        shuffle.shuffle(ranges)
        router = Router("bus", latency=SimTime(0))
        seen = []

        def map_range(start, end):
            def transport(payload, delay, start=start):
                seen.append((start, payload.address))
                payload.response = OK
                return delay
            socket = TargetSocket(f"t{start:x}")
            socket.register_b_transport(transport)
            router.map_target(start, end - start, socket)

        def check(mapped):
            # every range edge from both sides (below the first entry and
            # past the last included), empty and one byte long, then the
            # random probes: runs of nearby addresses hit the MRU entry,
            # jumps miss it
            edges = sorted({a for s, e in mapped for a in (s - 1, s, e - 1, e)
                            if a >= 0})
            edge_probes = [(a, n) for a in edges for n in (0, 1)]
            for address, length in edge_probes + probes:
                expected = _linear_decode(mapped, address)
                payload = GenericPayload.make_read(address, length)
                router.b_transport(payload, SimTime(0))
                assert payload.address == address
                if expected is None:
                    assert payload.response == ADDRESS_ERROR
                    with pytest.raises(BusError, match="no target"):
                        router.decode(address)
                    continue
                start, end = expected
                entry = router.decode(address)
                assert (entry.start, entry.end) == expected
                if address + length > end:
                    assert payload.response == ADDRESS_ERROR
                else:
                    assert payload.ok()
                    assert seen[-1] == (start, address - start)

        split = min(split, len(ranges))
        for start, end in ranges[:split]:
            map_range(start, end)
        check(ranges[:split])
        # re-map after lookups: the MRU entry and start list are rebuilt
        for start, end in ranges[split:]:
            map_range(start, end)
        check(ranges)


SENSOR_TO_UART = runtime.program("""
.text
main:
    # poll for a sensor frame, then copy 8 sensor bytes to the UART
    li t0, SENSOR_FRAME_NO
wait_frame:
    lw t1, 0(t0)
    beqz t1, wait_frame
    li t2, SENSOR_BASE
    li t3, UART_TXDATA
    li t4, 8
copy:
    lbu t5, 0(t2)
    sb t5, 0(t3)
    addi t2, t2, 1
    addi t4, t4, -1
    bnez t4, copy
    li a0, 0
    ret
""", include_lib=False)

#: every TLM target of the platform, by Platform attribute
TARGETS = ("uart", "sensor", "can", "aes", "plic", "clint", "dma", "memory")


class TestSocketChainObservable:
    """Outside tools time each hop by wrapping the socket methods on the
    instance after construction; every transaction must pass through
    those instance lookups."""

    def test_wrapped_hops_see_every_transaction(self):
        policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
        policy.clear_sink("uart0.tx", builders.LC)
        obs = Observability()
        platform = Platform.from_config(PlatformConfig(
            policy=policy, sensor_period=SimTime.us(50), obs=obs))
        calls = dict.fromkeys(("router",) + TARGETS, 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        router = platform.router
        router.b_transport = counted("router", router.b_transport)
        for attr in TARGETS:
            tsock = getattr(platform, attr).tsock
            tsock.b_transport = counted(attr, tsock.b_transport)
        platform.load(assemble(SENSOR_TO_UART))
        result = platform.run(max_instructions=500_000)
        assert result.reason == "halt"
        assert len(platform.uart.tx_log) == 8

        routed = router.transactions_routed
        assert calls["router"] == routed
        assert sum(calls[attr] for attr in TARGETS) == routed
        metrics = obs.snapshot()
        for attr in TARGETS:
            name = getattr(platform, attr).name
            assert calls[attr] == metrics.get(
                f"tlm.target.{name}.transactions", 0), attr
        assert calls["uart"] == 8
        assert calls["sensor"] > 8   # the frame polls plus the copy

        # the delay annotation: bus latency plus the target's access delay
        payload = GenericPayload.make_read(UART_BASE + 8, 4, tagged=True)
        delay = platform.cpu.isock.b_transport(payload, ZERO_TIME)
        assert payload.ok()
        assert delay == router.latency + platform.uart.access_delay
        assert calls["router"] == routed + 1 and calls["uart"] == 9
        # the shared zero delay was never mutated along the way
        assert ZERO_TIME == SimTime(0) and ZERO_TIME.ps == 0


class TestTaggedMemoryTransport:
    def test_read_returns_tags(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        memory.load(0x10, b"\x01\x02", tag=3)
        payload = GenericPayload.make_read(0x10, 2, tagged=True)
        memory.tsock.b_transport(payload, SimTime(0))
        assert bytes(payload.tags) == b"\x03\x03"

    def test_write_stores_tags(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        payload = GenericPayload.make_write(0x20, b"\xAB", tags=b"\x02")
        memory.tsock.b_transport(payload, SimTime(0))
        assert memory.tag_of(0x20) == 2

    def test_untagged_write_resets_to_default(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        memory.fill_tags(0x20, 1, 3)
        payload = GenericPayload.make_write(0x20, b"\xAB")
        memory.tsock.b_transport(payload, SimTime(0))
        assert memory.tag_of(0x20) == 1

    def test_observers_see_each_write_once_with_what_it_stored(self):
        """Every write outside the ISS makes one call per observer with the
        tags it stored: an int for a uniform fill, the bytes otherwise,
        None when the shadow was not touched."""
        calls = []
        memory = Memory(Kernel(), "ram", 0x100, tagged=True, default_tag=1)
        memory.set_lub_table([[max(a, b) for b in range(4)]
                              for a in range(4)], None)
        memory.observers.append(lambda *call: calls.append(call))
        memory.fill_tags(0x20, 2, 3)
        memory.tsock.b_transport(
            GenericPayload.make_write(0x20, b"\xAB", tags=b"\x02"), ZERO_TIME)
        memory.tsock.b_transport(
            GenericPayload.make_write(0x30, b"\xAB\xCD"), ZERO_TIME)
        memory.tsock.b_transport(GenericPayload.make_write(
            0x20, b"\x01\x02", tags=b"\x02\x00", merge_tags=True), ZERO_TIME)
        memory.load(0x40, b"\x01\x02\x03")
        memory.write_word(0x44, 7, tag=2)
        assert [(o, n, bytes(t) if isinstance(t, bytearray) else t)
                for o, n, t in calls] == [
            (0x20, 2, 3), (0x20, 1, b"\x02"), (0x30, 2, 1),
            (0x20, 2, b"\x02\x03"), (0x40, 3, None), (0x44, 4, 2)]

        untagged = Memory(Kernel(), "ram", 0x100)
        untagged.observers.append(lambda *call: calls.append(call))
        del calls[:]
        untagged.fill_tags(0x20, 2, 3)           # no shadow: nothing written
        untagged.write_word(0x44, 7, tag=2)
        assert calls == [(0x44, 4, None)]

    def test_out_of_range_address_error(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x10)
        payload = GenericPayload.make_read(0x20, 4)
        memory.tsock.b_transport(payload, SimTime(0))
        assert payload.response == "address-error"
