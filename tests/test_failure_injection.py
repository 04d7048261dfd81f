"""Failure injection and adversarial edge cases across the platform."""

import pytest

from repro.asm import assemble
from repro.dift.engine import RECORD
from repro.errors import DeclassificationError
from repro.policy import SecurityPolicy, builders
from repro.sw import runtime
from repro.sysc import GenericPayload, SimTime
from repro.sysc.time import SimTime as T
from repro.vp.config import PlatformConfig
from repro.vp import Platform
from tests.conftest import run_guest


class TestDmaFailures:
    def test_dma_from_unmapped_source_stops_cleanly(self):
        """A DMA programmed at a hole in the address map must not wedge
        the simulation: the transfer aborts, done is still signalled."""
        platform = Platform()
        program = assemble(runtime.program("""
.text
main:
    li t0, DMA_SRC
    li t1, 0x40000000       # unmapped
    sw t1, 0(t0)
    li t0, DMA_DST
    li t1, 0x3000
    sw t1, 0(t0)
    li t0, DMA_LEN
    li t1, 16
    sw t1, 0(t0)
    li t0, DMA_CTRL
    li t1, 1
    sw t1, 0(t0)
    li a0, 0
    ret
""", include_lib=False))
        platform.load(program)
        result = platform.run(max_instructions=100_000)
        assert result.reason == "halt"
        state = platform.dma.state_dict()
        assert state["done"] and not state["busy"]
        assert state["transfers_completed"] == 1
        # abandoned at the first burst: the cursor never advanced
        assert state["cur_src"] == 0x40000000
        assert state["remaining"] == 0
        assert platform.router.transactions_routed == 4  # the four CSR writes

    def test_dma_restart_after_completion(self):
        """The DMA channel is reusable: two back-to-back transfers."""
        platform = Platform()
        program = assemble(runtime.program("""
.text
main:
    li s0, 2                # two transfers
again:
    li t0, DMA_SRC
    li t1, 0x3000
    sw t1, 0(t0)
    li t0, DMA_DST
    li t1, 0x3100
    sw t1, 0(t0)
    li t0, DMA_LEN
    li t1, 8
    sw t1, 0(t0)
    li t0, DMA_CTRL
    li t1, 1
    sw t1, 0(t0)
    li t0, DMA_STATUS
wait:
    lw t1, 0(t0)
    andi t1, t1, 2
    beqz t1, wait
    addi s0, s0, -1
    bnez s0, again
    li a0, 0
    ret
""", include_lib=False))
        platform.load(program)
        result = platform.run(max_instructions=200_000)
        assert result.reason == "halt"
        assert platform.dma.transfers_completed == 2


class TestGuestMisbehaviour:
    def test_stack_underflow_faults(self):
        """Popping past STACK_TOP walks sp out of RAM: load faults."""
        result, __ = run_guest(runtime.program("""
.text
main:
    li sp, 0x400000         # exactly the RAM end
    lw t0, 0(sp)            # 4 bytes past the last valid word
    li a0, 0
    ret
""", include_lib=False), max_instructions=10_000)
        assert result.reason == "fault"

    def test_jump_to_peripheral_space_faults(self):
        result, __ = run_guest(runtime.program("""
.text
main:
    li t0, 0x10000000
    jr t0
""", include_lib=False), max_instructions=10_000)
        assert result.reason == "fault"

    def test_runaway_loop_bounded_by_budget(self):
        result, __ = run_guest(runtime.program("""
.text
main:
    j main
""", include_lib=False), max_instructions=5_000)
        assert result.reason == "budget"

    def test_trap_handler_loop_detected_by_budget(self):
        """mtvec pointing at a faulting instruction: bounded, not hung."""
        result, __ = run_guest(runtime.program("""
.text
main:
    la t0, handler
    csrw mtvec, t0
    .word 0xFFFFFFFF        # illegal -> handler -> illegal -> ...
handler:
    .word 0xFFFFFFFF
""", include_lib=False), max_instructions=5_000)
        assert result.reason == "budget"


class TestDeclassificationAbuse:
    def test_guest_cannot_declassify_via_sensor_tag(self):
        """Writing the sensor's data_tag register reclassifies *future*
        frames only; bytes already read keep their class."""
        policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
        policy.classify_source("sensor0", builders.HC)
        policy.clear_sink("uart0.tx", builders.LC)
        program = assemble(runtime.program("""
.text
main:
    # wait for a (confidential) frame
    li t0, SENSOR_FRAME_NO
wait:
    lw t1, 0(t0)
    beqz t1, wait
    # grab a byte while it is HC
    li t0, SENSOR_BASE
    lbu s1, 0(t0)
    # now flip the sensor to "public"
    li t0, SENSOR_TAG
    sw zero, 0(t0)          # class 0 = LC in IFP-1
    # the stale byte must still be blocked at the UART
    li t0, UART_TXDATA
    sb s1, 0(t0)
    li a0, 0
    ret
""", include_lib=False))
        platform = Platform.from_config(PlatformConfig(policy=policy, engine_mode=RECORD,
                            sensor_period=T.us(50)))
        platform.load(program)
        result = platform.run(max_instructions=200_000)
        assert result.detected
        assert platform.console() == ""

    def test_untrusted_component_cannot_declassify(self):
        from repro.dift.engine import DiftEngine
        policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
        engine = DiftEngine(policy)
        with pytest.raises(DeclassificationError):
            engine.declassify("uart0", builders.LC)


class TestPayloadEdgeCases:
    def test_zero_length_read(self):
        from repro.sysc.kernel import Kernel
        from repro.vp.memory import Memory

        memory = Memory(Kernel(), "ram", 0x100)
        payload = GenericPayload.make_read(0x10, 0)
        memory.tsock.b_transport(payload, SimTime(0))
        assert payload.ok()
        assert payload.length == 0

    def test_unknown_command_rejected_by_peripheral(self):
        from repro.sysc.kernel import Kernel
        from repro.vp.peripherals.uart import Uart

        uart = Uart(Kernel(), "uart0")
        payload = GenericPayload(command="ignore", address=0,
                                 data=bytearray(4))
        uart.tsock.b_transport(payload, SimTime(0))
        assert payload.response == "command-error"


class TestRecordModeResilience:
    def test_multiple_violations_recorded_across_runs(self):
        """In record mode the engine accumulates; clear_violations resets."""
        policy = SecurityPolicy(builders.ifp1(), default_class=builders.LC)
        policy.clear_sink("uart0.tx", builders.LC)
        source = runtime.program("""
.text
main:
    la t0, secret
    lbu t1, 0(t0)
    li t2, UART_TXDATA
    sb t1, 0(t2)
    sb t1, 0(t2)
    sb t1, 0(t2)
    li a0, 0
    ret
.data
secret: .byte 9
""", include_lib=False)
        program = assemble(source)
        policy.classify_region(program.symbol("secret"),
                               program.symbol("secret") + 1, builders.HC)
        platform = Platform.from_config(PlatformConfig(policy=policy, engine_mode=RECORD))
        platform.load(program)
        result = platform.run(max_instructions=50_000)
        # sink checks record and drop, execution does not happen here:
        # all three stores are flagged and the guest still halts cleanly
        assert result.reason == "halt"
        assert len(result.violations) == 3
        platform.engine.clear_violations()
        assert platform.engine.violation_count == 0
