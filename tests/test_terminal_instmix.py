"""Tests for the host-side terminal and the instruction-mix profiler."""

from repro.bench.instmix import (
    CATEGORIES,
    InstructionMix,
    format_mix_table,
    profile_platform,
    profile_workload,
)
from repro.sysc.kernel import Kernel
from repro.vp.peripherals.terminal import Terminal
from repro.vp.peripherals.uart import Uart


class TestTerminal:
    def make(self):
        uart = Uart(Kernel(), "uart0")
        return uart, Terminal(uart)

    def test_line_capture(self):
        uart, term = self.make()
        uart.tx_log.extend(b"hello\nworld\npar")
        lines = term.poll()
        assert lines == ["hello", "world"]
        assert term.pending == "par"
        assert term.transcript() == "hello\nworld\npar"

    def test_incremental_polling(self):
        uart, term = self.make()
        uart.tx_log.extend(b"a")
        assert term.poll() == []
        uart.tx_log.extend(b"b\n")
        assert term.poll() == ["ab"]
        assert term.poll() == []

    def test_echo_callback(self):
        uart = Uart(Kernel(), "uart0")
        echoed = []
        term = Terminal(uart, echo=echoed.append)
        uart.tx_log.extend(b"xyz")
        term.poll()
        assert echoed == ["xyz"]

    def test_expectation_feeds_rx(self):
        uart, term = self.make()
        term.expect("login:", b"admin\n")
        uart.tx_log.extend(b"login:")
        term.poll()
        assert [b for b, __ in uart._rx] == list(b"admin\n")

    def test_expectations_fire_in_order_once(self):
        uart, term = self.make()
        term.expect("first", b"1")
        term.expect("second", b"2")
        uart.tx_log.extend(b"second then first")
        term.poll()
        # "second" is registered after "first"; "first" fires, then
        # "second" (both present in the transcript)
        assert [b for b, __ in uart._rx] == [ord("1"), ord("2")]
        uart.tx_log.extend(b"first again")
        term.poll()
        assert len(uart._rx) == 2  # nothing re-fires


class TestInstructionMix:
    def test_categories_cover_everything(self):
        from repro.obs.metrics import GROUP_OF_OP, OPCODE_GROUPS
        from repro.vp import decode as D
        # the categories are the CPU profile's opcode groups, which
        # classify every opcode
        assert CATEGORIES == list(OPCODE_GROUPS)
        assert len(GROUP_OF_OP) == D.N_OPS
        assert all(0 <= g < len(CATEGORIES) for g in GROUP_OF_OP)

    def test_profile_simple_program(self):
        from repro.asm import assemble
        from repro.sw import runtime
        from repro.vp import Platform

        platform = Platform()
        platform.load(assemble(runtime.program("""
.text
main:
    li t0, 100
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ret
""", include_lib=False)))
        mix = profile_platform(platform, "loop", max_instructions=5_000)
        assert mix.total > 200
        # the loop body is one addi + one branch
        assert 0.4 < mix.fraction("alu") < 0.7
        assert 0.3 < mix.fraction("branch") < 0.6

    def test_profile_workload_primes_is_divheavy(self):
        mix = profile_workload("primes", max_instructions=20_000)
        assert mix.fraction("muldiv") > 0.08
        assert mix.workload == "primes"

    def test_dominant_and_format(self):
        mix = InstructionMix("fake")
        mix.counts["load"] = 60
        mix.counts["alu"] = 40
        mix.total = 100
        assert mix.dominant() == "load"
        table = format_mix_table([mix])
        assert "fake" in table
        assert "60.0%" in table

    def test_fraction_of_empty_mix(self):
        assert InstructionMix("empty").fraction("alu") == 0.0
