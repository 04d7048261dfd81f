"""MMIO inside superblocks: inline transport calls in compiled code.

The interpreter loops record, for the attached ``JitEngine``, every
load/store pc that has completed an MMIO access and whether a load
there returned a tag.  Blocks compiled afterwards make those accesses as
inline ``cpu._mmio_read``/``_mmio_write`` calls instead of side-exiting,
so an I/O loop runs compiled.  Each place where the interpreter would see a
difference is an exact exit, and each has a guest here whose compiled
loop reaches it:

* a bus error takes the trap (or the ``fault`` stop) with one
  transaction, as the interpreter takes it;
* an exception raised inside the transport (a RAISE-mode sink) leaves
  registers, tags and ``cpu.pc`` as the interpreter leaves them;
* an access that makes an interrupt pending exits, so the interrupt is
  taken before the same next instruction;
* a clean block's load that returns a tag retires with it, and the entry
  runs its generic twin from then on;
* a demand-mode plain block hands over to the DIFT loop after a load
  that returns a tag.

Every check compares the JIT against the interpreter: final snapshot
documents (``router.transactions_routed`` and the per-peripheral
transaction counters included), console, simulated time and violations.
"""

from __future__ import annotations

import os

import pytest

from repro.asm import assemble
from repro.bench.workloads import benchmark_policy, get_workload
from repro.errors import SecurityViolation
from repro.gen.corpus import load_case
from repro.obs import Observability
from repro.policy import builders
from repro.sw import runtime
from repro.sysc.time import SimTime
from repro.vp import csr as CSR
from repro.vp.config import PlatformConfig
from repro.vp.jit import codegen
from repro.vp.platform import Platform
from tests.test_jit_diff import (_CASE_FILES, CORPUS_DIR, JIT_THRESHOLD,
                                 MODES, _doc_diff)

_MODE_IDS = [m[0] for m in MODES]


def _program(source: str):
    return assemble(runtime.program(source, include_lib=False))


def _run(make, budget: int):
    """Boot a platform with ``make(jit)``, run it, and return it with its
    outcome; a security exception is an outcome too."""
    runs = []
    for jit in (False, JIT_THRESHOLD):
        platform = make(jit)
        try:
            result = platform.run(max_instructions=budget)
            outcome = (result.reason, result.exit_code,
                       [str(v) for v in result.violations])
        except SecurityViolation as err:
            outcome = ("raised", type(err).__name__, str(err))
        runs.append((platform, outcome))
    return runs


def _transactions(platform) -> dict:
    return {name: value for name, value in platform.obs.snapshot().items()
            if name.startswith("tlm.")}


def _identical(make, budget: int = 200_000):
    """JIT on and off: same outcome, console, simulated time, registers,
    tags, pc, transaction counts and snapshot document.  Returns the
    jit-on platform and its outcome."""
    (p_off, o_off), (p_on, o_on) = _run(make, budget)
    assert o_on == o_off
    assert p_on.console() == p_off.console()
    assert p_on.kernel.now == p_off.kernel.now
    assert p_on.total_instructions == p_off.total_instructions
    for attr in ("regs", "tags", "pc"):
        assert getattr(p_on.cpu, attr) == getattr(p_off.cpu, attr), attr
    assert _transactions(p_on) == _transactions(p_off)
    mismatches = _doc_diff(p_off.snapshot_document(),
                           p_on.snapshot_document())
    assert not mismatches, mismatches[:8]
    return p_on, o_on


def _guest(program, dift: bool, dift_mode: str = "full", policy=None,
           engine_mode: str = "record", feed: bytes = b"", **config):
    def make(jit):
        platform = Platform.from_config(PlatformConfig(
            policy=(policy or benchmark_policy()) if dift else None,
            engine_mode=engine_mode, dift_mode=dift_mode, jit=jit,
            obs=Observability(), **config))
        platform.load(program)
        if feed:
            platform.uart.feed(feed)
        return platform
    return make


# ---------------------------------------------------------------------------
# I/O workloads and the attack corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
@pytest.mark.parametrize("name", ["simple-sensor", "immo-fixed"])
def test_io_workloads_run_compiled(name, mode, dift, dift_mode):
    """Both I/O guests run to halt with the same observables, and their
    peripheral loops run compiled."""
    def make(jit):
        return get_workload(name).make_platform(
            "quick", dift, obs=Observability(), dift_mode=dift_mode,
            seed=0, jit=jit)
    p_on, outcome = _identical(make)
    assert outcome[0] == "halt"
    stats = p_on.jit.stats
    assert p_on.obs.snapshot()["jit.exec.mmio"] == stats.mmio_calls
    if mode != "demand":  # classified input keeps demand mode dirty
        assert stats.mmio_calls > 0
        assert p_on.jit.trace_ratio() > 0.5


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
@pytest.mark.parametrize("filename", _CASE_FILES)
def test_attack_corpus(filename, mode, dift, dift_mode):
    case = load_case(os.path.join(CORPUS_DIR, filename))
    program, attack, __ = case.build()
    policy = case.policy(program)
    _identical(_guest(program, dift, dift_mode, policy=policy, feed=attack))


# ---------------------------------------------------------------------------
# a bus error inside a compiled loop
# ---------------------------------------------------------------------------

_FAULT_LATE = """
.text
main:
    %(install)s
    li   t2, %(register)s
    li   t5, %(step)d
    li   t0, 300
    li   t1, 0
    li   s1, 0
loop:
    sltiu t3, t0, 21            # 1 for the last 20 iterations
    mul  t3, t3, t5
    add  t4, t2, t3             # a register, then an address that faults
    %(op)s   t1, 0(t4)
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
handler:
    csrr s3, mcause
    csrr s4, mtval
    csrr s5, mepc
    addi s1, s1, 1
    addi s5, s5, 4
    csrw mepc, s5
    mret
"""

_INSTALL = """la   t0, handler
    csrw mtvec, t0"""

#: the register each access reaches first, its address, the step to the
#: faulting address and the fault cause.  The load steps into the hole
#: past the UART, which the router rejects; the store straddles the end
#: of the CAN TX buffer, which the router counts and the CAN controller
#: rejects, so a repeated access would show in the transaction counts.
_ACCESS = {"lw": ("UART_STATUS", 0x1000_0008, 0x100, CSR.CAUSE_LOAD_FAULT),
           "sw": ("CAN_TX_BUF", 0x1000_2020, 6, CSR.CAUSE_STORE_FAULT)}


def _fault_late(op: str, install: str):
    register, address, step, cause = _ACCESS[op]
    program = _program(_FAULT_LATE % {"install": install, "op": op,
                                       "register": register, "step": step})
    return program, address + step, cause


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
@pytest.mark.parametrize("op", ["lw", "sw"])
def test_bus_error_traps_once(op, mode, dift, dift_mode):
    """Each faulting access of the compiled loop is one transaction and
    one trap, with the interpreter's ``mcause``, ``mtval`` and ``mepc``."""
    program, hole, cause = _fault_late(op, _INSTALL)
    p_on, outcome = _identical(_guest(program, dift, dift_mode))
    assert outcome[0] == "halt"
    regs = p_on.cpu.regs
    assert regs[9] == 20
    assert (regs[19], regs[20]) == (cause, hole)
    assert regs[21] == program.symbol("loop") + 16
    assert p_on.jit.stats.mmio_calls > 200
    if op == "sw":
        assert _transactions(p_on)["tlm.target.can0.transactions"] == 20


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_bus_error_without_handler_stops(mode, dift, dift_mode):
    program, hole, cause = _fault_late("lw", "")
    p_on, outcome = _identical(_guest(program, dift, dift_mode))
    assert outcome[0] == "fault"
    assert p_on.cpu.pc == program.symbol("loop") + 12
    assert p_on.cpu.regs[29] == hole
    assert p_on.jit.stats.mmio_calls > 200


# ---------------------------------------------------------------------------
# a RAISE-mode sink inside the transport
# ---------------------------------------------------------------------------

#: printable bytes the loop sends before it reaches the secret
_MSG = "".join(chr(48 + k % 43) for k in range(120))

_LEAK = """
.text
main:
    la   t0, msg
    li   t2, UART_TXDATA
    li   t3, 136
    li   t1, 0x2e
loop:
    addi t3, t3, -1         # retired before the store in the same block
    sb   t1, 0(t2)          # the previous byte: the sink raises at the
    lbu  t1, 0(t0)          # first classified one
    addi t0, t0, 1
    bnez t3, loop
    li   a0, 0
    ret
.data
msg:
    .ascii "%s"
secret:
    .ascii "SECRETSECRETSECR"
""" % _MSG


@pytest.mark.parametrize("dift_mode", ["full", "demand"])
def test_sink_exception_inside_transport(dift_mode):
    program = _program(_LEAK)
    policy = benchmark_policy()
    secret = program.symbol("secret")
    policy.classify_region(secret, secret + 16, builders.HC_HI)
    p_on, outcome = _identical(_guest(program, True, dift_mode,
                                      policy=policy, engine_mode="raise"))
    assert outcome[:2] == ("raised", "ClearanceException")
    assert p_on.console() == "." + _MSG
    assert p_on.cpu.regs[28] == 136 - 122
    if dift_mode == "full":
        assert p_on.jit.stats.generic_compiled == 1
        assert p_on.jit.stats.mmio_calls > 30


_DIV_THEN_POLL = """
.text
main:
    li   t2, UART_STATUS
    li   t0, 100
    li   t3, 3
loop:
    div  t4, t0, t3             # the first instruction of the block
    lw   t1, 0(t2)
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


def test_exception_before_the_first_transport_call(monkeypatch):
    """An exception raised in a block that makes inline calls, before it
    made one (a KeyboardInterrupt), propagates unchanged with ``cpu.pc``
    at the entry, not as an error of the block's writeback."""
    program = _program(_DIV_THEN_POLL)
    platform = _guest(program, False)(JIT_THRESHOLD)

    def interrupted(*args):
        raise KeyboardInterrupt
    # generated code binds the helper when it compiles; the interpreter
    # keeps its own
    monkeypatch.setattr(codegen, "_muldiv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        platform.run(max_instructions=10_000)
    loop = program.symbol("loop")
    blk = platform.jit.blocks[loop]
    assert platform.cpu.pc == loop
    assert platform.jit.stats.mmio_calls == 0
    assert "mr(" in blk.source


# ---------------------------------------------------------------------------
# an interrupt raised by an inline store
# ---------------------------------------------------------------------------

_ARM_IRQ = """
.text
main:
    la   t0, handler
    csrw mtvec, t0
    li   t0, 1 << 1             # PLIC line 1 = UART
    li   t1, PLIC_ENABLE
    sw   t0, 0(t1)
    li   t0, 1 << 11            # mie.MEIE
    csrw mie, t0
    csrwi mstatus, 8
    li   t2, UART_IRQ_EN
    li   t0, 100
    li   s1, 0
    li   s2, 0
loop:
    andi t1, t0, 15
    seqz t1, t1
    sw   t1, 0(t2)              # IRQ_EN with RX pending: the interrupt
    addi s2, s2, 1              # is taken before this instruction
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
handler:
    li   s3, UART_IRQ_EN
    sw   zero, 0(s3)
    li   s3, PLIC_CLAIM
    lw   s4, 0(s3)
    sw   s4, 0(s3)
    csrr s5, mepc
    la   s3, seen
    slli s4, s1, 2
    add  s3, s3, s4
    sw   s5, 0(s3)
    addi s1, s1, 1
    mret
.bss
.align 2
seen:
    .space 64
"""


@pytest.mark.parametrize("mode,dift,dift_mode", MODES, ids=_MODE_IDS)
def test_interrupt_from_inline_store(mode, dift, dift_mode):
    program = _program(_ARM_IRQ)
    p_on, outcome = _identical(_guest(program, dift, dift_mode,
                                      feed=b"x"))
    assert outcome[0] == "halt"
    cpu = p_on.cpu
    assert cpu.regs[9] == 6
    seen = program.symbol("seen")
    after_store = program.symbol("loop") + 12
    mepcs = [int.from_bytes(p_on.memory.data[seen + 4 * k:seen + 4 * k + 4],
                            "little") for k in range(6)]
    assert mepcs == [after_store] * 6
    assert p_on.jit.stats.mmio_calls > 50


# ---------------------------------------------------------------------------
# tags returned by inline loads
# ---------------------------------------------------------------------------

_STATUS_THEN_DATA = """
.text
main:
    li   t2, UART_STATUS
    li   t0, 400
    li   s2, 0
loop:
    sltiu t3, t0, 200           # 1 for the second half
    slli t3, t3, 2
    sub  t4, t2, t3             # UART_STATUS, then UART_RXDATA
    lw   t1, 0(t4)              # bottom, then a classified byte
    add  s2, s2, t1
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


def test_tagged_load_in_a_clean_block():
    """The loop compiles clean while its load returns bottom; the first
    classified byte retires with its tag and the entry runs its generic
    twin from then on."""
    program = _program(_STATUS_THEN_DATA)
    feed = bytes(65 + k % 26 for k in range(210))
    p_on, outcome = _identical(_guest(program, True, feed=feed))
    assert outcome[0] == "halt"
    stats = p_on.jit.stats
    assert stats.clean_execs > 0
    assert stats.generic_compiled == 1
    assert stats.dropped == 0
    assert not p_on.jit.blocks[program.symbol("loop")].clean
    assert p_on.cpu.tags[18] != p_on.cpu._bottom
    assert p_on.jit.trace_ratio() > 0.8


_FRAME_NO_THEN_FRAME = """
.text
main:
    li   t2, SENSOR_FRAME_NO
    li   t0, 6000
    li   t1, 0
loop:
    snez t3, t1                 # 1 once the first frame arrived
    slli t3, t3, 7
    sub  t4, t2, t3             # SENSOR_FRAME_NO, then the frame
    lw   t1, 0(t4)              # bottom, then classified frame bytes
    addi t0, t0, -1
    bnez t0, loop
    li   a0, 0
    ret
"""


def test_classified_sensor_byte_in_a_demand_block():
    """Demand mode's clean path runs the loop as a plain block; the first
    classified frame word retires with its tag and hands over."""
    program = _program(_FRAME_NO_THEN_FRAME)
    p_on, outcome = _identical(_guest(program, True, "demand",
                                      sensor_period=SimTime.us(20)))
    assert outcome[0] == "halt"
    live = p_on.cpu.liveness
    assert live.fast_steps > 0 and live.slow_steps > 0
    assert p_on.cpu.tags[6] != p_on.cpu._bottom
    assert p_on.jit.stats.mmio_calls > 0
