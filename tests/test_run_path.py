"""The CPU's run path: every configuration ends a quantum where the VP does.

``Cpu.run`` sits on top of up to three loops (demand mode's driver or
the instruction-level profile, the JIT dispatcher, the interpreter).  A
``wfi`` that retires with an interrupt pending but globally disabled
ends the quantum early, so the kernel can advance time to the next
event; each loop above the interpreter must stop there as well, or the
guest runs on inside a quantum whose simulated time has stopped.  The
JIT dispatcher also interprets a whole call when a hand-crafted state
breaks the ``x0`` invariant its generated code relies on.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.bench.workloads import benchmark_policy
from repro.campaign.worker import is_timing_metric
from repro.gen.oracles import MODE_IGNORE_PREFIXES
from repro.obs import Observability
from repro.policy import builders
from repro.state import diff_documents
from repro.sw import runtime
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

#: enable MTIE with mstatus.MIE clear, wait for MTIP, spin 1,000
#: instructions, then ``wfi`` with the timer pending but disabled: the
#: quantum ends there, and the next one loads MTIME_LO ~10 us later
_IRQWAIT_GUEST = """
.text
main:
    li   t0, MTIMECMP_HI
    sw   zero, 0(t0)
    li   t0, MTIMECMP_LO
    li   t1, 80
    sw   t1, 0(t0)
    li   t0, 0x80
    csrw mie, t0
wait:
    csrr t0, mip
    andi t0, t0, 0x80
    beqz t0, wait
    li   t1, 500
spin:
    addi t1, t1, -1
    bnez t1, spin
    wfi
    li   t0, MTIME_LO
    lw   a0, 0(t0)
    ret
"""

#: (name, dift, dift_mode, jit, obs level)
_CONFIGS = [("vp", False, "full", False, None),
            ("vp+jit", False, "full", True, None),
            ("full", True, "full", False, None),
            ("demand", True, "demand", False, None),
            ("full+jit", True, "full", True, None),
            ("demand+jit", True, "demand", True, None),
            ("full+quantum-obs", True, "full", False, "quantum"),
            ("full+instruction-obs", True, "full", False, "instruction")]


def _run(program, dift: bool, dift_mode: str = "full", jit=False,
         level=None, poison=None):
    config = PlatformConfig(
        policy=benchmark_policy() if dift else None, dift_mode=dift_mode,
        jit=jit, obs=Observability(level=level) if level else None)
    platform = Platform.from_config(config)
    platform.load(program)
    if poison is not None:
        poison(platform.cpu)
    platform.run(max_instructions=100_000)
    return platform


def test_wfi_with_a_disabled_interrupt_ends_the_quantum_everywhere():
    program = assemble(runtime.program(_IRQWAIT_GUEST, include_lib=False))
    runs = {name: _run(program, dift, mode, jit, level)
            for name, dift, mode, jit, level in _CONFIGS}
    assert all(p.cpu.halted for p in runs.values())
    loaded = {name: p.cpu.exit_code for name, p in runs.items()}
    assert set(loaded.values()) == {loaded["vp"]}, loaded

    mismatches = diff_documents(runs["full"].snapshot_document(),
                                runs["demand"].snapshot_document(),
                                ignore_prefixes=MODE_IGNORE_PREFIXES)
    assert not mismatches, mismatches[:8]

    quanta = {name: runs[name].obs.metrics.snapshot()["cpu.quanta"]
              for name in ("full+quantum-obs", "full+instruction-obs")}
    assert len(set(quanta.values())) == 1, quanta


#: 200 iterations of a three-instruction loop, hot enough to compile
_LOOP_GUEST = """
.text
_start:
    li   t0, 200
    li   a0, 0
loop:
    add  a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ebreak
"""


def _poison_reg(cpu):
    cpu.regs[0] = 7


def _poison_tag(cpu):
    # low integrity: above bottom, yet it clears every check of the
    # benchmark policy, so the poisoned run still ends at its ebreak
    cpu.tags[0] = cpu.dift.policy.tag_of(builders.LC_LI)


@pytest.mark.parametrize("dift,poison", [(False, _poison_reg),
                                         (True, _poison_tag)],
                         ids=["vp-regs0", "full-tags0"])
def test_broken_x0_invariant_interprets_every_instruction(dift, poison):
    program = assemble(_LOOP_GUEST)
    # the unpoisoned guest does run compiled blocks
    assert _run(program, dift, jit=4).jit.stats.block_execs > 0
    off = _run(program, dift, poison=poison)
    on = _run(program, dift, jit=4, poison=poison)
    assert on.jit.stats.block_execs == 0
    mismatches = [
        line for line in diff_documents(off.snapshot_document(),
                                        on.snapshot_document())
        if not is_timing_metric(line.split(": ", 1)[0])
        and ".jit." not in line.split(": ", 1)[0]]
    assert not mismatches, mismatches[:8]
