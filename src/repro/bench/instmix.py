"""Dynamic instruction-mix profiling of the guest benchmarks.

DESIGN.md claims each substitute benchmark preserves the *character* of
the paper's original workload (qsort: compare/branch/call heavy; primes:
division heavy; sha512: ALU+memory heavy; ...).  This module measures
that claim: it single-steps a workload, classifies every retired
instruction, and reports the category distribution.

Categories are the opcode groups of :mod:`repro.obs.metrics`: ``alu``
(integer op-imm/op incl. lui/auipc), ``muldiv`` (M extension), ``load``,
``store``, ``branch`` (conditional), ``jump`` (jal/jalr), ``system``
(csr/ecall/ebreak/mret/wfi/fence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.metrics import GROUP_OF_OP, OPCODE_GROUPS
from repro.vp import cpu as cpu_mod
from repro.vp import decode as D
from repro.vp.platform import Platform

#: the categories, in reporting order: the opcode groups of the CPU's
#: instruction-level profile
CATEGORIES = list(OPCODE_GROUPS)


@dataclass
class InstructionMix:
    """Category histogram for one workload."""

    workload: str
    counts: Dict[str, int] = field(
        default_factory=lambda: {cat: 0 for cat in CATEGORIES})
    total: int = 0

    def fraction(self, category: str) -> float:
        return self.counts[category] / self.total if self.total else 0.0

    def dominant(self) -> str:
        return max(self.counts, key=self.counts.get)


def profile_platform(platform: Platform, name: str,
                     max_instructions: int = 150_000) -> InstructionMix:
    """Single-step a loaded platform, tallying instruction categories.

    Ticks the kernel after every step so interrupt-driven workloads
    (sensor, RTOS) progress; accordingly this is slow — profile at small
    scales.
    """
    platform.detach_cpu_process()
    cpu = platform.cpu
    mix = InstructionMix(name)
    decode = D.decode
    cache: Dict[int, str] = {}
    # everything below runs once per guest instruction: bind the loop
    # invariants to locals and fetch the opcode word straight from the
    # DMI bytearray instead of round-tripping through read_word()
    counts = mix.counts
    ram = cpu.ram
    ram_base = cpu.ram_base
    ram_hi = cpu.ram_end - 4
    run = cpu.run
    advance = platform.kernel.advance_ps
    step_ps = cpu.clock_period.ps
    wfi_ps = step_ps * 100_000
    frombytes = int.from_bytes
    quantum = cpu_mod.QUANTUM
    stops = (cpu_mod.HALT, cpu_mod.EBREAK, cpu_mod.FAULT, cpu_mod.SECURITY)
    wfi = cpu_mod.WFI
    total = 0
    for __ in range(max_instructions):
        pc = cpu.pc
        if not (ram_base <= pc <= ram_hi):
            break
        off = pc - ram_base
        word = frombytes(ram[off:off + 4], "little")
        cat = cache.get(word)
        if cat is None:
            cat = CATEGORIES[GROUP_OF_OP[decode(word)[0]]]
            cache[word] = cat
        executed, reason = run(1)
        if not executed:
            break
        counts[cat] += 1
        total += 1
        advance(step_ps)
        if reason == quantum:
            continue
        if reason in stops:
            break
        if reason == wfi:
            # fast-forward to the next event so wfi workloads progress
            advance(wfi_ps)
    mix.total = total
    return mix


def profile_workload(name: str, max_instructions: int = 150_000,
                     obs=None, jit=False) -> InstructionMix:
    """Profile one registry workload (quick scale, plain VP).

    ``jit`` builds the platform with the trace compiler attached — the
    single-step driver never gives it a full block to run, but the
    profiler channel still exercises the jit-on code paths, which is
    what the CI smoke leg is after.
    """
    from repro.bench.workloads import WORKLOADS

    platform = WORKLOADS[name].make_platform("quick", dift=False, obs=obs,
                                             jit=jit)
    return profile_platform(platform, name, max_instructions)


def format_mix_table(mixes: List[InstructionMix]) -> str:
    """Render the distribution table (percent per category)."""
    header = f"{'workload':<16} {'total':>9} " + " ".join(
        f"{cat:>7}" for cat in CATEGORIES)
    lines = [header, "-" * len(header)]
    for mix in mixes:
        cells = " ".join(f"{100 * mix.fraction(cat):6.1f}%"
                         for cat in CATEGORIES)
        lines.append(f"{mix.workload:<16} {mix.total:>9,} {cells}")
    return "\n".join(lines)
