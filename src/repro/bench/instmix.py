"""Dynamic instruction-mix profiling of the guest benchmarks.

DESIGN.md claims each substitute benchmark preserves the *character* of
the paper's original workload (qsort: compare/branch/call heavy; primes:
division heavy; sha512: ALU+memory heavy; ...).  This module measures
that claim: it runs a workload under the CPU's instruction-level
profile (``Observability(level="instruction")``), which attributes every
retired instruction to an opcode group, and reports the distribution.

Categories are the opcode groups of :mod:`repro.obs.metrics`: ``alu``
(integer op-imm/op incl. lui/auipc), ``muldiv`` (M extension), ``load``,
``store``, ``branch`` (conditional), ``jump`` (jal/jalr), ``system``
(csr/ecall/ebreak/mret/wfi/fence).  As in that profile, the first
instruction after an interrupt entry is left unattributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs import INSTRUCTION, Observability
from repro.obs.metrics import OPCODE_GROUPS
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
    """Run a loaded platform for up to ``max_instructions`` more
    instructions and read its ``cpu.inst.<group>`` counters.

    A platform built without an instruction-level
    :class:`~repro.obs.Observability` gets one attached to its CPU.
    """
    obs = platform.obs
    if obs is None or obs.level != INSTRUCTION:
        obs = Observability(level=INSTRUCTION)
        platform.cpu.attach_obs(obs)
    counters = [obs.metrics.counter(f"cpu.inst.{cat}") for cat in CATEGORIES]
    before = [counter.value for counter in counters]
    platform.run(max_instructions=platform.total_instructions
                 + max_instructions)
    mix = InstructionMix(name)
    for cat, counter, start in zip(CATEGORIES, counters, before):
        mix.counts[cat] = counter.value - start
    mix.total = sum(mix.counts.values())
    return mix


def profile_workload(name: str, max_instructions: int = 150_000,
                     obs=None, jit=False) -> InstructionMix:
    """Profile one registry workload (quick scale, plain VP).

    ``obs`` lends its metrics registry to the instruction-level profile.
    ``jit`` builds the platform with the trace compiler attached: the
    profile single-steps, so no block runs, but the profiler channel
    still exercises the jit-on code paths, which is what the CI smoke
    leg is after.
    """
    from repro.bench.workloads import WORKLOADS

    obs = Observability(metrics=obs.metrics if obs is not None else None,
                        level=INSTRUCTION)
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
