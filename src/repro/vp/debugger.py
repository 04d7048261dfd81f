"""Interactive-style debugging on the VP: breakpoints + taint watchpoints.

The original RISC-V VP ships a GDB server; for policy development the
more interesting primitive is the **taint watchpoint** — "stop when the
security class of these bytes changes" — because the question during
policy triage is rarely *what* value moved but *when data of class X
reached location Y*.

:class:`Debugger` single-steps the CPU (peripheral threads are advanced
between steps through the kernel, so interrupt-driven code works) and
reports :class:`DebugEvent` objects for:

* ``breakpoint`` — PC hit a code breakpoint;
* ``taint-watch`` — a watched byte's tag changed (old/new class names in
  the event detail);
* ``halt`` / ``ebreak`` / ``fault`` / ``security`` — the guest stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.vp import cpu as cpu_mod
from repro.vp.platform import Platform


@dataclass(frozen=True)
class DebugEvent:
    """One reason the debugger returned control."""

    kind: str      # "breakpoint" | "taint-watch" | stop reason
    pc: int
    detail: str = ""

    def __str__(self) -> str:
        text = f"[{self.kind}] pc={self.pc:#010x}"
        return f"{text} {self.detail}" if self.detail else text


@dataclass
class TaintWatch:
    """A watched byte range with its last-seen tag snapshot."""

    start: int
    end: int
    snapshot: bytes


class Debugger:
    """Breakpoint/watchpoint driver over a loaded platform."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self.cpu = platform.cpu
        self.breakpoints: Set[int] = set()
        self._watches: Dict[str, TaintWatch] = {}
        self.steps_executed = 0
        # the debugger drives the CPU itself; the platform's own CPU
        # process must not race it when we tick the kernel
        platform.detach_cpu_process()
        # single-stepping must observe every PC — detach the trace
        # compiler so compiled blocks cannot skip over breakpoints or
        # coalesce the per-step taint-watch windows
        if platform.jit is not None:
            platform.jit.flush()
            self.cpu.attach_jit(None)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #

    def add_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address & ~3)

    def remove_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address & ~3)

    def break_at(self, symbol: str) -> int:
        """Breakpoint on a program symbol; returns the address."""
        address = self.platform.symbol(symbol)
        self.add_breakpoint(address)
        return address

    def add_taint_watch(self, name: str, start: int, length: int) -> None:
        """Watch the tags of guest bytes ``[start, start+length)``.

        Only meaningful on a DIFT platform; on a plain VP the watch never
        fires (there are no tags).
        """
        self._watches[name] = TaintWatch(
            start, start + length, self._snapshot(start, start + length))

    def watch_symbol(self, symbol: str, length: int) -> None:
        self.add_taint_watch(symbol, self.platform.symbol(symbol), length)

    def remove_taint_watch(self, name: str) -> None:
        self._watches.pop(name, None)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int = 1_000_000) -> DebugEvent:
        """Run until a breakpoint / watch fires or the guest stops."""
        cpu = self.cpu
        for __ in range(max_instructions):
            if cpu.pc in self.breakpoints:
                return DebugEvent("breakpoint", cpu.pc)
            executed, reason = cpu.run(1)
            self.steps_executed += executed
            if executed:
                # keep peripheral/timer threads in step with the CPU
                self.platform.kernel.run(
                    until=self.platform.kernel.now + cpu.clock_period)
            event = self._check_watches()
            if event is not None:
                return event
            if reason in (cpu_mod.HALT, cpu_mod.EBREAK, cpu_mod.FAULT,
                          cpu_mod.SECURITY, cpu_mod.WFI):
                return DebugEvent(reason, cpu.pc)
        return DebugEvent("step-limit", cpu.pc)

    def step_over_breakpoint(self) -> None:
        """Execute the instruction under the current breakpoint."""
        executed, __ = self.cpu.run(1)
        self.steps_executed += executed

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _snapshot(self, start: int, end: int) -> bytes:
        tags = self.platform.memory.tags
        if tags is None:
            return b""
        return bytes(tags[start:end])

    def _check_watches(self) -> Optional[DebugEvent]:
        for name, watch in self._watches.items():
            current = self._snapshot(watch.start, watch.end)
            if current != watch.snapshot:
                changes = self._describe_changes(watch, current)
                watch.snapshot = current
                return DebugEvent("taint-watch", self.cpu.pc,
                                  f"{name}: {changes}")
        return None

    def _describe_changes(self, watch: TaintWatch, current: bytes) -> str:
        lattice = (self.platform.engine.lattice
                   if self.platform.engine else None)

        def name_of(tag: int) -> str:
            return lattice.name_of(tag) if lattice else str(tag)

        parts: List[str] = []
        for index, (old, new) in enumerate(zip(watch.snapshot, current)):
            if old != new:
                parts.append(
                    f"+{index}: {name_of(old)} -> {name_of(new)}")
            if len(parts) >= 4:
                parts.append("...")
                break
        return ", ".join(parts)
