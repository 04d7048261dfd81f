"""The reference SoC platform: CPU + bus + memory + peripherals.

:class:`Platform` assembles the virtual prototype the paper evaluates on:
a RISC-V core, TLM interconnect, RAM, and the peripheral set (UART,
sensor, CAN, AES, DMA, CLINT timer, PLIC).  Constructed without a policy
it is the baseline **VP**; constructed with a :class:`SecurityPolicy` it
becomes **VP+**, the DIFT-instrumented platform.

Memory map::

    0x0000_0000  RAM (default 4 MiB)
    0x0200_0000  CLINT   (machine timer)
    0x0C00_0000  PLIC    (external interrupt controller)
    0x1000_0000  UART0
    0x1000_1000  Sensor
    0x1000_2000  CAN0
    0x1000_3000  AES0
    0x1000_4000  DMA0

Guest convention: ``ecall`` with ``a7 == 93`` exits the simulation with
exit code ``a0`` (other ecalls trap to ``mtvec`` if installed).
"""

from __future__ import annotations

import mmap
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import state as state_mod
from repro.asm.assembler import Program
from repro.dift.engine import RECORD, DiftEngine, ViolationRecord
from repro.dift.events import (
    EV_IMAGE,
    EV_QUANTUM,
    EV_SINK,
    EV_TAINT,
    EV_TAINT_FILL,
    EventWriter,
    make_header,
)
from repro.policy.policy import SecurityPolicy
from repro.state import SnapshotError
from repro.sysc.event import Event
from repro.sysc.kernel import Kernel
from repro.sysc.time import SimTime
from repro.sysc.tlm import Router
from repro.vp import cpu as cpu_mod
from repro.vp.config import MAX_RAM_SIZE, PlatformConfig
from repro.vp.cpu import Cpu
from repro.vp.jit import DEFAULT_THRESHOLD, JitEngine
from repro.vp.loader import load_program
from repro.vp.memory import Memory
from repro.vp.peripherals import (
    IRQ_CAN,
    IRQ_DMA,
    IRQ_SENSOR,
    IRQ_UART,
    AesAccelerator,
    CanBus,
    CanController,
    Clint,
    DmaController,
    Plic,
    SimpleSensor,
    Uart,
)

RAM_BASE = 0x0000_0000
RAM_SIZE = 4 * 1024 * 1024
CLINT_BASE = 0x0200_0000
PLIC_BASE = 0x0C00_0000
UART_BASE = 0x1000_0000
SENSOR_BASE = 0x1000_1000
CAN_BASE = 0x1000_2000
AES_BASE = 0x1000_3000
DMA_BASE = 0x1000_4000

#: initial stack pointer (16 bytes below the RAM top, 16-byte aligned)
STACK_TOP = RAM_BASE + RAM_SIZE - 16

SYS_EXIT = 93


@dataclass
class RunResult:
    """Outcome of one :meth:`Platform.run`."""

    instructions: int
    host_seconds: float
    sim_time: SimTime
    reason: str
    exit_code: int
    violations: List[ViolationRecord] = field(default_factory=list)

    @property
    def mips(self) -> float:
        """Host-measured million instructions per second."""
        if self.host_seconds <= 0:
            return 0.0
        return self.instructions / self.host_seconds / 1e6

    @property
    def detected(self) -> bool:
        """Did the DIFT engine flag at least one violation?"""
        return bool(self.violations)

    def __str__(self) -> str:
        return (f"RunResult(instr={self.instructions}, "
                f"host={self.host_seconds:.3f}s, mips={self.mips:.2f}, "
                f"reason={self.reason!r}, exit={self.exit_code}, "
                f"violations={len(self.violations)})")


def _default_ecall(cpu: Cpu) -> Optional[str]:
    """Bare-metal environment calls: a7=93 exits with code a0."""
    if cpu.regs[17] == SYS_EXIT:
        cpu.exit_code = cpu.regs[10]
        return "halt"
    return None


class Platform:
    """A complete VP (plain) or VP+ (DIFT) instance.

    Construct with a :class:`~repro.vp.config.PlatformConfig`, either
    positionally or via :meth:`from_config`; ``Platform()`` is a plain
    VP with the default configuration.
    """

    def __init__(self, config: Optional[PlatformConfig] = None):
        if config is None:
            config = PlatformConfig()
        self.config = config
        policy = config.policy
        obs = config.obs
        ram_size = config.ram_size
        if not isinstance(ram_size, int) or ram_size <= 0 or ram_size & 3:
            # the ISS maps RAM and its tag shadow as 32-bit words
            raise ValueError(f"ram_size must be a positive multiple of 4 "
                             f"bytes, got {ram_size!r}")
        if ram_size > MAX_RAM_SIZE:
            raise ValueError(f"ram_size {ram_size:#x} does not fit below the "
                             f"CLINT at {CLINT_BASE:#010x} (at most "
                             f"{MAX_RAM_SIZE:#x} bytes)")

        self.kernel = Kernel()
        self.engine: Optional[DiftEngine] = (
            DiftEngine(policy, mode=config.engine_mode) if policy else None)
        self.router = Router("bus")
        tagged = self.engine is not None
        default_tag = self.engine.default_tag if self.engine else 0
        dift_mode = config.dift_mode
        if tagged and default_tag != self.engine.bottom_tag:
            # memory starts (and stays) classified above bottom: the
            # machine is never clean, so demand mode's clean path could
            # never run.  Build the full-mode CPU, which the JIT serves
            # with DIFT blocks
            dift_mode = cpu_mod.DIFT_FULL

        self.memory = Memory(self.kernel, "ram", config.ram_size,
                             tagged=tagged, default_tag=default_tag)
        if tagged:
            # enable merge-tags writes (DMA merge mode, peripherals that
            # fold into a destination instead of overwriting it)
            self.memory.set_lub_table(self.engine.lub,
                                      self.engine.lub_translation)
        self.cpu = Cpu(self.kernel, "cpu0", dift=self.engine,
                       clock_period=config.clock_period,
                       quantum=config.quantum,
                       dift_mode=dift_mode)
        self.cpu.isock.bind(self.router)  # router duck-types a target socket
        self.cpu.attach_ram(RAM_BASE, self.memory.data, self.memory.tags)
        self.cpu.ecall_handler = _default_ecall

        self._recorder: Optional[EventWriter] = None
        if config.record_events is not None:
            if self.engine is None:
                raise ValueError(
                    "record_events requires a security policy (the stream "
                    "header embeds it for offline re-analysis)")
            if config.engine_mode != RECORD:
                raise ValueError(
                    "record_events requires engine_mode='record': a "
                    "raise-mode engine aborts the faulting quantum "
                    "mid-instruction and would truncate the stream before "
                    "its final packets")
            if config.dift_mode == cpu_mod.DIFT_DEMAND:
                raise ValueError(
                    "record_events is incompatible with dift_mode='demand' "
                    "(both claim the memory taint listener); record with "
                    "dift_mode='full'")
            if config.jit:
                raise ValueError(
                    "record_events is incompatible with jit: compiled "
                    "blocks emit no event packets")
            header = make_header(config, extra={"ram_base": RAM_BASE})
            self._recorder = EventWriter(config.record_events, header)
            # the CPU appends packets to a plain queue that _cpu_process
            # pumps into the writer per quantum; host-side tag writes
            # (loader classification, DMA) and peripheral checks join it
            # in order — wired before load() so the loader's writes are
            # captured.  The CPU also keeps the recorder's copy of the
            # code image the monitor holds: an anonymous mapping, so
            # only the pages load() and fetches touch are committed
            self._code_copy = memoryview(mmap.mmap(-1, ram_size))
            self.cpu.set_event_queue([], self._code_copy.cast("I"))
            self.memory.set_taint_listener(self._record_taint)
            self.engine.set_check_recorder(self._record_check)

        self.jit: Optional[JitEngine] = None
        if config.jit:
            # True → default threshold; an int sets it directly (bool is
            # an int subclass, so the isinstance order matters)
            if isinstance(config.jit, bool):
                threshold = DEFAULT_THRESHOLD
            else:
                threshold = int(config.jit)
            self.jit = JitEngine(self.cpu, threshold=threshold)
            self.cpu.attach_jit(self.jit)
            # host-side writes into RAM (DMA, loader, debugger pokes)
            # bypass the CPU store paths; the listener keeps compiled
            # code pages coherent with them
            self.memory.set_write_listener(self._on_memory_write)

        if self.cpu.liveness is not None:
            # wired before load() so the loader's region classification
            # marks its dirty pages automatically
            self.memory.set_taint_listener(self._on_memory_taint)

        self.plic = Plic(self.kernel, "plic0", self.engine, cpu=self.cpu)
        self.clint = Clint(self.kernel, "clint0", self.engine, cpu=self.cpu)
        self.uart = Uart(self.kernel, "uart0", self.engine,
                         raise_irq=self.plic.irq_hook(IRQ_UART))
        self.sensor = SimpleSensor(self.kernel, "sensor0", self.engine,
                                   raise_irq=self.plic.irq_hook(IRQ_SENSOR),
                                   period=config.sensor_period,
                                   seed=config.seed)
        self.can_bus = CanBus()
        self.can = CanController(self.kernel, "can0", self.engine,
                                 bus=self.can_bus,
                                 raise_irq=self.plic.irq_hook(IRQ_CAN))
        self.aes = AesAccelerator(self.kernel, "aes0", self.engine,
                                  declassify_to=config.aes_declassify_to)
        self.dma = DmaController(self.kernel, "dma0", self.engine,
                                 router=self.router,
                                 raise_irq=self.plic.irq_hook(IRQ_DMA))

        self.router.map_target(RAM_BASE, config.ram_size,
                               self.memory.tsock, "ram")
        for base, peripheral in ((CLINT_BASE, self.clint),
                                 (PLIC_BASE, self.plic),
                                 (UART_BASE, self.uart),
                                 (SENSOR_BASE, self.sensor),
                                 (CAN_BASE, self.can),
                                 (AES_BASE, self.aes),
                                 (DMA_BASE, self.dma)):
            self.router.map_target(base, peripheral.size, peripheral.tsock,
                                   peripheral.name)
            for window in peripheral.dmi_windows():
                self.cpu.attach_dmi(base + window.offset, window.command,
                                    window.data, window.tags)

        self.program: Optional[Program] = None
        self.stop_reason = ""
        self._instr_budget: Optional[int] = None
        self.total_instructions = 0
        # pause-at-quantum-boundary support (snapshotting): pausing at a
        # natural boundary keeps quantum sizes — and hence the timed
        # interleaving — identical to an uninterrupted run, which a
        # max_instructions budget stop (min(quantum, remaining)) would
        # not.
        self._pause_at: Optional[int] = None
        self._paused = False
        self._await_irq = False
        self._stop_pending = ""
        self._resume_event = Event("platform.resume")
        self._resume_event._bind(self.kernel)
        # non-kernel behavioural models riding on the platform (e.g. the
        # case study's engine-side ECU); registered so snapshots can
        # carry their state
        self._externals: Dict[str, object] = {}
        self._cpu_proc = self.kernel.spawn(self._cpu_process,
                                           name="cpu0.process")

        self.obs = obs
        if obs is not None:
            self._attach_obs(obs)

    @classmethod
    def from_config(cls, config: PlatformConfig) -> "Platform":
        """Build a platform from a :class:`PlatformConfig` (preferred)."""
        return cls(config)

    # ------------------------------------------------------------------ #
    # externals
    # ------------------------------------------------------------------ #

    def register_external(self, name: str, obj) -> None:
        """Attach a non-kernel model (snapshotted alongside the VP)."""
        if name in self._externals:
            raise ValueError(f"external {name!r} already registered")
        self._externals[name] = obj

    def external(self, name: str):
        try:
            return self._externals[name]
        except KeyError:
            raise KeyError(f"no external registered as {name!r}") from None

    def _attach_obs(self, obs) -> None:
        """Wire an :class:`~repro.obs.Observability` through every layer."""
        if obs.tracer is not None:
            obs.tracer.clock = lambda: self.kernel.now.ps / 1e6
        self.cpu.attach_obs(obs)
        self.router.attach_metrics(obs.metrics)
        for peripheral in (self.uart, self.sensor, self.can, self.aes,
                           self.dma, self.clint, self.plic):
            peripheral.attach_obs(obs)
        metrics = obs.metrics
        # Derived metrics are lazy gauges: evaluated at snapshot time
        # only, so they may scan megabytes of shadow state for free
        # during simulation.
        metrics.set_gauge_fn("sim.time_us",
                             lambda: self.kernel.now.ps / 1e6)
        metrics.set_gauge_fn("sim.delta_cycles",
                             lambda: self.kernel.delta_count)
        metrics.set_gauge_fn("tlm.transactions_routed",
                             lambda: self.router.transactions_routed)
        # Every retired instruction is one decode-cache lookup.  Misses
        # are counted by the CPU itself (a cleared or partially warmed
        # cache makes them diverge from the entry count, so ``len`` is
        # not a substitute); hits fall out of instret minus misses.
        metrics.set_gauge_fn("cpu.decode_cache.entries",
                             lambda: len(self.cpu._decode_cache))
        metrics.set_gauge_fn("cpu.decode_cache.misses",
                             lambda: self.cpu.decode_misses)
        metrics.set_gauge_fn(
            "cpu.decode_cache.hits",
            lambda: max(0, self.cpu.csr.instret
                        - self.cpu.decode_misses))
        jit = self.jit
        if jit is not None:
            metrics.set_gauge_fn("jit.blocks.compiled",
                                 lambda: jit.stats.compiled)
            metrics.set_gauge_fn("jit.blocks.live",
                                 lambda: jit.live_blocks)
            metrics.set_gauge_fn("jit.invalidations",
                                 lambda: jit.stats.invalidated_blocks)
            metrics.set_gauge_fn("jit.flushes",
                                 lambda: jit.stats.flushes)
            metrics.set_gauge_fn("jit.blocks.generic",
                                 lambda: jit.stats.generic_compiled)
            metrics.set_gauge_fn("jit.exec.blocks",
                                 lambda: jit.stats.block_execs)
            metrics.set_gauge_fn("jit.exec.clean_blocks",
                                 lambda: jit.stats.clean_execs)
            metrics.set_gauge_fn("jit.exec.mmio",
                                 lambda: jit.stats.mmio_calls)
            metrics.set_gauge_fn("jit.exec.trace_instructions",
                                 lambda: jit.stats.trace_instructions)
            metrics.set_gauge_fn("jit.exec.trace_ratio",
                                 lambda: jit.trace_ratio())
        engine = self.engine
        if engine is not None:
            engine.attach_obs(obs)
            metrics.set_gauge_fn("engine.checks_performed",
                                 lambda: engine.checks_performed)
            metrics.set_gauge_fn("engine.violations",
                                 lambda: engine.violation_count)
            metrics.set_gauge_fn("taint.tagged_regs", self._tagged_regs)
            metrics.set_gauge_fn("taint.tagged_mem_bytes",
                                 self._tagged_mem_bytes)
            metrics.set_gauge_fn("taint.mem_spread_ratio",
                                 self._mem_spread_ratio)
            live = self.cpu.liveness
            if live is not None:
                metrics.set_gauge_fn("dift.fast_steps",
                                     lambda: live.fast_steps)
                metrics.set_gauge_fn("dift.slow_steps",
                                     lambda: live.slow_steps)
                metrics.set_gauge_fn("dift.reclaims",
                                     lambda: live.reclaims)
                metrics.set_gauge_fn("dift.reclaim_skipped_pages",
                                     lambda: live.reclaim_skipped_pages)
                metrics.set_gauge_fn("shadow.tainted_pages",
                                     self._tainted_pages)
                # pages the liveness layer currently tracks as
                # maybe-tainted in the flat RAM shadow
                metrics.set_gauge_fn("shadow.materialized_pages",
                                     lambda: len(live.dirty_pages))

    def _on_memory_write(self, offset: int, length: int) -> None:
        """Memory write listener: invalidate compiled code the write hits."""
        self.jit.notify_write(offset, length)

    def _record_taint(self, offset: int, length: int, tags) -> None:
        """Memory taint listener (inline recording): queue the tag write
        so an offline monitor replays loader/DMA classification."""
        queue = self.cpu._emitq
        if isinstance(tags, int):
            queue.append((EV_TAINT_FILL, offset, length, tags))
        else:
            queue.append((EV_TAINT, offset, bytes(tags)))

    def _record_check(self, tag, required, unit, context, pc) -> None:
        """Engine check recorder: queue every peripheral clearance check
        (pass or fail) so offline re-analysis re-performs it."""
        self.cpu._emitq.append((EV_SINK, unit, tag, required, context, pc))

    def _on_memory_taint(self, offset: int, length: int, tags) -> None:
        """Memory taint listener (demand mode): filter bottom-only writes."""
        bottom = self.engine.bottom_tag
        if isinstance(tags, int):
            if tags == bottom:
                return
        elif tags.count(bottom) == len(tags):
            return
        self.cpu.liveness.note_memory_taint(offset, length)

    # -- taint-spread gauges (snapshot-time scans of the shadow state) --- #

    def _tagged_regs(self) -> int:
        bottom = self.engine.bottom_tag
        return sum(1 for tag in self.cpu.tags if tag != bottom)

    def _tagged_mem_bytes(self) -> int:
        # Spread is measured against the policy *default* classification:
        # bytes the guest (or a peripheral) re-tagged away from it.
        tags = self.memory.tags
        if tags is None:
            return 0
        return len(tags) - tags.count(self.engine.default_tag)

    def _mem_spread_ratio(self) -> float:
        tags = self.memory.tags
        if not tags:
            return 0.0
        return self._tagged_mem_bytes() / len(tags)

    def _tainted_pages(self) -> int:
        """RAM pages holding at least one above-bottom tag (lazy scan)."""
        tags = self.memory.tags
        if tags is None:
            return 0
        bottom = self.engine.bottom_tag
        size = len(tags)
        count = 0
        for start in range(0, size, 4096):
            end = min(start + 4096, size)
            if tags.count(bottom, start, end) != end - start:
                count += 1
        return count

    def detach_cpu_process(self) -> None:
        """Remove the CPU from kernel scheduling (external drivers only).

        Used by the debugger/tracer, which step the CPU themselves but
        still advance the kernel so peripheral threads stay in sync.
        """
        self._cpu_proc.terminated = True

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    @property
    def is_dift(self) -> bool:
        return self.engine is not None

    def load(self, program: Program) -> None:
        """Load a guest binary and reset the CPU to its entry point."""
        load_program(self.memory, program, RAM_BASE, self.engine)
        if self._recorder is not None:
            # the monitor rebuilds straight-line code from this image;
            # the CPU emits each fetched word that differs from it
            offset = program.base - RAM_BASE
            self._code_copy[offset:offset + program.size] = program.image
            self.cpu._emitq.append((EV_IMAGE, program.entry, offset,
                                    bytes(program.image)))
        self.program = program
        self.cpu.reset(program.entry)
        self.cpu.regs[2] = STACK_TOP  # sp
        if self.jit is not None:
            self.jit.flush()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _cpu_process(self):
        # Loop-top-safe by construction: every loop-carried decision
        # lives on instance attributes and every yield re-enters at the
        # loop top, so a snapshot-restored (freshly primed) body behaves
        # identically to the original suspended generator.
        cpu = self.cpu
        while True:
            if self.kernel.restoring:
                # snapshot priming: park side-effect-free at the first
                # yield; the recorded schedule is re-applied afterwards
                yield None
                continue
            if self._stop_pending:
                # a quantum ended in halt/ebreak/fault/security *after*
                # yielding its executed time; stop now
                self.stop_reason = self._stop_pending
                self._stop_pending = ""
                self.kernel.stop()
                return
            if self._await_irq:
                # cleared before the yield so a restored waiter does not
                # re-enter this branch on wake-up
                self._await_irq = False
                yield cpu.irq_event
                continue
            if cpu.halted:
                self.stop_reason = cpu_mod.HALT
                self.kernel.stop()
                return
            quantum = cpu.quantum
            park = ""
            if (self._pause_at is not None
                    and self.total_instructions >= self._pause_at):
                # natural-boundary pause (snapshot point); quantum sizes
                # stay untouched so a resumed run interleaves exactly
                # like an uninterrupted one
                park = "paused"
            elif self._instr_budget is not None:
                remaining = self._instr_budget - self.total_instructions
                if remaining <= 0:
                    park = "budget"
                quantum = min(quantum, remaining)
            if park:
                # stop the kernel and park on a never-notified event,
                # so a later run() continues from here
                self._paused = True
                self.stop_reason = park
                self.kernel.stop()
                yield self._resume_event
                self._paused = False
                continue
            executed, reason = cpu.run(quantum)
            self.total_instructions += executed
            if self._recorder is not None:
                # the quantum's packets, then where the CPU stands: the
                # host-side packets that follow happened here
                queue = cpu._emitq
                queue.append((EV_QUANTUM, cpu.pc))
                self._recorder.write_many(queue)
                del queue[:]
            if reason == cpu_mod.WFI:
                self._await_irq = True
            elif reason in (cpu_mod.HALT, cpu_mod.EBREAK, cpu_mod.FAULT,
                            cpu_mod.SECURITY):
                self._stop_pending = reason
            if executed:
                yield cpu.clock_period * executed
            elif reason == cpu_mod.QUANTUM:
                # nothing ran and nothing to wait for: avoid spinning
                yield cpu.clock_period

    def run(self, max_instructions: Optional[int] = None,
            max_time: Optional[SimTime] = None,
            pause_at: Optional[int] = None) -> RunResult:
        """Simulate until the guest stops (or a budget is exhausted).

        ``pause_at`` stops the run (``reason == "paused"``) at the first
        quantum boundary where at least ``pause_at`` instructions have
        retired — the replay-exact snapshot point.  A paused platform
        may be snapshotted and/or continued with another :meth:`run`.
        """
        self._instr_budget = max_instructions
        self._pause_at = pause_at
        if self._paused:
            # continue a paused or budget-stopped simulation: the parked
            # CPU process must run before the processes stop() put back,
            # or evaluation order diverges from an uninterrupted run
            self.stop_reason = ""
            self.kernel.clear_stop()
            self.kernel.make_runnable_front(self._cpu_proc)
        started = _time.perf_counter()
        self.kernel.run(until=max_time)
        host = _time.perf_counter() - started
        if not self.stop_reason:
            self.stop_reason = "time-limit" if max_time else "idle"
        if self.stop_reason in (cpu_mod.HALT, cpu_mod.EBREAK,
                                cpu_mod.FAULT, cpu_mod.SECURITY):
            # the guest cannot continue: seal the stream now.  Paused /
            # budget / time-limit stops leave the run and its stream
            # open for further runs (call finish_recording() explicitly
            # when done).
            self.finish_recording()
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.gauge("run.wall_seconds").set(host)
            metrics.gauge("run.instructions").set(self.total_instructions)
            if host > 0:
                metrics.gauge("run.mips").set(
                    self.total_instructions / host / 1e6)
        return RunResult(
            instructions=self.total_instructions,
            host_seconds=host,
            sim_time=self.kernel.now,
            reason=self.stop_reason,
            exit_code=self.cpu.exit_code,
            violations=list(self.engine.violations) if self.engine else [],
        )

    def finish_recording(self) -> Optional[str]:
        """Flush pending events and seal the recorded stream (idempotent).

        Writes the terminal ``EV_END`` packet with the CPU's pc and the
        instructions retired, making the stream a valid
        ``repro.dift.events/2`` artifact.  Called automatically when a
        run ends terminally (halt/ebreak/fault/security); call it
        explicitly after a budget, pause or time-limit stop once no
        further quanta will run.  Returns the stream path, or ``None``
        if this platform is not recording.
        """
        recorder = self._recorder
        if recorder is None:
            return None
        if not recorder.closed:
            queue = self.cpu._emitq
            if queue:
                recorder.write_many(queue)
                del queue[:]
            recorder.close(self.cpu.pc, self.total_instructions)
        return recorder.path

    # ------------------------------------------------------------------ #
    # checkpoint / restore (repro.state)
    # ------------------------------------------------------------------ #

    def _snapshot_events(self):
        """Every event that can appear in the kernel schedule."""
        return (self.cpu.irq_event, self.clint._wake,
                self.dma._start_event, self._resume_event)

    def snapshot_document(self) -> dict:
        """Compose the full ``repro.snapshot/1`` document.

        Callable when the kernel is not mid-``run()`` — before the first
        run (warm-start boot snapshots), after a ``pause_at`` stop, or
        after any completed run.
        """
        kernel_state = self.kernel.state_dict(self._snapshot_events())
        # A paused CPU parks on the private resume event.  Record it at
        # the *front* of the runnable list instead: on resume it must
        # execute before the processes stop() put back, exactly as the
        # uninterrupted schedule would have run it.
        waiters = kernel_state["event_waiters"]
        parked = waiters.pop(self._resume_event.name, [])
        kernel_state["runnable"] = parked + kernel_state["runnable"]
        modules = {
            "platform": {
                "total_instructions": self.total_instructions,
                "stop_reason": ("" if self._paused
                                else self.stop_reason),
                "await_irq": self._await_irq,
                "stop_pending": self._stop_pending,
            },
            "cpu": self.cpu.state_dict(),
            "memory": self.memory.state_dict(),
            "router": self.router.state_dict(),
            "uart0": self.uart.state_dict(),
            "sensor0": self.sensor.state_dict(),
            "can_bus": self.can_bus.state_dict(),
            "can0": self.can.state_dict(),
            "aes0": self.aes.state_dict(),
            "dma0": self.dma.state_dict(),
            "plic0": self.plic.state_dict(),
            "clint0": self.clint.state_dict(),
        }
        if self.engine is not None:
            modules["engine"] = self.engine.state_dict()
        live = self.cpu.liveness
        if live is not None:
            modules["liveness"] = live.state_dict()
        document = {
            "schema": state_mod.SNAPSHOT_SCHEMA,
            "config": self.config.to_json(),
            "tag_names": (list(self.config.policy.lattice.classes)
                          if self.engine is not None else None),
            "kernel": kernel_state,
            "modules": modules,
            "externals": {name: obj.state_dict()
                          for name, obj in sorted(self._externals.items())},
        }
        if self.obs is not None:
            document["obs"] = self.obs.metrics.state_dict()
        return document

    def save_snapshot(self, path: str) -> str:
        """Write the current simulation state as a snapshot file."""
        return state_mod.save_document(path, self.snapshot_document())

    def restore_snapshot(self, document: dict,
                         program: Optional[Program] = None) -> None:
        """Load a snapshot into this (identically-configured) platform.

        Module state is restored first, then the kernel schedule is
        rebuilt (priming restarted process bodies against the restored
        state).  ``program`` re-attaches the guest image for symbol
        lookups only — RAM content always comes from the snapshot.
        """
        state_mod.check_schema(document)
        tag_names = document.get("tag_names")
        current = (list(self.config.policy.lattice.classes)
                   if self.engine is not None else None)
        if tag_names != current:
            raise SnapshotError(
                f"snapshot tag numbering {tag_names!r} does not match "
                f"this platform's policy classes {current!r}")
        modules = document["modules"]
        if ("engine" in modules) != (self.engine is not None):
            raise SnapshotError(
                "snapshot and platform disagree on DIFT instrumentation")
        self.cpu.load_state_dict(modules["cpu"])
        self.memory.load_state_dict(modules["memory"])
        self.router.load_state_dict(modules["router"])
        self.uart.load_state_dict(modules["uart0"])
        self.sensor.load_state_dict(modules["sensor0"])
        self.can_bus.load_state_dict(modules["can_bus"])
        self.can.load_state_dict(modules["can0"])
        self.aes.load_state_dict(modules["aes0"])
        self.dma.load_state_dict(modules["dma0"])
        self.plic.load_state_dict(modules["plic0"])
        self.clint.load_state_dict(modules["clint0"])
        if self.engine is not None:
            self.engine.load_state_dict(modules["engine"])
        live = self.cpu.liveness
        if live is not None and "liveness" in modules:
            live.load_state_dict(modules["liveness"])
        for name, external_state in document.get("externals", {}).items():
            if name not in self._externals:
                raise SnapshotError(
                    f"snapshot carries external {name!r} but nothing is "
                    "registered under that name (attach externals before "
                    "restoring)")
            self._externals[name].load_state_dict(external_state)
        plat = modules["platform"]
        self.total_instructions = plat["total_instructions"]
        self.stop_reason = plat["stop_reason"]
        self._await_irq = plat["await_irq"]
        self._stop_pending = plat["stop_pending"]
        self._instr_budget = None
        self._pause_at = None
        self._paused = False
        self.kernel.load_state_dict(document["kernel"],
                                    self._snapshot_events())
        if document.get("obs") is not None and self.obs is not None:
            self.obs.metrics.load_state_dict(document["obs"])
        self.program = program
        if self.jit is not None:
            # the trace cache is host-side derived state and never
            # travels in snapshots; rebuild from scratch so a restored
            # run re-profiles against the restored RAM image
            self.jit.flush()

    @classmethod
    def restore(cls, source, obs=None, program: Optional[Program] = None,
                externals=None, jit=False) -> "Platform":
        """Rebuild a platform from a snapshot file (or loaded document).

        The embedded :class:`PlatformConfig` drives construction;
        ``externals`` is an optional ``callable(platform)`` run before
        state load to re-attach non-kernel models the snapshot carries.
        ``jit`` enables the trace compiler on the rebuilt platform — it
        never travels in snapshots, so it is re-requested per restore.
        """
        if isinstance(source, str):
            document = state_mod.load_document(source)
        else:
            document = state_mod.check_schema(source)
        mode = document["config"].get("dift_mode")
        if mode not in cpu_mod.DIFT_MODES:
            raise SnapshotError(
                f"snapshot config names dift_mode {mode!r}, which this "
                f"platform does not support (supported: "
                f"{', '.join(cpu_mod.DIFT_MODES)})")
        config = PlatformConfig.from_json(document["config"], obs=obs,
                                          jit=jit)
        try:
            platform = cls(config)
        except ValueError as err:
            raise SnapshotError(
                f"snapshot config is rejected: {err}") from err
        if externals is not None:
            externals(platform)
        platform.restore_snapshot(document, program=program)
        return platform

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def console(self) -> str:
        """Text transmitted on the UART so far."""
        return self.uart.text()

    def symbol(self, name: str) -> int:
        if self.program is None:
            raise ValueError("no program loaded")
        return self.program.symbol(name)

    def __repr__(self) -> str:
        # the mode that runs: a demand config under a default class above
        # bottom builds the full-mode CPU
        if self.is_dift:
            mode = "VP+d" if self.cpu.liveness is not None else "VP+"
        else:
            mode = "VP"
        return f"Platform({mode}, instret={self.cpu.csr.instret})"


def run_program(program: Program, policy: Optional[SecurityPolicy] = None,
                max_instructions: Optional[int] = None,
                config: Optional[PlatformConfig] = None,
                **platform_kwargs) -> RunResult:
    """One-shot: build a platform, load, run.

    Pass a ready :class:`PlatformConfig` via ``config``; the loose
    ``policy``/keyword form is folded into one internally.
    """
    if config is None:
        config = PlatformConfig(policy=policy, **platform_kwargs)
    elif policy is not None or platform_kwargs:
        raise TypeError(
            "pass either config= or policy=/platform kwargs, not both")
    platform = Platform.from_config(config)
    platform.load(program)
    return platform.run(max_instructions=max_instructions)
