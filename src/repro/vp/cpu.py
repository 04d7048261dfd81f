"""RV32IM instruction-set simulator with optional DIFT instrumentation.

The CPU is a SystemC-style module: the platform registers it as a kernel
process that executes a *quantum* of instructions and then yields simulated
time (loosely-timed modelling, fixed CPI), exactly how the original RISC-V
VP structures its ISS.

Two execution loops are provided, compiled from one source:

* :meth:`Cpu.run` in **plain** mode (``dift=None``) — the baseline VP.
* :meth:`Cpu.run` in **DIFT** mode — the VP+ of the paper: every register
  and memory byte carries a tag; ALU results take the LUB of their operand
  tags; and the three execution-clearance checks of Section V-B2 are
  performed (instruction fetch, branch condition / indirect-jump target /
  trap-handler address, and memory-access address).

The quantum loop is written once, as the template ``Cpu._interp``: code
only the VP+ runs sits under ``if _DIFT:``, code only the VP runs (demand
mode's hand-over to the DIFT loop) under ``if not _DIFT:``.  At import,
:func:`repro.vp.decode.specialize` compiles it twice, with ``_DIFT``
replaced by ``False`` and by ``True``, into ``Cpu._interp_plain`` and
``Cpu._interp_dift``.  CPython drops the dead branch of a constant test,
so the plain loop holds no DIFT bytecode and no flag test: the VP pays
for no DIFT hook, and the Table II overhead comparison stays honest.

The template writes no opcode result and no tag rule.  Placeholders
stand for them, written as calls on the opcodes they cover and the
locals they read, such as ``_VALUE(D.ADDI, D.ANDI, op, a, i)`` and
``_RD_TAG(D.ADD, D.AND, tags, d, lub)``.  Each is replaced by a one-line
expansion of the tables in :mod:`repro.vp.decode` that the JIT and the
offline monitor emit from too, so both loops keep the template's file
and line numbers:
tracebacks, coverage and ``inspect.getsource`` show the template's
lines, while a profile lists ``_interp_plain`` and ``_interp_dift`` as
two entries.

RAM is accessed through a DMI pointer (``ram``/``ram_tags``) granted by the
memory module.  Peripherals grant DMI windows over side-effect-free
storage (:meth:`Cpu.attach_dmi`): :meth:`Cpu._mmio_read` and
:meth:`Cpu._mmio_write` serve an access lying wholly inside one from its
data and tag bytes.  Everything else goes through TLM transactions whose
payloads carry per-byte tags on the DIFT platform.

:meth:`Cpu.attach_ram` also builds 32-bit views of RAM and its tag shadow
(``ram32``/``tags32``; native byte order, so the host must be
little-endian).  Instruction fetch, the fetch clearance and aligned in-RAM
``lw``/``sw`` read or write one word of each view; misaligned ``lw``/``sw``
and the sub-word accesses keep the byte path.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.dift.engine import DiftEngine
from repro.dift.events import (
    EV_BRANCH,
    EV_CODE,
    EV_FAULT,
    EV_JUMP,
    EV_LOAD,
    EV_MMIO_LOAD,
    EV_MMIO_STORE,
    EV_STOP,
    EV_STORE,
    EV_TRAP,
)
from repro.dift.liveness import TaintLiveness
from repro.errors import BusError
from repro.sysc.kernel import Kernel
from repro.sysc.module import Module
from repro.sysc.time import ZERO_TIME, SimTime
from repro.sysc.tlm import OK, READ, WRITE, GenericPayload, InitiatorSocket
from repro.vp import csr as CSR
from repro.vp import decode as D
from repro.vp.csr import CsrFile

# run() stop reasons
QUANTUM = "quantum"   # quantum exhausted, more work pending
HALT = "halt"         # guest exited via ecall
EBREAK = "ebreak"     # guest hit ebreak (attack payload marker in the suite)
WFI = "wfi"           # waiting for interrupt
SECURITY = "security" # DIFT violation recorded (record-mode engines only)
FAULT = "fault"       # unhandled guest fault with no trap handler

# Internal to the demand-mode dispatcher: the fast (clean-machine) path
# observed a non-bottom tag entering the machine and handed control back
# so the quantum can continue on the full DIFT path.  Never escapes
# Cpu.run().
RETAINT = "retaint"

# Internal: wfi retired with an interrupt pending but globally disabled,
# which ends the quantum early so the kernel can advance time.  Every
# loop above the interpreter (the JIT dispatcher, demand mode's driver,
# the instruction-level profile) stops on it as on any other stop
# reason; Cpu.run() alone returns it as QUANTUM.
_IRQWAIT = "irqwait"

# Internal: a taken backward branch landed on a compiled superblock
# entry.  The interpreter returns early so the JIT dispatcher can run
# the block immediately instead of waiting for a chunk boundary to line
# up with the entry PC (which for many loop lengths never happens).
# Only emitted by the loop the JIT serves (it binds the block cache in
# its prologue); consumed by JitEngine._dispatch alone.
_BLOCKHIT = "blockhit"

# DIFT execution modes
DIFT_FULL = "full"     # every instruction pays the tag bookkeeping
DIFT_DEMAND = "demand" # fast path while the machine is provably clean
#: every accepted ``dift_mode``; the CLI, campaign matrix and replay
#: suite derive their mode lists from this one
DIFT_MODES = (DIFT_FULL, DIFT_DEMAND)

_MASK32 = 0xFFFFFFFF

#: the templates' flag and table placeholders; specialize() replaces
#: each before compiling, so these bindings are never read
_DIFT = False
_VALUE = _TAKEN = _RD_TAG = _CHECK_TAG = _TRAP_TAG = _LOAD_TAG = None
_EPC_TAG = _WORD_TAG = _STORE_TAG = _STORE_WORD = None


class Cpu(Module):
    """One RV32IM hart."""

    def __init__(
        self,
        kernel: Kernel,
        name: str = "cpu0",
        dift: Optional[DiftEngine] = None,
        clock_period: SimTime = SimTime.ns(10),
        quantum: int = 4096,
        dift_mode: str = DIFT_FULL,
    ):
        super().__init__(kernel, name)
        if dift_mode not in DIFT_MODES:
            raise ValueError(f"unknown dift_mode {dift_mode!r}; expected "
                             f"one of {DIFT_MODES}")
        self.dift = dift
        self.dift_mode = dift_mode
        self.clock_period = clock_period
        self.quantum = quantum
        self.isock = InitiatorSocket(f"{name}.isock")

        bottom = dift.bottom_tag if dift else 0
        self._bottom = bottom
        self.regs = [0] * 32
        self.tags = [bottom] * 32
        self.pc = 0
        self.csr = CsrFile(bottom_tag=bottom)
        self._decode_cache: Dict[int, D.Decoded] = {}
        #: words decoded from scratch (cache misses); feeds the
        #: cpu.decode_cache.misses gauge
        self.decode_misses = 0

        # trace compiler; attached by the platform via attach_jit()
        self._jit = None

        # the queue events are emitted into: a plain list the platform
        # pumps into an EventWriter when a run records, None otherwise
        # (emission disabled, zero overhead); with it, the recorder's
        # copy of the code image the offline monitor holds, as words
        self._emitq: Optional[list] = None
        self._emitcode: Optional[memoryview] = None

        # DMI into RAM; set by the platform via attach_ram()
        self.ram: bytearray = bytearray(0)
        self.ram_tags: Optional[bytearray] = None
        self.ram32: Optional[memoryview] = None
        self.tags32: Optional[memoryview] = None
        self.ram_base = 0
        self.ram_end = 0
        # DMI windows into peripheral storage, one entry per byte address
        # a window covers: (data, tags, start, end); set by the platform
        # via attach_dmi()
        self._dmi_reads: Dict[int, tuple] = {}
        self._dmi_writes: Dict[int, tuple] = {}

        # demand-mode taint liveness; None in plain and full modes so the
        # existing loops stay hook-free
        self.liveness: Optional[TaintLiveness] = (
            TaintLiveness(bottom_tag=bottom)
            if dift is not None and dift_mode == DIFT_DEMAND else None)

        # interrupt lines
        self._take_irq = False
        self.irq_event = self.make_event("irq")

        # observability; None keeps every hook a single per-quantum check
        self._obs = None
        self._m_stop: Optional[Dict[str, object]] = None
        self._m_instructions = None
        self._m_quanta = None
        self._m_irqs = None
        self._m_quantum_wall = None
        self._m_groups: Optional[list] = None
        self._group_of_op: Optional[list] = None

        # lifecycle
        self.halted = False
        self.exit_code = 0
        self.fault_info = ""
        self.ecall_handler: Optional[Callable[["Cpu"], Optional[str]]] = None

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach_ram(self, base: int, data: bytearray,
                   tags: Optional[bytearray]) -> None:
        """Grant the DMI pointer into RAM (called by the platform).

        Also builds the 32-bit word views of ``data`` and ``tags`` the
        ISS loops use for fetch and aligned ``lw``/``sw``.  The views
        use native byte order, so a big-endian host is rejected here
        rather than given its own path.  While they exist, the two
        bytearrays cannot be resized.
        """
        if sys.byteorder != "little":
            raise ValueError(
                "word-granular DMI needs a little-endian host, but "
                f"sys.byteorder is {sys.byteorder!r}")
        if base & 3 or len(data) & 3:
            raise ValueError(
                f"DMI RAM at {base:#x} of {len(data)} bytes is not "
                "word-aligned")
        self.ram_base = base
        self.ram_end = base + len(data)
        self.ram = data
        self.ram_tags = tags
        self.ram32 = memoryview(data).cast("I")
        self.tags32 = (memoryview(tags).cast("I") if tags is not None
                       else None)

    def attach_dmi(self, address: int, command: str, data: bytearray,
                   tags: bytearray) -> None:
        """Grant a DMI window into peripheral storage (platform wiring).

        From now on an access of direction ``command`` (``READ`` or
        ``WRITE``) lying wholly inside ``[address, address + len(data))``
        uses ``data`` and ``tags`` directly, without a transaction.  The
        VP keeps no tag view, so its window reads return bottom.  The
        grant lasts as long as the CPU: the owner must update both
        bytearrays in place.
        """
        window = (data, tags if self.dift is not None else None, address,
                  address + len(data))
        table = self._dmi_reads if command == READ else self._dmi_writes
        for byte in range(address, address + len(data)):
            table[byte] = window

    def attach_jit(self, jit) -> None:
        """Attach a :class:`repro.vp.jit.JitEngine` (platform wiring).

        The run-loop wrappers dispatch through it; detach by passing
        ``None`` (the debugger does, to regain per-instruction
        visibility)."""
        self._jit = jit

    def set_event_queue(self, queue: Optional[list],
                        image: Optional[memoryview] = None) -> None:
        """Install an event queue on the inline DIFT loop (recording).

        ``image`` is the recorder's copy of the code image the offline
        monitor holds, a word view over RAM's span: the loop emits a
        code-word packet for, and copies, every fetched word it lacks.
        """
        self._emitq = queue
        self._emitcode = image

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` sink.

        Resolves every instrument once, here, so the enabled path does
        plain attribute increments and the disabled path (``_obs is
        None``) stays a single check per quantum in :meth:`run`.
        """
        from repro.obs.metrics import (
            GROUP_OF_OP,
            OPCODE_GROUPS,
            QUANTUM_WALL_US_BUCKETS,
        )
        self._obs = obs
        metrics = obs.metrics
        self._m_instructions = metrics.counter("cpu.instructions")
        self._m_quanta = metrics.counter("cpu.quanta")
        self._m_irqs = metrics.counter("cpu.irqs_taken")
        self._m_quantum_wall = metrics.histogram(
            "cpu.quantum_wall_us", QUANTUM_WALL_US_BUCKETS)
        self._m_groups = [metrics.counter(f"cpu.inst.{group}")
                          for group in OPCODE_GROUPS]
        self._group_of_op = GROUP_OF_OP
        # stop-reason counters, resolved once: the per-quantum f-string +
        # registry lookup showed up in single-stepping profiles
        self._m_stop = {reason: metrics.counter(f"cpu.stop.{reason}")
                        for reason in (QUANTUM, HALT, EBREAK, WFI,
                                       SECURITY, FAULT)}

    def reset(self, pc: int) -> None:
        """Reset architectural state and start executing at ``pc``."""
        self.regs = [0] * 32
        self.tags = [self._bottom] * 32
        self.pc = pc
        self.halted = False
        self.exit_code = 0
        self.fault_info = ""
        self.csr.instret = 0
        self.csr.cycle = 0

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Architectural + quantum-bookkeeping state.

        The decode cache is included although it is semantically derived:
        the ``cpu.decode_cache.*`` gauges are computed from its size, so
        a replayed run must resume with the same cache population to
        report identical metrics.  RAM/shadow content lives with the
        memory module (the DMI arrays alias it).
        """
        return {
            "regs": list(self.regs),
            "tags": list(self.tags),
            "pc": self.pc,
            "halted": self.halted,
            "exit_code": self.exit_code,
            "fault_info": self.fault_info,
            "csr": self.csr.state_dict(),
            "decode_cache": {str(word): list(entry)
                             for word, entry in self._decode_cache.items()},
            "decode_misses": self.decode_misses,
        }

    def load_state_dict(self, state: dict) -> None:
        self.regs = [value & _MASK32 for value in state["regs"]]
        self.tags = list(state["tags"])
        self.pc = state["pc"]
        self.halted = state["halted"]
        self.exit_code = state["exit_code"]
        self.fault_info = state["fault_info"]
        self.csr.load_state_dict(state["csr"])
        self._decode_cache = {int(word): tuple(entry)
                              for word, entry
                              in state["decode_cache"].items()}
        self.decode_misses = state.get("decode_misses", 0)
        self._update_irq()

    # ------------------------------------------------------------------ #
    # interrupts
    # ------------------------------------------------------------------ #

    def set_irq(self, mip_bit: int, level: bool) -> None:
        """Drive one mip line (``CSR.MIP_MTIP`` / ``MIP_MEIP`` / ``MIP_MSIP``)."""
        mip = self.csr[CSR.MIP]
        mip = (mip | mip_bit) if level else (mip & ~mip_bit)
        self.csr[CSR.MIP] = mip
        self._update_irq()
        if self._take_irq:
            self.irq_event.notify()

    def _update_irq(self) -> None:
        pending = self.csr[CSR.MIP] & self.csr[CSR.MIE]
        enabled = self.csr[CSR.MSTATUS] & CSR.MSTATUS_MIE
        self._take_irq = bool(pending and enabled)

    def _take_interrupt(self) -> bool:
        """Enter the highest-priority pending interrupt.  False if none."""
        pending = self.csr[CSR.MIP] & self.csr[CSR.MIE]
        if not pending:
            return False
        if pending & CSR.MIP_MEIP:
            cause = CSR.IRQ_M_EXT
        elif pending & CSR.MIP_MSIP:
            cause = CSR.IRQ_M_SOFT
        else:
            cause = CSR.IRQ_M_TIMER
        entered = self._trap(CSR.INTERRUPT_BIT | cause, 0)
        if entered and self._obs is not None:
            self._m_irqs.inc()
            if self._obs.tracer is not None:
                self._obs.tracer.instant(
                    "irq", "cpu", args={"cause": cause, "pc": self.pc})
        return entered

    def _trap(self, cause: int, tval: int) -> bool:
        """Enter a trap.  Returns False if the DIFT engine vetoed the entry
        (record-mode violation on the handler address).  A template: the
        placeholders expand at import."""
        csr = self.csr
        bottom = self._bottom
        mtvec = csr[CSR.MTVEC]
        emitq = self._emitq
        dift = self.dift
        if dift is not None and dift.branch_req is not None:
            handler_tag = _TRAP_TAG(csr)
            if not dift.flow[handler_tag][dift.branch_req] and self._refused(
                    "branch", handler_tag, dift.branch_req, self.pc, 1):
                return False
        if emitq is not None:
            emitq.append((EV_TRAP, self.pc, cause, mtvec))
        csr[CSR.MEPC] = self.pc
        csr[CSR.MCAUSE] = cause
        csr[CSR.MTVAL] = tval
        csr.set_tag(CSR.MEPC, _EPC_TAG(bottom))
        mstatus = csr[CSR.MSTATUS]
        mpie = CSR.MSTATUS_MPIE if mstatus & CSR.MSTATUS_MIE else 0
        csr[CSR.MSTATUS] = mpie  # MIE cleared, MPIE = old MIE
        self._update_irq()
        self.pc = mtvec
        return True

    def _refused(self, unit: str, tag: int, required: int, pc: int,
                 entry: int = 0) -> bool:
        """Judge a clearance check at ``pc`` whose flow-table lookup
        failed (cold path of the DIFT loop and of :meth:`_trap`).

        Leaves the CPU at ``pc`` and hands the check to the engine, which
        raises in raise mode and records the violation in record mode.
        A refused check stops the run; a recorded run says so with an
        ``EV_STOP`` packet, whose ``entry`` is 1 for a trap entry and 0
        for an instruction.  Returns True if the check was refused.
        """
        self.pc = pc
        if self.dift.check_execution(unit, tag, required, pc):
            return False
        if self._emitq is not None:
            self._emitq.append((EV_STOP, pc, entry))
        return True

    def _fault(self, cause: int, tval: int) -> Optional[str]:
        """Synchronous fault: trap if a handler is installed, else stop;
        a vetoed trap entry stops with :data:`SECURITY`."""
        if self._emitq is not None:
            self._emitq.append((EV_FAULT, self.pc, cause))
        if self.csr[CSR.MTVEC]:
            return None if self._trap(cause, tval) else SECURITY
        self.halted = True
        self.fault_info = (
            f"unhandled fault cause={cause} tval={tval:#010x} "
            f"pc={self.pc:#010x}")
        return FAULT

    # ------------------------------------------------------------------ #
    # MMIO: a DMI window, else TLM
    # ------------------------------------------------------------------ #

    def _mmio_read(self, address: int, size: int) -> Tuple[int, int]:
        window = self._dmi_reads.get(address)
        if window is not None:
            data, tags, start, end = window
            if address + size <= end:
                o = address - start
                value = int.from_bytes(data[o:o + size], "little")
                if tags is None:
                    return value, self._bottom
                if size == 1:
                    return value, tags[o]
                return value, self.dift.lub_bytes(tags[o:o + size])
        tagged = self.dift is not None
        payload = GenericPayload(READ, address, bytearray(size),
                                 bytearray(size) if tagged else None)
        self.isock.b_transport(payload, ZERO_TIME)
        if payload.response != OK:
            raise BusError(f"MMIO read failed at {address:#010x}", address)
        value = int.from_bytes(payload.data, "little")
        if tagged:
            return value, self.dift.lub_bytes(payload.tags)
        return value, self._bottom

    def _mmio_write(self, address: int, size: int, value: int,
                    tag: int) -> None:
        raw = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        window = self._dmi_writes.get(address)
        if window is not None:
            data, tags, start, end = window
            if address + size <= end:
                o = address - start
                data[o:o + size] = raw
                if tags is not None:
                    tags[o:o + size] = bytes((tag,)) * size
                return
        payload = GenericPayload(
            WRITE, address, bytearray(raw),
            bytearray((tag,)) * size if self.dift is not None else None)
        self.isock.b_transport(payload, ZERO_TIME)
        if payload.response != OK:
            raise BusError(f"MMIO write failed at {address:#010x}", address)

    # ------------------------------------------------------------------ #
    # debug / test helpers
    # ------------------------------------------------------------------ #

    def step(self) -> str:
        """Execute exactly one instruction; returns the stop reason."""
        __, reason = self.run(1)
        return reason

    def read_word(self, address: int) -> int:
        off = address - self.ram_base
        if off < 0 or off + 4 > len(self.ram):
            raise BusError(f"word read at {address:#010x} is outside RAM",
                           address)
        return int.from_bytes(self.ram[off:off + 4], "little")

    def reg(self, index: int) -> int:
        return self.regs[index]

    # ------------------------------------------------------------------ #
    # the execution loops
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int) -> Tuple[int, str]:
        """Execute up to ``max_instructions``; returns (executed, reason).

        The one owner of a quantum's bookkeeping.  The loops below it
        (demand mode's driver, the instruction-level profile, the JIT
        dispatcher, the interpreter) retire instructions and stop; here
        alone, once per quantum, the retired count reaches
        ``instret``/``cycle`` and the internal :data:`_IRQWAIT` stop
        becomes :data:`QUANTUM`.  A CSR read inside a quantum therefore
        sees the count at the quantum's start, whichever loops ran it.
        The quantum's metrics and trace span are taken here too; with no
        observability attached that costs one check per quantum.
        """
        if self.halted:
            return 0, HALT
        obs = self._obs
        if obs is None:
            executed, reason = self._run_core(max_instructions)
        else:
            started = perf_counter()
            if obs.level == "instruction":
                executed, reason = self._run_counted(max_instructions)
            else:
                executed, reason = self._run_core(max_instructions)
            wall_us = (perf_counter() - started) * 1e6
        csr = self.csr
        csr.instret += executed
        csr.cycle += executed
        if reason == _IRQWAIT:
            reason = QUANTUM
        if obs is not None:
            self._m_instructions.inc(executed)
            self._m_quanta.inc()
            self._m_quantum_wall.observe(wall_us)
            self._m_stop[reason].inc()
            if obs.tracer is not None and executed:
                # sim time does not advance inside cpu.run, so "now" is
                # still the quantum's start time
                obs.tracer.complete(
                    "quantum", "cpu", ts=self.kernel.now_ps / 1e6,
                    dur=executed * self.clock_period.ps / 1e6,
                    args={"executed": executed, "reason": reason,
                          "wall_us": round(wall_us, 1)})
        return executed, reason

    def _run_core(self, n: int) -> Tuple[int, str]:
        """Run the loop this CPU was built for: plain, full or demand."""
        if self.dift is None:
            return self._run_plain(n)
        if self.liveness is None:
            return self._run_dift(n)
        return self._run_demand(n)

    def _run_demand(self, n: int) -> Tuple[int, str]:
        """Demand-driven DIFT: fast-step while the machine is clean.

        While every register, CSR and RAM byte tag is lattice bottom, the
        full propagation is the identity (immediates produce bottom,
        ``lub(bottom, bottom) == bottom``, and every flow check from
        bottom passes), so the plain loop computes the exact same
        architectural *and* tag state — without touching a single tag.
        The fast loop watches the only entry point for new taint inside
        a quantum (MMIO) and returns :data:`RETAINT` to fall back to the
        full loop; between quanta the platform's memory taint listener
        marks DMA/host taint, and :class:`TaintLiveness` reclaims the
        clean state once taint dies out again.
        """
        live = self.liveness
        assert live is not None
        executed = 0
        reason = QUANTUM
        while executed < n:
            if live.clean:
                stepped, reason = self._run_plain(n - executed)
                live.fast_steps += stepped
                executed += stepped
                if reason == RETAINT:
                    reason = QUANTUM
                    continue
            else:
                stepped, reason = self._run_dift(n - executed)
                live.slow_steps += stepped
                executed += stepped
                live.maybe_reclaim(self)
            if reason != QUANTUM or executed >= n:
                break
        return executed, reason

    # ---- the instruction-level profile (only with obs attached) ---------- #

    def _run_counted(self, n: int) -> Tuple[int, str]:
        """Single-step a quantum, attributing retirements to opcode groups.

        This is the ``level="instruction"`` profile: several-fold slower
        than the flat loops, so it is only reachable when explicitly
        requested.  Interrupt entries are left unattributed (the
        pre-fetched opcode would misattribute the handler's first
        instruction).
        """
        groups = self._m_groups
        group_of = self._group_of_op
        assert groups is not None and group_of is not None
        cache = self._decode_cache
        decode = D.decode
        run1 = self._run_core
        executed = 0
        reason = QUANTUM
        while executed < n:
            op = None
            pc = self.pc
            if not self._take_irq and \
                    self.ram_base <= pc <= self.ram_end - 4 and not pc & 3:
                word = self.ram32[(pc - self.ram_base) >> 2]
                d = cache.get(word)
                if d is None:
                    d = decode(word)
                    cache[word] = d
                    self.decode_misses += 1
                op = d[0]
            stepped, reason = run1(1)
            executed += stepped
            if stepped and op is not None:
                groups[group_of[op]].inc()
            if reason != QUANTUM or not stepped:
                break
        return executed, reason

    # ---- trace-dispatch wrappers ----------------------------------------- #
    #
    # _run_plain/_run_dift route through the trace compiler when it
    # serves their loop: the plain loop runs only where it does (the VP,
    # demand mode's clean path), the DIFT loop only in full mode
    # (JitEngine.dift), since demand mode's DIFT loop keeps its liveness
    # bookkeeping in the interpreter.  The dispatcher calls _interp_*
    # directly and interleaves compiled superblocks.

    def _run_plain(self, n: int) -> Tuple[int, str]:
        jit = self._jit
        if jit is not None:
            return jit.run_plain(n)
        return self._interp_plain(n)

    def _run_dift(self, n: int) -> Tuple[int, str]:
        jit = self._jit
        if jit is not None and jit.dift:
            return jit.run_dift(n)
        return self._interp_dift(n)

    # ---- the interpreter template ---------------------------------------- #
    #
    # specialize() compiles this into _interp_plain (_DIFT = False) and
    # _interp_dift (_DIFT = True).  Keep every flag test bare -- `if
    # _DIFT:`, `if not _DIFT:`, `else:` -- so the compiler drops the dead
    # branch: 3.9 keeps `if _DIFT and x:` as a run-time test.  A change to
    # what an opcode computes, or to a tag rule, is an edit to the tables
    # in vp/decode.py.

    def _interp(self, n: int) -> Tuple[int, str]:
        regs = self.regs
        ram = self.ram
        ram32 = self.ram32
        ram_base = self.ram_base
        ram_end = self.ram_end
        cache = self._decode_cache
        decode = D.decode
        csr = self.csr
        bottom = self._bottom
        pc = self.pc
        executed = 0
        reason = QUANTUM
        frombytes = int.from_bytes
        # demand mode only (None otherwise): the plain loop watches MMIO
        # for taint entering a clean machine, the DIFT loop records which
        # RAM pages receive non-bottom tags so reclaiming the clean state
        # scans dirty pages, not all of RAM
        live = self.liveness
        if _DIFT:
            dift = self.dift
            assert dift is not None
            tags = self.tags
            mtags = self.ram_tags
            tags32 = self.tags32
            assert mtags is not None
            lub = dift.lub
            flow = dift.flow
            zero_is_bottom = bottom == 0
            fetch_req = dift.fetch_req
            branch_req = dift.branch_req
            memaddr_req = dift.memaddr_req
            # event-stream recording (None on un-recorded runs)
            emitq = self._emitq
            rcode = self._emitcode
            dirty = live.dirty_pages if live is not None else None
        # trace compiler hooks: code-line stores invalidate superblocks,
        # taken backward branches feed the hotness profiler and yield to
        # the dispatcher when they land on a compiled block entry.  SMC
        # invalidation is armed whenever a JIT is attached (demand-dirty
        # stores must invalidate the clean path's plain blocks too); only
        # the loop the JIT serves profiles.  ``jit.dift is _DIFT`` is a
        # run-time test made once per call, not a flag test to fold.
        jit = self._jit
        jcl = jit.code_lines if jit is not None else None
        # the JIT's MMIO profile: compiled code makes each access it
        # records as an inline transport call
        jmmio = jit.mmio if jit is not None else None
        jhot = jready = jblocks = None
        jthreshold = 0
        if jit is not None and jit.dift is _DIFT:
            jhot = jit.hot
            jready = jit.ready
            jthreshold = jit.threshold
            jblocks = jit.blocks

        while executed < n:
            if self._take_irq:
                self.pc = pc
                if _DIFT:
                    if not self._take_interrupt():
                        reason = SECURITY
                        break
                else:
                    self._take_interrupt()
                pc = self.pc

            if pc < ram_base or pc + 4 > ram_end or pc & 3:
                self.pc = pc
                cause = (CSR.CAUSE_INSTR_MISALIGNED if pc & 3
                         else CSR.CAUSE_INSTR_FAULT)
                stop = self._fault(cause, pc)
                if stop:
                    reason = stop
                    break
                pc = self.pc
                continue
            off = pc - ram_base
            word = ram32[off >> 2]

            if _DIFT:
                if rcode is not None and rcode[off >> 2] != word:
                    # code the monitor's image lacks (written since the
                    # load): the replay decodes this word from now on
                    rcode[off >> 2] = word
                    emitq.append((EV_CODE, pc, word))
                # --- fetch clearance (Section V-B2b) --- #
                if fetch_req is not None:
                    tw = tags32[off >> 2]
                    if tw or not zero_is_bottom:
                        itag = _WORD_TAG(tw, lub)
                        if not flow[itag][fetch_req] and self._refused(
                                "fetch", itag, fetch_req, pc):
                            reason = SECURITY
                            break

            d = cache.get(word)
            if d is None:
                d = decode(word)
                cache[word] = d
                self.decode_misses += 1
            op = d[0]
            executed += 1
            next_pc = pc + 4

            if op <= D.BGEU:  # control transfer group (ids 0..9)
                if op >= D.BEQ:
                    if _DIFT:
                        # --- branch-condition clearance (Section V-B2a) --- #
                        if branch_req is not None:
                            ctag = _CHECK_TAG(D.BEQ, D.BGEU, tags, d, lub)
                            if not flow[ctag][branch_req] and self._refused(
                                    "branch", ctag, branch_req, pc):
                                reason = SECURITY
                                break
                    a = regs[d[2]]
                    b = regs[d[3]]
                    taken = _TAKEN(D.BEQ, D.BGEU, op, a, b)
                    if taken:
                        next_pc = (pc + d[4]) & _MASK32
                        if _DIFT:
                            if emitq is not None:
                                emitq.append((EV_BRANCH, pc))
                        if jhot is not None and d[4] < 0:
                            # taken backward branch: canonical loop
                            # header — count it toward compilation
                            c = jhot.get(next_pc, 0)
                            if c >= 0:
                                c += 1
                                jhot[next_pc] = c
                                if c == jthreshold:
                                    jready.append(next_pc)
                            if next_pc in jblocks:
                                self.pc = next_pc
                                return executed, _BLOCKHIT
                elif op == D.JAL:
                    if d[1]:
                        regs[d[1]] = next_pc
                        if _DIFT:
                            tags[d[1]] = _RD_TAG(D.JAL, bottom)
                    next_pc = (pc + d[4]) & _MASK32
                    if _DIFT:
                        if emitq is not None:
                            emitq.append((EV_BRANCH, pc))
                    # backward jumps are loop closers; linking jumps are
                    # calls — both name stable, re-visited entry points
                    if jhot is not None and (d[4] < 0 or d[1]):
                        c = jhot.get(next_pc, 0)
                        if c >= 0:
                            c += 1
                            jhot[next_pc] = c
                            if c == jthreshold:
                                jready.append(next_pc)
                        if next_pc in jblocks:
                            self.pc = next_pc
                            return executed, _BLOCKHIT
                elif op == D.JALR:
                    if _DIFT:
                        # --- indirect-jump target clearance --- #
                        if branch_req is not None and not flow[
                                _CHECK_TAG(D.JALR, tags, d)][branch_req]:
                            if self._refused(
                                    "branch", _CHECK_TAG(D.JALR, tags, d),
                                    branch_req, pc):
                                reason = SECURITY
                                break
                    target = (regs[d[2]] + d[4]) & 0xFFFFFFFE
                    if _DIFT:
                        if emitq is not None:
                            emitq.append((EV_JUMP, pc, target))
                    if d[1]:
                        regs[d[1]] = next_pc
                        if _DIFT:
                            tags[d[1]] = _RD_TAG(D.JALR, bottom)
                    next_pc = target
                    if jhot is not None and d[1]:
                        # indirect call: the target (a function entry)
                        # is as stable as a direct call's
                        c = jhot.get(next_pc, 0)
                        if c >= 0:
                            c += 1
                            jhot[next_pc] = c
                            if c == jthreshold:
                                jready.append(next_pc)
                        if next_pc in jblocks:
                            self.pc = next_pc
                            return executed, _BLOCKHIT
                elif op == D.LUI:
                    if d[1]:
                        regs[d[1]] = d[4]
                        if _DIFT:
                            tags[d[1]] = _RD_TAG(D.LUI, bottom)
                else:  # AUIPC
                    if d[1]:
                        regs[d[1]] = (pc + d[4]) & _MASK32
                        if _DIFT:
                            tags[d[1]] = _RD_TAG(D.AUIPC, bottom)

            elif op <= D.LHU:  # loads
                addr = (regs[d[2]] + d[4]) & _MASK32
                size = 4 if op == D.LW else (2 if op in (D.LH, D.LHU) else 1)
                if _DIFT:
                    # --- memory-address clearance (Section V-B2c) --- #
                    if memaddr_req is not None and not flow[
                            _CHECK_TAG(D.LB, D.LHU, tags, d)][memaddr_req]:
                        if self._refused(
                                "mem-addr", _CHECK_TAG(D.LB, D.LHU, tags, d),
                                memaddr_req, pc):
                            reason = SECURITY
                            break
                if ram_base <= addr and addr + size <= ram_end:
                    if _DIFT:
                        if emitq is not None:
                            emitq.append((EV_LOAD, pc, addr))
                    o = addr - ram_base
                    if op == D.LW:
                        if o & 3:
                            value = frombytes(ram[o:o + 4], "little")
                            if _DIFT:
                                t = _LOAD_TAG(4, mtags, o, lub)
                        else:
                            value = ram32[o >> 2]
                            if _DIFT:
                                tw = tags32[o >> 2]
                                t = _WORD_TAG(tw, lub)
                    elif op == D.LBU:
                        value = ram[o]
                        if _DIFT:
                            t = _LOAD_TAG(1, mtags, o)
                    elif op == D.LB:
                        value = ram[o]
                        if value >= 0x80:
                            value += 0xFFFFFF00
                        if _DIFT:
                            t = _LOAD_TAG(1, mtags, o)
                    elif op == D.LHU:
                        value = ram[o] | (ram[o + 1] << 8)
                        if _DIFT:
                            t = _LOAD_TAG(2, mtags, o, lub)
                    else:  # LH
                        value = ram[o] | (ram[o + 1] << 8)
                        if value >= 0x8000:
                            value += 0xFFFF0000
                        if _DIFT:
                            t = _LOAD_TAG(2, mtags, o, lub)
                else:
                    self.pc = pc
                    try:
                        value, t = self._mmio_read(addr, size)
                        if op == D.LB and value >= 0x80:
                            value += 0xFFFFFF00
                        elif op == D.LH and value >= 0x8000:
                            value += 0xFFFF0000
                    except BusError:
                        stop = self._fault(CSR.CAUSE_LOAD_FAULT, addr)
                        if stop:
                            reason = stop
                            break
                        pc = self.pc
                        continue
                    if jmmio is not None:
                        jmmio[pc] = t != bottom or jmmio.get(pc, False)
                    if _DIFT:
                        if emitq is not None:
                            emitq.append((EV_MMIO_LOAD, pc, addr, t))
                    elif live is not None and t != bottom:
                        # demand mode: a tainted peripheral read retires
                        # with its tag, then the quantum continues on the
                        # DIFT loop
                        if d[1]:
                            regs[d[1]] = value & _MASK32
                            self.tags[d[1]] = t
                        live.taint_introduced()
                        self.pc = next_pc
                        return executed, RETAINT
                if d[1]:
                    regs[d[1]] = value & _MASK32
                    if _DIFT:
                        tags[d[1]] = t

            elif op <= D.SW:  # stores
                addr = (regs[d[2]] + d[4]) & _MASK32
                size = 4 if op == D.SW else (1 if op == D.SB else 2)
                if _DIFT:
                    if memaddr_req is not None and not flow[
                            _CHECK_TAG(D.SB, D.SW, tags, d)][memaddr_req]:
                        if self._refused(
                                "mem-addr", _CHECK_TAG(D.SB, D.SW, tags, d),
                                memaddr_req, pc):
                            reason = SECURITY
                            break
                    t = _STORE_TAG(tags, d)
                value = regs[d[3]]
                if ram_base <= addr and addr + size <= ram_end:
                    if _DIFT:
                        if emitq is not None:
                            emitq.append((EV_STORE, pc, addr))
                    o = addr - ram_base
                    if op == D.SW:
                        if o & 3:
                            ram[o:o + 4] = value.to_bytes(4, "little")
                            if _DIFT:
                                mtags[o] = t
                                mtags[o + 1] = t
                                mtags[o + 2] = t
                                mtags[o + 3] = t
                        else:
                            ram32[o >> 2] = value
                            if _DIFT:
                                tags32[o >> 2] = _STORE_WORD(t)
                    elif op == D.SB:
                        ram[o] = value & 0xFF
                        if _DIFT:
                            mtags[o] = t
                    else:
                        ram[o] = value & 0xFF
                        ram[o + 1] = (value >> 8) & 0xFF
                        if _DIFT:
                            mtags[o] = t
                            mtags[o + 1] = t
                    if _DIFT:
                        if dirty is not None and t != bottom:
                            dirty.add(o >> 12)
                            dirty.add((o + size - 1) >> 12)
                    if jcl and (o >> 4 in jcl
                                or (o + size - 1) >> 4 in jcl):
                        jit.invalidate_write(o, size)
                else:
                    self.pc = pc
                    if _DIFT:
                        if emitq is not None:
                            # emitted before the transaction so recorded
                            # sink checks (fired inside it) follow their
                            # cause
                            emitq.append((EV_MMIO_STORE, pc, addr))
                    else:
                        t = bottom
                    try:
                        self._mmio_write(addr, size, value, t)
                    except BusError:
                        stop = self._fault(CSR.CAUSE_STORE_FAULT, addr)
                        if stop:
                            reason = stop
                            break
                        pc = self.pc
                        continue
                    if jmmio is not None:
                        jmmio[pc] = False
                    if not _DIFT:
                        if live is not None and not live.clean:
                            # demand mode: the write had a synchronous
                            # taint side effect (e.g. peripheral DMA
                            # into RAM)
                            self.pc = next_pc
                            return executed, RETAINT

            elif op <= D.ANDI:  # immediate ALU
                a = regs[d[2]]
                i = d[4]
                value = _VALUE(D.ADDI, D.ANDI, op, a, i)
                if d[1]:
                    regs[d[1]] = value
                    if _DIFT:
                        tags[d[1]] = _RD_TAG(D.ADDI, D.ANDI, tags, d)

            elif op <= D.SRAI:  # immediate shifts
                a = regs[d[2]]
                i = d[4]
                value = _VALUE(D.SLLI, D.SRAI, op, a, i)
                if d[1]:
                    regs[d[1]] = value
                    if _DIFT:
                        tags[d[1]] = _RD_TAG(D.SLLI, D.SRAI, tags, d)

            elif op <= D.AND:  # register ALU
                a = regs[d[2]]
                b = regs[d[3]]
                value = _VALUE(D.ADD, D.AND, op, a, b)
                if d[1]:
                    regs[d[1]] = value
                    if _DIFT:
                        tags[d[1]] = _RD_TAG(D.ADD, D.AND, tags, d, lub)

            elif op <= D.REMU:  # M extension
                value = _muldiv(op, regs[d[2]], regs[d[3]])
                if d[1]:
                    regs[d[1]] = value
                    if _DIFT:
                        tags[d[1]] = _RD_TAG(D.MUL, D.REMU, tags, d, lub)

            elif op == D.FENCE:
                pass

            elif op == D.ECALL:
                self.pc = next_pc
                outcome = self.ecall_handler(self) if self.ecall_handler \
                    else None
                if outcome == "halt":
                    self.halted = True
                    return executed, HALT
                if outcome is None:
                    self.pc = pc
                    stop = self._fault(CSR.CAUSE_ECALL_M, 0)
                    if stop:
                        reason = stop
                        break
                pc = self.pc
                continue

            elif op == D.EBREAK:
                self.pc = pc
                if _DIFT:
                    if emitq is not None:
                        emitq.append((EV_FAULT, pc, CSR.CAUSE_BREAKPOINT))
                self.halted = True
                return executed, EBREAK

            elif op == D.MRET:
                if _DIFT:
                    # --- return-address clearance: mepc is a jump target --- #
                    if branch_req is not None:
                        epc_tag = _CHECK_TAG(D.MRET, csr)
                        if not flow[epc_tag][branch_req] and self._refused(
                                "branch", epc_tag, branch_req, pc):
                            reason = SECURITY
                            break
                mstatus = csr[CSR.MSTATUS]
                mie = CSR.MSTATUS_MIE if mstatus & CSR.MSTATUS_MPIE else 0
                csr[CSR.MSTATUS] = mie | CSR.MSTATUS_MPIE
                self._update_irq()
                next_pc = csr[CSR.MEPC]
                if _DIFT:
                    if emitq is not None:
                        emitq.append((EV_JUMP, pc, next_pc))

            elif op == D.WFI:
                self.pc = next_pc
                if self.csr[CSR.MIP] & self.csr[CSR.MIE]:
                    # pending but globally disabled: end the quantum so
                    # the kernel can advance time.  _IRQWAIT (not
                    # QUANTUM) so the loops above know the budget was
                    # not exhausted; Cpu.run translates it back.
                    return executed, _IRQWAIT
                return executed, WFI

            elif op <= D.CSRRCI:  # CSR group
                stop = self._exec_csr(d, next_pc)
                if stop:
                    reason = stop
                    break
                pc = self.pc
                continue

            else:  # ILLEGAL
                self.pc = pc
                stop = self._fault(CSR.CAUSE_ILLEGAL, d[4])
                if stop:
                    reason = stop
                    break
                pc = self.pc
                continue

            pc = next_pc

        self.pc = pc
        return executed, reason

    # ---- CSR instructions (shared; cold path) ------------------------------ #

    def _exec_csr(self, d: D.Decoded, next_pc: int) -> Optional[str]:
        """Execute a Zicsr instruction.  Returns a stop reason or None."""
        op, rd, rs1, __, csr_addr = d
        csr = self.csr
        if not csr.known(csr_addr):
            self.pc = next_pc - 4
            return self._fault(CSR.CAUSE_ILLEGAL, 0)

        old = csr.read(csr_addr)
        src = self.regs[rs1] if op <= D.CSRRC else rs1  # zimm
        write = True
        if op in (D.CSRRW, D.CSRRWI):
            new = src
        elif op in (D.CSRRS, D.CSRRSI):
            new = old | src
            write = rs1 != 0
        else:  # CSRRC / CSRRCI
            new = old & ~src
            write = rs1 != 0

        if write:
            if not csr.write(csr_addr, new):
                self.pc = next_pc - 4
                return self._fault(CSR.CAUSE_ILLEGAL, 0)
            if csr_addr in (CSR.MSTATUS, CSR.MIE, CSR.MIP):
                self._update_irq()
        if self.dift is not None:
            csr.retire_tags(d, self.tags, self.dift.lub)
        if rd:
            self.regs[rd] = old
        self.pc = next_pc
        return None

    def __repr__(self) -> str:
        return (f"Cpu({self.name!r}, pc={self.pc:#010x}, "
                f"instret={self.csr.instret}, "
                f"mode={'VP+' if self.dift else 'VP'})")


def _muldiv(op: int, a: int, b: int) -> int:
    """RV32M semantics on unsigned 32-bit register values."""
    if op == D.MUL:
        return (a * b) & _MASK32
    sa = a - 0x100000000 if a >= 0x80000000 else a
    sb = b - 0x100000000 if b >= 0x80000000 else b
    if op == D.MULH:
        return ((sa * sb) >> 32) & _MASK32
    if op == D.MULHSU:
        return ((sa * b) >> 32) & _MASK32
    if op == D.MULHU:
        return ((a * b) >> 32) & _MASK32
    if op == D.DIV:
        if b == 0:
            return _MASK32
        if sa == -0x80000000 and sb == -1:
            return 0x80000000
        q = abs(sa) // abs(sb)
        return (q if (sa < 0) == (sb < 0) else -q) & _MASK32
    if op == D.DIVU:
        return _MASK32 if b == 0 else a // b
    if op == D.REM:
        if b == 0:
            return a
        if sa == -0x80000000 and sb == -1:
            return 0
        r = abs(sa) % abs(sb)
        return (r if sa >= 0 else -r) & _MASK32
    # REMU
    return a if b == 0 else a % b


D.specialize(Cpu, "_interp", {"_interp_plain": False, "_interp_dift": True})
D.specialize(Cpu, "_trap")
