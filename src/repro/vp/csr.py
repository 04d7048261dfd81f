"""Machine-mode CSR file (the subset the VP's guests need).

Implements ``mstatus``/``mie``/``mip``/``mtvec``/``mepc``/``mcause``/
``mtval``/``mscratch`` plus the counters.  On the DIFT platform every CSR
also carries a security tag so data written to a CSR keeps its class — the
paper's execution-clearance check on the "interrupt/trap handler address"
(Section V-B2a) reads the ``mtvec`` tag.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.vp import decode as D

# CSR addresses
MSTATUS = 0x300
MISA = 0x301
MIE = 0x304
MTVEC = 0x305
MSCRATCH = 0x340
MEPC = 0x341
MCAUSE = 0x342
MTVAL = 0x343
MIP = 0x344
MCYCLE = 0xB00
MINSTRET = 0xB02
MHARTID = 0xF14
CYCLE = 0xC00
TIME = 0xC01
INSTRET = 0xC02

# mstatus bits
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7

# interrupt bits (mie / mip)
MIP_MSIP = 1 << 3
MIP_MTIP = 1 << 7
MIP_MEIP = 1 << 11

# mcause values
CAUSE_INSTR_MISALIGNED = 0
CAUSE_INSTR_FAULT = 1
CAUSE_ILLEGAL = 2
CAUSE_BREAKPOINT = 3
CAUSE_LOAD_FAULT = 5
CAUSE_STORE_FAULT = 7
CAUSE_ECALL_M = 11
IRQ_M_SOFT = 3
IRQ_M_TIMER = 7
IRQ_M_EXT = 11
INTERRUPT_BIT = 1 << 31

#: RV32IM with machine mode: misa MXL=1 (RV32), I + M bits
_MISA_VALUE = (1 << 30) | (1 << 8) | (1 << 12)


class CsrFile:
    """CSR storage + tag shadow for one hart."""

    def __init__(self, bottom_tag: int = 0,
                 time_fn: Optional[Callable[[], int]] = None):
        self._values: Dict[int, int] = {
            MSTATUS: 0,
            MISA: _MISA_VALUE,
            MIE: 0,
            MTVEC: 0,
            MSCRATCH: 0,
            MEPC: 0,
            MCAUSE: 0,
            MTVAL: 0,
            MIP: 0,
            MHARTID: 0,
        }
        self._tags: Dict[int, int] = {}
        self._bottom = bottom_tag
        self._time_fn = time_fn
        # counters are fed by the CPU
        self.instret = 0
        self.cycle = 0

    # ------------------------------------------------------------------ #
    # raw access used by trap logic
    # ------------------------------------------------------------------ #

    def __getitem__(self, csr: int) -> int:
        return self._values.get(csr, 0)

    def __setitem__(self, csr: int, value: int) -> None:
        self._values[csr] = value & 0xFFFFFFFF

    def tag(self, csr: int) -> int:
        return self._tags.get(csr, self._bottom)

    def set_tag(self, csr: int, tag: int) -> None:
        self._tags[csr] = tag

    def tag_values(self):
        """All explicitly written CSR tags (unwritten CSRs are bottom)."""
        return self._tags.values()

    # ------------------------------------------------------------------ #
    # instruction-level access (csrrw family)
    # ------------------------------------------------------------------ #

    def read(self, csr: int) -> int:
        """Read with counter / time special cases."""
        if csr in (MCYCLE, CYCLE):
            return self.cycle & 0xFFFFFFFF
        if csr in (MINSTRET, INSTRET):
            return self.instret & 0xFFFFFFFF
        if csr == TIME:
            return (self._time_fn() if self._time_fn else 0) & 0xFFFFFFFF
        return self._values.get(csr, 0)

    @staticmethod
    def writable(csr: int) -> bool:
        """False for the read-only CSRs: the user counters (``0xC00`` and
        up), ``mhartid`` and ``misa``; writing one is an illegal write."""
        return csr < 0xC00 and csr != MHARTID and csr != MISA

    def write(self, csr: int, value: int) -> bool:
        """Write a CSR; returns False for read-only CSRs (illegal write)."""
        if not self.writable(csr):
            return False
        value &= 0xFFFFFFFF
        if csr == MSTATUS:
            # WARL: only MIE and MPIE are implemented
            value &= MSTATUS_MIE | MSTATUS_MPIE
        elif csr in (MIE, MIP):
            value &= MIP_MSIP | MIP_MTIP | MIP_MEIP
        elif csr == MTVEC:
            value &= 0xFFFFFFFC  # direct mode only
        self._values[csr] = value
        return True

    def known(self, csr: int) -> bool:
        return csr in self._values or csr in (
            MCYCLE, MINSTRET, CYCLE, TIME, INSTRET)

    def retire_tags(self, d: tuple, tags: list, lub) -> None:
        """The tag rule of the decoded Zicsr instruction ``d``, for the ISS
        and the offline monitor: the CSR takes the source tag (bottom for
        an immediate) or, for set and clear, its LUB with the CSR's own;
        rd takes the CSR's old tag.  A faulting instruction has none."""
        op, rd, rs1, __, csr = d
        if not self.known(csr):
            return
        old = self.tag(csr)
        if op in (D.CSRRW, D.CSRRWI) or rs1:
            if not self.writable(csr):
                return
            src = tags[rs1] if op <= D.CSRRC else self._bottom
            self.set_tag(csr, src if op in (D.CSRRW, D.CSRRWI)
                         else lub[old][src])
        if rd:
            tags[rd] = old

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "values": {str(csr): value
                       for csr, value in self._values.items()},
            "tags": {str(csr): tag for csr, tag in self._tags.items()},
            "instret": self.instret,
            "cycle": self.cycle,
        }

    def load_state_dict(self, state: dict) -> None:
        self._values = {int(csr): value
                        for csr, value in state["values"].items()}
        self._tags = {int(csr): tag for csr, tag in state["tags"].items()}
        self.instret = state["instret"]
        self.cycle = state["cycle"]
