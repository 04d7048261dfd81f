"""Simulation time, modelled after SystemC's ``sc_time``.

Time is kept as an integer number of picoseconds, which gives exact
arithmetic across the unit range the VP uses (ns-scale CPU cycles up to
ms-scale peripheral periods).
"""

from __future__ import annotations

from typing import Union

# Unit multipliers to picoseconds (SystemC's SC_PS ... SC_SEC).
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000


class SimTime:
    """An absolute or relative simulation time (integer picoseconds)."""

    __slots__ = ("ps",)

    def __init__(self, amount: Union[int, float] = 0, unit: int = PS):
        self.ps = int(round(amount * unit))
        if self.ps < 0:
            raise ValueError("negative simulation time")

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def ns(cls, amount: Union[int, float]) -> "SimTime":
        return cls(amount, NS)

    @classmethod
    def us(cls, amount: Union[int, float]) -> "SimTime":
        return cls(amount, US)

    @classmethod
    def ms(cls, amount: Union[int, float]) -> "SimTime":
        return cls(amount, MS)

    @classmethod
    def sec(cls, amount: Union[int, float]) -> "SimTime":
        return cls(amount, SEC)

    @classmethod
    def zero(cls) -> "SimTime":
        return cls(0)

    # -- conversions ------------------------------------------------------ #

    def to_ns(self) -> float:
        return self.ps / NS

    def to_us(self) -> float:
        return self.ps / US

    def to_ms(self) -> float:
        return self.ps / MS

    def to_seconds(self) -> float:
        return self.ps / SEC

    # -- arithmetic -------------------------------------------------------- #

    def __add__(self, other: "SimTime") -> "SimTime":
        # the hot delay-annotation path (two adds per TLM transaction):
        # a sum of two non-negative ints needs no rounding or validation
        result = _new(SimTime)
        result.ps = self.ps + other.ps
        return result

    def __sub__(self, other: "SimTime") -> "SimTime":
        return SimTime(self.ps - other.ps)

    def __mul__(self, factor: int) -> "SimTime":
        return SimTime(self.ps * factor)

    __rmul__ = __mul__

    # -- comparisons -------------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self.ps == other.ps

    def __lt__(self, other: "SimTime") -> bool:
        return self.ps < other.ps

    def __le__(self, other: "SimTime") -> bool:
        return self.ps <= other.ps

    def __gt__(self, other: "SimTime") -> bool:
        return self.ps > other.ps

    def __ge__(self, other: "SimTime") -> bool:
        return self.ps >= other.ps

    def __hash__(self) -> int:
        return hash(self.ps)

    def __bool__(self) -> bool:
        return self.ps != 0

    def __repr__(self) -> str:
        if self.ps == 0:
            return "SimTime(0)"
        for unit, suffix in ((SEC, "s"), (MS, "ms"), (US, "us"), (NS, "ns")):
            if self.ps % unit == 0:
                return f"SimTime({self.ps // unit} {suffix})"
        return f"SimTime({self.ps} ps)"


_new = object.__new__

#: the zero delay every initiator starts a transaction with; shared,
#: because nothing assigns ``SimTime.ps`` after construction
ZERO_TIME = SimTime(0)
