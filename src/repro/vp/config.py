"""Platform construction configuration.

:class:`PlatformConfig` is the single value object describing how a
:class:`~repro.vp.platform.Platform` is built.  It consolidates the ten
keyword arguments ``Platform.__init__`` accumulated over time, gives them
one serialization (:meth:`to_json` / :meth:`from_json`), and is what gets
embedded in ``repro.snapshot/1`` headers and campaign job records — so a
snapshot or a job log always carries enough information to rebuild an
identically-configured platform.

The config is frozen: a platform's construction parameters never change
after the fact, and snapshot headers must not be mutable by accident.
Use :func:`dataclasses.replace` to derive variants (e.g. swapping the
``obs`` sink when restoring a snapshot under a fresh metrics registry).

``obs`` is deliberately excluded from serialization — an
:class:`~repro.obs.Observability` is a host-side measurement sink, not a
simulation parameter; two runs with different ``obs`` wirings are the
same simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from repro.dift.engine import RAISE
from repro.policy.policy import SecurityPolicy
from repro.policy.serialize import policy_from_dict, policy_to_dict
from repro.sysc.time import SimTime

#: Defaults mirrored from the historical ``Platform.__init__`` signature.
DEFAULT_RAM_SIZE = 4 * 1024 * 1024
#: Largest ``ram_size``: RAM starts at address 0 and must end at or below
#: the CLINT at ``0x0200_0000``.
MAX_RAM_SIZE = 0x0200_0000
DEFAULT_QUANTUM = 8192
DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class PlatformConfig:
    """Frozen construction parameters for one :class:`Platform`.

    Field order matches the historical keyword order of
    ``Platform.__init__`` so positional migration stays mechanical.
    """

    policy: Optional[SecurityPolicy] = None
    engine_mode: str = RAISE
    ram_size: int = DEFAULT_RAM_SIZE
    quantum: int = DEFAULT_QUANTUM
    clock_period: SimTime = field(default_factory=lambda: SimTime.ns(10))
    sensor_period: SimTime = field(default_factory=lambda: SimTime.ms(25))
    aes_declassify_to: Optional[str] = None
    seed: int = DEFAULT_SEED
    obs: object = None
    dift_mode: str = "full"
    #: Trace compiler: ``False`` off, ``True`` on with the default
    #: hotness threshold, or an ``int`` to set the threshold directly.
    #: Excluded from serialization like ``obs``: compiled and
    #: interpreted runs are the same simulated machine (the differential
    #: suite holds them to identical snapshots), so jit-ness is a
    #: host-side execution strategy, not a simulation parameter.
    jit: object = False
    #: Event-stream recording: a path the platform writes the
    #: ``repro.dift.events/2`` stream to, or ``None``.  Excluded from
    #: serialization like ``obs``/``jit`` — a recorded and an unrecorded
    #: run are the same simulated machine (and the stream header itself
    #: must not embed the output path it is being written to).
    record_events: Optional[str] = None

    # ------------------------------------------------------------------ #
    # serialization (shared by snapshot headers and campaign records)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Plain-dict form: policy via ``repro.policy.serialize``, times
        as picosecond integers, ``obs`` omitted (host-side only)."""
        return {
            "policy": (policy_to_dict(self.policy)
                       if self.policy is not None else None),
            "engine_mode": self.engine_mode,
            "ram_size": self.ram_size,
            "quantum": self.quantum,
            "clock_period_ps": self.clock_period.ps,
            "sensor_period_ps": self.sensor_period.ps,
            "aes_declassify_to": self.aes_declassify_to,
            "seed": self.seed,
            "dift_mode": self.dift_mode,
        }

    @classmethod
    def from_json(cls, data: dict, obs=None, jit=False,
                  record_events=None) -> "PlatformConfig":
        """Inverse of :meth:`to_json`; ``obs``, ``jit`` and
        ``record_events`` are re-attached by the caller since they never
        travel through JSON."""
        policy_data = data.get("policy")
        return cls(
            policy=(policy_from_dict(policy_data)
                    if policy_data is not None else None),
            engine_mode=data["engine_mode"],
            ram_size=data["ram_size"],
            quantum=data["quantum"],
            clock_period=SimTime(data["clock_period_ps"]),
            sensor_period=SimTime(data["sensor_period_ps"]),
            aes_declassify_to=data.get("aes_declassify_to"),
            seed=data["seed"],
            obs=obs,
            dift_mode=data["dift_mode"],
            jit=jit,
            record_events=record_events,
        )

    def __repr__(self) -> str:
        parts = []
        for f in fields(self):
            if f.name in ("policy", "obs"):
                value = getattr(self, f.name)
                parts.append(f"{f.name}={'set' if value is not None else None}")
            else:
                parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return f"PlatformConfig({', '.join(parts)})"
