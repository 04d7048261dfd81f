"""The DIFT engine: tag propagation and clearance checking (paper Section V).

The engine binds a :class:`~repro.policy.policy.SecurityPolicy` to run-time
machinery.  It exposes:

* the precomputed ``lub`` / ``allowed_flow`` tables of the IFP, for O(1)
  lookups in the ISS hot loop (paper Fig. 2, bottom-right boxes);
* clearance checks that either raise :class:`SecurityViolation` subclasses
  (the paper's behaviour: "triggering a runtime error upon violation") or —
  in *record* mode, used by the attack test-suites — log the violation and
  signal the caller to stop;
* the declassification capability check (only trusted HW components may
  re-tag data, Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import (
    ClearanceException,
    DeclassificationError,
    ExecutionClearanceError,
)
from repro.policy.lattice import Tag
from repro.policy.policy import SecurityPolicy

#: Engine modes: ``"raise"`` throws on violation; ``"record"`` logs and
#: returns ``False`` from checks so a harness can observe detections.
RAISE = "raise"
RECORD = "record"

#: Tags are stored one per byte (the paper's ``typedef uint8_t Tag``), so
#: a lattice may have at most ``MAX_TAG + 1`` = 256 classes.
MAX_TAG = 255


@dataclass(frozen=True)
class ViolationRecord:
    """One detected security-policy violation."""

    kind: str          # "clearance" or "execution"
    tag: str           # flowing security class (by name)
    required: str      # clearance class (by name)
    unit: str          # sink name or execution unit
    pc: int            # guest PC if known, else -1
    context: str       # free-form detail

    def __str__(self) -> str:
        where = f" pc={self.pc:#010x}" if self.pc >= 0 else ""
        return (
            f"[{self.kind}] flow {self.tag} -> {self.required} denied "
            f"at {self.unit}{where}"
            + (f" ({self.context})" if self.context else "")
        )


class DiftEngine:
    """Run-time tag propagation + policy checking for one platform.

    Parameters
    ----------
    policy:
        The security policy to enforce.
    mode:
        ``"raise"`` (default) or ``"record"``; see module docstring.

    Raises ``ValueError`` if the policy's lattice has more classes than a
    byte tag can name.
    """

    def __init__(self, policy: SecurityPolicy, mode: str = RAISE):
        if mode not in (RAISE, RECORD):
            raise ValueError(f"unknown engine mode {mode!r}")
        n_classes = len(policy.lattice)
        if n_classes > MAX_TAG + 1:
            raise ValueError(
                f"lattice has {n_classes} security classes; a byte tag "
                f"holds at most {MAX_TAG + 1}")
        self.policy = policy
        self.mode = mode
        self.lattice = policy.lattice
        #: ``lub[a][b]`` — tag of LUB(a, b).  Exposed raw for the hot loop.
        self.lub = self.lattice.lub_table
        #: ``flow[a][b]`` — True iff flow a -> b allowed.  Raw for hot loop.
        self.flow = self.lattice.flow_table
        self.default_tag: Tag = policy.default_tag()
        self.bottom_tag: Tag = self.lattice.tag_of(self.lattice.bottom)
        self.violations: List[ViolationRecord] = []
        #: number of clearance checks performed (all kinds)
        self.checks_performed = 0
        # lub_bytes memo: byte-tag sequence -> folded LUB.  Payload tag
        # patterns are few (mostly uniform), so the table stays tiny; the
        # size bound guards against adversarial tag churn.
        self._lub_bytes_memo: dict = {}
        # lub_translation memo: uniform tag -> 256-entry translate table
        # (bounded by the lattice size, so no cap needed)
        self._lub_translation_memo: dict = {}
        # observability; None keeps the checks free of metric lookups
        self._metrics = None
        self._tracer = None
        self._m_lub = None
        # event-stream recording hook (see repro.dift.monitor); None keeps
        # check_flow free of an extra call on un-recorded runs
        self._check_recorder = None

    def set_check_recorder(self, fn) -> None:
        """Install a hook called on every :meth:`check_flow` entry.

        ``fn(tag, required, unit, context, pc)`` fires *before* the flow
        test — sink checks are recorded whether they pass or fail, so an
        offline replay re-performs the same checks the live run did.
        """
        self._check_recorder = fn

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` sink.

        The ISS hot loop indexes ``lub``/``flow`` raw and is *not*
        counted here; only the engine's own entry points (MMIO tag
        merges, clearance checks, violations) record metrics — all of
        them off the per-instruction path.
        """
        self._metrics = obs.metrics
        self._tracer = obs.tracer
        self._m_lub = obs.metrics.counter("engine.lub_calls")

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #

    def lub2(self, a: Tag, b: Tag) -> Tag:
        """LUB of two tags (bounds-checked; hot paths index ``.lub`` raw)."""
        if self._m_lub is not None:
            self._m_lub.inc()
        return self.lattice.lub_tag(a, b)

    def lub_bytes(self, tags) -> Tag:
        """LUB across an iterable of byte tags (paper ``from_bytes``).

        Memoized on the tag pattern: LUB is associative and commutative
        with a precomputed dense table, so the fold for a given byte
        sequence is a pure function — peripherals replay a handful of
        patterns (uniform source tags, mostly), making the cache hit
        rate near 100% on the TLM path.
        """
        if self._m_lub is not None:
            self._m_lub.inc()
        key = bytes(tags)
        memo = self._lub_bytes_memo
        acc = memo.get(key)
        if acc is None:
            lub = self.lub
            acc = self.bottom_tag
            for t in key:
                acc = lub[acc][t]
            if len(memo) < 4096:
                memo[key] = acc
        return acc

    def lub_translation(self, value: Tag) -> bytes:
        """256-entry ``x -> lub(x, value)`` table for bulk tag merges.

        A uniform source tag (the common DMA/TLM payload) turns a
        per-byte LUB fold over a destination span into one C-speed
        ``bytes.translate`` — this is the table that makes it possible.
        Entries past the lattice's last class map to themselves: no
        shadow holds them, since every stored tag is a class index and
        the constructor bounds the class count by ``MAX_TAG + 1``.
        Memoized per tag; the memo is derived state and never
        serialized.
        """
        table = self._lub_translation_memo.get(value)
        if table is None:
            lub = self.lub
            n = len(lub)
            table = bytes(lub[x][value] if x < n else x
                          for x in range(256))
            self._lub_translation_memo[value] = table
        return table

    # ------------------------------------------------------------------ #
    # checking
    # ------------------------------------------------------------------ #

    def check_flow(
        self, tag: Tag, required: Tag, unit: str, context: str = "", pc: int = -1
    ) -> bool:
        """Generic clearance check: may ``tag`` flow to ``required``?

        Returns ``True`` if allowed.  On violation: raises
        :class:`ClearanceException` in raise mode, or records and returns
        ``False`` in record mode.
        """
        self.checks_performed += 1
        if self._check_recorder is not None:
            self._check_recorder(tag, required, unit, context, pc)
        if self.flow[tag][required]:
            return True
        self._violation("clearance", tag, required, unit, pc, context)
        return False

    def check_sink(self, sink: str, tag: Tag, context: str = "", pc: int = -1) -> bool:
        """Check output clearance for a named sink (e.g. ``"uart0.tx"``)."""
        return self.check_flow(tag, self.policy.sink_tag(sink), sink, context, pc)

    def check_execution(
        self, unit: str, tag: Tag, required: Tag, pc: int = -1
    ) -> bool:
        """Execution-clearance check for ``fetch``/``branch``/``mem-addr``."""
        self.checks_performed += 1
        if self.flow[tag][required]:
            return True
        self._violation("execution", tag, required, unit, pc, "")
        return False

    def _violation(
        self, kind: str, tag: Tag, required: Tag, unit: str, pc: int, context: str
    ) -> None:
        record = ViolationRecord(
            kind=kind,
            tag=self.lattice.name_of(tag),
            required=self.lattice.name_of(required),
            unit=unit,
            pc=pc,
            context=context,
        )
        self.violations.append(record)
        if self._metrics is not None:
            self._metrics.counter(f"engine.violations.{kind}").inc()
        if self._tracer is not None:
            self._tracer.instant(
                "violation", "dift",
                args={"kind": kind, "tag": record.tag,
                      "required": record.required, "unit": unit, "pc": pc})
        if self.mode == RAISE:
            if kind == "execution":
                raise ExecutionClearanceError(tag, required, unit, pc)
            raise ClearanceException(tag, required, f"{unit} {context}".strip())

    # ------------------------------------------------------------------ #
    # declassification
    # ------------------------------------------------------------------ #

    def declassify(self, component: str, to_class: str) -> Tag:
        """Return the tag ``component`` may re-tag data to.

        Raises :class:`DeclassificationError` if the policy does not grant
        ``component`` that privilege (threat model: only trusted HW).
        """
        if not self.policy.may_declassify(component, to_class):
            raise DeclassificationError(
                f"component {component!r} may not declassify to {to_class!r}"
            )
        return self.lattice.tag_of(to_class)

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Violation log + check counter.  The ``lub_bytes`` memo is a
        pure cache (``lub_calls`` counts per call, not per miss), so it
        is deliberately not persisted."""
        return {
            "checks_performed": self.checks_performed,
            "violations": [
                {"kind": v.kind, "tag": v.tag, "required": v.required,
                 "unit": v.unit, "pc": v.pc, "context": v.context}
                for v in self.violations
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.checks_performed = state["checks_performed"]
        self.violations = [ViolationRecord(**v)
                           for v in state["violations"]]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def last_violation(self) -> Optional[ViolationRecord]:
        return self.violations[-1] if self.violations else None

    def clear_violations(self) -> None:
        self.violations.clear()

    def __repr__(self) -> str:
        return (
            f"DiftEngine(policy={self.policy.name!r}, mode={self.mode!r}, "
            f"violations={len(self.violations)})"
        )
