"""Taint-liveness tracking for demand-driven DIFT.

The observation (shared with hardware-assisted DIFT designs): most
instructions of most workloads never touch tainted data.  When *nothing*
in the machine carries a non-bottom tag, tag propagation is the identity
(every LUB is ``lub(bottom, bottom) = bottom``) and every execution-
clearance check trivially passes (bottom flows to every class) — so the
full DIFT loop performs work whose outcome is statically known.

:class:`TaintLiveness` maintains the single bit that makes the fast path
sound — **is the machine clean?** — plus the bookkeeping needed to get
back to clean:

* ``clean`` — True iff every register tag, every CSR tag and every RAM
  byte tag equals the lattice bottom.  This is the *only* state in which
  skipping tag bookkeeping is exact: bottom is the unique fixed point of
  propagation (immediates produce bottom, ``lub(bottom, bottom)`` is
  bottom) and the unique tag for which every ``allowed_flow`` check
  passes without producing a violation record.
* ``dirty_pages`` — RAM pages (:data:`PAGE_SIZE` granularity) that may
  hold non-bottom tags.  Fed by the DIFT loop's store path and by the
  memory module's taint listener (TLM/DMA writes, load-time region
  classification, host-side pokes).
* a **reclaim** state machine: after taint is introduced, the machine
  periodically re-checks whether everything decayed back to bottom
  (secrets overwritten, registers recycled); on success the fast path
  resumes.  Re-checks back off exponentially so workloads that stay
  tainted pay a bounded cost.

Invalidation rules — events that clear ``clean``:

1. an MMIO read returns a non-bottom tag (classified peripheral source);
2. the memory module stores non-bottom tags (TLM write with tags, e.g. a
   DMA copy; loader region classification; host-side ``fill_tags``);
3. host code calls :meth:`taint_introduced` directly.

If the policy's *default* memory classification is not the lattice
bottom the machine can never become clean (4 MiB of non-bottom tags is
the steady state), so the platform builds a full-mode CPU with no
:class:`TaintLiveness` for such a demand configuration: the mode that
runs is settled at construction, never switched off mid-run.
"""

from __future__ import annotations

from typing import Set

#: Dirty-set granularity in bytes.  4 KiB balances set size (1024 pages
#: for the default 4 MiB RAM) against reclaim-scan precision.
PAGE_SIZE = 4096
_PAGE_SHIFT = 12

#: Reclaim back-off bound, in quanta between re-checks.
_MAX_BACKOFF = 64


class TaintLiveness:
    """Machine-clean tracking + reclaim for one hart."""

    __slots__ = (
        "bottom", "clean", "dirty_pages", "fast_steps", "slow_steps",
        "reclaims", "reclaim_attempts", "pages_scanned",
        "reclaim_skipped_pages", "_backoff", "_quanta_since_check",
        "_dirty_high_water",
    )

    def __init__(self, bottom_tag: int):
        self.bottom = bottom_tag
        #: True iff every reg/CSR/memory tag is the lattice bottom.
        self.clean = True
        #: RAM pages that may carry non-bottom tags.
        self.dirty_pages: Set[int] = set()
        #: instructions retired on the fast (clean) path
        self.fast_steps = 0
        #: instructions retired on the full DIFT path
        self.slow_steps = 0
        #: successful tainted->clean transitions
        self.reclaims = 0
        #: reclaim scans performed (successful or not)
        self.reclaim_attempts = 0
        #: page scans (one C-speed ``count`` each) across all reclaims
        self.pages_scanned = 0
        #: page scans avoided because an earlier reclaim pruned the page
        #: after verifying it clean (the summary layer's win, cumulative)
        self.reclaim_skipped_pages = 0
        self._backoff = 1
        self._quanta_since_check = 0
        # Peak dirty-set size since the machine was last clean: the
        # baseline a flat (non-pruning) reclaim would keep re-scanning.
        self._dirty_high_water = 0

    # ------------------------------------------------------------------ #
    # invalidation (clean -> tainted)
    # ------------------------------------------------------------------ #

    def taint_introduced(self) -> None:
        """A non-bottom tag entered a register (e.g. via an MMIO read)."""
        self.clean = False
        self._backoff = 1
        self._quanta_since_check = 0

    def note_memory_taint(self, offset: int, length: int) -> None:
        """Possibly-non-bottom tags were written to RAM ``[offset, +length)``."""
        if length <= 0:
            return
        first = offset >> _PAGE_SHIFT
        last = (offset + length - 1) >> _PAGE_SHIFT
        if first == last:
            self.dirty_pages.add(first)
        else:
            self.dirty_pages.update(range(first, last + 1))
        if len(self.dirty_pages) > self._dirty_high_water:
            self._dirty_high_water = len(self.dirty_pages)
        self.clean = False
        self._backoff = 1
        self._quanta_since_check = 0

    # ------------------------------------------------------------------ #
    # reclaim (tainted -> clean)
    # ------------------------------------------------------------------ #

    def maybe_reclaim(self, cpu) -> bool:
        """Back-off-gated reclaim attempt; call once per dirty quantum."""
        if self.clean:
            return True
        self._quanta_since_check += 1
        if self._quanta_since_check < self._backoff:
            return False
        self._quanta_since_check = 0
        if self.try_reclaim(cpu):
            return True
        if self._backoff < _MAX_BACKOFF:
            self._backoff *= 2
        return False

    def try_reclaim(self, cpu) -> bool:
        """Scan regs, CSR tags and dirty pages; go clean if all bottom.

        Register and CSR scans are O(32) / O(#written CSRs); each dirty
        page is one C-speed ``bytearray.count`` over :data:`PAGE_SIZE`
        bytes.  The dirty set is the level-1 presence summary over the
        flat RAM shadow, and reclaim scans *prune* it: a page verified
        all-bottom is dropped (the ISS store path and the memory taint
        listener re-add it on any later taint write), the scan stops at
        the first page still holding taint.  Amortized over a churning
        workload the scan cost is therefore proportional to the pages
        that are *actually* tainted, not to every page ever dirtied —
        ``reclaim_skipped_pages`` counts the avoided rescans.
        """
        self.reclaim_attempts += 1
        bottom = self.bottom
        for tag in cpu.tags:
            if tag != bottom:
                return False
        for tag in cpu.csr.tag_values().values():
            if tag != bottom:
                return False
        mtags = cpu.ram_tags
        if mtags is not None:
            self.reclaim_skipped_pages += max(
                0, self._dirty_high_water - len(self.dirty_pages))
        if mtags is not None and self.dirty_pages:
            size = len(mtags)
            verified_clean = []
            tainted = False
            for page in sorted(self.dirty_pages):
                start = page << _PAGE_SHIFT
                end = min(start + PAGE_SIZE, size)
                if start >= size:
                    verified_clean.append(page)
                    continue
                self.pages_scanned += 1
                if mtags.count(bottom, start, end) != end - start:
                    tainted = True
                    break
                verified_clean.append(page)
            self.dirty_pages.difference_update(verified_clean)
            if tainted:
                return False
        self.dirty_pages.clear()
        self.clean = True
        self.reclaims += 1
        self._backoff = 1
        self._dirty_high_water = 0
        return True

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        return {
            "clean": self.clean,
            "dirty_pages": sorted(self.dirty_pages),
            "fast_steps": self.fast_steps,
            "slow_steps": self.slow_steps,
            "reclaims": self.reclaims,
            "reclaim_attempts": self.reclaim_attempts,
            "pages_scanned": self.pages_scanned,
            "reclaim_skipped_pages": self.reclaim_skipped_pages,
            "backoff": self._backoff,
            "quanta_since_check": self._quanta_since_check,
            "dirty_high_water": self._dirty_high_water,
        }

    def load_state_dict(self, state: dict) -> None:
        self.clean = state["clean"]
        self.dirty_pages = set(state["dirty_pages"])
        self.fast_steps = state["fast_steps"]
        self.slow_steps = state["slow_steps"]
        self.reclaims = state["reclaims"]
        self.reclaim_attempts = state["reclaim_attempts"]
        self.pages_scanned = state.get("pages_scanned", 0)
        self.reclaim_skipped_pages = state.get("reclaim_skipped_pages", 0)
        self._backoff = state["backoff"]
        self._quanta_since_check = state["quanta_since_check"]
        self._dirty_high_water = state.get("dirty_high_water",
                                           len(self.dirty_pages))

    def __repr__(self) -> str:
        state = "clean" if self.clean else "tainted"
        return (f"TaintLiveness({state}, dirty_pages={len(self.dirty_pages)}, "
                f"fast={self.fast_steps}, slow={self.slow_steps})")
