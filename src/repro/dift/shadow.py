"""Byte-granular shadow tag storage, sparse, page-granular, summarized.

The paper tags every memory byte (``Taint<uint8_t>``).  :class:`ShadowTags`
is a general-purpose sparse tag store for tooling: one ``uint8_t`` tag
per data byte (matching the paper's ``typedef uint8_t Tag``), with bulk
operations sized for the TLM data path.  RAM and the peripherals keep
their tags in flat ``bytearray`` objects and the offline monitor keeps
its own paged word-view shadow; :func:`shadow_digest` compares all
three.

Storage is **copy-on-taint**: the address space is split into fixed-size
pages and a page is materialized as a ``bytearray`` only once a tag
different from the uniform fill is written to it.  Clean pages are a
shared ``None`` sentinel, so an untainted 4 MiB shadow costs a
1024-entry list instead of 4 MiB.

On top of the pages sits a **two-level presence hierarchy** (the
flag-cache idea from hardware-assisted DIFT: a tiny summary answers the
common "nothing tainted here" case without touching the dense storage):

* **Level 1** — one int used as a bitmap with a *maybe-tainted* bit per
  page.  A clear bit is a guarantee: every byte of that page carries
  ``fill``.  A set bit only means the page *may* hold taint.
* **Level 2** — per page, a 64-bit word with one bit per 64-byte
  *line*.  A fresh word is **exact**: bit ``L`` is set iff line ``L``
  holds at least one non-``fill`` byte.  A word of ``None`` is *stale*
  (a mixed write happened whose effect was not worth tracking
  incrementally) and is lazily rebuilt by one C-speed ``count`` scan of
  the page on the next summary-consulting query.

Writes maintain the summary incrementally: taint-adding writes OR line
bits in (O(1)); fill writes clear fully-covered line bits and re-count
only the (at most two) boundary lines; single-byte fill writes over a
tainted line just mark the word stale so per-byte writes stay O(1).
Queries (:meth:`any_tainted`, :meth:`lub_range`, :meth:`uniform`,
:meth:`tainted_pages`, ``dump(sparse=True)``) walk the
bitmap instead of the pages and therefore cost O(tainted lines), with a
per-page *uniform-tag hint* making even a fully tainted-uniform store
one table lookup per page.

The ISS's RAM keeps flat ``bytearray`` DMI views (see
:class:`repro.vp.memory.Memory`): per-instruction indexing must stay a
single C-level subscript.  ``ShadowTags`` serves everything *off* that
hot loop; the demand-driven fast path (``repro.dift.liveness``) is what
makes clean RAM cheap for the ISS.

All range operations validate bounds: ``start`` and ``length`` must be
non-negative and lie inside the store (``IndexError`` otherwise), and
tags must fit ``uint8`` (``ValueError``).

The summary is **derived state**: :meth:`state_dict` serializes only
the sparse pages (unchanged ``repro.snapshot/1`` encoding) and
:meth:`load_state_dict` marks restored pages stale so the hierarchy is
rebuilt on demand, never round-tripped.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Union

from repro.policy.lattice import Tag

#: Tags are stored per byte, so the lattice may have at most 256 classes —
#: same bound as the paper's ``uint8_t`` tag.
MAX_TAG = 255

#: Copy-on-taint page size in bytes.
PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1

#: Level-2 summary granularity: one bit per 64-byte line, so one page's
#: summary is a single 64-bit word (mirrors a cache-line flag register).
LINE_SIZE = 64
_LINE_SHIFT = 6


class ShadowTags:
    """One security tag per data byte, with bulk get/set/LUB helpers."""

    __slots__ = ("size", "fill", "_pages", "_maybe", "_summary", "_upage",
                 "_ttab_src", "_ttabs")

    def __init__(self, size: int, fill: Tag = 0):
        if not 0 <= fill <= MAX_TAG:
            raise ValueError(f"tag {fill} does not fit in uint8")
        if size < 0:
            raise ValueError(f"negative shadow size {size}")
        self.size = size
        self.fill = fill
        n_pages = (size + PAGE_SIZE - 1) >> _PAGE_SHIFT
        # None = clean page (every byte carries ``fill``), shared singleton.
        self._pages: List[Optional[bytearray]] = [None] * n_pages
        # Level 1: maybe-tainted bit per page (clear => page is all fill).
        self._maybe = 0
        # Level 2: per-page line word; int = exact bitmap, None = stale.
        self._summary: List[Optional[int]] = [0] * n_pages
        # Uniform-tag hint: tag iff *every* byte of the page carries it.
        self._upage: List[Optional[Tag]] = [None] * n_pages
        # Memoized LUB translate tables for lub_into_range (keyed by the
        # uniform source tag; reset when a different lattice is passed).
        self._ttab_src: Optional[list] = None
        self._ttabs: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------ #
    # validation / page plumbing
    # ------------------------------------------------------------------ #

    def _check_range(self, start: int, length: int) -> None:
        if length < 0:
            raise IndexError(f"negative shadow range length {length}")
        if start < 0 or start + length > self.size:
            raise IndexError(
                f"shadow range [{start}, {start + length}) outside "
                f"[0, {self.size})")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"shadow index {index} outside [0, {self.size})")

    def _page_len(self, page: int) -> int:
        """Bytes the (possibly short, final) page actually covers."""
        return min(PAGE_SIZE, self.size - (page << _PAGE_SHIFT))

    def _materialize(self, page: int) -> bytearray:
        data = self._pages[page]
        if data is None:
            data = self._pages[page] = \
                bytearray([self.fill]) * self._page_len(page)
        return data

    def _chunks(self, start: int, length: int):
        """Yield ``(page, page_offset, chunk_len)`` covering the range."""
        while length > 0:
            page = start >> _PAGE_SHIFT
            offset = start & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, length)
            yield page, offset, chunk
            start += chunk
            length -= chunk

    # ------------------------------------------------------------------ #
    # summary maintenance (level 1 + level 2)
    # ------------------------------------------------------------------ #

    def _summary_word(self, page: int) -> int:
        """Fresh level-2 word for ``page``, rebuilding a stale one.

        The rebuild is at most one C-speed ``count`` over the page (the
        all-clean case) plus one per 64-byte line when the page does
        hold taint; a page verified all-``fill`` also drops its level-1
        maybe bit so later queries skip it without re-entering here.
        """
        word = self._summary[page]
        if word is not None:
            return word
        data = self._pages[page]
        fill = self.fill
        if data is None:
            self._summary[page] = 0
            self._maybe &= ~(1 << page)
            return 0
        n = len(data)
        if data.count(fill) == n:
            self._summary[page] = 0
            self._maybe &= ~(1 << page)
            return 0
        word = 0
        for ls in range(0, n, LINE_SIZE):
            le = min(ls + LINE_SIZE, n)
            if data.count(fill, ls, le) != le - ls:
                word |= 1 << (ls >> _LINE_SHIFT)
        self._summary[page] = word
        return word

    def _note_taint(self, page: int, offset: int, chunk: int) -> None:
        """A write put non-``fill`` tags everywhere in the span."""
        self._maybe |= 1 << page
        word = self._summary[page]
        if word is not None:
            first = offset >> _LINE_SHIFT
            last = (offset + chunk - 1) >> _LINE_SHIFT
            self._summary[page] = word | (
                ((1 << (last - first + 1)) - 1) << first)
        if self._upage[page] is not None:
            self._upage[page] = None

    def _note_clean(self, page: int, offset: int, chunk: int) -> None:
        """A write put ``fill`` everywhere in the span."""
        if self._upage[page] is not None:
            self._upage[page] = None
        if not (self._maybe >> page) & 1:
            return
        word = self._summary[page]
        if word is None or word == 0:
            return  # stale stays stale; the rebuild will see the fill
        data = self._pages[page]
        fill = self.fill
        end = offset + chunk
        first = offset >> _LINE_SHIFT
        last = (end - 1) >> _LINE_SHIFT
        for line in range(first, last + 1):
            bit = 1 << line
            if not word & bit:
                continue
            ls = line << _LINE_SHIFT
            le = min(ls + LINE_SIZE, len(data))
            if offset <= ls and end >= le:
                word &= ~bit  # line fully overwritten with fill
            elif data.count(fill, ls, le) == le - ls:
                word &= ~bit  # boundary line re-counted clean
        self._summary[page] = word
        if word == 0:
            self._maybe &= ~(1 << page)

    def _note_mixed(self, page: int) -> None:
        """A write mixed ``fill`` and taint: mark the word stale."""
        self._maybe |= 1 << page
        self._summary[page] = None
        if self._upage[page] is not None:
            self._upage[page] = None

    def _full_word(self, page: int) -> int:
        lines = (self._page_len(page) + LINE_SIZE - 1) >> _LINE_SHIFT
        return (1 << lines) - 1

    def check_summary(self) -> None:
        """Validate every summary invariant against the raw pages.

        Test hook (the hypothesis differential suite calls it after
        every operation).  Raises ``AssertionError`` on the first
        violated invariant:

        * maybe bit clear  => page is all ``fill`` and its word is 0;
        * word ``None``    => maybe bit set (stale implies maybe);
        * word fresh       => exactly the per-line presence of the page
          (and a fresh 0 word never coexists with a set maybe bit);
        * uniform hint set => every byte of the page carries that tag.
        """
        fill = self.fill
        for page, data in enumerate(self._pages):
            maybe = (self._maybe >> page) & 1
            word = self._summary[page]
            clean = data is None or data.count(fill) == len(data)
            if not maybe:
                if not clean:
                    raise AssertionError(
                        f"page {page}: maybe bit clear but page tainted")
                if word != 0:
                    raise AssertionError(
                        f"page {page}: maybe bit clear but word {word!r}")
            if word is None:
                if not maybe:
                    raise AssertionError(
                        f"page {page}: stale word without maybe bit")
            else:
                expect = 0
                if data is not None:
                    for ls in range(0, len(data), LINE_SIZE):
                        le = min(ls + LINE_SIZE, len(data))
                        if data.count(fill, ls, le) != le - ls:
                            expect |= 1 << (ls >> _LINE_SHIFT)
                if word != expect:
                    raise AssertionError(
                        f"page {page}: word {word:#x} != actual {expect:#x}")
                if word == 0 and maybe:
                    raise AssertionError(
                        f"page {page}: fresh zero word with maybe bit set")
            hint = self._upage[page]
            if hint is not None:
                if data is None or data.count(hint) != len(data):
                    raise AssertionError(
                        f"page {page}: uniform hint {hint} is wrong")
        if self._maybe >> len(self._pages):
            raise AssertionError("maybe bitmap has bits past the last page")

    # ------------------------------------------------------------------ #
    # single byte
    # ------------------------------------------------------------------ #

    def get(self, index: int) -> Tag:
        self._check_index(index)
        data = self._pages[index >> _PAGE_SHIFT]
        return self.fill if data is None else data[index & _PAGE_MASK]

    def set(self, index: int, tag: Tag) -> None:
        self._check_index(index)
        if not 0 <= tag <= MAX_TAG:
            raise ValueError(f"tag {tag} does not fit in uint8")
        page = index >> _PAGE_SHIFT
        data = self._pages[page]
        offset = index & _PAGE_MASK
        if tag == self.fill:
            if data is None:
                return  # clean page stays clean
            data[offset] = tag
            if (self._maybe >> page) & 1:
                word = self._summary[page]
                if word is not None and \
                        (word >> (offset >> _LINE_SHIFT)) & 1:
                    # A single fill byte into a tainted line: whether the
                    # line went clean needs a re-count; defer it so
                    # per-byte writes stay O(1).
                    self._summary[page] = None
                if self._upage[page] is not None:
                    self._upage[page] = None
            return
        if data is None:
            data = self._materialize(page)
        data[offset] = tag
        self._maybe |= 1 << page
        word = self._summary[page]
        if word is not None:
            self._summary[page] = word | (1 << (offset >> _LINE_SHIFT))
        hint = self._upage[page]
        if hint is not None and hint != tag:
            self._upage[page] = None

    # per-byte indexing, the way the ISS indexes its flat RAM shadow
    __getitem__ = get
    __setitem__ = set

    # ------------------------------------------------------------------ #
    # ranges
    # ------------------------------------------------------------------ #

    def get_range(self, start: int, length: int) -> bytes:
        """Tags of ``length`` bytes starting at ``start``."""
        self._check_range(start, length)
        out = bytearray([self.fill]) * length
        pos = 0
        for page, offset, chunk in self._chunks(start, length):
            data = self._pages[page]
            if data is not None:
                out[pos:pos + chunk] = data[offset:offset + chunk]
            pos += chunk
        return bytes(out)

    def set_range(self, start: int, tags: Iterable[Tag]) -> None:
        """Write per-byte tags starting at ``start``."""
        data = bytes(tags)  # raises ValueError for tags outside uint8
        self._check_range(start, len(data))
        fill = self.fill
        pos = 0
        for page, offset, chunk in self._chunks(start, len(data)):
            piece = data[pos:pos + chunk]
            pos += chunk
            n_fill = piece.count(fill)
            if n_fill == chunk:
                if self._pages[page] is None:
                    continue  # writing fill to a clean page: no-op
                self._pages[page][offset:offset + chunk] = piece
                self._note_clean(page, offset, chunk)
                continue
            self._materialize(page)[offset:offset + chunk] = piece
            if n_fill == 0:
                self._note_taint(page, offset, chunk)
            else:
                self._note_mixed(page)

    def fill_range(self, start: int, length: int, tag: Tag) -> None:
        """Tag ``length`` bytes starting at ``start`` with ``tag``."""
        if not 0 <= tag <= MAX_TAG:
            raise ValueError(f"tag {tag} does not fit in uint8")
        self._check_range(start, length)
        fill = self.fill
        for page, offset, chunk in self._chunks(start, length):
            data = self._pages[page]
            page_len = self._page_len(page)
            if tag == fill:
                if data is None:
                    continue
                if chunk == page_len:
                    # whole page back to clean: drop the storage and the
                    # summary in O(1)
                    self._pages[page] = None
                    self._summary[page] = 0
                    self._upage[page] = None
                    self._maybe &= ~(1 << page)
                    continue
                data[offset:offset + chunk] = bytes([tag]) * chunk
                self._note_clean(page, offset, chunk)
                continue
            if data is None:
                # Construct the page directly instead of materializing a
                # fill page and overwriting part of it (one allocation,
                # one pass).
                if chunk == page_len:
                    self._pages[page] = bytearray([tag]) * chunk
                else:
                    fb, tb = bytes([fill]), bytes([tag])
                    self._pages[page] = bytearray(
                        fb * offset + tb * chunk
                        + fb * (page_len - offset - chunk))
            else:
                data[offset:offset + chunk] = bytes([tag]) * chunk
            self._note_taint(page, offset, chunk)
            if chunk == page_len:
                self._upage[page] = tag  # page is provably uniform now

    def clear_range(self, start: int, length: int) -> None:
        """Reset ``length`` bytes to the store's fill tag (bulk untaint).

        DMA-sized convenience over :meth:`fill_range`: whole pages drop
        their storage in O(1), partial pages clear their summary bits
        without a rescan of the untouched remainder.
        """
        self.fill_range(start, length, self.fill)

    def _translate(self, lub_table: List[List[Tag]], value: Tag) -> bytes:
        """256-entry ``x -> lub(x, value)`` table, memoized per lattice."""
        if self._ttab_src is not lub_table:
            self._ttab_src = lub_table
            self._ttabs = {}
        table = self._ttabs.get(value)
        if table is None:
            n = len(lub_table)
            table = bytes(lub_table[x][value] if x < n else x
                          for x in range(256))
            self._ttabs[value] = table
        return table

    def lub_into_range(self, start: int, src_tags: Iterable[Tag],
                       lub_table: List[List[Tag]]) -> None:
        """Merge: ``dst[i] = lub(dst[i], src[i])`` for a DMA-sized span.

        The common DMA case — a uniform source tag — runs at C speed via
        a memoized 256-entry ``bytes.translate`` table per chunk instead
        of a per-byte Python loop; mixed sources fall back to per-byte
        folding.  The summary is maintained like any other write.
        """
        src = bytes(src_tags)
        self._check_range(start, len(src))
        fill = self.fill
        pos = 0
        for page, offset, chunk in self._chunks(start, len(src)):
            piece = src[pos:pos + chunk]
            pos += chunk
            data = self._pages[page]
            if piece.count(piece[0]) == chunk:  # uniform source
                table = self._translate(lub_table, piece[0])
                if data is None:
                    merged = table[fill]
                    if merged == fill:
                        continue  # lub(fill, v) == fill: clean page stays
                    out = bytes([merged]) * chunk
                else:
                    out = bytes(data[offset:offset + chunk]).translate(table)
            else:
                base = bytes([fill]) * chunk if data is None \
                    else bytes(data[offset:offset + chunk])
                out = bytes(lub_table[d][s] for d, s in zip(base, piece))
            n_fill = out.count(fill)
            if n_fill == chunk:
                if data is None:
                    continue
                data[offset:offset + chunk] = out
                self._note_clean(page, offset, chunk)
            else:
                self._materialize(page)[offset:offset + chunk] = out
                if n_fill == 0:
                    self._note_taint(page, offset, chunk)
                else:
                    self._note_mixed(page)

    def lub_range(self, start: int, length: int, lub_table: List[List[Tag]],
                  initial: Tag = 0) -> Tag:
        """LUB of the tags of ``length`` bytes (paper ``from_bytes`` rule).

        LUB is idempotent, so every clean line in the range contributes
        a single ``fill`` lookup; only bytes under *set* summary bits
        are folded individually.  A fully-tainted uniform page (the
        dense worst case) costs one ``count`` probe once, then one table
        lookup per call via the cached uniform-tag hint.
        """
        self._check_range(start, length)
        acc = initial
        fill = self.fill
        for page, offset, chunk in self._chunks(start, length):
            if not (self._maybe >> page) & 1:
                acc = lub_table[acc][fill]
                continue
            hint = self._upage[page]
            if hint is not None:
                # uniform page: any sub-range is uniform too
                acc = lub_table[acc][hint]
                continue
            word = self._summary_word(page)
            if not word:
                acc = lub_table[acc][fill]
                continue
            data = self._pages[page]
            if word == self._full_word(page):
                t0 = data[0]
                if data.count(t0) == len(data):
                    self._upage[page] = t0  # cache until the next write
                    acc = lub_table[acc][t0]
                    continue
            end = offset + chunk
            first = offset >> _LINE_SHIFT
            last = (end - 1) >> _LINE_SHIFT
            mask = ((1 << (last - first + 1)) - 1) << first
            if mask & ~word:
                acc = lub_table[acc][fill]  # some line in range is clean
            bits = word & mask
            while bits:
                line = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                ls = max(offset, line << _LINE_SHIFT)
                le = min(end, (line + 1) << _LINE_SHIFT)
                for t in data[ls:le]:
                    acc = lub_table[acc][t]
        return acc

    def uniform(self, start: int, length: int) -> bool:
        """True iff all ``length`` bytes carry the same tag.

        Per page this is at most two C-speed probes: the fill case
        reduces to :meth:`any_tainted` (summary bitmap walk), the
        non-fill case to one ``count`` of the reference tag per chunk —
        both early-exit on the first mismatching page.
        """
        self._check_range(start, length)
        if length == 0:
            return True
        ref = self.get(start)
        if ref == self.fill:
            return not self.any_tainted(start, length)
        for page, offset, chunk in self._chunks(start, length):
            data = self._pages[page]
            if data is None:
                return False  # clean page carries fill != ref
            if data.count(ref, offset, offset + chunk) != chunk:
                return False
        return True

    def any_tainted(self, start: int, length: int,
                    clean_tag: Optional[Tag] = None) -> bool:
        """True iff any byte in the range differs from ``clean_tag``.

        ``clean_tag`` defaults to the store's fill tag, in which case
        the summary answers without touching page storage: pages with a
        clear maybe bit are skipped outright, fresh line words decide
        fully-covered lines exactly, and only the (at most two) boundary
        lines of the range ever need a C-speed ``count``.  A non-default
        ``clean_tag`` falls back to one ``count`` per materialized page
        (the summary only describes fill-relative presence).
        """
        self._check_range(start, length)
        fill = self.fill
        clean = fill if clean_tag is None else clean_tag
        if clean != fill:
            for page, offset, chunk in self._chunks(start, length):
                data = self._pages[page]
                if data is None:
                    return True  # clean page carries fill != clean
                if data.count(clean, offset, offset + chunk) != chunk:
                    return True
            return False
        for page, offset, chunk in self._chunks(start, length):
            if not (self._maybe >> page) & 1:
                continue
            word = self._summary_word(page)
            if not word:
                continue
            end = offset + chunk
            first = offset >> _LINE_SHIFT
            last = (end - 1) >> _LINE_SHIFT
            if not (word >> first) & ((1 << (last - first + 1)) - 1):
                continue
            data = self._pages[page]
            # A set bit on a *fully covered* line is a definite hit;
            # boundary lines may carry their taint outside the window.
            f_full = first if offset == (first << _LINE_SHIFT) else first + 1
            l_full = last if end >= min((last + 1) << _LINE_SHIFT,
                                        len(data)) else last - 1
            if f_full <= l_full and \
                    (word >> f_full) & ((1 << (l_full - f_full + 1)) - 1):
                return True
            for line in ((first,) if first == last else (first, last)):
                if f_full <= line <= l_full or not (word >> line) & 1:
                    continue
                ls = max(offset, line << _LINE_SHIFT)
                le = min(end, (line + 1) << _LINE_SHIFT)
                if data.count(fill, ls, le) != le - ls:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # introspection (gauges / microbenchmarks)
    # ------------------------------------------------------------------ #

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def materialized_pages(self) -> int:
        """Pages backed by real storage (ever written a non-fill tag)."""
        return sum(1 for page in self._pages if page is not None)

    def tainted_pages(self, clean_tag: Optional[Tag] = None) -> int:
        """Pages holding at least one byte that differs from ``clean_tag``.

        The default (fill-relative) question walks the maybe bitmap —
        O(maybe-tainted pages), not O(pages) — rebuilding stale words as
        it goes; a non-default ``clean_tag`` scans materialized pages.
        """
        clean = self.fill if clean_tag is None else clean_tag
        if clean == self.fill:
            count = 0
            maybe = self._maybe
            while maybe:
                page = (maybe & -maybe).bit_length() - 1
                maybe &= maybe - 1
                if self._summary_word(page):
                    count += 1
            return count
        count = 0
        for data in self._pages:
            if data is None:
                count += 1  # all-fill page, fill != clean
            elif data.count(clean) != len(data):
                count += 1
        return count

    @property
    def tags(self) -> bytes:
        """Flat snapshot of every tag (read-only; for tests/tooling)."""
        return self.dump()

    def dump(self, sparse: bool = False):
        """Snapshot the tag state (for tests/tooling and checkpointing).

        ``sparse=False`` materializes the full dense tag array — fine
        for tests, pathological for checkpointing a clean multi-megabyte
        shadow.  ``sparse=True`` returns ``{page_index: bytes}`` holding
        only pages that differ from an all-``fill`` page, found by
        walking the maybe bitmap: a clean store dumps as an empty dict
        without touching any page, and pages that were materialized but
        have decayed back to uniform fill are skipped when their summary
        word (rebuilt if stale) comes out zero.
        """
        if not sparse:
            return self.get_range(0, self.size)
        out = {}
        maybe = self._maybe
        while maybe:
            page = (maybe & -maybe).bit_length() - 1
            maybe &= maybe - 1
            if self._summary_word(page):
                out[page] = bytes(self._pages[page])
        return out

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        from repro.state import encode_bytes
        return {
            "size": self.size,
            "fill": self.fill,
            "pages": {str(index): encode_bytes(data)
                      for index, data in self.dump(sparse=True).items()},
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.state import decode_bytes
        if state["size"] != self.size or state["fill"] != self.fill:
            raise ValueError(
                f"shadow geometry mismatch: snapshot "
                f"(size={state['size']}, fill={state['fill']}) vs store "
                f"(size={self.size}, fill={self.fill})")
        n_pages = len(self._pages)
        self._pages = [None] * n_pages
        # The summary is derived state and deliberately not serialized:
        # restored pages come back *stale* and are rebuilt on first use.
        self._maybe = 0
        self._summary = [0] * n_pages
        self._upage = [None] * n_pages
        for key, encoded in state["pages"].items():
            page = int(key)
            self._pages[page] = bytearray(decode_bytes(encoded))
            self._maybe |= 1 << page
            self._summary[page] = None

    def __repr__(self) -> str:
        return (f"ShadowTags(size={self.size}, "
                f"pages={self.materialized_pages}/{len(self._pages)})")


def shadow_digest(store: Union[ShadowTags, bytearray, bytes,
                               List[Optional[bytearray]]],
                  fill: Tag, size: Optional[int] = None) -> str:
    """Canonical sha256 over the *tainted pages* of a tag store.

    Hashes ``(page index, page bytes)`` for every page holding at least
    one non-``fill`` byte, plus the store geometry, so two stores with
    the same dense tag image produce the same digest without either
    being materialized flat:

    * a :class:`ShadowTags` walks its presence summary — O(tainted
      pages);
    * a flat ``bytearray`` (the live RAM shadow) pays one C-speed
      ``count`` per page;
    * a page list (the offline monitor's shadow: one ``PAGE_SIZE`` tag
      buffer per page, the last one possibly short, ``None`` for a page
      that holds ``fill`` throughout) pays one ``count`` per
      materialized page, and needs the store ``size``.

    Digests are only comparable between stores sharing the same ``fill``
    background; for a ``ShadowTags`` the argument must match the store's
    own fill (``ValueError`` otherwise).
    """
    digest = hashlib.sha256()
    if isinstance(store, ShadowTags):
        if fill != store.fill:
            raise ValueError(
                f"digest background {fill} != store fill {store.fill}")
        size = store.size
        pages = store.dump(sparse=True)
        for index in sorted(pages):
            digest.update(index.to_bytes(8, "little"))
            digest.update(pages[index])
    elif isinstance(store, list):
        if size is None:
            raise ValueError("a page-list digest needs the store size")
        for index, data in enumerate(store):
            if data is not None and data.count(fill) != len(data):
                digest.update(index.to_bytes(8, "little"))
                digest.update(data)
    else:
        size = len(store)
        for index in range((size + PAGE_SIZE - 1) >> _PAGE_SHIFT):
            start = index << _PAGE_SHIFT
            end = min(start + PAGE_SIZE, size)
            if store.count(fill, start, end) != end - start:
                digest.update(index.to_bytes(8, "little"))
                digest.update(bytes(store[start:end]))
    digest.update(size.to_bytes(8, "little"))
    digest.update(bytes([fill]))
    return digest.hexdigest()
