"""Tests for :func:`repro.dift.shadow.shadow_digest` over its two store
forms: the live RAM shadow's flat ``bytearray`` and the offline
monitor's page list."""

import pytest

from repro.dift.shadow import PAGE_SIZE, shadow_digest

#: Two full pages and a short last page.
_SIZE = 2 * PAGE_SIZE + 100
_TAINTS = ((5, 3), (PAGE_SIZE + 7, 2), (_SIZE - 1, 3))


def _flat(fill=1, taints=_TAINTS, size=_SIZE):
    flat = bytearray([fill]) * size
    for index, tag in taints:
        flat[index] = tag
    return flat


def _pages(flat, fill):
    """``flat`` as the monitor holds it: ``None`` for an all-``fill`` page."""
    pages = []
    for start in range(0, len(flat), PAGE_SIZE):
        page = flat[start:start + PAGE_SIZE]
        pages.append(None if page.count(fill) == len(page) else page)
    return pages


class TestShadowDigest:
    def test_flat_and_page_list_agree(self):
        flat = _flat()
        pages = _pages(flat, 1)
        assert len(pages[-1]) == 100
        assert shadow_digest(pages, 1, _SIZE) == shadow_digest(flat, 1)
        assert shadow_digest(bytes(flat), 1) == shadow_digest(flat, 1)

    def test_golden_digest(self):
        # computed before the digest lost its third store form; a change
        # to the algorithm must not pass by changing both sides
        assert shadow_digest(_flat(), 1) == (
            "63e6d37614b9078429abb5e757563e57"
            "e8a7ee5ae5eee6e2f72df037917e1883")

    def test_clean_stores_agree(self):
        # a materialized page that decayed back to fill hashes like None
        clean = shadow_digest(bytearray(2 * PAGE_SIZE), 0)
        assert shadow_digest([None, None], 0, 2 * PAGE_SIZE) == clean
        assert shadow_digest([bytearray(PAGE_SIZE), None], 0,
                             2 * PAGE_SIZE) == clean

    def test_distinguishes_page_position(self):
        size = 2 * PAGE_SIZE
        a = _flat(fill=0, taints=((0, 3),), size=size)
        b = _flat(fill=0, taints=((PAGE_SIZE, 3),), size=size)
        assert shadow_digest(a, 0) != shadow_digest(b, 0)
        assert shadow_digest(_pages(a, 0), 0, size) != \
            shadow_digest(_pages(b, 0), 0, size)

    def test_page_list_needs_size(self):
        with pytest.raises(ValueError, match="needs the store size"):
            shadow_digest([None], 0)
