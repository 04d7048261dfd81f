"""Canonical digest of a byte-granular shadow tag store.

The paper tags every memory byte (``Taint<uint8_t>``).  Those tags live
in two forms: RAM and the peripherals keep flat ``bytearray`` shadows
(the ISS indexes RAM's as DMI views, see
:class:`repro.vp.memory.Memory`), and the offline monitor
(:mod:`repro.dift.monitor`) keeps a page list.  :func:`shadow_digest`
hashes either form to the same value when their dense tag images match,
so a replayed shadow is checked against the live one without being
materialized flat.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Union

from repro.policy.lattice import Tag

#: Digest page size in bytes, and the page size of the monitor's shadow.
PAGE_SIZE = 4096
_PAGE_SHIFT = 12


def shadow_digest(store: Union[bytearray, bytes, List[Optional[bytearray]]],
                  fill: Tag, size: Optional[int] = None) -> str:
    """Canonical sha256 over the *tainted pages* of a tag store.

    Hashes ``(page index, page bytes)`` for every page holding at least
    one non-``fill`` byte, plus the store geometry, so two stores with
    the same dense tag image produce the same digest:

    * a flat ``bytearray`` (the live RAM shadow) pays one C-speed
      ``count`` per page;
    * a page list (the offline monitor's shadow: one ``PAGE_SIZE`` tag
      buffer per page, the last one possibly short, ``None`` for a page
      that holds ``fill`` throughout) pays one ``count`` per
      materialized page, and needs the store ``size``.

    Digests are only comparable between stores sharing the same ``fill``
    background.
    """
    digest = hashlib.sha256()
    if isinstance(store, list):
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
