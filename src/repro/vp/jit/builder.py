"""Superblock discovery over RAM.

A superblock is a run of consecutive instructions starting at a hot
entry PC.  The scan keeps going along the fall-through path of every
*forward* conditional branch, so a loop whose header is a top test
(``bge t3, s2, done`` … ``j loop``) and the if-thens inside it land in
one block; the code generator turns each inner branch into a skip
region or an exit.  It also keeps going past a backward conditional
branch whose target is an instruction of the block past its entry that
has never become hot: an inner poll loop that has not spun (``ri_wait``
inside ``ri_loop``) becomes an exit to its head, so the outer loop is
one block.
The scan stops at:

* any other backward conditional branch, ``jal`` or ``jalr`` —
  *included* as the block terminator;
* an instruction the block cannot carry (system, CSR or illegal
  instructions), a word outside RAM, or the :data:`MAX_BLOCK_LEN` cap —
  *excluded*.  If the last instruction scanned is a forward branch, it
  becomes the terminator.

The scan decodes through ``cpu._decode_cache``, adding the words it has
not seen: a skip region may hold code the interpreter has not run yet.
The cache is derived state (a word's decoding never changes), so what
it holds is visible nowhere else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vp import decode as D

#: blocks shorter than this are not worth a dispatch round-trip
MIN_BLOCK_LEN = 2
#: generated-source cap; also bounds worst-case compile latency
MAX_BLOCK_LEN = 64

#: unconditional control transfers: always terminate (and are included in)
#: a block
_JUMPS = frozenset((D.JAL, D.JALR))


def scan_superblock(
        cpu, entry: int, hot: Dict[int, int], threshold: int,
        max_len: int = MAX_BLOCK_LEN,
) -> Tuple[Optional[List[Tuple[int, tuple]]], bool]:
    """Scan forward from ``entry``; returns ``(instrs, terminated)``.

    ``instrs`` is a list of ``(pc, decoded)`` pairs at consecutive PCs,
    or ``None`` when no compilable block exists at ``entry`` (too short,
    or misaligned).  ``terminated`` tells
    whether the block ends in a control transfer (last element) or
    falls through.  A conditional branch before the last element is
    forward, or backward to an instruction past ``entry`` whose count in
    ``hot`` is below ``threshold``.
    """
    if entry & 3:
        return None, False
    cache = cpu._decode_cache
    ram32 = cpu.ram32
    base = cpu.ram_base
    end = cpu.ram_end
    pc = entry
    instrs: List[Tuple[int, tuple]] = []
    while len(instrs) < max_len:
        if pc < base or pc + 4 > end:
            break
        word = ram32[(pc - base) >> 2]
        d = cache.get(word)
        if d is None:
            d = cache[word] = D.decode(word)
        op = d[0]
        if op >= D.ECALL:
            # ecall/ebreak/mret/wfi/csr/illegal: cold, stateful paths
            # the interpreter owns
            break
        instrs.append((pc, d))
        if op in _JUMPS:
            break
        if D.BEQ <= op <= D.BGEU and d[4] <= 0:
            # an inner loop that has not spun is an exit to its head
            target = pc + d[4]
            if not (entry < target and 0 <= hot.get(target, 0) < threshold):
                break
        pc += 4
    if len(instrs) < MIN_BLOCK_LEN:
        return None, False
    # a jump, a backward branch, or a forward branch the scan stopped after
    return instrs, D.JAL <= instrs[-1][1][0] <= D.BGEU
