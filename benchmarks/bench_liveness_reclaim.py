"""Demand-DIFT reclaim microbenchmark (taint churn).

A :class:`TaintLiveness` reclaim loop over a workload that repeatedly
taints and clears a few hot pages of a flat RAM shadow.  The pruning
reclaim's scan count is deterministic, so the benchmark asserts it
exactly: proportional to the pages actually tainted, not to every page
ever dirtied.  The record keeps its historical ``shadow_taint_churn``
name so the committed baseline keeps gating it.
"""

from time import perf_counter

from repro.dift.liveness import PAGE_SIZE, TaintLiveness


class _ChurnCsr:
    def tag_values(self):
        return {}


class _ChurnCpu:
    """Minimal hart for TaintLiveness: 32 regs, no CSRs, flat RAM shadow."""

    def __init__(self, pages):
        self.tags = [0] * 32
        self.csr = _ChurnCsr()
        self.ram_tags = bytearray(pages * PAGE_SIZE)


def _churn(pages, rounds, hot, tag):
    """Taint/clear ``hot`` pages per round, reclaiming in between."""
    cpu = _ChurnCpu(pages)
    live = TaintLiveness(0)
    live.note_memory_taint(0, pages * PAGE_SIZE)  # everything once dirty
    for __ in range(rounds):
        for page in range(hot):
            cpu.ram_tags[page * PAGE_SIZE] = tag
        live.note_memory_taint(0, hot * PAGE_SIZE)
        live.try_reclaim(cpu)                     # fails: taint present
        for page in range(hot):
            cpu.ram_tags[page * PAGE_SIZE] = 0
        live.try_reclaim(cpu)                     # succeeds: back clean
    return live


def test_shadow_taint_churn(benchmark, bench_json, quick):
    """Reclaim scan cost tracks the *tainted* page count, not history.

    The first reclaim pays one scan per ever-dirtied page and prunes the
    clean ones; every later round only rescans the hot set.  The counter
    is deterministic, so the proportionality claim is an exact equality,
    not a timing heuristic.
    """
    benchmark.group = "liveness-reclaim"
    pages = 64 if quick else 1024
    rounds = 20 if quick else 200
    hot = 4

    started = perf_counter()
    live = benchmark.pedantic(_churn, args=(pages, rounds, hot, 2),
                              rounds=1, iterations=1)
    elapsed = perf_counter() - started
    for __ in range(2):
        t0 = perf_counter()
        live = _churn(pages, rounds, hot, 2)
        elapsed = min(elapsed, perf_counter() - t0)

    # round 1: one scan hits the taint, then a full verify-and-prune
    # pass; every later round scans 1 (hit) + hot (verify) pages
    expect = (1 + pages) + (rounds - 1) * (1 + hot)
    assert live.pages_scanned == expect, (
        f"pages_scanned {live.pages_scanned} != expected {expect}: "
        f"reclaim is rescanning pruned pages")
    naive = 2 * rounds * pages  # a non-pruning reclaim rescans all, twice
    assert live.pages_scanned * 4 < naive
    assert live.reclaims == rounds

    benchmark.extra_info.update(pages_scanned=live.pages_scanned,
                                naive_pages=naive)
    bench_json("shadow_taint_churn",
               {"pattern": "taint-churn", "seconds": elapsed,
                "pages": pages, "rounds": rounds, "hot_pages": hot,
                "pages_scanned": live.pages_scanned,
                "naive_pages_scanned": naive,
                "reclaims": live.reclaims})
