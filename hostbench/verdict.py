"""Summaries of repeated measurements and the two-record comparison.

``compare`` follows the rules a performance claim must meet, with a
metric's *spread* being the run-to-run spread of its median estimated
from one run (see :func:`spread`):

* a metric whose spread on either side is wider than its bound is
  **unresolved** — unless every repetition of B is better (worse) than
  every repetition of A, which is **improved** (**worse**);
* otherwise B's median worse than A's by more than the bound is
  **worse**;
* B's median better by more than the bound, with B winning at least
  nine tenths of the repetition pairs, is **improved** — one run per
  side cannot show the parent's run-to-run spread, and the benchmark
  keeps that spread below the bound;
* anything else is **unchanged**.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple


def summarize(samples: List[float], center: Optional[float] = None) -> dict:
    """Median, quartiles and n (plus p90 once n reaches 100).

    ``center`` replaces the median of ``samples`` when the metric has a
    more robust median of its own (taken per op across repetitions).
    """
    values = [float(v) for v in samples]
    out = {"samples": values, "n": len(values)}
    if not values:
        return out
    out["median"] = (statistics.median(values) if center is None
                     else float(center))
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    out["q1"], out["q3"] = q1, q3
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def spread(summary: dict) -> float:
    """The quartile distance of the median over repeated runs, as a share
    of the median, estimated from one run's repetitions.

    A median of n samples varies between runs by about 1.25 / √n times
    the samples' own quartile distance.  On the benchmark's workloads
    this estimate came within a factor of two of the spread measured
    over ten runs with different seeds.
    """
    median = summary.get("median", 0.0)
    if not median:
        return float("inf")
    return (1.25 * (summary["q3"] - summary["q1"])
            / summary["n"] ** 0.5 / abs(median))


def verdict(a: dict, b: dict, better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means B is better than A."""
    sign = 1.0 if better == "higher" else -1.0
    if not a.get("median"):
        return "unresolved", 0.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    a_runs, b_runs = a["samples"], b["samples"]
    if max(spread(a), spread(b)) > bound:
        # too noisy to judge by medians: only a clean separation of
        # every run of B from every run of A decides
        if min(sign * x for x in b_runs) > max(sign * x for x in a_runs):
            return "improved", change
        if max(sign * x for x in b_runs) < min(sign * x for x in a_runs):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = list(zip(a_runs, b_runs))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if change > bound and wins >= 0.9 * len(pairs):
        return "improved", change
    return "unchanged", change


def compare(a: dict, b: dict, metrics: Dict[str, dict]) -> Tuple[List[str], bool]:
    """Rows for every (workload, end-to-end metric) in both records.

    ``metrics`` maps a metric name to its BENCHMARK.json entry (``better``
    and ``bound``).  Returns ``(lines, ok)``; ``ok`` is False on any
    "worse" or missing metric, or when ``failed_ops`` rose.
    """
    lines = [f"{'workload':<9} {'metric':<15} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'bound':>6} {'change':>8}  verdict"]
    ok = True

    def cell(s: Optional[dict]) -> str:
        if not s or "median" not in s:
            return "-"
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"

    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra = a["workloads"].get(workload)
        rb = b["workloads"].get(workload)
        if ra is None or rb is None:
            lines.append(f"{workload:<9} (only in {'B' if ra is None else 'A'})")
            ok = ok and rb is not None
            continue
        for name, entry in metrics.items():
            sa = ra["end_to_end"].get(name)
            sb = rb["end_to_end"].get(name)
            bound = entry["bound"]
            if sa is None:
                continue
            if sb is None:
                result, change = "missing", 0.0
                ok = False
            else:
                result, change = verdict(sa, sb, entry["better"], bound)
                ok = ok and result != "worse"
            lines.append(f"{workload:<9} {name:<15} {cell(sa):>30} "
                         f"{cell(sb):>30} {bound:>6.2f} {change:>+8.1%}  "
                         f"{result}")
        fa, fb = ra.get("failed_ops", 0), rb.get("failed_ops", 0)
        mark = "  ROSE" if fb > fa else ""
        lines.append(f"{workload:<9} failed_ops A={fa} B={fb}{mark}")
        ok = ok and fb <= fa
    return lines, ok
