"""Empirical growth measurement for the shrinking-window matcher.

Runs the matcher over random sequences on a grid of (m, n) sizes, records
the comparison counters and wall time, and fits log-log slopes of the
measured substring comparisons against each axis. The advertised analysis
puts the count at O(m*n) (slope 1 in each variable); the measured counts
follow sum((n-j+1)*(m-j+1)) instead, which is linear in m but quadratic in
n once m is much larger, and the report prints both for contrast. Each row
also prints the expected symbol count for the drawn symbols
(matcher.expected_comparisons) and the ratio of the measured count to it.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import Sequence
from .matcher import expected_comparisons, measure_counters

CLAIMED_SLOPE_M = 1.0
CLAIMED_SLOPE_N = 1.0


@dataclass(frozen=True)
class BenchRow:
    m: int
    n: int
    substring_comparisons: int
    char_comparisons: int
    claimed_comparisons: int
    seconds: float
    expected_char_comparisons: Fraction  # the mean over all inputs of this size


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple
    slope_vs_m: Optional[float]  # None unless n is held fixed with several m values
    slope_vs_n: Optional[float]


def random_sequence(rng: random.Random, length: int, symbols: str, id: str) -> Sequence:
    return Sequence(id=id, residues="".join(rng.choice(symbols) for _ in range(length)))


def match_probability(symbols: str) -> Fraction:
    """The chance that two symbols drawn by random_sequence from symbols match."""
    counts = Counter(symbols).values()
    return Fraction(sum(k * k for k in counts), len(symbols) ** 2)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def measure_growth(
    m_values,
    n_values,
    symbols: str = "ACGT",
    seed: int = 0,
    repeats: int = 1,
) -> GrowthReport:
    """Measure matcher counters and wall time over the (m, n) grid."""
    m_values = sorted(set(int(x) for x in m_values))
    n_values = sorted(set(int(x) for x in n_values))
    if not m_values or not n_values:
        raise ValueError("m and n ranges must be non-empty")
    if min(m_values) < 1 or min(n_values) < 1:
        raise ValueError("sizes must be >= 1")
    if max(n_values) > min(m_values):
        raise ValueError("every n must be <= every m (fragment never longer than reference)")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not symbols:
        raise ValueError("the alphabet must hold at least one symbol")

    q = match_probability(symbols)
    rng = random.Random(seed)
    rows = []
    for m in m_values:
        for n in n_values:
            s = random_sequence(rng, m, symbols, f"bench-s-{m}")
            v = random_sequence(rng, n, symbols, f"bench-v-{n}")
            elapsed = 0.0
            counters = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                counters = measure_counters(s, v)
                elapsed += time.perf_counter() - t0
            rows.append(
                BenchRow(
                    m=m,
                    n=n,
                    substring_comparisons=counters.substring_comparisons,
                    char_comparisons=counters.char_comparisons,
                    claimed_comparisons=counters.claimed_comparisons,
                    seconds=elapsed / repeats,
                    expected_char_comparisons=expected_comparisons(m, n, q).char_comparisons,
                )
            )

    slope_m = None
    if len(m_values) >= 2 and len(n_values) == 1:
        slope_m = fit_loglog_slope(
            [r.m for r in rows], [r.substring_comparisons for r in rows]
        )
    slope_n = None
    if len(n_values) >= 2 and len(m_values) == 1:
        slope_n = fit_loglog_slope(
            [r.n for r in rows], [r.substring_comparisons for r in rows]
        )
    return GrowthReport(rows=tuple(rows), slope_vs_m=slope_m, slope_vs_n=slope_n)


def format_table(report: GrowthReport) -> str:
    header = (
        f"{'m':>6} {'n':>5} {'substring_cmp':>14} {'char_cmp':>14} {'expected_char':>16} "
        f"{'ratio':>7} {'claimed_cmp':>12} {'seconds':>9}"
    )
    lines = [header]
    for r in report.rows:
        expected = r.expected_char_comparisons
        lines.append(
            f"{r.m:>6} {r.n:>5} {r.substring_comparisons:>14} {r.char_comparisons:>14} "
            f"{float(expected):>16.1f} {float(r.char_comparisons / expected):>7.4f} "
            f"{r.claimed_comparisons:>12} {r.seconds:>9.4f}"
        )
    if report.slope_vs_m is not None:
        lines.append(
            f"log-log slope vs m: {report.slope_vs_m:.3f} (advertised O(mn) slope: {CLAIMED_SLOPE_M:.1f})"
        )
    if report.slope_vs_n is not None:
        lines.append(
            f"log-log slope vs n: {report.slope_vs_n:.3f} (advertised O(mn) slope: {CLAIMED_SLOPE_N:.1f})"
        )
    return "\n".join(lines) + "\n"
