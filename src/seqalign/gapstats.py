"""Interior gap-run statistics and selection of the best candidate alignment.

A gap run is a maximal stretch of reference positions left unmatched by the
chain, counted only strictly between the first and last matched positions;
leading and trailing gaps never contribute. Variance is the population
variance (divisor = run count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import CandidateAlignment, EmptyInputError, GapStatistics, StructuralViolationError

MODES = ("mean_then_variance", "variance_only", "mean_only")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick the winner among candidates.

    mean_then_variance: smallest gap mean, ties broken by smaller variance.
    variance_only: smallest variance, compared exactly, ties broken by mean.
    mean_only: smallest mean.
    Remaining ties break lexicographically on the chain's blocks.
    """

    mode: str = "mean_then_variance"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown selection mode {self.mode!r}; choose from {MODES}")


def gap_runs(chain: CandidateAlignment, m: int) -> tuple:
    """Lengths of the unmatched-S runs between consecutive blocks of the chain."""
    blocks = chain.blocks
    if not blocks:
        raise EmptyInputError("cannot compute gap runs of an empty chain")
    # A chain's blocks never overlap in S, so every gap is >= 0; a block
    # adjacent in S to the one before it leaves none.
    runs, end = [], blocks[0].s_start
    for _, s_start, length in blocks:
        if s_start != end:
            runs.append(s_start - end)
        end = s_start + length
    if end > m:
        raise StructuralViolationError(f"chain exceeds reference length {m}")
    return tuple(runs)


def statistics(runs) -> GapStatistics:
    """Mean and population variance of the run lengths; (0, 0) when there are none."""
    if type(runs) is not tuple:
        runs = tuple(runs)
    if not runs:
        return GapStatistics(runs=(), mean=0.0, variance=0.0)
    if min(runs) <= 0:
        raise ValueError("gap runs must be positive")
    mean = math.fsum(runs) / len(runs)
    variance = math.fsum([(r - mean) ** 2 for r in runs]) / len(runs)
    return GapStatistics(runs=runs, mean=mean, variance=variance)


def chain_statistics(chain: CandidateAlignment, m: int) -> GapStatistics:
    return statistics(gap_runs(chain, m))


def _exact_variance(runs) -> Fraction:
    k = len(runs)
    return Fraction(k * sum(r * r for r in runs) - sum(runs) ** 2, k * k or 1)


def variance_rank(max_runs: int):
    """variance_only's (exact variance, mean) of gap runs as exact integers.

    k runs of total t and square sum q have variance (k*q - t*t) / k**2 and
    mean t / k. For k <= max_runs, scaling both by a common denominator
    (L**2 and L, L = lcm(1..max_runs)) keeps their order without a Fraction
    per chain. The float mean that policy_key compares orders as the exact
    one (see sort_key), so the rank orders as policy_key does.
    """
    scale = math.lcm(*range(1, max_runs + 1))

    def rank(runs) -> tuple:
        k = len(runs)
        if not k:
            return (0, 0)
        f, t = scale // k, sum(runs)
        return ((k * sum(map(mul, runs, runs)) - t * t) * f * f, t * f)

    return rank


def policy_key(policy: SelectionPolicy):
    """The policy order over a GapStatistics, its one definition.

    mean_then_variance: (mean, variance); variance_only: (exact variance,
    mean); mean_only: (mean,). The mean comes first in the mean modes and
    equals sum(runs) / k bit for bit on integer runs, so the chainer can cut
    on it before any chain is scored.
    """
    if policy.mode == "variance_only":
        return lambda stats: (_exact_variance(stats.runs), stats.mean)
    if policy.mode == "mean_only":
        return lambda stats: (stats.mean,)
    return lambda stats: (stats.mean, stats.variance)


def sort_key(policy: SelectionPolicy):
    """Ordering key for (chain, stats) entries: policy_key, then the blocks.

    Float means order exactly, as distinct means t/k with k <= n lie 1/n^2
    apart. variance_only compares the variance exactly, mean_then_variance
    as a float.
    """
    key = policy_key(policy)
    return lambda entry: (*key(entry[1]), entry[0].blocks)


def select(candidates, policy: SelectionPolicy | None = None) -> int:
    """Index of the first minimum under sort_key(policy); 0 on the chainer's
    output, which is sorted by that key."""
    policy = policy or SelectionPolicy()
    entries = list(candidates)
    if not entries:
        raise EmptyInputError("cannot select from an empty candidate list")
    key = sort_key(policy)
    return min(range(len(entries)), key=lambda i: key(entries[i]))
