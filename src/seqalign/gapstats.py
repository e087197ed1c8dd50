"""Interior gap-run statistics and selection of the best candidate alignment.

A gap run is a maximal stretch of reference positions left unmatched by the
chain, counted only strictly between the first and last matched positions;
leading and trailing gaps never contribute. Variance is the population
variance (divisor = run count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CandidateAlignment, EmptyInputError, GapStatistics, StructuralViolationError

MODES = ("mean_then_variance", "variance_only", "mean_only")

TOLERANCE = 1e-9
"""Primary-key values within this of the best count as tied in `select`."""


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick the winner among candidates.

    mean_then_variance: smallest gap mean; means equal within TOLERANCE
    are tied and broken by smaller variance.
    variance_only: smallest variance, ties broken by mean.
    mean_only: smallest mean, ties broken lexicographically.
    """

    mode: str = "mean_then_variance"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown selection mode {self.mode!r}; choose from {MODES}")


def gap_runs(chain: CandidateAlignment, m: int) -> tuple:
    """Lengths of the unmatched-S runs between consecutive blocks of the chain."""
    if not chain.blocks:
        raise EmptyInputError("cannot compute gap runs of an empty chain")
    if chain.blocks[-1].s_end > m:
        raise StructuralViolationError(f"chain exceeds reference length {m}")
    runs = []
    prev_end = chain.blocks[0].s_end
    for b in chain.blocks[1:]:
        gap = b.s_start - prev_end
        if gap > 0:
            runs.append(gap)
        prev_end = b.s_end
    return tuple(runs)


def statistics(runs) -> GapStatistics:
    """Mean and population variance of the run lengths; (0, 0) when there are none."""
    runs = tuple(runs)
    if any(r <= 0 for r in runs):
        raise ValueError("gap runs must be positive")
    if not runs:
        return GapStatistics(runs=(), mean=0.0, variance=0.0)
    mean = math.fsum(runs) / len(runs)
    variance = math.fsum((r - mean) ** 2 for r in runs) / len(runs)
    return GapStatistics(runs=runs, mean=mean, variance=variance)


def chain_statistics(chain: CandidateAlignment, m: int) -> GapStatistics:
    return statistics(gap_runs(chain, m))


def _lex_key(chain):
    return chain.blocks if chain is not None else ()


def sort_key(policy: SelectionPolicy):
    """Deterministic ordering key for (chain, stats) entries under a policy."""
    mode = policy.mode

    def key(entry):
        chain, stats = entry
        if mode == "variance_only":
            return (stats.variance, stats.mean, _lex_key(chain))
        if mode == "mean_only":
            return (stats.mean, _lex_key(chain))
        return (stats.mean, stats.variance, _lex_key(chain))

    return key


def select(candidates, policy: SelectionPolicy | None = None) -> int:
    """Index of the winning (chain, statistics) pair under the policy.

    Primary-key ties within TOLERANCE fall through to the next
    key; final ties break lexicographically on block coordinates, then on
    input position, so the result is total and deterministic.
    """
    policy = policy or SelectionPolicy()
    entries = list(candidates)
    if not entries:
        raise EmptyInputError("cannot select from an empty candidate list")

    def stats(i):
        return entries[i][1]

    pool = range(len(entries))
    if policy.mode == "variance_only":
        best_var = min(stats(i).variance for i in pool)
        pool = [i for i in pool if stats(i).variance <= best_var + TOLERANCE]
        return min(pool, key=lambda i: (stats(i).mean, _lex_key(entries[i][0]), i))
    best_mean = min(stats(i).mean for i in pool)
    pool = [i for i in pool if stats(i).mean <= best_mean + TOLERANCE]
    if policy.mode == "mean_only":
        return min(pool, key=lambda i: (_lex_key(entries[i][0]), i))
    return min(pool, key=lambda i: (stats(i).variance, _lex_key(entries[i][0]), i))
