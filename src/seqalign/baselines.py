"""Reference global (Needleman-Wunsch) and local (Smith-Waterman) aligners.

One dynamic program with linear gap costs serves both. The local variant
differs from the global one in three places: the fill keeps zero borders
and a zero floor under every cell, where the global borders carry running
gap costs; the traceback starts at the best cell instead of (m, n); and it
stops at a cell scoring <= 0 instead of at (0, 0).

Traceback ties break with fixed priority diagonal > up > left ("up"
consumes a reference symbol, "left" a fragment symbol); for the local
aligner the start cell is the first maximum in row-major order. Both
choices are part of the contract so outputs are reproducible. A score that
overflows to infinity raises SeqalignError instead of being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EmptyInputError, ScoringScheme, SeqalignError, Sequence

GAP = "-"


@dataclass(frozen=True)
class ScoredAlignment:
    """A pair of gapped rows with the score of their column-wise sum."""

    aligned_s: str
    aligned_v: str
    score: float
    match_mask: tuple

    def __post_init__(self):
        if len(self.aligned_s) != len(self.aligned_v):
            raise ValueError("aligned rows must have equal length")


def column_score(aligned_s: str, aligned_v: str, scheme: ScoringScheme) -> float:
    """Recompute the score of an alignment column by column."""
    total = 0.0
    for a, b in zip(aligned_s, aligned_v, strict=True):
        if a == GAP and b == GAP:
            raise ValueError("column with a gap in both rows")
        if a == GAP or b == GAP:
            total += scheme.gap_penalty
        else:
            total += scheme.score(a, b)
    return total


def needleman_wunsch(s: Sequence, v: Sequence, scheme: ScoringScheme | None = None) -> ScoredAlignment:
    """Optimal global alignment of the two sequences under the scheme."""
    return _align(s, v, scheme, local=False)


def smith_waterman(s: Sequence, v: Sequence, scheme: ScoringScheme | None = None) -> ScoredAlignment:
    """Best-scoring local alignment (zero floor); empty alignment scores 0."""
    return _align(s, v, scheme, local=True)


def _align(s: Sequence, v: Sequence, scheme: ScoringScheme | None, local: bool) -> ScoredAlignment:
    name = "smith_waterman" if local else "needleman_wunsch"
    scheme = scheme or ScoringScheme()
    a, b = s.residues, v.residues
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        raise EmptyInputError(f"{name} requires two non-empty sequences")

    gap = scheme.gap_penalty
    grid = [[0.0] * (n + 1) for _ in range(m + 1)]
    if not local:
        for i in range(1, m + 1):
            grid[i][0] = gap * i
        for j in range(1, n + 1):
            grid[0][j] = gap * j
    floor = 0.0 if local else -math.inf
    best, best_i, best_j = 0.0, 0, 0
    for i in range(1, m + 1):
        row, above = grid[i], grid[i - 1]
        ai = a[i - 1]
        for j in range(1, n + 1):
            val = max(
                floor,
                above[j - 1] + scheme.score(ai, b[j - 1]),
                above[j] + gap,
                row[j - 1] + gap,
            )
            row[j] = val
            if val > best:  # strict: keeps the first maximum in row-major order
                best, best_i, best_j = val, i, j
    if not local:
        best, best_i, best_j = grid[m][n], m, n
    # A finite score means every cell on the traceback path is finite too.
    if not math.isfinite(best):
        raise SeqalignError(f"{name} score overflows to {best}; scale the scheme down")

    out_s: list = []
    out_v: list = []
    i, j = best_i, best_j
    while (i > 0 or j > 0) and (not local or grid[i][j] > 0):
        here = grid[i][j]
        if i > 0 and j > 0 and here == grid[i - 1][j - 1] + scheme.score(a[i - 1], b[j - 1]):
            out_s.append(a[i - 1])
            out_v.append(b[j - 1])
            i, j = i - 1, j - 1
        # On the j == 0 border "up" is the only move: gap * i, as the border
        # was filled, need not equal the rounded sum grid[i - 1][0] + gap.
        elif i > 0 and (j == 0 or here == grid[i - 1][j] + gap):
            out_s.append(a[i - 1])
            out_v.append(GAP)
            i -= 1
        else:
            out_s.append(GAP)
            out_v.append(b[j - 1])
            j -= 1
    aligned_s = "".join(reversed(out_s))
    aligned_v = "".join(reversed(out_v))
    return ScoredAlignment(
        aligned_s=aligned_s,
        aligned_v=aligned_v,
        score=best,
        match_mask=tuple(x == y and x != GAP for x, y in zip(aligned_s, aligned_v)),
    )
