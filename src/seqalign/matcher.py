"""Shrinking-window enumeration of all substring matches between two sequences.

Window sizes run from n (the full fragment) down to `min_window`. One table,
run[i, c] = length of the common run of V[i:] and S[c:], yields every match
and counters exactly those of a short-circuiting symbol-by-symbol scanner,
which inspects min(run + 1, j) symbols per size-j placement. It is
(n+1) x (m+1) of the smallest type holding n + 1. A size-j match at (i, c)
exists exactly when run[i, c] >= j, so the index keeps one row
(v_start, s_start, run) per cell with run >= min_window (the right-maximal
matches) instead of one block per size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ComparisonCounters, EmptyInputError, MatchBlock, OrderViolationError, Sequence


@dataclass(frozen=True)
class MatchOptions:
    """Knobs for enumerate_matches.

    min_window excludes noise matches shorter than the given size.
    """

    min_window: int = 1

    def __post_init__(self):
        if self.min_window < 1:
            raise ValueError("min_window must be >= 1")


@dataclass(eq=False)
class MatchIndex:
    """All recorded matches as rows, plus work counters.

    hits is a (k, 3) integer array of rows (v_start, s_start, run), one per
    placement with run >= min_window, in (v_start, s_start) order. A row
    stands for its blocks of every size min_window..run; they all fit, since
    a run never passes the end of either sequence.
    """

    m: int
    n: int
    min_window: int
    hits: np.ndarray
    counters: ComparisonCounters = field(default_factory=ComparisonCounters)

    def blocks(self) -> list:
        """All blocks, largest windows first, in (v_start, s_start) order within a size."""
        out = [
            MatchBlock(v_start, s_start, j)
            for v_start, s_start, run in self.hits.tolist()
            for j in range(self.min_window, run + 1)
        ]
        out.sort(key=lambda b: b.length, reverse=True)  # stable: row order within a size
        return out


def _as_bytes(seq: Sequence) -> np.ndarray:
    return np.frombuffer(seq.residues.encode("ascii"), dtype=np.uint8)


def enumerate_matches(s: Sequence, v: Sequence, opts: MatchOptions | None = None) -> MatchIndex:
    """Record every matching (v_offset, s_offset) pair at each window size.

    min_window is clamped to n so the full-size pass always runs. Raises
    EmptyInputError for empty input and OrderViolationError when the
    fragment is longer than the reference (swap the operands and retry).
    """
    opts = opts or MatchOptions()
    m, n = len(s), len(v)
    if n == 0:
        raise EmptyInputError("fragment sequence is empty")
    if m == 0:
        raise EmptyInputError("reference sequence is empty")
    if n > m:
        raise OrderViolationError(
            f"fragment length {n} exceeds reference length {m}; swap the operands"
        )
    min_window = min(opts.min_window, n)

    s_arr = _as_bytes(s)
    v_arr = _as_bytes(v)
    # Runs never exceed n, so run + 1 always fits the table's dtype.
    run = np.zeros((n + 1, m + 1), dtype=np.min_scalar_type(n + 1))
    for i in range(n - 1, -1, -1):
        run[i, :m] = (v_arr[i] == s_arr) * (run[i + 1, 1:] + 1)

    found = run >= min_window  # both read row-major: (v_start, s_start) order
    hits = np.column_stack((np.argwhere(found), run[found]))

    substr_count = 0
    char_count = 0
    for j in range(n, min_window - 1, -1):
        window = run[: n - j + 1, : m - j + 1]  # rows v_offset, columns s_offset
        substr_count += window.size
        # Symbols a short-circuiting scan inspects: up to and including the
        # first mismatch, or all j on a full match.
        char_count += int(np.minimum(window + 1, j).sum())

    counters = ComparisonCounters(
        substring_comparisons=substr_count,
        char_comparisons=char_count,
        claimed_comparisons=claimed_formula_value(m, n),
    )
    return MatchIndex(
        m=m,
        n=n,
        min_window=min_window,
        hits=hits,
        counters=counters,
    )


def claimed_formula_value(m: int, n: int) -> int:
    """The advertised closed-form comparison count sum((m-(n-k))*(n-k), k=0..n-1)."""
    return sum((m - (n - k)) * (n - k) for k in range(n))


def count_comparisons(m: int, n: int, min_window: int = 1) -> ComparisonCounters:
    """Closed-form predicted counters for a matcher run.

    substring_comparisons is sum over window sizes j of (n-j+1)*(m-j+1) and
    matches the measured count exactly. char_comparisons here is the
    no-short-circuit upper bound (every test inspects all j symbols);
    measured char counts are at most this value.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if not 1 <= min_window <= n:
        raise ValueError("need 1 <= min_window <= n")
    substr = 0
    chars = 0
    for j in range(min_window, n + 1):
        pairs = (n - j + 1) * (m - j + 1)
        substr += pairs
        chars += pairs * j
    return ComparisonCounters(
        substring_comparisons=substr,
        char_comparisons=chars,
        claimed_comparisons=claimed_formula_value(m, n),
    )
