"""Shrinking-window enumeration of all substring matches between two sequences.

Window sizes run from n (the full fragment) down to `min_window`. The run
length run[i, c] of the common run of V[i:] and S[c:] yields every match and
counters exactly those of a short-circuiting symbol-by-symbol scanner, which
inspects min(run + 1, j) symbols per size-j placement. Each row follows from
the row below it alone, run[i, c] = (V[i] == S[c]) * (run[i+1, c+1] + 1), so
the matcher streams the rows from i = n-1 down to 0 and holds two of them, of
the smallest unsigned type holding n + 1, plus a few int64 temporaries of
length m. Cell (i, c) is a placement of every size j in min_window..J with
J = min(n-i, m-c); its counts come in closed form, per cell rather than per
window size: max(J - min_window + 1, 0) substring comparisons, and
sum(min(run + 1, j) for j in min_window..J) symbol comparisons, an arithmetic
series up to run plus (run + 1) for each size above it. A size-j match at
(i, c) exists exactly when run[i, c] >= j, so the index keeps one row
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


def _min_window(s: Sequence, v: Sequence, opts: MatchOptions | None) -> int:
    """Check the operands; min_window clamped to n so the full-size pass always runs."""
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
    return min(opts.min_window, n)


def _rows(s: Sequence, v: Sequence, min_window: int):
    """Stream the run-length table from the last fragment row up.

    Yields (i, run, substring comparisons, symbol comparisons) per row i:
    run is row i as a fresh int64 array, and the counts are those of the
    row's cells.
    """
    m, n = len(s), len(v)
    s_arr = _as_bytes(s)
    v_arr = _as_bytes(v)
    # Runs never exceed n, so run + 1 always fits the rows' dtype. Column m
    # stays 0: no run starts past the end of the reference.
    below = np.zeros(m + 1, dtype=np.min_scalar_type(n + 1))
    row = np.zeros_like(below)
    to_end = m - np.arange(m)  # m - c: reference symbols from column c on
    for i in range(n - 1, -1, -1):
        np.add(below[1:], 1, out=row[:m])
        row[:m] *= v_arr[i] == s_arr
        run = row[:m].astype(np.int64)
        # Cell (i, c) is a placement of every size min_window..span, where
        # span = min(n - i, m - c) is the largest window that still fits.
        span = np.minimum(n - i, to_end)
        substr = int(np.maximum(span - min_window + 1, 0).sum())
        # A short-circuiting scan inspects min(run + 1, j) symbols per size j:
        # j itself for j <= run, then run + 1 (the mismatch, or the end).
        series = (min_window + run) * np.maximum(run - min_window + 1, 0) // 2
        capped = (run + 1) * np.maximum(span - np.maximum(min_window, run + 1) + 1, 0)
        yield i, run, substr, int(series.sum() + capped.sum())
        below, row = row, below


def enumerate_matches(s: Sequence, v: Sequence, opts: MatchOptions | None = None) -> MatchIndex:
    """Record every matching (v_offset, s_offset) pair at each window size.

    min_window is clamped to n so the full-size pass always runs. Raises
    EmptyInputError for empty input and OrderViolationError when the
    fragment is longer than the reference (swap the operands and retry).
    """
    min_window = _min_window(s, v, opts)
    hit_rows = []
    substr_count = 0
    char_count = 0
    for i, run, substr, chars in _rows(s, v, min_window):
        substr_count += substr
        char_count += chars
        cols = np.flatnonzero(run >= min_window)
        if cols.size:
            hit_rows.append(np.column_stack((np.full(cols.size, i), cols, run[cols])))
    hit_rows.reverse()  # built from the last fragment row up
    hits = np.concatenate(hit_rows) if hit_rows else np.empty((0, 3), dtype=np.int64)

    m, n = len(s), len(v)
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


def measure_counters(s: Sequence, v: Sequence) -> ComparisonCounters:
    """enumerate_matches(s, v).counters, without keeping the hit rows."""
    min_window = _min_window(s, v, None)
    substr_count = 0
    char_count = 0
    for _, _, substr, chars in _rows(s, v, min_window):
        substr_count += substr
        char_count += chars
    return ComparisonCounters(
        substring_comparisons=substr_count,
        char_comparisons=char_count,
        claimed_comparisons=claimed_formula_value(len(s), len(v)),
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
