"""Shrinking-window enumeration of all substring matches between two sequences.

Window sizes run from n (the full fragment) down to w = `min_window`. The run
length run[i, c] of the common run of V[i:] and S[c:] yields every match and
counters exactly those of a short-circuiting symbol-by-symbol scanner, which
inspects min(run + 1, j) symbols per size-j placement. Each row follows from
the row below it alone, run[i, c] = (V[i] == S[c]) * (run[i+1, c+1] + 1), so
the matcher streams the rows from i = n-1 down to 0 and holds two of them, of
the smallest unsigned type holding n + 1, plus one equality row of that type
per distinct fragment symbol, built once per call. A row costs a few
whole-row passes: an add and a multiply for the recurrence, one sum, and one
comparison that finds the row's hits.

Cell (i, c) is a placement of every size j in w..J with J = min(n-i, m-c), so
it holds sizes(i, c) = max(J - w + 1, 0) placements. The counters follow:

- substring_comparisons = sum(sizes) = sum((n-j+1)*(m-j+1) for j in w..n)
  does not depend on the data and is taken once in closed form;
- a size-j scan inspects run + 1 symbols (through the mismatch, or to the
  end) unless j <= run, a full match of j symbols, run + 1 - j fewer. So
  char_comparisons = sum((run + 1) * sizes) - sum(T(run - w + 1)) with
  T(x) = x(x+1)/2, the last sum over the cells with run >= w alone. In
  row i every column c <= m-(n-i) holds the same n-i-w+1 sizes and the
  later ones one fewer per column, so sum(run * sizes) is a row sum plus a
  dot over at most n-i tail columns;
- claimed_comparisons, the paper's sum((m-(n-k))*(n-k) for k < n), is
  m*T1(n) - T2(n) in the sums T1, T2 of i and i*i; oracle.py keeps the loop.

A size-j match at (i, c) exists exactly when run[i, c] >= j, so the index
keeps one row (v_start, s_start, run) per cell with run >= w (the
right-maximal matches) instead of one block per size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
        """All blocks in sorted MatchBlock order: each row in turn, sizes ascending."""
        return [
            MatchBlock(v_start, s_start, j)
            for v_start, s_start, run in self.hits.tolist()
            for j in range(self.min_window, run + 1)
        ]


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

    Yields (i, cols, runs, weight) for each row i that fits a size-min_window
    placement: cols are the row's columns with run >= min_window in order,
    runs their runs as int64, and weight is sum(run * sizes) over the row.
    """
    m, n = len(s), len(v)
    w = min_window
    s_arr = _as_bytes(s)
    symbols, symbol_of_row = np.unique(_as_bytes(v), return_inverse=True)
    symbol_of_row = symbol_of_row.tolist()
    # Runs never exceed n, so run + 1 always fits the rows' dtype. Column m
    # stays 0: no run starts past the end of the reference.
    dtype = np.min_scalar_type(n + 1)
    row_sum = np.min_scalar_type(m * n)  # holds any row's sum of runs
    equal = (symbols[:, None] == s_arr).astype(dtype)  # one row per fragment symbol
    below = np.zeros(m + 1, dtype=dtype)
    row = np.zeros_like(below)
    # Row i's tail columns m-(n-i)+1 .. m-w hold n-i-w, ..., 1 sizes.
    tail_sizes = np.arange(n - w, 0, -1)
    for i in range(n - 1, -1, -1):
        run = row[:m]
        np.add(below[1:], 1, out=run)
        run *= equal[symbol_of_row[i]]
        span = n - i  # the largest window that fits row i
        if span >= w:
            head = m - span + 1  # columns c <= m - span fit every size w..span
            weight = (span - w + 1) * int(run[:head].sum(dtype=row_sum))
            weight += int(tail_sizes[i:] @ run[head : m - w + 1])
            (cols,) = (run >= w).nonzero()
            yield i, cols, run[cols].astype(np.int64), weight
        below, row = row, below


def _power_sums(k: int) -> tuple:
    """(T1(k), T2(k)), the sums of i and of i*i over i in 1..k (T1(k)**2 sums i**3)."""
    return k * (k + 1) // 2, k * (k + 1) * (2 * k + 1) // 6


def _substring_count(m: int, n: int, min_window: int) -> int:
    """sum((n-j+1)*(m-j+1) for j in min_window..n) in closed form: with
    i = n-j+1 in 1..k, k = n-min_window+1, it is the sum of i*(m-n+i)."""
    t1, t2 = _power_sums(n - min_window + 1)
    return (m - n) * t1 + t2


def _full_match_savings(runs: np.ndarray, min_window: int) -> int:
    """sum(T(run - min_window + 1)) over hit runs: the symbols a scan saves
    on its full matches, run + 1 - j at each size j in min_window..run."""
    excess = runs - (min_window - 1)
    return int((excess * (excess + 1) // 2).sum())


def _counters(m: int, n: int, min_window: int, weight: int, savings: int) -> ComparisonCounters:
    substr = _substring_count(m, n, min_window)
    return ComparisonCounters(
        substring_comparisons=substr,
        char_comparisons=substr + weight - savings,
        claimed_comparisons=claimed_formula_value(m, n),
    )


def enumerate_matches(s: Sequence, v: Sequence, opts: MatchOptions | None = None) -> MatchIndex:
    """Record every matching (v_offset, s_offset) pair at each window size.

    min_window is clamped to n so the full-size pass always runs. Raises
    EmptyInputError for empty input and OrderViolationError when the
    fragment is longer than the reference (swap the operands and retry).
    """
    min_window = _min_window(s, v, opts)
    row_ids, cols, runs = [], [], []
    weight = 0
    for i, row_cols, row_runs, row_weight in _rows(s, v, min_window):
        row_ids.append(i)
        cols.append(row_cols)
        runs.append(row_runs)
        weight += row_weight
    # Built from the last fragment row up; the first fragment row always fits.
    cols.reverse()
    v_starts = np.repeat(np.array(row_ids[::-1], dtype=np.int64), [c.size for c in cols])
    hits = np.column_stack((v_starts, np.concatenate(cols), np.concatenate(runs[::-1])))
    m, n = len(s), len(v)
    return MatchIndex(
        m=m,
        n=n,
        min_window=min_window,
        hits=hits,
        counters=_counters(m, n, min_window, weight, _full_match_savings(hits[:, 2], min_window)),
    )


def measure_counters(s: Sequence, v: Sequence) -> ComparisonCounters:
    """enumerate_matches(s, v).counters, without keeping the hit rows."""
    min_window = _min_window(s, v, None)
    weight = savings = 0
    for _, _, runs, row_weight in _rows(s, v, min_window):
        weight += row_weight
        savings += _full_match_savings(runs, min_window)
    return _counters(len(s), len(v), min_window, weight, savings)


def claimed_formula_value(m: int, n: int) -> int:
    """The paper's count sum((m-(n-k))*(n-k), k=0..n-1) = sum((m-i)*i, i=1..n)."""
    t1, t2 = _power_sums(n)
    return m * t1 - t2


def count_comparisons(m: int, n: int, min_window: int = 1) -> ComparisonCounters:
    """Closed-form predicted counters for a matcher run.

    substring_comparisons is sum over window sizes j of (n-j+1)*(m-j+1) and
    matches the measured count exactly. char_comparisons here is the
    no-short-circuit upper bound (every test inspects all j symbols);
    measured char counts are at most this value. With i = n-j+1 in 1..k,
    k = n-min_window+1, its term (n-j+1)*(m-j+1)*j is i*(m-n+i)*(n+1-i).
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if not 1 <= min_window <= n:
        raise ValueError("need 1 <= min_window <= n")
    t1, t2 = _power_sums(n - min_window + 1)
    return ComparisonCounters(
        substring_comparisons=_substring_count(m, n, min_window),
        char_comparisons=(n + 1) * (m - n) * t1 + (2 * n + 1 - m) * t2 - t1 * t1,
        claimed_comparisons=claimed_formula_value(m, n),
    )


def expected_comparisons(m: int, n: int, q, min_window: int = 1) -> ComparisonCounters:
    """Expected counters of a matcher run on random input, as exact Fractions.

    The symbols of both sequences are drawn independently from one
    distribution, and q = sum(p_x ** 2) is the chance that two of them match
    (1/sigma for sigma equally likely symbols). A size-j scan inspects
    min(run + 1, j) symbols, and P(run >= t) = q ** t, so on average it
    inspects sum(q ** t for t < j):
    E[char_comparisons] = sum((n-j+1)*(m-j+1) * sum(q ** t for t < j))
    over j in min_window..n. The other two counters do not depend on the data.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError("need 0 <= q <= 1")
    exact = count_comparisons(m, n, min_window)
    chars = Fraction(0)
    inspected = Fraction(0)  # sum(q ** t for t < j)
    for j in range(1, n + 1):
        inspected += q ** (j - 1)
        if j >= min_window:
            chars += (n - j + 1) * (m - j + 1) * inspected
    return ComparisonCounters(
        substring_comparisons=Fraction(exact.substring_comparisons),
        char_comparisons=chars,
        claimed_comparisons=Fraction(exact.claimed_comparisons),
    )
