"""Shrinking-window enumeration of all substring matches between two sequences.

Window sizes run from n (the full fragment) down to `min_window`; every
(v_offset, s_offset) placement is tested at every size, and every match is
recorded as a MatchBlock. Comparison counters reflect exactly the work a
short-circuiting symbol-by-symbol scanner would do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ComparisonCounters,
    EmptyInputError,
    MatchBlock,
    OrderViolationError,
    Sequence,
    validate_block,
)


@dataclass(frozen=True)
class MatchOptions:
    """Knobs for enumerate_matches.

    min_window excludes noise matches shorter than the given size.
    """

    min_window: int = 1

    def __post_init__(self):
        if self.min_window < 1:
            raise ValueError("min_window must be >= 1")


@dataclass
class MatchIndex:
    """All recorded matches grouped by window size, plus work counters."""

    m: int
    n: int
    min_window: int
    by_size: dict = field(default_factory=dict)  # window length -> tuple[MatchBlock, ...]
    counters: ComparisonCounters = field(default_factory=ComparisonCounters)

    def blocks(self) -> list:
        """All blocks across window sizes, largest windows first."""
        out = []
        for j in sorted(self.by_size, reverse=True):
            out.extend(self.by_size[j])
        return out

    def validate(self, s: Sequence, v: Sequence) -> None:
        if len(s) != self.m or len(v) != self.n:
            raise OrderViolationError("index was built for different sequence lengths")
        for j, blocks in self.by_size.items():
            for b in blocks:
                if b.length != j:
                    raise ValueError(f"block {b} filed under window size {j}")
                validate_block(b, s, v)


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
    by_size: dict = {}
    substr_count = 0
    char_count = 0

    for j in range(n, min_window - 1, -1):
        s_windows = sliding_window_view(s_arr, j)  # (m - j + 1, j)
        found = []
        for v_off in range(n - j + 1):
            eq = s_windows == v_arr[v_off : v_off + j]
            full = eq.all(axis=1)
            # Symbols a short-circuiting scan inspects: up to and including
            # the first mismatch, or all j on a full match.
            first_bad = np.argmin(eq, axis=1)
            char_count += int(np.where(full, j, first_bad + 1).sum())
            substr_count += eq.shape[0]
            for s_off in np.flatnonzero(full):
                found.append(MatchBlock(v_off, int(s_off), j))
        by_size[j] = tuple(found)

    counters = ComparisonCounters(
        substring_comparisons=substr_count,
        char_comparisons=char_count,
        claimed_comparisons=claimed_formula_value(m, n),
    )
    return MatchIndex(
        m=m,
        n=n,
        min_window=min_window,
        by_size=by_size,
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
