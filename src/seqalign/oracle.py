"""Independent brute-force verifiers for the production modules.

Deliberately naive and kept apart from the production code paths: the match
scan and its comparison counts come from a plain double loop, chain
enumeration explores every valid block combination (canonicalizing
afterwards), and the alignment scores come from exhaustively scoring every
monotone pairing of symbol positions — every global alignment with linear
gap costs corresponds to exactly one such pairing, so the maximum over
pairings is the maximum over alignments. Hard size limits raise
SizeLimitError instead of running forever.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    CandidateAlignment,
    ComparisonCounters,
    MatchBlock,
    ScoringScheme,
    Sequence,
    SizeLimitError,
    canonicalize,
)
from .matcher import claimed_formula_value

MAX_SCORE_LEN = 8
MAX_CHAIN_BLOCKS = 512


def _scan(s: Sequence, v: Sequence, j: int):
    """Yield (v_off, s_off, k) for every size-j placement, where k is the
    number of leading symbols that agree, found by direct symbol-by-symbol
    double loop that stops at the first mismatch."""
    if not 1 <= j <= len(v) <= len(s):
        raise ValueError("need 1 <= j <= n <= m")
    a, b = s.residues, v.residues
    for v_off in range(len(b) - j + 1):
        for s_off in range(len(a) - j + 1):
            k = 0
            while k < j and b[v_off + k] == a[s_off + k]:
                k += 1
            yield v_off, s_off, k


def naive_match_scan(s: Sequence, v: Sequence, j: int) -> list:
    """All (v_off, s_off) placements where the two size-j substrings agree,
    in (v_off, s_off) order."""
    return [MatchBlock(v_off, s_off, j) for v_off, s_off, k in _scan(s, v, j) if k == j]


def naive_scan_counters(s: Sequence, v: Sequence, min_window: int = 1) -> ComparisonCounters:
    """The counters of a short-circuiting scan over window sizes min_window..n:
    one substring comparison per placement, and the symbols inspected up to
    and including the first mismatch, or all j on a full match."""
    if not 1 <= min_window <= len(v):
        raise ValueError("need 1 <= min_window <= n")
    substr = chars = 0
    for j in range(min_window, len(v) + 1):
        for _, _, k in _scan(s, v, j):
            substr += 1
            chars += min(k + 1, j)
    return ComparisonCounters(
        substring_comparisons=substr,
        char_comparisons=chars,
        claimed_comparisons=claimed_formula_value(len(s), len(v)),
    )


def exhaustive_chains(blocks: list, n: int) -> list:
    """Every canonical full-coverage chain over the given blocks, such as a
    match index's blocks() or any hand-picked set.

    Explores all valid tilings of the fragment, including ones with blocks
    contiguous in both sequences, then canonicalizes and deduplicates.
    """
    if len(blocks) > MAX_CHAIN_BLOCKS:
        raise SizeLimitError(
            f"{len(blocks)} blocks exceed the exhaustive-chain limit of {MAX_CHAIN_BLOCKS}"
        )
    by_v: dict = {}
    for b in blocks:
        by_v.setdefault(b.v_start, []).append(b)
    for lst in by_v.values():
        lst.sort()

    seen = set()
    out = []

    def extend(v_pos: int, s_end: int, acc: tuple) -> None:
        if v_pos == n:
            chain = canonicalize(CandidateAlignment(blocks=acc))
            key = chain.key()
            if key not in seen:
                seen.add(key)
                out.append(chain)
            return
        for b in by_v.get(v_pos, ()):
            if b.s_start >= s_end:
                extend(b.v_end, b.s_end, acc + (b,))

    if n > 0:
        extend(0, 0, ())
    return out


@lru_cache(maxsize=None)
def _combo(length: int, k: int) -> np.ndarray:
    return np.array(list(combinations(range(length), k)), dtype=np.intp)


def _byte_array(seq: Sequence) -> np.ndarray:
    return np.frombuffer(seq.residues.encode("ascii"), dtype=np.uint8)


def _check_score_size(s: Sequence, v: Sequence) -> None:
    if len(s) > MAX_SCORE_LEN or len(v) > MAX_SCORE_LEN:
        raise SizeLimitError(
            f"sequences longer than {MAX_SCORE_LEN} exceed the exhaustive-score limit"
        )


def exhaustive_global_score(s: Sequence, v: Sequence, scheme: ScoringScheme) -> float:
    """Maximum score over all global alignments, by scoring every monotone
    pairing of k reference positions with k fragment positions (k = 0..min)."""
    _check_score_size(s, v)
    m, n = len(s), len(v)
    a, b = _byte_array(s), _byte_array(v)
    best = scheme.gap_penalty * (m + n)  # the all-gaps alignment (k = 0)
    for k in range(1, min(m, n) + 1):
        si = _combo(m, k)
        vi = _combo(n, k)
        matches = (a[si][:, None, :] == b[vi][None, :, :]).sum(axis=2)
        scores = (
            matches * scheme.match_score
            + (k - matches) * scheme.mismatch_penalty
            + scheme.gap_penalty * ((m - k) + (n - k))
        )
        best = max(best, float(scores.max()))
    return float(best)


def exhaustive_local_score(s: Sequence, v: Sequence, scheme: ScoringScheme) -> float:
    """Best exhaustive_global_score over all substring pairs, floored at 0.

    Gap penalties are never positive, so for any monotone pairing the best
    enclosing substring pair is the tight span around its paired positions;
    scoring every pairing with tight-span gap costs therefore visits every
    substring-pair optimum.
    """
    _check_score_size(s, v)
    m, n = len(s), len(v)
    a, b = _byte_array(s), _byte_array(v)
    best = 0.0  # the empty alignment
    for k in range(1, min(m, n) + 1):
        si = _combo(m, k)
        vi = _combo(n, k)
        matches = (a[si][:, None, :] == b[vi][None, :, :]).sum(axis=2)
        span_s = si[:, -1] - si[:, 0] + 1 - k
        span_v = vi[:, -1] - vi[:, 0] + 1 - k
        scores = (
            matches * scheme.match_score
            + (k - matches) * scheme.mismatch_penalty
            + scheme.gap_penalty * (span_s[:, None] + span_v[None, :])
        )
        best = max(best, float(scores.max()))
    return float(best)
