"""Independent brute-force verifiers for the production modules.

Deliberately naive and kept apart from the production code paths: the match
scan and its comparison counts come from a plain double loop, the closed-form
counts (the paper's claimed one too) as their literal sums, chain enumeration
explores every valid block combination (canonicalizing afterwards), and the
alignment scores come from exhaustively scoring every monotone pairing of
symbol positions — every global alignment with linear gap costs corresponds to
exactly one such pairing, so the maximum over pairings is the maximum over
alignments. Hard size limits raise SizeLimitError instead of running forever.
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
)

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


def claimed_count(m: int, n: int) -> int:
    """The paper's comparison count, as its loop: sum((m-(n-k))*(n-k), k=0..n-1)."""
    return sum((m - (n - k)) * (n - k) for k in range(n))


def literal_counts(m: int, n: int, min_window: int = 1) -> ComparisonCounters:
    """matcher.count_comparisons written as its sums: one substring test of
    j symbols per size-j placement, j in min_window..n, and the claimed count."""
    substr = chars = 0
    for j in range(min_window, n + 1):
        placements = (n - j + 1) * (m - j + 1)
        substr += placements
        chars += placements * j
    return ComparisonCounters(substr, chars, claimed_count(m, n))


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
        claimed_comparisons=claimed_count(len(s), len(v)),
    )


def canonicalize(chain: CandidateAlignment) -> CandidateAlignment:
    """Merge every consecutive block pair that is contiguous in both sequences.

    The rendering of the input and output chains is identical; the result is
    the unique canonical form, and the operation is idempotent.
    """
    merged = []
    for b in chain.blocks:
        if merged and merged[-1].v_end == b.v_start and merged[-1].s_end == b.s_start:
            last = merged.pop()
            merged.append(MatchBlock(last.v_start, last.s_start, last.length + b.length))
        else:
            merged.append(b)
    return CandidateAlignment(blocks=tuple(merged))


def check_chain_size(count: int) -> None:
    """Refuse count blocks past the exhaustive-chain limit, before any is built."""
    if count > MAX_CHAIN_BLOCKS:
        raise SizeLimitError(f"{count} blocks exceed the exhaustive-chain limit of {MAX_CHAIN_BLOCKS}")


def exhaustive_chains(blocks: list, n: int) -> list:
    """Every canonical full-coverage chain over the given blocks, such as a
    match index's blocks() or any hand-picked set.

    Explores all valid tilings of the fragment, including ones with blocks
    contiguous in both sequences, then canonicalizes and deduplicates.
    """
    check_chain_size(len(blocks))
    by_v: dict = {}
    for b in blocks:
        by_v.setdefault(b.v_start, []).append(b)
    for lst in by_v.values():
        lst.sort()

    found = {}

    def extend(v_pos: int, s_end: int, acc: tuple) -> None:
        if v_pos == n:
            chain = canonicalize(CandidateAlignment(blocks=acc))
            found[chain.blocks] = chain
            return
        for b in by_v.get(v_pos, ()):
            if b.s_start >= s_end:
                extend(b.v_end, b.s_end, acc + (b,))

    if n > 0:
        extend(0, 0, ())
    return list(found.values())


def exhaustive_partial_chains(blocks: list, m: int, n: int) -> list:
    """Every canonical chain of maximal coverage over the given blocks whose
    unmatched fragment spans all have room in the reference.

    A chain is any sequence of blocks ordered and non-overlapping in both
    sequences. It has room when the reference holds each unmatched span where
    it is placed: the leading span before the first block, each interior span
    in the gap before the next block, the trailing span after the last block.
    All such chains are explored, then canonicalized and deduplicated, and
    those of the largest coverage are kept; no blocks at all gives [].
    """
    check_chain_size(len(blocks))
    found = {}

    def extend(acc: tuple) -> None:
        last = acc[-1]
        if m - last.s_end >= n - last.v_end:
            chain = canonicalize(CandidateAlignment(blocks=acc))
            found[chain.blocks] = chain
        for b in blocks:
            if b.v_start >= last.v_end and b.s_start - last.s_end >= b.v_start - last.v_end:
                extend(acc + (b,))

    for b in blocks:
        if b.s_start >= b.v_start:
            extend((b,))
    best = max((chain.coverage for chain in found.values()), default=0)
    return [chain for chain in found.values() if chain.coverage == best]


@lru_cache(maxsize=None)
def _combo(length: int, k: int) -> np.ndarray:
    return np.array(list(combinations(range(length), k)), dtype=np.intp)


def _exhaustive_score(s: Sequence, v: Sequence, scheme: ScoringScheme, local: bool) -> float:
    """The best score over every pairing, in the two modes that differ where
    baselines._align does: the best starts at the empty alignment's 0
    (local) or the all-gaps score (global), and the gaps are the unpaired
    symbols in the pairing's tight span (local) or all of them (global)."""
    m, n = len(s), len(v)
    if m > MAX_SCORE_LEN or n > MAX_SCORE_LEN:
        raise SizeLimitError(f"sequences longer than {MAX_SCORE_LEN} exceed the exhaustive-score limit")
    a, b = (np.frombuffer(x.residues.encode("ascii"), dtype=np.uint8) for x in (s, v))
    best = 0.0 if local else scheme.gap_penalty * (m + n)
    for k in range(1, min(m, n) + 1):
        si, vi = _combo(m, k), _combo(n, k)
        matches = (a[si][:, None, :] == b[vi][None, :, :]).sum(axis=2)
        span_s, span_v = (si[:, -1] - si[:, 0] + 1, vi[:, -1] - vi[:, 0] + 1) if local else (m, n)
        scores = (
            matches * scheme.match_score
            + (k - matches) * scheme.mismatch_penalty
            + scheme.gap_penalty * np.add.outer(span_s - k, span_v - k)
        )
        best = max(best, float(scores.max()))
    return float(best)


def exhaustive_global_score(s: Sequence, v: Sequence, scheme: ScoringScheme) -> float:
    """Maximum score over all global alignments, by scoring every monotone
    pairing of k reference positions with k fragment positions (k = 0..min)."""
    return _exhaustive_score(s, v, scheme, local=False)


def exhaustive_local_score(s: Sequence, v: Sequence, scheme: ScoringScheme) -> float:
    """Best exhaustive_global_score over all substring pairs, floored at 0.

    Gap penalties are never positive, so for any monotone pairing the best
    enclosing substring pair is the tight span around its paired positions;
    scoring every pairing with tight-span gap costs therefore visits every
    substring-pair optimum.
    """
    return _exhaustive_score(s, v, scheme, local=True)
