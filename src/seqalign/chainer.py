"""Build candidate alignments from a match index.

A candidate is a chain of match blocks, strictly ordered and non-overlapping
in both sequences. The search looks for chains whose blocks tile the whole
fragment (deletions-only reading) first. Only when there is none does it fall
back to the chains of maximal coverage; their leftover fragment symbols are
placed into the reference gap next to their neighboring block and reported as
substitution sites.

Chains are generated directly in canonical form (the form that
oracle.canonicalize computes): an extension that is contiguous with its
predecessor in both sequences is skipped, because the merged block is itself
in the index and produces the same canonical chain. Each state is expanded
once, so every chain is emitted once. align --swap reads insertions by
exchanging the operands before matching.

The search reads the index's hit rows and works on plain coordinate tuples.
Only the completed chains that can still be among the kept max_candidates
(the survivors of a cut on the leading component of the policy order) are
built as CandidateAlignments and scored with gapstats.chain_statistics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter

from . import gapstats
from .core import (
    CandidateAlignment,
    EmptyInputError,
    MatchBlock,
    Sequence,
    StructuralViolationError,
    validate_chain,
)
from .gapstats import SelectionPolicy
from .matcher import MatchIndex


@dataclass(frozen=True)
class ChainOptions:
    """Caps for candidate enumeration.

    max_candidates bounds the emitted list: the best max_candidates in
    policy order are kept by selection. beam_width likewise keeps the best
    partial chains per frontier group; groups are keyed by the next fragment
    position and ranked by current interior gap total, then gap variance.
    """

    max_candidates: int = 1024
    beam_width: int = 256

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")


@dataclass(frozen=True)
class ChainResult:
    """Outcome of enumerate_candidates.

    entries holds (chain, statistics) pairs in policy order. full_coverage
    is False when no chain covers the whole fragment and the entries are the
    best partial-coverage chains instead (possibly none at all).
    """

    entries: tuple
    truncated: bool
    full_coverage: bool

    @property
    def chains(self) -> tuple:
        return tuple(chain for chain, _ in self.entries)


# A search state is a plain tuple (blocks, v_end, s_end, runs): blocks holds
# (v_start, s_start, length) triples, which order as MatchBlocks do, and runs
# the interior gap runs so far.
_length = itemgetter(2)


def _beam_key(state):
    blocks, _, _, runs = state
    total = sum(runs)
    if runs:
        mean = total / len(runs)
        var = sum((r - mean) ** 2 for r in runs) / len(runs)
    else:
        var = 0.0
    return (total, var, blocks)


def _search(index: MatchIndex, n: int, m: int, opts: ChainOptions, full_cover: bool) -> list:
    """Frontier search over fragment positions; returns completed states.

    In full-coverage mode blocks must tile the fragment exactly; in partial
    mode the next block may skip fragment symbols provided the reference gap
    has room to hold them (so every emitted chain can be rendered).
    """
    # Hit rows by fragment start; a start's blocks (one per size
    # min_window..run of each row) are built when the search first reaches
    # it, then shared by every state that uses them. Their order within a
    # start is immaterial: both cuts use total orders that end in the blocks.
    rows: dict = {}
    for v_start, s_start, run in index.hits.tolist():
        rows.setdefault(v_start, []).append((s_start, run))
    expanded: dict = {}

    def blocks_at(v_start: int) -> list:
        got = expanded.get(v_start)
        if got is None:
            got = expanded[v_start] = [
                (v_start, s_start, j)
                for s_start, run in rows.get(v_start, ())
                for j in range(index.min_window, run + 1)
            ]
        return got

    frontier: dict = {0: [((), 0, 0, ())]}
    complete: list = []

    for v_pos in range(n):
        group = frontier.pop(v_pos, None)
        if not group:
            continue
        if len(group) > opts.beam_width:
            group = heapq.nsmallest(opts.beam_width, group, key=_beam_key)
        starts = [v_pos] if full_cover else range(v_pos, n)
        for blocks, v_end, s_end, runs in group:
            for v_start in starts:
                for b in blocks_at(v_start):
                    _, b_s, length = b
                    new_runs = runs
                    if blocks:
                        s_gap = b_s - s_end
                        # Strict gap when contiguous in V keeps the chain
                        # canonical; a skipped V span needs that much room.
                        if s_gap < max(v_start - v_end, 1):
                            continue
                        new_runs += (s_gap,)
                    elif b_s < v_start:
                        continue  # no room to place the leading span
                    new_v_end, new_s_end = v_start + length, b_s + length
                    new = (blocks + (b,), new_v_end, new_s_end, new_runs)
                    if full_cover:
                        if new_v_end == n:
                            complete.append(new)
                        else:
                            frontier.setdefault(new_v_end, []).append(new)
                    else:
                        if m - new_s_end >= n - new_v_end:
                            complete.append(new)
                        if new_v_end < n:
                            frontier.setdefault(new_v_end, []).append(new)
    return complete


def enumerate_candidates(
    index: MatchIndex,
    s: Sequence,
    v: Sequence,
    opts: ChainOptions | None = None,
    policy: SelectionPolicy | None = None,
) -> ChainResult:
    """Enumerate canonical candidate chains, ordered by the selection policy.

    Full-coverage chains are searched for first. When the search finds none,
    the result carries the partial-coverage chains of maximal coverage and
    full_coverage=False, so callers can tell the difference from an empty
    outcome.

    Every completion is ranked on the leading component of the policy order
    (gapstats.leading_key), read off the runs its search state carries. Only
    the completions at or below the max_candidates-th smallest leading value
    become chains and are scored; the others cannot be among the kept ones.
    """
    opts = opts or ChainOptions()
    policy = policy or SelectionPolicy()
    n, m = len(v), len(s)
    if index.n != n or index.m != m:
        raise StructuralViolationError("match index does not belong to these sequences")

    states = _search(index, n, m, opts, full_cover=True)
    full_coverage = bool(states)
    if not states:
        states = _search(index, n, m, opts, full_cover=False)
        if states:
            covers = [sum(map(_length, blocks)) for blocks, _, _, _ in states]
            best = max(covers)
            states = [st for st, cover in zip(states, covers) if cover == best]
            full_coverage = best == n

    k = opts.max_candidates
    truncated = len(states) > k
    if truncated:
        lead = gapstats.leading_key(policy)
        leads = [lead(runs) for _, _, _, runs in states]
        bound = heapq.nsmallest(k, leads)[-1]
        states = [st for st, x in zip(states, leads) if x <= bound]

    entries = []
    for blocks, _, _, _ in states:
        chain = CandidateAlignment(blocks=tuple(MatchBlock(*b) for b in blocks))
        entries.append((chain, gapstats.chain_statistics(chain, m)))
    entries = heapq.nsmallest(k, entries, key=gapstats.sort_key(policy))
    return ChainResult(entries=tuple(entries), truncated=truncated, full_coverage=full_coverage)


@dataclass(frozen=True)
class RenderedAlignment:
    """Three-line display: reference, match markers, placed fragment."""

    s_line: str
    marker_line: str
    v_line: str
    substitutions: tuple = ()  # reference positions of placed-but-unmatched symbols

    def text(self) -> str:
        return "\n".join((self.s_line, self.marker_line, self.v_line))


def render(chain: CandidateAlignment, s: Sequence, v: Sequence) -> RenderedAlignment:
    """Render a chain in the dash format: line 1 is the reference verbatim,
    line 2 marks matched positions with '|', line 3 places each fragment
    symbol at its reference position with '-' elsewhere (always length m).
    """
    if not chain.blocks:
        raise EmptyInputError("cannot render an empty chain")
    validate_chain(chain, s, v)
    m, n = len(s), len(v)
    row = ["-"] * m
    markers = [" "] * m
    for b in chain.blocks:
        for i in range(b.length):
            row[b.s_start + i] = v.residues[b.v_start + i]
            markers[b.s_start + i] = "|"

    subs = []

    def place(v_from: int, v_to: int, at: int) -> None:
        span = v_to - v_from
        for i in range(span):
            row[at + i] = v.residues[v_from + i]
            subs.append(at + i)

    first, last = chain.blocks[0], chain.blocks[-1]
    lead = first.v_start
    if lead:
        if first.s_start < lead:
            raise StructuralViolationError("no room for the unmatched leading span")
        place(0, lead, first.s_start - lead)
    prev = first
    for b in chain.blocks[1:]:
        skip = b.v_start - prev.v_end
        if skip:
            if b.s_start - prev.s_end < skip:
                raise StructuralViolationError("no room for an unmatched interior span")
            place(prev.v_end, b.v_start, prev.s_end)
        prev = b
    trail = n - last.v_end
    if trail:
        if m - last.s_end < trail:
            raise StructuralViolationError("no room for the unmatched trailing span")
        place(last.v_end, n, last.s_end)

    return RenderedAlignment(
        s_line=s.residues,
        marker_line="".join(markers),
        v_line="".join(row),
        substitutions=tuple(subs),
    )
