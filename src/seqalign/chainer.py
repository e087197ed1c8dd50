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
in the index and produces the same canonical chain. Each state is extended
once, so every chain is emitted once. align --swap reads insertions by
exchanging the operands before matching.

enumerate_candidates turns the index's hit rows into one table of plain
(v_start, s_start, length) tuples once per call, and both searches (full
cover, then the fallback) read that table. Only the completed chains that
can still be among the kept max_candidates (the survivors of a cut on the
leading component of the policy order) are built as CandidateAlignments and
scored with gapstats.chain_statistics.

render draws any chain in one walk in reference order, checking each block
and unmatched span as it places it; there is no separate validation pass.
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


def _search(table: dict, n: int, m: int, opts: ChainOptions, full_cover: bool) -> list:
    """Frontier search over fragment positions; returns completed states.

    table maps each fragment start to its (v_start, s_start, length)
    blocks. In full-coverage mode blocks must tile the fragment exactly; in
    partial mode the next block may skip fragment symbols provided the
    reference gap has room to hold them (so every emitted chain can be
    rendered).
    """
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
                for b in table.get(v_start, ()):
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

    # The index's hit rows turned once into their blocks, keyed by fragment
    # start: a row (v_start, s_start, run) gives one block of each size
    # min_window..run. Both searches read this one table.
    table: dict = {}
    for v_start, s_start, run in index.hits.tolist():
        table.setdefault(v_start, []).extend(
            (v_start, s_start, j) for j in range(index.min_window, run + 1)
        )
    states = _search(table, n, m, opts, full_cover=True)
    full_coverage = bool(states)
    if not states:
        states = _search(table, n, m, opts, full_cover=False)
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

    One walk places the segments in reference order. The unmatched leading
    span ends where the first block starts; every other unmatched span
    starts where the block before it ends. A segment must start at or after
    the column the previous one ended at and end within m: that one check is
    the room rule for all three kinds of span and the reference bound for
    blocks. A block must also spell the same symbols in both sequences,
    which fails too when it runs past the fragment.
    """
    blocks = chain.blocks
    if not blocks:
        raise EmptyInputError("cannot render an empty chain")
    m, n = len(s), len(v)
    # (v_from, v_to, s_from, block), block None for an unmatched span.
    segments = [(0, blocks[0].v_start, blocks[0].s_start - blocks[0].v_start, None)]
    for b, v_next in zip(blocks, [b.v_start for b in blocks[1:]] + [n]):
        segments += ((b.v_start, b.v_end, b.s_start, b), (b.v_end, v_next, b.s_end, None))
    row, markers, subs = [], [], []
    column = 0  # reference columns before this one are placed
    for v_from, v_to, at, block in segments:
        if v_from == v_to:
            continue  # an empty span
        end = at + v_to - v_from
        if at < column or end > m:
            what = f"block {block}" if block else f"unmatched fragment span {v_from}..{v_to}"
            raise StructuralViolationError(
                f"no room for {what} at reference {at}..{end}: {column}..{m} is free"
            )
        placed = v.residues[v_from:v_to]
        if block is None:
            markers.append(" " * (end - column))
            subs.extend(range(at, end))
        elif placed != s.residues[at:end]:
            raise StructuralViolationError(f"block {block} does not match the sequences (n={n})")
        else:
            markers.append(" " * (at - column) + "|" * block.length)
        row.append("-" * (at - column) + placed)
        column = end
    return RenderedAlignment(
        s_line=s.residues,
        marker_line="".join(markers) + " " * (m - column),
        v_line="".join(row) + "-" * (m - column),
        substitutions=tuple(subs),
    )
