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

Both searches read one table of the index's blocks, a row per fragment start
sorted by s_start, and a state's feasible extensions in a row begin at one
bisect. A state carries its integer gap total and coverage; its gap runs are
read off its blocks. The fallback keeps only the completions at the largest
coverage seen so far. An exact test (one-level fragment chaining, Abouelhoda
& Ohlebusch 2005) skips the full-cover search when no chain tiles the
fragment; the beam may still lose a tiling that exists, and the fallback then
runs too.

One cut keeps every item below the k-th smallest lead and ranks only the
items tied on it: the beam leads on the gap total, the kept candidates on the
mean. variance_only keeps and orders them on its whole order in integers
(gapstats.variance_rank, then the blocks), with no Fraction. So exactly the
kept max_candidates completions are built as CandidateAlignments, sharing one
MatchBlock per distinct block, and scored with gapstats.chain_statistics.
render draws any chain in one walk over its blocks, checking each block and
unmatched span as it goes; callers that render many chains of one pair share
a dict of the pieces drawn, so each distinct piece is drawn and checked once.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
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


# A search state is a plain tuple (blocks, s_end, total, cover): blocks
# holds (v_start, s_start, length) triples, which equal and order as
# MatchBlocks do, total is the integer sum of the interior gap runs and cover
# the number of fragment symbols matched. Every run is at least 1, so k
# blocks have k - 1 runs, and _runs reads them off the blocks when needed.
_total = itemgetter(2)
_cover = itemgetter(3)


def _runs(blocks) -> list:
    return [b[1] - a[1] - a[2] for a, b in zip(blocks, blocks[1:])]


def _tie_rank(state):
    """The beam's order past the total: float gap variance, then the blocks."""
    runs = _runs(state[0])
    mean = state[2] / len(runs) if runs else 0.0
    return (sum((r - mean) ** 2 for r in runs) / (len(runs) or 1), state[0])


def _cut(items: list, k: int, lead, rank) -> list:
    """The k items smallest by (lead(item), rank(item)), in no set order.

    Every item below the k-th smallest lead is kept, and only those that tie
    on it are ranked, so no other item's rank is computed.
    """
    leads = list(map(lead, items))
    bound = heapq.nsmallest(k, leads)[-1]
    near = [item for item, x in zip(items, leads) if x <= bound]
    if len(near) <= k:
        return near
    kept = [item for item in near if lead(item) < bound]
    ties = [item for item in near if lead(item) == bound]
    return kept + heapq.nsmallest(k - len(kept), ties, key=rank)


def _search(table: list, n: int, m: int, opts: ChainOptions, full_cover: bool) -> list:
    """Frontier search over fragment positions; returns completed states.

    In full-coverage mode blocks must tile the fragment exactly. In partial
    mode the next block may skip fragment symbols if the reference gap has
    room for them (so every emitted chain renders), and only the completions
    at the largest cover seen so far are kept. A state's extensions in a row
    are the blocks from s_start = s_end + max(v_start - v_end, 1) on: a strict
    gap when contiguous in V keeps the chain canonical, and a skipped V span
    needs room. A first block needs s_start >= v_start, room for the leading
    span.
    """
    frontier = [[] for _ in range(n + 1)]  # states by v_end
    for v_start in (0,) if full_cover else range(n):
        s_starts, row = table[v_start]
        for b in row[bisect_left(s_starts, v_start) :]:
            _, b_s, length = b
            frontier[v_start + length].append(((b,), b_s + length, 0, length))
    complete, best = [], 0
    for v_pos in range(1, n + 1):
        group, frontier[v_pos] = frontier[v_pos], None
        if not full_cover:  # complete: the trailing span has room after s_end
            done = [st for st in group if st[1] <= m - n + v_pos]
            top = max(map(_cover, done), default=best - 1)
            if top > best:
                best, complete = top, []
            if top == best:
                complete += [st for st in done if _cover(st) == top]
        if v_pos == n:
            return group if full_cover else complete
        if len(group) > opts.beam_width:
            group = _cut(group, opts.beam_width, _total, _tie_rank)
        rows = table[v_pos : v_pos + 1] if full_cover else table[v_pos:]
        for blocks, s_end, total, cover in group:
            base = total - s_end
            for skip, (s_starts, row) in enumerate(rows):
                v_start = v_pos + skip
                for b in row[bisect_left(s_starts, s_end + (skip or 1)) :]:
                    _, b_s, length = b
                    frontier[v_start + length].append(
                        (blocks + (b,), b_s + length, base + b_s, cover + length)
                    )


def _block_table(index: MatchIndex) -> list:
    """The index's blocks as one (s_starts, blocks) row per fragment start.

    A hit row (v_start, s_start, run) gives a triple of each length
    min_window..run; hit rows come in (v_start, s_start) order, for bisect.
    """
    table = [([], []) for _ in range(index.n)]
    for v_start, s_start, run in index.hits.tolist():
        s_starts, row = table[v_start]
        sizes = range(index.min_window, run + 1)
        s_starts += [s_start] * len(sizes)
        row += [(v_start, s_start, j) for j in sizes]
    return table


def _has_cover(table: list, n: int) -> bool:
    """Whether some chain of the table's blocks tiles the whole fragment.

    One forward pass: ends[p] is the smallest reference end of a tiling of
    V[:p] (-1 for the empty one). A next block must start strictly after it,
    as in the full-cover search, so the smallest end admits every extension
    that a larger one does (one-level fragment chaining).
    """
    unreached = float("inf")
    ends = [-1] + [unreached] * n
    for v_start, (s_starts, row) in enumerate(table):  # none start after inf
        for _, b_s, length in row[bisect_right(s_starts, ends[v_start]) :]:
            if b_s + length < ends[v_start + length]:
                ends[v_start + length] = b_s + length
    return ends[n] != unreached


def enumerate_candidates(
    index: MatchIndex,
    s: Sequence,
    v: Sequence,
    opts: ChainOptions | None = None,
    policy: SelectionPolicy | None = None,
) -> ChainResult:
    """Enumerate canonical candidate chains, ordered by the selection policy.

    Full-coverage chains come first; without any, the result carries the
    partial-coverage chains of maximal coverage and full_coverage=False, so
    callers can tell the difference from an empty outcome.

    Only the kept completions are built and scored. The cut leads on the
    mean, read off a state's total, and ranks the chains tied on the boundary
    mean by gapstats.policy_key, then the blocks. Under variance_only the
    kept chains are the first max_candidates, and come out in order, by
    gapstats.variance_rank, then the blocks.
    """
    opts = opts or ChainOptions()
    policy = policy or SelectionPolicy()
    n, m = len(v), len(s)
    if index.n != n or index.m != m:
        raise StructuralViolationError("match index does not belong to these sequences")

    table = _block_table(index)  # both searches and the cover test read it
    states = _search(table, n, m, opts, full_cover=True) if _has_cover(table, n) else []
    full_coverage = bool(states)
    if not states:
        states = _search(table, n, m, opts, full_cover=False)
        full_coverage = bool(states) and _cover(states[0]) == n

    k = opts.max_candidates
    truncated = len(states) > k
    variance_only = policy.mode == "variance_only"
    if variance_only:  # the whole order in integers, a total order with the blocks
        vrank = gapstats.variance_rank(max((len(st[0]) for st in states), default=1) - 1)
        states = heapq.nsmallest(k, states, key=lambda st: (vrank(_runs(st[0])), st[0]))
    elif truncated:  # lead on the mean, bit for bit as statistics() computes it on integer runs
        key = gapstats.policy_key(policy)
        lead = lambda st: st[2] / (len(st[0]) - 1) if len(st[0]) > 1 else 0.0
        states = _cut(states, k, lead, lambda st: (key(gapstats.statistics(_runs(st[0]))), st[0]))
        states.sort(key=lead)  # the closing sort then finds runs already in order

    distinct = {triple for blocks, *_ in states for triple in blocks}
    made = {triple: MatchBlock(*triple) for triple in distinct}  # shared by the kept chains
    entries = []
    for blocks, *_ in states:
        chain = CandidateAlignment(blocks=tuple(map(made.__getitem__, blocks)))
        entries.append((chain, gapstats.chain_statistics(chain, m)))
    if not variance_only:  # already in policy order, without a Fraction per entry
        entries.sort(key=gapstats.sort_key(policy))
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


def _piece(block, column: int, v_from: int, s_res: str, v_res: str) -> tuple:
    """The unmatched span v_from..block.v_start and the block, drawn from
    reference column `column` on: (markers, row, substitutions, end column).

    Only the first block is drawn from column 0 (every block ends at a
    column past 0); its leading span ends where it starts. Every later span
    starts at `column`, where the block before it ended. So the arguments
    and the sequences fix the piece, and a piece that breaks a rule raises
    here, before any caller can store it.
    """
    m, n = len(s_res), len(v_res)
    v_start, s_start, length = block
    at = column if column else s_start - v_start
    markers = row = ""
    subs = ()
    if v_from < v_start:
        end = at + v_start - v_from
        if at < column or end > m:
            raise StructuralViolationError(
                f"no room for unmatched fragment span {v_from}..{v_start} "
                f"at reference {at}..{end}: {column}..{m} is free"
            )
        markers = " " * (end - column)
        subs = tuple(range(at, end))
        row = "-" * (at - column) + v_res[v_from:v_start]
        column = end
    at, end = s_start, s_start + length
    if at < column or end > m:
        raise StructuralViolationError(
            f"no room for block {block} at reference {at}..{end}: {column}..{m} is free"
        )
    placed = v_res[v_start : v_start + length]
    if placed != s_res[at:end]:
        raise StructuralViolationError(f"block {block} does not match the sequences (n={n})")
    gap = at - column
    return (markers + " " * gap + "|" * length, row + "-" * gap + placed, subs, end)


def render(
    chain: CandidateAlignment, s: Sequence, v: Sequence, pieces: dict | None = None
) -> RenderedAlignment:
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

    The walk draws each block with the span before it as one piece (see
    _piece), keyed by (column, v_from, block): where the previous block
    ended in the reference and in the fragment, and the block. `pieces` is
    a dict that calls on the same s and v may share, so each distinct piece
    is drawn and checked once; a piece that fails is never stored. The dict
    records the (s, v) it was filled for, and a call with other sequences
    raises ValueError. The trailing span, one per chain, is drawn each time.
    """
    blocks = chain.blocks
    if not blocks:
        raise EmptyInputError("cannot render an empty chain")
    if pieces is None:
        pieces = {None: (s, v)}
    elif pieces.setdefault(None, (s, v)) != (s, v):
        raise ValueError("render pieces were filled for other sequences")
    m, n = len(s), len(v)
    s_res, v_res = s.residues, v.residues
    row, markers, subs = [], [], []
    column = v_from = 0  # the reference and fragment positions placed so far
    for block in blocks:
        key = (column, v_from, block)
        piece = pieces.get(key)
        if piece is None:
            piece = pieces[key] = _piece(block, column, v_from, s_res, v_res)
        marks, placed, sub, column = piece
        markers.append(marks)
        row.append(placed)
        if sub:
            subs += sub
        v_from = block[0] + block[2]  # the block's v_end
    if v_from < n:  # the trailing span, right after the last block
        end = column + n - v_from
        if end > m:
            raise StructuralViolationError(
                f"no room for unmatched fragment span {v_from}..{n} "
                f"at reference {column}..{end}: {column}..{m} is free"
            )
        markers.append(" " * (end - column))
        subs += range(column, end)
        row.append(v_res[v_from:])
        column = end
    return RenderedAlignment(
        s_line=s_res,
        marker_line="".join(markers) + " " * (m - column),
        v_line="".join(row) + "-" * (m - column),
        substitutions=tuple(subs),
    )
