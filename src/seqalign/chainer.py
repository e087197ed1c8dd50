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

Both searches read one table of the index's hit rows, a row per fragment
start sorted by s_start. A state's extensions by blocks of one length in a
row begin at one bisect and are never built as a whole: the state registers
them as one extension list, which is sorted by gap total, as its blocks
differ only in s_start. A state carries its integer gap total and coverage;
its gap runs are read off its blocks. The fallback keeps only the
completions at the largest coverage seen so far. An exact test (one-level
fragment chaining, Abouelhoda & Ohlebusch 2005) skips the full-cover search
when no chain tiles the fragment; the beam may still lose a tiling that
exists, and the fallback then runs too.

One cut keeps every item below the k-th smallest lead and ranks only the
items tied on it: the beam leads on the gap total, the kept candidates on the
mean. It pops the items from a heap merge of the sorted lists, so only the
items it keeps and those tied on its bound become states. variance_only,
whose order does not follow a list, builds every completion and keeps and
orders them on its whole order in integers (gapstats.variance_rank, then the
blocks), with no Fraction. So exactly the kept max_candidates completions are
built as CandidateAlignments, sharing one MatchBlock per distinct block, and
scored with gapstats.chain_statistics.
render draws any chain in one walk over its blocks, checking each block and
unmatched span as it goes; callers that render many chains of one pair share
a dict of the pieces drawn, so each distinct piece is drawn and checked once.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

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
_ROOT = ((), 0, 0, 0)  # the parent of every first block

# An extension list (parent, row, length, s_starts, lo, hi) stands for the
# states that add one block (row, s, length) to the parent state, for s in
# s_starts[lo:hi]. Its states share their cover, and their total rises with
# s, so a list is sorted by total, and by mean too, as its states share their
# block count. Only the states a cut keeps are built.


class _HitRows:
    """The index's hit rows by fragment start, for bisects on s_start.

    Row r lists its hits' s_starts[r] and runs[r] in s_start order.
    longest[r][j] and shortest[r][j] are the longest and shortest run among
    hits j on: every block length up to shortest[r][j] starts at each of
    those hits, and none past longest[r][j] starts at any. sized(r, length)
    lists the s_starts of the row's hits with run >= length, the starts of
    its blocks of that length; by_length[r] keeps each one built.
    """

    def __init__(self, index: MatchIndex):
        n, hits = index.n, index.hits
        self.min_window = index.min_window
        # Suffix extremes over all hits at once: each row's runs are shifted
        # past every later row's (a run is at most n), so no row reaches into
        # the row before it.
        shift, runs = hits[:, 0] * (n + 1), hits[:, 2]
        longest = np.maximum.accumulate((runs - shift)[::-1])[::-1] + shift
        shortest = np.minimum.accumulate((runs + shift)[::-1])[::-1] - shift
        ends = np.searchsorted(hits[:, 0], np.arange(n + 1)).tolist()
        rows = list(zip(ends, ends[1:]))
        self.s_starts, self.runs, self.longest, self.shortest = (
            [column[a:b] for a, b in rows]
            for column in (hits[:, 1].tolist(), runs.tolist(), longest.tolist(), shortest.tolist())
        )
        self.by_length = [{} for _ in range(n)]

    def sized(self, r: int, length: int) -> list:
        s_starts = self.by_length[r][length] = [
            s for s, run in zip(self.s_starts[r], self.runs[r]) if run >= length
        ]
        return s_starts


def _runs(blocks) -> list:
    return [b[1] - a[1] - a[2] for a, b in zip(blocks, blocks[1:])]


def _state(entry, i: int) -> tuple:
    """The state of item i of an extension list."""
    (blocks, s_end, total, cover), row, length, s_starts, _, _ = entry
    s = s_starts[i]
    return (
        blocks + ((row, s, length),),
        s + length,
        total - s_end + s if blocks else 0,
        cover + length,
    )


def _states(lists) -> list:
    """Every item of the lists, as states: _state in one loop."""
    states = []
    for (blocks, s_end, total, cover), row, length, s_starts, lo, hi in lists:
        for s in s_starts[lo:hi]:
            gaps = total - s_end + s if blocks else 0
            states.append((blocks + ((row, s, length),), s + length, gaps, cover + length))
    return states


def _cover(entry) -> int:
    """The cover every state of an extension list has."""
    return entry[0][3] + entry[2]


def _beam_lead(entry, i: int) -> int:
    """The gap total of item i, the beam's lead."""
    blocks, s_end, total, _ = entry[0]
    return total - s_end + entry[3][i] if blocks else 0


def _mean_lead(entry, i: int) -> float:
    """The mean of item i, bit for bit as statistics() computes it on integer runs."""
    blocks, s_end, total, _ = entry[0]
    return (total - s_end + entry[3][i]) / len(blocks) if blocks else 0.0


def _tie_rank(state):
    """The beam's order past the total: float gap variance, then the blocks."""
    runs = _runs(state[0])
    mean = state[2] / len(runs) if runs else 0.0
    return (sum((r - mean) ** 2 for r in runs) / (len(runs) or 1), state[0])


def _cut(lists: list, k: int, lead, rank) -> list:
    """The k states smallest by (lead, rank(state)) among the lists' items.

    lead(entry, i) must not fall along a list. When the lists hold at most k
    items, all are built. Otherwise a heap merge pops items in lead order up
    to the k-th smallest lead, then the rest tied on it: every item below
    that bound is kept, and only the states tied on it are ranked. A list
    holds each lead at most once, as its s_starts are distinct, so a tie
    class never outnumbers the lists. The states come out in lead order.
    """
    count = 0
    for entry in lists:
        count += entry[5] - entry[4]
    if count <= k:
        return _states(lists)
    heap = [(lead(entry, entry[4]), j, entry[4]) for j, entry in enumerate(lists)]
    heapq.heapify(heap)
    below, ties, bound = [], [], None
    while heap:
        x, j, i = heap[0]
        if x != bound:
            if len(below) + len(ties) >= k:
                break
            below += ties
            ties, bound = [], x
        entry = lists[j]
        ties.append(_state(entry, i))
        if i + 1 < entry[5]:
            heapq.heapreplace(heap, (lead(entry, i + 1), j, i + 1))
        else:
            heapq.heappop(heap)
    if len(below) + len(ties) > k:
        ties = heapq.nsmallest(k - len(below), ties, key=rank)
    return below + ties


def _search(table: _HitRows, n: int, m: int, opts: ChainOptions, full_cover: bool) -> list:
    """Frontier search over fragment positions; returns the completions as
    extension lists.

    In full-coverage mode blocks must tile the fragment exactly. In partial
    mode the next block may skip fragment symbols if the reference gap has
    room for them (so every emitted chain renders), and only the completions
    at the largest cover seen so far are kept. A state's extensions in a row
    are the blocks from s_start = s_end + max(v_start - v_end, 1) on: a strict
    gap when contiguous in V keeps the chain canonical, and a skipped V span
    needs room. A first block needs s_start >= v_start, room for the leading
    span.

    A state registers one list per row and block length, for the lengths
    that some hit past its bisect reaches, and the beam cuts each group of
    lists with _cut on the gap total.
    """
    frontier = [[] for _ in range(n + 1)]  # extension lists by v_end
    hit_starts, by_length = table.s_starts, table.by_length
    shortest, longest = table.shortest, table.longest
    survivors, complete, best = [_ROOT], [], 0
    for v_pos in range(n):
        for state in survivors:  # each registers its extensions by blocks from s_start = at on
            blocks, s_end = state[0], state[1]
            for row in (v_pos,) if full_cover else range(v_pos, n):
                at = s_end + (row - v_pos or 1) if blocks else row
                row_starts = hit_starts[row]
                j = bisect_left(row_starts, at)
                if j < len(row_starts):  # the lengths every hit from j on reaches share the row
                    for length in range(table.min_window, shortest[row][j] + 1):
                        frontier[row + length].append(
                            (state, row, length, row_starts, j, len(row_starts))
                        )
                    sized = by_length[row]
                    for length in range(shortest[row][j] + 1, longest[row][j] + 1):
                        starts = sized.get(length) or table.sized(row, length)
                        frontier[row + length].append(
                            (state, row, length, starts, bisect_left(starts, at), len(starts))
                        )
        lists, frontier[v_pos + 1] = frontier[v_pos + 1], None
        if not full_cover:  # complete: the trailing span has room, s_start <= m - n + row
            done = []
            for parent, row, length, starts, lo, hi in lists:
                end = bisect_right(starts, m - n + row, lo, hi)
                if end > lo:
                    done.append((parent, row, length, starts, lo, end))
            top = max(map(_cover, done), default=best - 1)
            if top > best:
                best, complete = top, []
            if top == best:
                complete += [entry for entry in done if _cover(entry) == top]
        if lists and v_pos + 1 < n:
            survivors = _cut(lists, opts.beam_width, _beam_lead, _tie_rank)
        else:
            survivors = ()
    return lists if full_cover else complete


def _has_cover(table: _HitRows, n: int) -> bool:
    """Whether some chain of the table's blocks tiles the whole fragment.

    One forward pass: ends[p] is the smallest reference end of a tiling of
    V[:p] (-1 for the empty one). A next block must start strictly after it,
    as in the full-cover search, so the smallest end admits every extension
    that a larger one does (one-level fragment chaining). In a row, the
    smallest end of each block length is that of the first hit past the
    bisect that reaches the length, so the scan stops at the row's longest run.
    """
    unreached = float("inf")
    ends = [-1] + [unreached] * n
    for row, s_starts in enumerate(table.s_starts):
        first = bisect_right(s_starts, ends[row])  # none start after inf
        runs, longest = table.runs[row], table.longest[row]
        reached = table.min_window - 1  # the block lengths placed from this row
        for j in range(first, len(s_starts)):
            if runs[j] > reached:
                for length in range(reached + 1, runs[j] + 1):
                    if s_starts[j] + length < ends[row + length]:
                        ends[row + length] = s_starts[j] + length
                reached = runs[j]
                if reached == longest[j]:
                    break
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

    Only the kept completions are built and scored. The cut merges the
    completion lists on the mean, read off a state's total, and ranks the
    chains tied on the boundary mean by gapstats.policy_key, then the
    blocks. Under variance_only, whose order does not follow a list, every
    completion is built and the kept chains are the first max_candidates,
    in order, by gapstats.variance_rank, then the blocks.
    """
    opts = opts or ChainOptions()
    policy = policy or SelectionPolicy()
    n, m = len(v), len(s)
    if index.n != n or index.m != m:
        raise StructuralViolationError("match index does not belong to these sequences")

    table = _HitRows(index)  # both searches and the cover test read it
    lists = _search(table, n, m, opts, full_cover=True) if _has_cover(table, n) else []
    full_coverage = bool(lists)
    if not lists:
        lists = _search(table, n, m, opts, full_cover=False)
        full_coverage = bool(lists) and _cover(lists[0]) == n

    k = opts.max_candidates
    truncated = sum(entry[5] - entry[4] for entry in lists) > k
    variance_only = policy.mode == "variance_only"
    if variance_only:  # the whole order in integers, a total order with the blocks
        states = _states(lists)
        vrank = gapstats.variance_rank(max((len(st[0]) for st in states), default=1) - 1)
        states = heapq.nsmallest(k, states, key=lambda st: (vrank(_runs(st[0])), st[0]))
    else:  # a truncated cut comes out in mean order, so the closing sort finds runs in order
        key = gapstats.policy_key(policy)
        rank = lambda st: (key(gapstats.statistics(_runs(st[0]))), st[0])
        states = _cut(lists, k, _mean_lead, rank)

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
