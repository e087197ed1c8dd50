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
cover, then the fallback) read that table. Before the full-cover search an
exact test decides whether any chain of the table tiles the fragment: one
forward pass over fragment positions keeps, per position, the smallest
reference end of a tiling of the prefix (one-level fragment chaining,
Abouelhoda & Ohlebusch 2005). Without a tiling the fallback runs at once.
The beam may still lose a tiling that exists; the fallback then runs too.

Only the completed chains that can still be among the kept max_candidates
(the survivors of a cut on the policy order) are built as
CandidateAlignments and scored with gapstats.chain_statistics. The kept
chains share one MatchBlock per distinct block.

render draws any chain in one walk over its blocks in reference order,
checking each block and unmatched span as it places it; there is no
separate validation pass and no segment list.
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


def _block_table(index: MatchIndex) -> dict:
    """The index's hit rows as their blocks, keyed by fragment start.

    A row (v_start, s_start, run) gives one (v_start, s_start, length)
    triple of each length min_window..run.
    """
    table: dict = {}
    for v_start, s_start, run in index.hits.tolist():
        table.setdefault(v_start, []).extend(
            (v_start, s_start, j) for j in range(index.min_window, run + 1)
        )
    return table


def _has_cover(table: dict, n: int) -> bool:
    """Whether some chain of the table's blocks tiles the whole fragment.

    One forward pass over fragment positions. ends[p] is the smallest
    reference end of any tiling of V[:p] (-1 for the empty one). A tiling's
    next block must start strictly after that end, as in the full-cover
    search, so the smallest end admits every extension that a larger one
    does. This is one-level fragment chaining (Abouelhoda & Ohlebusch 2005).
    """
    unreached = float("inf")
    ends = [-1] + [unreached] * n
    for v_start in range(n):
        end = ends[v_start]
        if end == unreached:
            continue
        for _, b_s, length in table.get(v_start, ()):
            if b_s > end and b_s + length < ends[v_start + length]:
                ends[v_start + length] = b_s + length
    return ends[n] != unreached


class _Blocks(dict):
    """One MatchBlock per (v_start, s_start, length) triple, made when first asked for."""

    def __missing__(self, triple):
        block = self[triple] = MatchBlock(*triple)
        return block


def enumerate_candidates(
    index: MatchIndex,
    s: Sequence,
    v: Sequence,
    opts: ChainOptions | None = None,
    policy: SelectionPolicy | None = None,
) -> ChainResult:
    """Enumerate canonical candidate chains, ordered by the selection policy.

    Full-coverage chains are searched for first, when an exact test says
    that some chain tiles the fragment. When there is no tiling, or the
    search finds none, the result carries the partial-coverage chains of
    maximal coverage and full_coverage=False, so callers can tell the
    difference from an empty outcome.

    Every completion is ranked on the leading component of the policy order
    (gapstats.leading_key), read off the runs its search state carries. Only
    the completions at or below the max_candidates-th smallest leading value
    become chains and are scored; the others cannot be among the kept ones.
    Under variance_only the rank is the whole order (gapstats.variance_rank,
    then the blocks), so exactly the kept ones are built.
    """
    opts = opts or ChainOptions()
    policy = policy or SelectionPolicy()
    n, m = len(v), len(s)
    if index.n != n or index.m != m:
        raise StructuralViolationError("match index does not belong to these sequences")

    table = _block_table(index)  # both searches and the cover test read it
    # Without a tiling the full-cover search can only come back empty.
    states = _search(table, n, m, opts, full_cover=True) if _has_cover(table, n) else []
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
    if truncated and policy.mode == "variance_only":
        # (exact variance, mean, blocks) is the whole variance_only order and
        # it is total, so exactly the k kept chains are built.
        rank = gapstats.variance_rank(max(len(runs) for _, _, _, runs in states))
        states = heapq.nsmallest(k, states, key=lambda st: (rank(st[3]), st[0]))
    elif truncated:
        lead = gapstats.leading_key(policy)
        leads = [lead(runs) for _, _, _, runs in states]
        bound = heapq.nsmallest(k, leads)[-1]
        states = [st for st, x in zip(states, leads) if x <= bound]

    made = _Blocks()  # every kept chain shares its blocks with the others
    entries = []
    for blocks, _, _, _ in states:
        chain = CandidateAlignment(blocks=tuple(map(made.__getitem__, blocks)))
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
    s_res, v_res = s.residues, v.residues
    row, markers, subs = [], [], []
    column = 0  # reference columns before this one are placed
    # The unmatched span v_from..v_to before each block (and after the last
    # one) goes at reference column `at`.
    v_from, at = 0, blocks[0].s_start - blocks[0].v_start
    for block in (*blocks, None):
        v_to = n if block is None else block.v_start
        if v_from < v_to:
            end = at + v_to - v_from
            if at < column or end > m:
                raise StructuralViolationError(
                    f"no room for unmatched fragment span {v_from}..{v_to} "
                    f"at reference {at}..{end}: {column}..{m} is free"
                )
            markers.append(" " * (end - column))
            subs.extend(range(at, end))
            row.append("-" * (at - column) + v_res[v_from:v_to])
            column = end
        if block is None:
            break
        at, v_from = block.s_start, block.v_start
        end, v_to = at + block.length, v_from + block.length
        if at < column or end > m:
            raise StructuralViolationError(
                f"no room for block {block} at reference {at}..{end}: {column}..{m} is free"
            )
        placed = v_res[v_from:v_to]
        if placed != s_res[at:end]:
            raise StructuralViolationError(f"block {block} does not match the sequences (n={n})")
        markers.append(" " * (at - column) + "|" * block.length)
        row.append("-" * (at - column) + placed)
        column = end
        v_from, at = v_to, end
    return RenderedAlignment(
        s_line=s.residues,
        marker_line="".join(markers) + " " * (m - column),
        v_line="".join(row) + "-" * (m - column),
        substitutions=tuple(subs),
    )
