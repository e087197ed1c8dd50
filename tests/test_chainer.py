import heapq
import random
from dataclasses import replace
from fractions import Fraction
from statistics import pvariance

import pytest
from hypothesis import given, settings, strategies as st

from seqalign import (
    CandidateAlignment,
    ChainOptions,
    EmptyInputError,
    MatchBlock,
    OrderViolationError,
    SelectionPolicy,
    Sequence,
    StructuralViolationError,
    enumerate_candidates,
    enumerate_matches,
    gap_runs,
    render,
    select,
    validate_chain,
)
from seqalign import chainer, gapstats
from seqalign.gapstats import MODES
from seqalign.matcher import MatchOptions
from seqalign.oracle import canonicalize, exhaustive_chains
from conftest import KNOWN_PLACEMENTS, S_DNA, V_DNA, chain_of

UNCAPPED = ChainOptions(max_candidates=10**9, beam_width=10**9)


def _random_pair(rng, max_m, max_n, symbols):
    m = rng.randint(1, max_m)
    n = rng.randint(1, min(m, max_n))
    return (
        Sequence("s", "".join(rng.choice(symbols) for _ in range(m))),
        Sequence("v", "".join(rng.choice(symbols) for _ in range(n))),
    )


def test_dna_example_contains_known_placements(dna_pair):
    s, v = dna_pair
    result = enumerate_candidates(enumerate_matches(s, v), s, v)  # default caps
    keys = {chain.blocks for chain in result.chains}
    for coords in KNOWN_PLACEMENTS:
        assert chain_of(coords).blocks in keys
    assert result.full_coverage
    for chain in result.chains:
        assert chain.coverage == len(v)
        assert canonicalize(chain).blocks == chain.blocks


def test_identity_pair_single_candidate():
    s = v = Sequence("x", "ABC")
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert result.full_coverage
    assert len(result.entries) == 1
    chain, stats = result.entries[0]
    assert chain.blocks == (MatchBlock(0, 0, 3),)
    assert stats.runs == ()


def test_uncapped_equals_exhaustive_on_dna_example(dna_pair):
    s, v = dna_pair
    index = enumerate_matches(s, v)
    got = enumerate_candidates(index, s, v, UNCAPPED)
    want = exhaustive_chains(index.blocks(), len(v))
    assert {c.blocks for c in got.chains} == {c.blocks for c in want}
    assert not got.truncated


def test_uncapped_equals_exhaustive_on_random_instances():
    rng = random.Random(5)
    for _ in range(60):
        s, v = _random_pair(rng, 12, 6, "AB")
        index = enumerate_matches(s, v)
        result = enumerate_candidates(index, s, v, UNCAPPED)
        want = {c.blocks for c in exhaustive_chains(index.blocks(), len(v))}
        got = {c.blocks for c in result.chains} if result.full_coverage else set()
        assert got == want, (s.residues, v.residues)


def test_emitted_chains_are_unique_and_canonical():
    # The chainer emits chains straight from its search, with no dedupe or
    # re-canonicalization pass, so this must hold at every beam, in the
    # full-cover search and in the partial fallback alike.
    for beam in (1, 3, ChainOptions().beam_width, 10**9):
        opts = ChainOptions(max_candidates=10**9, beam_width=beam)
        rng = random.Random(9)
        fallbacks = 0
        for _ in range(40):
            s, v = _random_pair(rng, 12, 6, "AB")
            result = enumerate_candidates(enumerate_matches(s, v), s, v, opts)
            fallbacks += not result.full_coverage
            keys = [c.blocks for c in result.chains]
            assert len(keys) == len(set(keys)), (beam, s.residues, v.residues)
            for chain in result.chains:
                assert canonicalize(chain).blocks == chain.blocks
        assert fallbacks  # the full-to-partial fallback was exercised


def test_beam_keeps_policy_optimal_chain():
    rng = random.Random(3)
    policy = SelectionPolicy()
    for _ in range(50):
        s, v = _random_pair(rng, 12, 6, "AB")
        index = enumerate_matches(s, v)
        full = enumerate_candidates(index, s, v, UNCAPPED, policy=policy)
        if not full.entries or not full.full_coverage:
            continue
        beamed = enumerate_candidates(index, s, v, ChainOptions(), policy=policy)
        best_full = full.entries[select(full.entries, policy)]
        best_beamed = beamed.entries[select(beamed.entries, policy)]
        assert best_beamed[0].blocks == best_full[0].blocks


def test_truncation_reports_flag(dna_pair):
    s, v = dna_pair
    result = enumerate_candidates(
        enumerate_matches(s, v), s, v, ChainOptions(max_candidates=2, beam_width=256)
    )
    assert result.truncated
    assert len(result.entries) == 2


def test_ordering_follows_policy(dna_pair):
    s, v = dna_pair
    index = enumerate_matches(s, v)
    by_var = enumerate_candidates(index, s, v, policy=SelectionPolicy(mode="variance_only"))
    variances = [stats.variance for _, stats in by_var.entries]
    assert variances == sorted(variances)
    by_mean = enumerate_candidates(index, s, v)
    means = [stats.mean for _, stats in by_mean.entries]
    assert means == sorted(means)


def test_no_full_cover_outcome_keeps_best_partial():
    s, v = Sequence("s", "AAAA"), Sequence("v", "AB")
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert not result.full_coverage
    assert result.entries  # distinguishable from an empty result
    assert all(chain.coverage == 1 for chain in result.chains)
    # The unmatched fragment symbol needs room in the reference, so the
    # matched A can sit anywhere except the last position.
    assert {chain.blocks[0].s_start for chain in result.chains} == {0, 1, 2}


def test_disjoint_alphabets_yield_empty_partial_result():
    s, v = Sequence("s", "AAAA"), Sequence("v", "BB")
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert not result.full_coverage
    assert result.entries == ()


def test_index_sequence_mismatch_rejected(dna_pair):
    s, v = dna_pair
    index = enumerate_matches(s, v)
    with pytest.raises(StructuralViolationError):
        enumerate_candidates(index, s, Sequence("v", "TACT"))


def test_chain_options_validation():
    with pytest.raises(ValueError):
        ChainOptions(max_candidates=0)
    with pytest.raises(ValueError):
        ChainOptions(beam_width=0)


def test_swap_is_a_pure_involution(dna_pair):
    # align --swap exchanges the operands with a plain tuple swap: the
    # exchanged pair is refused for its longer fragment, and exchanging
    # again restores the input.
    s, v = dna_pair
    s, v = v, s
    with pytest.raises(OrderViolationError):
        enumerate_matches(s, v)
    s, v = v, s
    assert (s, v) == dna_pair


def test_swap_exposes_insertions_as_gap_runs():
    # The fragment carries an extra G relative to the reference; after the
    # swap the alignment's single gap run sits exactly on that insertion.
    reference, fragment = Sequence("s", "ACT"), Sequence("v", "ACGT")
    s, v = fragment, reference
    assert (s, v) == (fragment, reference)
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert result.full_coverage
    chain = result.chains[select(result.entries)]
    assert gap_runs(chain, len(s)) == (1,)
    assert chain.blocks == (MatchBlock(0, 0, 2), MatchBlock(2, 3, 1))


def test_render_known_placement(dna_pair):
    s, v = dna_pair
    rendered = render(chain_of(KNOWN_PLACEMENTS[0]), s, v)
    assert rendered.s_line == S_DNA
    assert rendered.v_line == "--T---ACTAG--------G---AG-------"
    assert len(rendered.v_line) == len(S_DNA)
    assert rendered.marker_line.count("|") == len(V_DNA)
    assert rendered.substitutions == ()


def test_render_identity():
    s = v = Sequence("x", "ABC")
    rendered = render(chain_of(((0, 0, 3),)), s, v)
    assert rendered.v_line == "ABC"
    assert rendered.marker_line == "|||"


def test_render_line_length_and_symbol_order():
    rng = random.Random(21)
    for _ in range(40):
        s, v = _random_pair(rng, 14, 7, "AC")
        result = enumerate_candidates(enumerate_matches(s, v), s, v, UNCAPPED)
        for chain in result.chains[:20]:
            rendered = render(chain, s, v)
            assert len(rendered.v_line) == len(s)
            # Every emitted chain is renderable, and the placement rule puts
            # all fragment symbols on the line in order: matched ones under
            # their blocks, leftover spans in the neighboring gaps.
            placed = [c for c in rendered.v_line if c != "-"]
            assert "".join(placed) == v.residues
            assert rendered.marker_line.count("|") == chain.coverage


def test_render_places_substituted_span():
    s, v = Sequence("s", "AXXB"), Sequence("v", "ACB")
    chain = chain_of(((0, 0, 1), (2, 3, 1)))
    rendered = render(chain, s, v)
    assert rendered.v_line == "AC-B"
    assert rendered.substitutions == (1,)
    assert rendered.marker_line == "|  |"


def test_render_rejects_bad_input():
    # One hand-made chain per fault; the message names the block or span.
    bad = StructuralViolationError
    cases = (
        ("ACGT", "AC", (), EmptyInputError, "empty chain"),
        ("ACGT", "AC", ((0, 2, 2),), bad, "does not match"),  # symbols disagree
        ("CGT", "AC", ((1, 0, 1),), bad, "span 0..1"),  # no leading room
        ("ABQQ", "AXB", ((0, 0, 1), (2, 1, 1)), bad, r"v_start=2.*: 2\.\.4 is free"),  # interior
        ("QQBA", "AB", ((0, 3, 1),), bad, "span 1..2"),  # no trailing room
        ("ACG", "AC", ((0, 2, 2),), bad, "no room for block"),  # past m
        ("ACGT", "AC", ((1, 1, 2),), bad, r"v_start=1.* does not match"),  # past n
    )
    for s, v, coords, error, message in cases:
        with pytest.raises(error, match=message):
            render(chain_of(coords), Sequence("s", s), Sequence("v", v))


def _room_fails(blocks, m, n) -> bool:
    """The placement rule written out: the unmatched leading span fits before
    the first block, each interior span within its reference gap, and the
    trailing span after the last block."""
    first, last = blocks[0], blocks[-1]
    if first.s_start < first.v_start:
        return True
    for prev, b in zip(blocks, blocks[1:]):
        if b.s_start - prev.s_end < b.v_start - prev.v_end:
            return True
    return m - last.s_end < n - last.v_end


@st.composite
def _ordered_chains(draw, count=1):
    """A small AB pair and `count` ordered chains on it, valid or not.

    Each chain after the first may begin with some of the blocks of the one
    before it, so that chains share the pieces render draws.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 10))
    steps = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3))
    chains = []
    for _ in range(count):
        shared = chains[-1][: draw(st.integers(0, len(chains[-1])))] if chains else []
        blocks = list(shared)
        v_at, s_at = (shared[-1].v_end, shared[-1].s_end) if shared else (0, 0)
        more = st.lists(steps, min_size=0 if shared else 1, max_size=3)
        for v_skip, s_skip, length in draw(more):
            v_at, s_at = v_at + v_skip, s_at + s_skip
            blocks.append(MatchBlock(v_at, s_at, length))
            v_at, s_at = v_at + length, s_at + length
        chains.append(blocks)
    v = draw(st.text(st.sampled_from("AB"), min_size=n, max_size=n))
    s = list(draw(st.text(st.sampled_from("AB"), min_size=m, max_size=m)))
    for blocks in chains:
        if draw(st.booleans()):  # copy the blocks' symbols, so most blocks match
            for b in blocks:
                for i in range(min(b.length, n - b.v_start, m - b.s_start)):
                    s[b.s_start + i] = v[b.v_start + i]
    chains = [CandidateAlignment(blocks=tuple(blocks)) for blocks in chains]
    return (Sequence("s", "".join(s)), Sequence("v", v), *chains)


@settings(max_examples=400, deadline=None)
@given(_ordered_chains())
def test_render_against_the_placement_rule(case):
    s, v, chain = case
    m, n = len(s), len(v)
    try:
        validate_chain(chain, s, v)
        invalid = _room_fails(chain.blocks, m, n)
    except StructuralViolationError:
        invalid = True
    if invalid:
        with pytest.raises(StructuralViolationError):
            render(chain, s, v)
        return
    rendered = render(chain, s, v)
    assert rendered.s_line == s.residues
    assert len(rendered.v_line) == len(rendered.marker_line) == m
    assert rendered.v_line.replace("-", "") == v.residues
    assert rendered.marker_line.count("|") == chain.coverage
    matched = {b.s_start + i for b in chain.blocks for i in range(b.length)}
    assert {c for c, x in enumerate(rendered.marker_line) if x == "|"} == matched
    unmatched = [c for c, x in enumerate(rendered.v_line) if x != "-" and c not in matched]
    assert rendered.substitutions == tuple(unmatched)
    # Unmatched spans sit before the first block and after every block.
    first, blocks = chain.blocks[0], chain.blocks
    placed = list(range(first.s_start - first.v_start, first.s_start))
    for b, v_next in zip(blocks, [b.v_start for b in blocks[1:]] + [n]):
        placed += range(b.s_end, b.s_end + v_next - b.v_end)
    assert rendered.substitutions == tuple(placed)


def _render_outcome(chain, s, v, *pieces):
    try:
        return render(chain, s, v, *pieces)
    except StructuralViolationError as exc:
        return type(exc), str(exc)


def _piece_keys(chain) -> list:
    """The keys of the pieces render draws for the chain, in walk order: a
    piece starts where the block before it ended, in the reference and in
    the fragment, and the first one at 0, 0."""
    ends = [(0, 0)] + [(b.s_end, b.v_end) for b in chain.blocks]
    return [(column, v_from, b) for (column, v_from), b in zip(ends, chain.blocks)]


def _check_stored_pieces(pieces, s, v):
    """Every stored piece is the one drawn afresh for its key; none fails."""
    for key, piece in pieces.items():
        if key is not None:
            column, v_from, block = key
            assert chainer._piece(block, column, v_from, s.residues, v.residues) == piece


def _first_failing_key(chain, s, v):
    for column, v_from, block in _piece_keys(chain):
        try:
            chainer._piece(block, column, v_from, s.residues, v.residues)
        except StructuralViolationError:
            return column, v_from, block
    return None  # every piece draws; only the trailing span can fail


@settings(max_examples=400, deadline=None)
@given(_ordered_chains(count=4))
def test_render_with_shared_pieces_is_render_alone(case):
    # One dict across several chains on one pair, valid and invalid: each
    # outcome is exactly that of render without a dict, a failing piece is
    # never stored, and every piece before it is.
    s, v, *chains = case
    pieces = {}
    for chain in chains:
        alone = _render_outcome(chain, s, v)
        assert _render_outcome(chain, s, v, pieces) == alone
        _check_stored_pieces(pieces, s, v)
        keys = _piece_keys(chain)
        failing = _first_failing_key(chain, s, v)
        if failing is None:
            assert all(key in pieces for key in keys)
        else:
            assert isinstance(alone, tuple)
            assert failing not in pieces
            assert all(key in pieces for key in keys[: keys.index(failing)])
    with pytest.raises(ValueError, match="other sequences"):
        render(chains[0], Sequence("s", s.residues + "A"), v, pieces)
    with pytest.raises(ValueError, match="other sequences"):
        render(chains[0], s, Sequence("w", v.residues), pieces)


def test_render_with_shared_pieces_on_every_kind_of_span():
    # Full covers and chains with leading, interior and trailing spans, each
    # rendered after the others have filled the dict, in both orders.
    s, v = Sequence("s", "ABBABAABAB"), Sequence("v", "ABBAB")
    chains = [
        chain_of(coords)
        for coords in (
            ((0, 0, 5),),  # full cover
            ((0, 0, 2), (2, 7, 3)),  # full cover with an interior gap
            ((1, 1, 2), (4, 7, 1)),  # leading and interior spans
            ((0, 0, 2), (3, 6, 1)),  # interior and trailing spans
            ((0, 0, 3),),  # trailing span
            ((2, 2, 2),),  # leading and trailing spans
            ((0, 0, 2), (2, 6, 2)),  # shares its first piece, then fails
        )
    ]
    alone = [_render_outcome(chain, s, v) for chain in chains]
    assert sum(isinstance(x, tuple) for x in alone) == 1
    for order in (chains, chains[::-1]):
        pieces = {}
        for chain in order:
            assert _render_outcome(chain, s, v, pieces) == alone[chains.index(chain)]
        _check_stored_pieces(pieces, s, v)


def _counting_chain_statistics(monkeypatch):
    calls = []
    real = gapstats.chain_statistics

    def counted(chain, m):
        calls.append(chain)
        return real(chain, m)

    monkeypatch.setattr(gapstats, "chain_statistics", counted)
    return calls


def test_only_survivors_are_scored(monkeypatch):
    # 123,284 chains complete; under the mean they tie in large classes, and
    # 2,117 lie at or below the 1,024th smallest mean. Only the tie class on
    # that mean is ranked, so exactly the 1,024 kept chains are scored.
    s, v = Sequence("s", "A" * 100), Sequence("v", "A" * 10)
    calls = _counting_chain_statistics(monkeypatch)
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert len(calls) == 1024
    assert len(result.entries) == 1024 and result.truncated


def test_variance_cut_scores_only_the_kept_chains(monkeypatch):
    # Under variance_only 38,221 of the 123,284 completions share a variance
    # at or below the 1,024th smallest; the cut on the whole order, which is
    # total, builds and scores exactly the 1,024 kept chains.
    s, v = Sequence("s", "A" * 100), Sequence("v", "A" * 10)
    calls = _counting_chain_statistics(monkeypatch)
    policy = SelectionPolicy(mode="variance_only")
    result = enumerate_candidates(enumerate_matches(s, v), s, v, policy=policy)
    assert len(result.entries) == 1024 and result.truncated
    assert len(calls) <= ChainOptions().max_candidates


@pytest.mark.parametrize("max_candidates", [3, 10**9])
@pytest.mark.parametrize("residues", [(S_DNA, V_DNA), ("A" * 30, "A" * 6)])
def test_variance_order_builds_no_fraction(monkeypatch, residues, max_candidates):
    # variance_only keeps and orders its chains on integers, below and above
    # max_candidates: with no exact-variance Fraction to be had, the entries
    # still come in the documented order (exact variance, mean, blocks).
    s, v = Sequence("s", residues[0]), Sequence("v", residues[1])
    index = enumerate_matches(s, v)
    policy = SelectionPolicy(mode="variance_only")
    every = enumerate_candidates(index, s, v, ChainOptions(max_candidates=10**9), policy)

    def no_fraction(runs):
        raise AssertionError("exact variance Fraction built")

    monkeypatch.setattr(gapstats, "_exact_variance", no_fraction)
    opts = ChainOptions(max_candidates=max_candidates)
    got = enumerate_candidates(index, s, v, opts, policy)
    documented = lambda entry: (
        pvariance(map(Fraction, entry[1].runs or (0,))), entry[1].mean, entry[0].blocks
    )
    want = sorted(every.entries, key=documented)[:max_candidates]
    assert got.entries == tuple(want)
    assert got.truncated == (len(every.entries) > max_candidates)
    assert got.truncated == (max_candidates == 3)


@pytest.mark.parametrize("mode", MODES)
def test_survivor_cut_equals_scoring_every_completion(monkeypatch, mode):
    # Reference: the same search uncapped, which cuts nothing, scores every
    # completion; then nsmallest keeps the best max_candidates of them.
    policy = SelectionPolicy(mode=mode)
    rng = random.Random(31)

    def cases():
        yield Sequence("s", "A" * 30), Sequence("v", "A" * 6), ChainOptions()
        for _ in range(200):
            s, v = _random_pair(rng, 20, 6, "ACGT")
            yield s, v, ChainOptions(max_candidates=rng.randint(1, 8))

    truncating = fallbacks = 0
    for s, v, opts in cases():
        index = enumerate_matches(s, v)
        calls = _counting_chain_statistics(monkeypatch)
        got = enumerate_candidates(index, s, v, opts, policy)
        scored = len(calls)
        calls.clear()
        every = enumerate_candidates(index, s, v, replace(opts, max_candidates=10**9), policy)
        assert len(calls) == len(every.entries)  # every completion scored
        k = opts.max_candidates
        want = heapq.nsmallest(k, every.entries, key=gapstats.sort_key(policy))
        assert got.entries == tuple(want), (mode, s.residues, v.residues, opts)
        assert got.truncated == (len(every.entries) > k)
        assert got.full_coverage == every.full_coverage
        assert scored == len(got.entries) <= len(calls)
        truncating += got.truncated
        fallbacks += not got.full_coverage
        if truncating == 40:
            break
    assert truncating == 40
    assert fallbacks  # the partial fallback's cut was checked too


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["A", "AB", "AAB", "ACGT"]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_cover_test_agrees_with_the_oracle(symbols, min_window, seed):
    # The cover test says a tiling exists exactly when the oracle finds a
    # full-cover chain among the index's blocks.
    s, v = _random_pair(random.Random(seed), 14, 7, symbols)
    index = enumerate_matches(s, v, MatchOptions(min_window=min_window))
    want = bool(exhaustive_chains(index.blocks(), len(v)))
    assert chainer._has_cover(chainer._HitRows(index), len(v)) == want


def _counting_searches(monkeypatch):
    modes = []
    real = chainer._search

    def counted(table, n, m, opts, full_cover):
        modes.append(full_cover)
        return real(table, n, m, opts, full_cover)

    monkeypatch.setattr(chainer, "_search", counted)
    return modes


def test_no_cover_runs_only_the_fallback_search(monkeypatch, dna_pair):
    modes = _counting_searches(monkeypatch)
    s, v = Sequence("s", "AAAAB"), Sequence("v", "ABA")  # no B before a last A
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert not result.full_coverage and result.entries
    assert modes == [False]
    modes.clear()
    s, v = dna_pair
    assert enumerate_candidates(enumerate_matches(s, v), s, v).full_coverage
    assert modes == [True]


def _old_beam_key(state):
    """The beam key the cut replaced, on (blocks, runs) pairs."""
    blocks, runs = state
    total = sum(runs)
    if runs:
        mean = total / len(runs)
        var = sum((r - mean) ** 2 for r in runs) / len(runs)
    else:
        var = 0.0
    return (total, var, blocks)


@st.composite
def _tied_groups(draw):
    """States whose totals tie often: short run lists of small runs, so equal
    totals come with different run lists and equal run lists with different
    blocks. Each is paired with its runs for the old key."""
    run_lists = st.lists(st.integers(1, 3), max_size=3)
    group, seen = [], set()
    for runs, first, lengths in draw(
        st.lists(st.tuples(run_lists, st.integers(0, 2), st.lists(st.integers(1, 2), min_size=4)),
                 min_size=1, max_size=30)
    ):
        blocks, v_at, s_at = [], 0, first
        for run, length in zip((0, *runs), lengths):
            s_at += run
            blocks.append((v_at, s_at, length))
            v_at, s_at = v_at + length, s_at + length
        blocks = tuple(blocks)
        if blocks not in seen:  # a group never holds one chain twice
            seen.add(blocks)
            state = (blocks, s_at, sum(runs), v_at)
            group.append((state, tuple(runs)))
    return group


def _kept_cut_keys(mode, states):
    """Each policy's (lead, rank) over the kept candidates, written out: the
    mean off the state's total (enumerate_candidates' cut), or variance_only's
    whole order (its nsmallest); then policy_key of the scored runs and the
    blocks."""
    key = gapstats.policy_key(SelectionPolicy(mode=mode))
    if mode == "variance_only":
        vrank = gapstats.variance_rank(max(len(state[0]) for state in states) - 1)
        lead = lambda state: (vrank(chainer._runs(state[0])), state[0])
    else:
        lead = lambda state: state[2] / (len(state[0]) - 1) if len(state[0]) > 1 else 0.0
    return lead, lambda state: (key(gapstats.statistics(chainer._runs(state[0]))), state[0])


def _extension_lists(states):
    """The states as extension lists: those that add one block of one row
    and length to the same chain share a list, sorted by s_start."""
    by_parent = {}
    for blocks, s_end, total, cover in states:
        *head, (row, s, length) = blocks
        if head:
            last = head[-1]
            parent = (tuple(head), last[1] + last[2], total - (s - last[1] - last[2]), cover - length)
        else:
            parent = chainer._ROOT
        by_parent.setdefault((parent, row, length), []).append(s)
    return [(*key, sorted(starts), 0, len(starts)) for key, starts in by_parent.items()]


@settings(max_examples=300, deadline=None)
@given(_tied_groups())
def test_cut_keeps_the_k_smallest_by_lead_then_rank(group):
    # For every k, the beam's keys and each policy's kept-cut keys: _cut
    # keeps the first k of the full (lead, rank) order, as a set. The beam
    # keeps the set of the old beam key, and each policy's cut the set of
    # its sort_key's first k over the scored chains. The states reach _cut
    # as extension lists, several items to a list where they share a parent.
    states = [state for state, _ in group]
    assert all(chainer._runs(state[0]) == list(runs) for state, runs in group)
    lists = _extension_lists(states)
    assert sorted(chainer._states(lists)) == sorted(states)
    items = [(entry, i) for entry in lists for i in range(entry[4], entry[5])]
    old = [(state[0], runs) for state, runs in group]
    cuts = [(None, lambda state: state[2], lists, chainer._beam_lead, chainer._tie_rank)]
    for mode in MODES:
        lead, rank = _kept_cut_keys(mode, states)
        if mode == "variance_only":  # its order does not follow a list: one state to a list
            singles = [entry for state in states for entry in _extension_lists([state])]
            state_lead = lambda entry, i, lead=lead: lead(chainer._state(entry, i))
            cuts.append((mode, lead, singles, state_lead, rank))
        else:
            cuts.append((mode, lead, lists, chainer._mean_lead, rank))
    chains = [CandidateAlignment(blocks=tuple(MatchBlock(*b) for b in st[0])) for st in states]
    scored = [(c, gapstats.chain_statistics(c, 100), st[0]) for c, st in zip(chains, states)]
    for _, lead, _, list_lead, _ in cuts:
        assert all(list_lead(*item) == lead(chainer._state(*item)) for item in items)
    for k in range(1, len(group) + 1):
        for mode, lead, mode_lists, list_lead, rank in cuts:
            kept = chainer._cut(mode_lists, k, list_lead, rank)
            assert len(kept) == k
            if len(states) > k:  # a cut comes out in lead order
                assert [lead(state) for state in kept] == sorted(map(lead, kept))
            got = {state[0] for state in kept}
            assert got == {st[0] for st in sorted(states, key=lambda x: (lead(x), rank(x)))[:k]}
            if mode is None:
                want = heapq.nsmallest(k, old, key=_old_beam_key)
                assert got == {blocks for blocks, _ in want}
            else:
                want = sorted(scored, key=gapstats.sort_key(SelectionPolicy(mode=mode)))[:k]
                assert got == {blocks for _, _, blocks in want}


def _parent_search(table, n, m, opts, full_cover):
    """The search as it was before states carried integer totals: states
    (blocks, v_end, s_end, runs) over a dict of block lists, every block of
    a row tried, every state ranked by (sum of runs, float variance, blocks).
    Kept here as the reference for chainer._search."""
    frontier = {0: [((), 0, 0, ())]}
    complete = []

    def beam_key(state):
        return _old_beam_key((state[0], state[3]))

    for v_pos in range(n):
        group = frontier.pop(v_pos, None)
        if not group:
            continue
        if len(group) > opts.beam_width:
            group = heapq.nsmallest(opts.beam_width, group, key=beam_key)
        starts = [v_pos] if full_cover else range(v_pos, n)
        for blocks, v_end, s_end, runs in group:
            for v_start in starts:
                for b in table.get(v_start, ()):
                    _, b_s, length = b
                    new_runs = runs
                    if blocks:
                        s_gap = b_s - s_end
                        if s_gap < max(v_start - v_end, 1):
                            continue
                        new_runs += (s_gap,)
                    elif b_s < v_start:
                        continue
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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["A", "AB", "AAB", "ACGT"]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_search_equals_the_parent_search(symbols, min_window, seed):
    # The same completions at every beam, in both modes; for the fallback,
    # the parent's completions at their maximal coverage. Each state's total
    # and cover are its runs' sum and its blocks' lengths. A and AAB make
    # the largest tie classes on the beam's boundary total.
    s, v = _random_pair(random.Random(seed), 16, 7, symbols)
    index = enumerate_matches(s, v, MatchOptions(min_window=min_window))
    m, n = len(s), len(v)
    old_table = {}
    for b in index.blocks():
        old_table.setdefault(b.v_start, []).append((b.v_start, b.s_start, b.length))
    table = chainer._HitRows(index)
    for width in (1, 2, 3, 8):
        opts = ChainOptions(beam_width=width)
        for full_cover in (True, False):
            old = [
                (blocks, s_end, sum(runs), sum(b[2] for b in blocks))
                for blocks, _, s_end, runs in _parent_search(old_table, n, m, opts, full_cover)
            ]
            if old and not full_cover:
                best = max(state[3] for state in old)
                old = [state for state in old if state[3] == best]
            new = chainer._states(chainer._search(table, n, m, opts, full_cover))
            assert sorted(new) == sorted(old), (s.residues, v.residues, width, full_cover)
