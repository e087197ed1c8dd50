import random

import pytest

from seqalign import (
    ComparisonCounters,
    MatchBlock,
    ScoringScheme,
    Sequence,
    SizeLimitError,
    enumerate_matches,
)
from seqalign.oracle import (
    MAX_CHAIN_BLOCKS,
    canonicalize,
    exhaustive_chains,
    exhaustive_global_score,
    exhaustive_local_score,
    exhaustive_partial_chains,
    naive_match_scan,
    naive_scan_counters,
)
from conftest import KNOWN_PLACEMENTS, V_DNA

UNIT = ScoringScheme(1, -1, -1)


def _seq(res, id="x"):
    return Sequence(id, res)


def test_naive_scan_counts_by_hand():
    blocks = naive_match_scan(_seq("AAA"), _seq("AA"), 2)
    assert set(blocks) == {MatchBlock(0, 0, 2), MatchBlock(0, 1, 2)}
    blocks = naive_match_scan(_seq("ABAB"), _seq("AB"), 2)
    assert set(blocks) == {MatchBlock(0, 0, 2), MatchBlock(0, 2, 2)}
    # Size 2: AA stops at its second symbol, AB matches (2 + 2 symbols).
    # Size 1: six one-symbol tests. Claimed: 1*2 + 2*1.
    assert naive_scan_counters(_seq("AAB"), _seq("AB")) == ComparisonCounters(
        substring_comparisons=8, char_comparisons=10, claimed_comparisons=4
    )
    assert naive_scan_counters(_seq("AAB"), _seq("AB"), min_window=2).char_comparisons == 4


def test_naive_scan_rejects_bad_window():
    with pytest.raises(ValueError):
        naive_match_scan(_seq("AA"), _seq("A"), 2)
    for min_window in (0, 2):
        with pytest.raises(ValueError):
            naive_scan_counters(_seq("AA"), _seq("A"), min_window)


def test_exhaustive_chains_single_block():
    s, v = _seq("XXABCX"), _seq("ABC")
    chains = exhaustive_chains(enumerate_matches(s, v).blocks(), len(v))
    full = [c for c in chains if c.coverage == 3 and len(c.blocks) == 1]
    assert [b for c in full for b in c.blocks] == [MatchBlock(0, 2, 3)]


def test_exhaustive_chains_none_when_no_tiling():
    s, v = _seq("AAAA"), _seq("AB")
    assert exhaustive_chains(enumerate_matches(s, v).blocks(), len(v)) == []


def test_exhaustive_chains_on_restricted_block_set():
    # Restrict the blocks to those of the four known DNA placements;
    # the exhaustive search must return those four chains (plus any other
    # valid combination of the same blocks) and nothing invalid.
    blocks = sorted({MatchBlock(*c) for coords in KNOWN_PLACEMENTS for c in coords})
    chains = exhaustive_chains(blocks, len(V_DNA))
    keys = {c.blocks for c in chains}
    for coords in KNOWN_PLACEMENTS:
        assert tuple(MatchBlock(*c) for c in coords) in keys
    for c in chains:
        assert c.coverage == len(V_DNA)


def test_exhaustive_chains_size_limit():
    many = [MatchBlock(0, i, 1) for i in range(MAX_CHAIN_BLOCKS + 1)]
    with pytest.raises(SizeLimitError):
        exhaustive_chains(many, 1)
    with pytest.raises(SizeLimitError):
        exhaustive_partial_chains(many, MAX_CHAIN_BLOCKS + 1, 1)


def _partial_keys(s, v):
    blocks = enumerate_matches(_seq(s), _seq(v)).blocks()
    return {c.blocks for c in exhaustive_partial_chains(blocks, len(s), len(v))}


def test_exhaustive_partial_chains_by_hand():
    # The trailing B needs a reference symbol after the matched A.
    assert _partial_keys("AAAA", "AB") == {(MatchBlock(0, s, 1),) for s in range(3)}
    # C goes into the gap between A and B. With no gap there is no room for
    # it, and B at reference 1 leaves no room for the leading AC either.
    assert _partial_keys("AXXB", "ACB") == {(MatchBlock(0, 0, 1), MatchBlock(2, 3, 1))}
    assert _partial_keys("ABXX", "ACB") == {(MatchBlock(0, 0, 1),)}
    # The leading C needs a reference symbol before the matched B.
    assert _partial_keys("BXXX", "CB") == set()
    assert _partial_keys("XXXX", "CB") == set()


def test_global_score_tiny_cases():
    assert exhaustive_global_score(_seq("A"), _seq("A"), UNIT) == 1
    assert exhaustive_global_score(_seq("A"), _seq("C"), UNIT) == -1
    assert exhaustive_global_score(_seq("AC"), _seq("C"), UNIT) == 0


def test_local_score_tiny_cases():
    assert exhaustive_local_score(_seq("AAA"), _seq("BBB"), UNIT) == 0
    assert exhaustive_local_score(_seq("XACGX"), _seq("ACG"), UNIT) == 3


def test_score_size_limits():
    nine = _seq("A" * 9)
    with pytest.raises(SizeLimitError):
        exhaustive_global_score(nine, _seq("A"), UNIT)
    with pytest.raises(SizeLimitError):
        exhaustive_local_score(_seq("A"), nine, UNIT)


def _recursive_global(a, b, scheme):
    """Memo-free three-way recursion; tiny inputs only. Used to validate the
    pairing-enumeration oracle against the most literal formulation."""
    if not a and not b:
        return 0.0
    best = None
    if a and b:
        best = scheme.score(a[0], b[0]) + _recursive_global(a[1:], b[1:], scheme)
    if a:
        cand = scheme.gap_penalty + _recursive_global(a[1:], b, scheme)
        best = cand if best is None else max(best, cand)
    if b:
        cand = scheme.gap_penalty + _recursive_global(a, b[1:], scheme)
        best = cand if best is None else max(best, cand)
    return best


def _substring_pairs_local(a, b, scheme):
    best = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            for k in range(len(b)):
                for l in range(k + 1, len(b) + 1):
                    best = max(best, _recursive_global(a[i:j], b[k:l], scheme))
    return best


def test_oracles_agree_with_literal_recursion_on_tiny_inputs():
    rng = random.Random(13)
    schemes = (UNIT, ScoringScheme(2, -3, -1), ScoringScheme(1, -2, 0))
    for _ in range(40):
        a = "".join(rng.choice("AC") for _ in range(rng.randint(1, 5)))
        b = "".join(rng.choice("AC") for _ in range(rng.randint(1, 5)))
        for scheme in schemes:
            assert exhaustive_global_score(_seq(a), _seq(b), scheme) == pytest.approx(
                _recursive_global(a, b, scheme)
            )
            assert exhaustive_local_score(_seq(a), _seq(b), scheme) == pytest.approx(
                _substring_pairs_local(a, b, scheme)
            )
