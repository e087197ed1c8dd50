import pytest
from hypothesis import given, strategies as st

from seqalign import (
    CandidateAlignment,
    ComparisonCounters,
    MatchBlock,
    ParseError,
    ScoringScheme,
    Sequence,
    StructuralViolationError,
    validate_block,
    validate_chain,
)
from seqalign.oracle import canonicalize
from conftest import chain_of


def test_sequence_length_and_identity():
    seq = Sequence("x", "ACGT")
    assert len(seq) == 4
    assert len(Sequence("empty", "")) == 0


def test_sequence_rejects_non_uppercase():
    with pytest.raises(ParseError):
        Sequence("x", "acgt")
    with pytest.raises(ParseError):
        Sequence("x", "AC-T")
    # Uppercase letters outside ASCII, and one lowercase symbol among capitals.
    for residues, bad in (("AÉ", "É"), ("ACgT", "g"), ("AΣ", "Σ")):
        with pytest.raises(ParseError, match=f"residue {bad!r} "):
            Sequence("x", residues)


def test_match_block_bad_coordinates():
    with pytest.raises(StructuralViolationError):
        MatchBlock(-1, 0, 1)
    with pytest.raises(StructuralViolationError):
        MatchBlock(0, 0, 0)


def test_validate_block_checks_symbols():
    s, v = Sequence("s", "ACTAG"), Sequence("v", "TAG")
    validate_block(MatchBlock(0, 2, 3), s, v)
    with pytest.raises(StructuralViolationError):
        validate_block(MatchBlock(0, 0, 3), s, v)  # ACT != TAG
    with pytest.raises(StructuralViolationError):
        validate_block(MatchBlock(0, 4, 3), s, v)  # out of bounds


def test_chain_rejects_overlap_and_crossing():
    with pytest.raises(StructuralViolationError):
        chain_of(((0, 0, 2), (1, 5, 1)))  # overlap in V
    with pytest.raises(StructuralViolationError):
        chain_of(((0, 4, 2), (2, 3, 1)))  # crossing in S
    with pytest.raises(StructuralViolationError):
        chain_of(((0, 0, 2), (2, 1, 1)))  # overlap in S


def test_canonicalize_merges_doubly_contiguous_blocks():
    merged = canonicalize(chain_of(((0, 6, 3), (3, 9, 2))))
    assert merged.blocks == (MatchBlock(0, 6, 5),)
    assert canonicalize(merged).blocks == merged.blocks


def test_canonicalize_keeps_blocks_split_by_reference_gap():
    chain = chain_of(((7, 21, 1), (8, 24, 1)))
    assert canonicalize(chain).blocks == chain.blocks


def test_canonicalize_empty_chain():
    empty = CandidateAlignment(blocks=())
    assert canonicalize(empty).blocks == ()


def test_coverage_sums_block_lengths():
    assert chain_of(((0, 0, 2), (2, 3, 4))).coverage == 6
    assert CandidateAlignment(blocks=()).coverage == 0


@st.composite
def tiling_instances(draw):
    """A random reference plus a chain built from its substrings, so the
    chain is valid by construction; zero-width gaps make mergeable pairs."""
    m = draw(st.integers(2, 24))
    s_res = "".join(draw(st.lists(st.sampled_from("ACGT"), min_size=m, max_size=m)))
    blocks, v_parts = [], []
    pos, v_pos = 0, 0
    for _ in range(draw(st.integers(1, 4))):
        if pos >= m:
            break
        gap = draw(st.integers(0, min(3, m - pos - 1)))
        start = pos + gap
        length = draw(st.integers(1, m - start))
        blocks.append(MatchBlock(v_pos, start, length))
        v_parts.append(s_res[start : start + length])
        v_pos += length
        pos = start + length
    v_res = "".join(v_parts)
    return Sequence("s", s_res), Sequence("v", v_res), CandidateAlignment(blocks=tuple(blocks))


@given(tiling_instances())
def test_canonicalize_idempotent_and_validates(instance):
    s, v, chain = instance
    validate_chain(chain, s, v)
    once = canonicalize(chain)
    assert canonicalize(once) == once
    assert once.coverage == chain.coverage
    validate_chain(once, s, v)


def test_scoring_scheme_invariants():
    ScoringScheme(2, -3, -1)
    with pytest.raises(ValueError):
        ScoringScheme(1, -1, 1)  # positive gap
    with pytest.raises(ValueError):
        ScoringScheme(1, 2, -1)  # positive mismatch
    with pytest.raises(ValueError):
        ScoringScheme(-2, -1, -1)  # match below mismatch


def test_counters_must_be_non_negative():
    ComparisonCounters(0, 0, 0)
    with pytest.raises(ValueError):
        ComparisonCounters(-1, 0, 0)
