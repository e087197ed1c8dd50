import pickle
import string

import pytest
from hypothesis import given, settings, strategies as st

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
from seqalign.core import _check_chain_blocks
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


@settings(max_examples=400)
@given(
    st.one_of(
        st.text(),
        st.text(st.sampled_from(string.ascii_uppercase)),
        st.text(st.sampled_from(string.ascii_uppercase + 'az09"\\- \x00ß\u01c5\uff21ÉΣ')),
    )
)
def test_sequence_check_agrees_with_the_str_predicate(residues):
    # The JSON writer quotes residues without escaping them: that rests on
    # Sequence admitting exactly the strings over A-Z. Titlecase (ǅ) and
    # fullwidth (Ａ) letters pass str.isalpha and str.isupper but not isascii.
    if not residues or (residues.isascii() and residues.isalpha() and residues.isupper()):
        assert Sequence("x", residues).residues == residues
        return
    bad = next(c for c in residues if c not in string.ascii_uppercase)
    with pytest.raises(ParseError) as exc:
        Sequence("x", residues)
    assert str(exc.value) == f"residue {bad!r} is not an uppercase ASCII letter"


def test_match_block_bad_coordinates():
    with pytest.raises(StructuralViolationError):
        MatchBlock(-1, 0, 1)
    with pytest.raises(StructuralViolationError):
        MatchBlock(0, 0, 0)


def test_match_block_fields_and_repr():
    b = MatchBlock(2, 5, 3)
    assert MatchBlock._fields == ("v_start", "s_start", "length")
    assert repr(b) == str(b) == "MatchBlock(v_start=2, s_start=5, length=3)"
    assert (b.v_start, b.s_start, b.length, b.v_end, b.s_end) == (2, 5, 3, 5, 8)
    assert MatchBlock(v_start=2, s_start=5, length=3) == b


@pytest.mark.parametrize("coords", [(-1, 0, 1), (0, -2, 1), (0, 0, 0), (3, 4, -1)])
def test_match_block_bad_coordinates_message(coords):
    v_start, s_start, length = coords
    want = (
        "bad block coordinates "
        f"MatchBlock(v_start={v_start}, s_start={s_start}, length={length})"
    )
    with pytest.raises(StructuralViolationError) as exc:
        MatchBlock(*coords)
    assert str(exc.value) == want
    with pytest.raises(StructuralViolationError) as exc:
        MatchBlock(0, 0, 1)._replace(v_start=v_start, s_start=s_start, length=length)
    assert str(exc.value) == want


_triples = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4))


@given(_triples, _triples)
def test_match_block_order_and_hash_are_the_field_tuple(a, b):
    x, y = MatchBlock(*a), MatchBlock(*b)
    assert (x < y, x <= y, x == y, x != y, x > y, x >= y) == (
        a < b, a <= b, a == b, a != b, a > b, a >= b
    )
    assert hash(x) == hash(a)


def test_match_block_is_immutable_and_pickles():
    b = MatchBlock(1, 2, 3)
    with pytest.raises(AttributeError):
        b.length = 4
    with pytest.raises(AttributeError):
        b.extra = 0
    again = pickle.loads(pickle.dumps(b))
    assert type(again) is MatchBlock and again == b


def test_match_block_equals_the_plain_triple():
    # Deliberate: a MatchBlock is a tuple of its fields, so it equals (and
    # hashes as) the plain triple, as the chainer's search triples assume.
    assert MatchBlock(0, 0, 1) == (0, 0, 1)
    assert {MatchBlock(0, 0, 1): "block"}[(0, 0, 1)] == "block"


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


class _Block(MatchBlock):
    """A MatchBlock subclass: the chain check takes it as a block."""


def _check_by_end_properties(blocks):
    """The chain check as defined on the v_end and s_end properties."""
    prev = None
    for b in blocks:
        if not isinstance(b, MatchBlock):
            raise StructuralViolationError(f"chain element {b!r} is not a MatchBlock")
        if prev is not None and (b.v_start < prev.v_end or b.s_start < prev.s_end):
            raise StructuralViolationError(f"blocks {prev} and {b} overlap or cross")
        prev = b


def _check_outcome(check, blocks):
    try:
        check(blocks)
    except StructuralViolationError as exc:
        return str(exc)
    return None


@st.composite
def near_chains(draw):
    """Elements that mostly start near the previous block's end, so valid
    chains, overlaps and crossings in either sequence all occur; some are
    MatchBlock subclasses and some are not blocks at all."""
    out, v_end, s_end = [], 0, 0
    for _ in range(draw(st.integers(0, 6))):
        v_start = max(0, v_end + draw(st.integers(-2, 2)))
        s_start = max(0, s_end + draw(st.integers(-2, 3)))
        length = draw(st.integers(1, 3))
        kind = draw(st.sampled_from([MatchBlock, MatchBlock, _Block, tuple]))
        out.append((v_start, s_start, length) if kind is tuple else kind(v_start, s_start, length))
        v_end, s_end = v_start + length, s_start + length
    return tuple(out)


@settings(max_examples=500)
@given(near_chains())
def test_chain_check_agrees_with_the_end_properties(blocks):
    # Raises exactly when the property definition does, with the same
    # message for the first fault.
    assert _check_outcome(_check_chain_blocks, blocks) == _check_outcome(
        _check_by_end_properties, blocks
    )


def test_chain_check_reports_the_first_fault():
    crossing = (MatchBlock(0, 4, 2), MatchBlock(2, 3, 1), (5, 5, 1))
    want = f"blocks {crossing[0]} and {crossing[1]} overlap or cross"
    assert _check_outcome(_check_chain_blocks, crossing) == want
    assert _check_outcome(_check_chain_blocks, crossing[:1] + crossing[2:]) == (
        "chain element (5, 5, 1) is not a MatchBlock"
    )
    assert _check_outcome(_check_chain_blocks, (MatchBlock(0, 0, 1), _Block(1, 1, 2))) is None
    overlap = (_Block(0, 0, 2), MatchBlock(1, 5, 1))
    assert _check_outcome(_check_chain_blocks, overlap) == (
        f"blocks {overlap[0]} and {overlap[1]} overlap or cross"
    )


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
