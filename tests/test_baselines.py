import random

import pytest

from seqalign import (
    EmptyInputError,
    ScoringScheme,
    SeqalignError,
    Sequence,
    needleman_wunsch,
    smith_waterman,
)
from seqalign.baselines import column_score
from seqalign.oracle import exhaustive_global_score, exhaustive_local_score

UNIT = ScoringScheme(1, -1, -1)
SKEWED = ScoringScheme(2, -3, -1)


def _seq(res, id="x"):
    return Sequence(id, res)


def test_identity_global_alignment():
    out = needleman_wunsch(_seq("ACGT"), _seq("ACGT"), UNIT)
    assert out.score == 4
    assert out.aligned_s == out.aligned_v == "ACGT"
    assert all(out.match_mask)


def test_global_single_symbol_fragment():
    out = needleman_wunsch(_seq("AC"), _seq("C"), UNIT)
    assert out.score == 0  # one match plus one gap
    assert (out.aligned_s, out.aligned_v) == ("AC", "-C")


def test_traceback_tie_priority_is_stable():
    # Both "AB"/"-B" and "AB"/"B-" style layouts are reachable for fully
    # mismatched symbols; the fixed diagonal-first priority picks one.
    out = needleman_wunsch(_seq("AB"), _seq("B"), UNIT)
    assert (out.aligned_s, out.aligned_v) == ("AB", "-B")
    out2 = needleman_wunsch(_seq("A"), _seq("C"), UNIT)
    assert (out2.aligned_s, out2.aligned_v) == ("A", "C")


def test_local_embedded_exact_match():
    out = smith_waterman(_seq("XXXACGTXXX"), _seq("ACGT"), UNIT)
    assert out.score == 4
    assert out.aligned_s == out.aligned_v == "ACGT"


def test_local_disjoint_alphabets_scores_zero():
    out = smith_waterman(_seq("AAAA"), _seq("BBBB"), UNIT)
    assert out.score == 0
    assert out.aligned_s == out.aligned_v == ""


def test_rows_reproduce_inputs():
    s, v = _seq("AGTACG"), _seq("GTCG")
    out = needleman_wunsch(s, v, UNIT)
    assert out.aligned_s.replace("-", "") == s.residues
    assert out.aligned_v.replace("-", "") == v.residues
    local = smith_waterman(s, v, UNIT)
    assert local.aligned_s.replace("-", "") in s.residues
    assert local.aligned_v.replace("-", "") in v.residues


def test_scores_match_column_recomputation():
    rng = random.Random(2)
    for _ in range(40):
        s = _seq("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 10))))
        v = _seq("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 10))))
        for scheme in (UNIT, SKEWED):
            g = needleman_wunsch(s, v, scheme)
            assert column_score(g.aligned_s, g.aligned_v, scheme) == pytest.approx(g.score)
            l = smith_waterman(s, v, scheme)
            assert column_score(l.aligned_s, l.aligned_v, scheme) == pytest.approx(l.score)


def test_global_score_is_symmetric_for_symmetric_schemes():
    rng = random.Random(4)
    for _ in range(30):
        s = _seq("".join(rng.choice("AC") for _ in range(rng.randint(1, 8))))
        v = _seq("".join(rng.choice("AC") for _ in range(rng.randint(1, 8))))
        assert needleman_wunsch(s, v, UNIT).score == needleman_wunsch(v, s, UNIT).score


def test_local_dominates_global_when_symbols_shared():
    rng = random.Random(6)
    for _ in range(30):
        s = _seq("".join(rng.choice("ACG") for _ in range(rng.randint(1, 8))))
        v = _seq("".join(rng.choice("ACG") for _ in range(rng.randint(1, 8))))
        local = smith_waterman(s, v, UNIT).score
        assert local >= 0
        if set(s.residues) & set(v.residues):
            assert local >= needleman_wunsch(s, v, UNIT).score


def test_gap_free_identity_scores_length_times_match():
    for scheme in (UNIT, SKEWED):
        out = needleman_wunsch(_seq("GATTACA"), _seq("GATTACA"), scheme)
        assert out.score == 7 * scheme.match_score


def test_scores_equal_exhaustive_oracles():
    rng = random.Random(8)
    for _ in range(50):
        s = _seq("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 8))))
        v = _seq("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 8))))
        for scheme in (UNIT, SKEWED):
            assert needleman_wunsch(s, v, scheme).score == exhaustive_global_score(s, v, scheme)
            assert smith_waterman(s, v, scheme).score == exhaustive_local_score(s, v, scheme)


def test_global_traceback_stays_on_grid_with_fractional_gaps():
    # The left border holds gap * i, which need not equal the rounded sum
    # grid[i - 1][0] + gap; the traceback must still walk up it to (0, 0).
    out = needleman_wunsch(_seq("CCCAAACACACACA"), _seq("CC"), ScoringScheme(0.3, -1, -0.3))
    assert out.aligned_s.replace("-", "") == "CCCAAACACACACA"
    assert out.aligned_v.replace("-", "") == "CC"
    rng = random.Random(10)
    for _ in range(200):
        s = _seq("".join(rng.choice("AC") for _ in range(rng.randint(1, 14))))
        v = _seq("".join(rng.choice("AC") for _ in range(rng.randint(1, 14))))
        scheme = ScoringScheme(
            rng.choice((1, 0.5, 0.3)), rng.choice((-1, -0.7)), rng.choice((-0.1, -0.3, -0.7))
        )
        out = needleman_wunsch(s, v, scheme)
        assert out.aligned_s.replace("-", "") == s.residues
        assert out.aligned_v.replace("-", "") == v.residues
        assert column_score(out.aligned_s, out.aligned_v, scheme) == pytest.approx(out.score)


@pytest.mark.parametrize(
    "align, scheme",
    [
        (smith_waterman, ScoringScheme(1e308, -1e308, -1)),
        (needleman_wunsch, ScoringScheme(1, -1e308, -1e308)),
    ],
    ids=["sw-inf", "nw-minus-inf"],
)
def test_overflowing_score_raises(align, scheme):
    with pytest.raises(SeqalignError, match="overflows"):
        align(_seq("ACGT"), _seq("AC"), scheme)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_scoring_scheme_rejects_non_finite_values(bad):
    for scores in ((bad, -1, -1), (1, bad, -1), (1, -1, bad)):
        with pytest.raises(ValueError, match="finite"):
            ScoringScheme(*scores)


def test_empty_inputs_rejected():
    with pytest.raises(EmptyInputError):
        needleman_wunsch(_seq(""), _seq("A"), UNIT)
    with pytest.raises(EmptyInputError):
        smith_waterman(_seq("A"), _seq(""), UNIT)
