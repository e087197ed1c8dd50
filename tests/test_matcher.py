import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqalign import (
    EmptyInputError,
    MatchBlock,
    MatchOptions,
    OrderViolationError,
    Sequence,
    count_comparisons,
    enumerate_matches,
    expected_comparisons,
    validate_block,
)
from seqalign.matcher import claimed_formula_value, measure_counters
from seqalign.oracle import claimed_count, literal_counts, naive_match_scan, naive_scan_counters
from conftest import S_DNA, V_DNA


def _pair(s, v):
    return Sequence("s", s), Sequence("v", v)


def _of_size(index, j):
    return [b for b in index.blocks() if b.length == j]


def test_full_window_pass_makes_six_comparisons_and_no_match():
    # 13-symbol reference vs 8-symbol fragment: the full-size window slides
    # over exactly six offsets and none of them matches.
    s, v = _pair("FTFTALILLAVAV", "FTALLAAV")
    index = enumerate_matches(s, v, MatchOptions(min_window=8))
    assert index.counters.substring_comparisons == 6
    assert index.blocks() == []


def test_identity_sequences_record_all_sub_blocks():
    s, v = _pair("ABC", "ABC")
    index = enumerate_matches(s, v)
    assert _of_size(index, 3) == [MatchBlock(0, 0, 3)]
    for j in (1, 2, 3):
        assert _of_size(index, j) == naive_match_scan(s, v, j)


def test_dna_example_matches_naive_scan_at_every_window():
    s, v = _pair(S_DNA, V_DNA)
    index = enumerate_matches(s, v)
    for j in range(1, len(v) + 1):
        assert _of_size(index, j) == naive_match_scan(s, v, j)


def test_degenerate_repeat_input():
    s, v = _pair("AAAA", "AA")
    index = enumerate_matches(s, v)
    assert len(_of_size(index, 2)) == 3
    assert len(_of_size(index, 1)) == 8
    for j in (1, 2):
        assert _of_size(index, j) == naive_match_scan(s, v, j)


def test_determinism():
    s, v = _pair("AGGAGTAC", "GAGT")
    a = enumerate_matches(s, v)
    b = enumerate_matches(s, v)
    assert np.array_equal(a.hits, b.hits)
    assert a.blocks() == b.blocks()
    assert a.counters == b.counters


def test_blocks_validate_against_sequences():
    s, v = _pair(S_DNA, V_DNA)
    index = enumerate_matches(s, v)
    for b in index.blocks():
        validate_block(b, s, v)
    # Each row's run is maximal: it matches, then ends at a sequence end or
    # at a mismatch.
    for v_start, s_start, run in index.hits.tolist():
        assert v.residues[v_start : v_start + run] == s.residues[s_start : s_start + run]
        v_end, s_end = v_start + run, s_start + run
        assert v_end == len(v) or s_end == len(s) or v.residues[v_end] != s.residues[s_end]


def test_counters_match_closed_form():
    rng = random.Random(11)
    cases = []
    for _ in range(25):
        m = rng.randint(1, 24)
        n = rng.randint(1, m)
        min_window = rng.randint(1, n)
        cases.append((
            "".join(rng.choice("ACGT") for _ in range(m)),
            "".join(rng.choice("ACGT") for _ in range(n)),
            min_window,
        ))
    # Runs of n symbols at n = 254..256 straddle the edge of the one-byte
    # run-length table: a table one width too small overflows on run + 1.
    # Each n gets a homopolymer pair and a random ACGT pair whose fragment
    # is copied from the reference.
    for n in (254, 255, 256):
        s_res = "".join(rng.choice("ACGT") for _ in range(300))
        cases.append(("A" * 300, "A" * n, n - 3))
        cases.append((s_res, s_res[20 : 20 + n], n - 3))
    for s_res, v_res, min_window in cases:
        s, v = _pair(s_res, v_res)
        m, n = len(s), len(v)
        index = enumerate_matches(s, v, MatchOptions(min_window=min_window))
        measured = index.counters
        predicted = count_comparisons(m, n, min_window)
        assert measured.substring_comparisons == predicted.substring_comparisons
        assert measured.claimed_comparisons == predicted.claimed_comparisons
        assert measured.char_comparisons <= predicted.char_comparisons
        assert measured == naive_scan_counters(s, v, min_window)
        if n >= 254:  # the row's run column across the uint8/uint16 edge
            want = [b for j in range(n, min_window - 1, -1) for b in naive_match_scan(s, v, j)]
            assert index.blocks() == sorted(want)


@st.composite
def _scan_case(draw):
    alphabet = draw(st.sampled_from(["A", "AB", "ACGT"]))
    s_res = draw(st.text(alphabet=alphabet, min_size=1, max_size=24))
    v_res = draw(st.text(alphabet=alphabet, min_size=1, max_size=len(s_res)))
    return s_res, v_res, draw(st.integers(1, len(v_res) + 3))


@settings(max_examples=200, deadline=None)
@given(_scan_case())
# A homopolymer: every run reaches the end of the fragment (run == span), the
# edge where a placement's scan inspects all j symbols of every size.
@example(("A" * 24, "A" * 9, 3))
def test_closed_form_counters_and_blocks_match_naive_scan(case):
    s_res, v_res, min_window = case
    s, v = _pair(s_res, v_res)
    index = enumerate_matches(s, v, MatchOptions(min_window=min_window))
    assert index.min_window == min(min_window, len(v))
    assert index.counters == naive_scan_counters(s, v, index.min_window)
    want = [
        b for j in range(len(v), index.min_window - 1, -1) for b in naive_match_scan(s, v, j)
    ]
    assert index.blocks() == sorted(want)


def test_no_match_gives_empty_int64_hits():
    index = enumerate_matches(*_pair("CCCCCC", "AAA"))
    assert index.hits.shape == (0, 3)
    assert index.hits.dtype == np.int64
    assert index.blocks() == []


def test_matcher_memory_is_linear_in_the_reference():
    # A full (n+1) x (m+1) run-length table here would be 12 MB of uint16
    # alone; the streamed matcher keeps two rows and row-sized temporaries.
    rng = random.Random(7)
    s_res = "".join(rng.choice("ACGT") for _ in range(20000))
    s, v = _pair(s_res, s_res[9000:9300])
    tracemalloc.start()
    try:
        index = enumerate_matches(s, v, MatchOptions(min_window=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    predicted = count_comparisons(20000, 300, 8)
    measured = index.counters
    assert measured.substring_comparisons == predicted.substring_comparisons
    assert measured.claimed_comparisons == predicted.claimed_comparisons
    assert measured.char_comparisons <= predicted.char_comparisons
    assert [0, 9000, 300] in index.hits.tolist()


def test_count_comparisons_known_values():
    assert count_comparisons(13, 8, min_window=8).substring_comparisons == 6
    tiny = count_comparisons(1, 1)
    assert tiny.substring_comparisons == 1
    assert tiny.claimed_comparisons == 0

    # Independent evaluation of both closed forms with exact integers.
    m, n = 32, 9
    substr = 0
    for j in range(1, n + 1):
        substr += (n - j + 1) * (m - j + 1)
    claimed = 0
    for k in range(n):
        claimed += (m - (n - k)) * (n - k)
    got = count_comparisons(m, n)
    assert (got.substring_comparisons, got.claimed_comparisons) == (substr, claimed)
    assert (substr, claimed) == (1320, 1155)


def test_closed_forms_equal_the_literal_sums_on_a_grid():
    for m in range(1, 41):
        for n in range(1, m + 1):
            assert claimed_formula_value(m, n) == claimed_count(m, n), (m, n)
            for min_window in range(1, n + 1):
                want = literal_counts(m, n, min_window)
                assert count_comparisons(m, n, min_window) == want, (m, n, min_window)


def test_count_comparisons_rejects_bad_sizes():
    with pytest.raises(ValueError):
        count_comparisons(3, 4)
    with pytest.raises(ValueError):
        count_comparisons(4, 3, min_window=5)


@settings(max_examples=150, deadline=None)
@given(
    st.text(alphabet="AB", min_size=1, max_size=14),
    st.text(alphabet="AB", min_size=1, max_size=7),
)
def test_completeness_against_naive_oracle(s_res, v_res):
    if len(v_res) > len(s_res):
        s_res, v_res = v_res, s_res
    s, v = _pair(s_res, v_res)
    index = enumerate_matches(s, v)
    for j in range(1, len(v) + 1):
        assert _of_size(index, j) == naive_match_scan(s, v, j)


@settings(max_examples=60, deadline=None)
@given(
    st.text(alphabet="ACGT", min_size=2, max_size=16),
    st.text(alphabet="ACGT", min_size=2, max_size=8),
)
def test_larger_windows_imply_smaller_ones(s_res, v_res):
    if len(v_res) > len(s_res):
        s_res, v_res = v_res, s_res
    s, v = _pair(s_res, v_res)
    index = enumerate_matches(s, v)
    for j in range(2, len(v) + 1):
        smaller = set(_of_size(index, j - 1))
        for b in _of_size(index, j):
            assert MatchBlock(b.v_start, b.s_start, j - 1) in smaller
            assert MatchBlock(b.v_start + 1, b.s_start + 1, j - 1) in smaller


def test_min_window_excludes_short_matches():
    s, v = _pair("ABCABD", "ABC")
    index = enumerate_matches(s, v, MatchOptions(min_window=2))
    assert min(b.length for b in index.blocks()) == 2


def test_empty_and_misordered_inputs():
    s, v = _pair("ACGT", "")
    with pytest.raises(EmptyInputError):
        enumerate_matches(s, v)
    with pytest.raises(EmptyInputError, match="reference"):
        enumerate_matches(*_pair("", "AC"))
    with pytest.raises(OrderViolationError):
        enumerate_matches(Sequence("s", "AC"), Sequence("v", "ACGT"))
    with pytest.raises(ValueError):
        MatchOptions(min_window=0)


def _per_cell_reference(s, v, min_window):
    """The matcher as a row loop with per-cell counter formulas: hits and
    (substring, char) counts, the reference for the whole-row scan."""
    m, n = len(s), len(v)
    s_arr = np.frombuffer(s.residues.encode("ascii"), dtype=np.uint8)
    v_arr = np.frombuffer(v.residues.encode("ascii"), dtype=np.uint8)
    below = np.zeros(m + 1, dtype=np.min_scalar_type(n + 1))
    row = np.zeros_like(below)
    to_end = m - np.arange(m)
    hit_rows, substr, chars = [], 0, 0
    for i in range(n - 1, -1, -1):
        np.add(below[1:], 1, out=row[:m])
        row[:m] *= v_arr[i] == s_arr
        run = row[:m].astype(np.int64)
        span = np.minimum(n - i, to_end)
        substr += int(np.maximum(span - min_window + 1, 0).sum())
        series = (min_window + run) * np.maximum(run - min_window + 1, 0) // 2
        capped = (run + 1) * np.maximum(span - np.maximum(min_window, run + 1) + 1, 0)
        chars += int(series.sum() + capped.sum())
        cols = np.flatnonzero(run >= min_window)
        if cols.size:
            hit_rows.append(np.column_stack((np.full(cols.size, i), cols, run[cols])))
        below, row = row, below
    hit_rows.reverse()
    hits = np.concatenate(hit_rows) if hit_rows else np.empty((0, 3), dtype=np.int64)
    return hits, substr, chars


def _read_map_pair(rng, m, n):
    """A read of four reference segments separated by 1-12-symbol deletions."""
    ref = "".join(rng.choice("ACGT") for _ in range(m))
    gaps = [rng.randint(1, 12) for _ in range(3)] + [0]
    pos = rng.randint(0, m - n - sum(gaps))
    parts = []
    for gap in gaps:
        parts.append(ref[pos : pos + n // 4])
        pos += n // 4 + gap
    return ref, "".join(parts)


def _workload_cases():
    rng = random.Random(17)
    for k in range(3):
        yield f"read-map-{k}", *_read_map_pair(rng, 4096, 128), 8
    letters = "ACDEFGHIKLMNPQRSTVWY"
    ref = "".join(rng.choice(letters) for _ in range(3000))
    yield "20-letter-copied", ref, ref[1000:1200], 2
    yield "20-letter-random", ref, "".join(rng.choice(letters) for _ in range(150)), 1
    # n = 254..257 runs cross the uint8 -> uint16 row dtype.
    for n in (254, 255, 256, 257):
        for min_window in (1, 9):
            yield f"polyA-{n}-w{min_window}", "A" * 300, "A" * n, min_window


@pytest.mark.parametrize("name,s_res,v_res,min_window", list(_workload_cases()))
def test_whole_row_scan_equals_per_cell_reference_at_workload_scale(name, s_res, v_res, min_window):
    s, v = _pair(s_res, v_res)
    index = enumerate_matches(s, v, MatchOptions(min_window=min_window))
    hits, substr, chars = _per_cell_reference(s, v, index.min_window)
    assert index.hits.dtype == np.int64
    assert index.hits.shape == hits.shape
    assert np.array_equal(index.hits, hits)
    assert (index.counters.substring_comparisons, index.counters.char_comparisons) == (substr, chars)
    assert index.counters.claimed_comparisons == count_comparisons(len(s), len(v)).claimed_comparisons
    if index.min_window == 1:
        assert measure_counters(s, v) == index.counters


@pytest.mark.parametrize(
    "m,n,sigma,min_window", [(4, 2, 2, 1), (5, 3, 2, 1), (4, 3, 3, 1), (6, 3, 2, 2), (5, 3, 2, 3)]
)
def test_expected_comparisons_equal_the_mean_over_all_inputs(m, n, sigma, min_window):
    symbols = "ABC"[:sigma]
    total = [0, 0, 0]
    for s_res in itertools.product(symbols, repeat=m):
        for v_res in itertools.product(symbols, repeat=n):
            counters = enumerate_matches(
                *_pair("".join(s_res), "".join(v_res)), MatchOptions(min_window=min_window)
            ).counters
            total[0] += counters.substring_comparisons
            total[1] += counters.char_comparisons
            total[2] += counters.claimed_comparisons
    mean = [Fraction(t, sigma ** (m + n)) for t in total]
    got = expected_comparisons(m, n, Fraction(1, sigma), min_window)
    got = [got.substring_comparisons, got.char_comparisons, got.claimed_comparisons]
    assert got == mean
    assert all(isinstance(x, Fraction) for x in got)


def test_expected_comparisons_edges():
    # q = 1: every placement is a full match of all j symbols, the upper bound.
    bound = count_comparisons(12, 5, 2)
    assert expected_comparisons(12, 5, 1, 2).char_comparisons == bound.char_comparisons
    # q = 0: one symbol per placement.
    assert expected_comparisons(12, 5, 0, 2).char_comparisons == bound.substring_comparisons
    with pytest.raises(ValueError):
        expected_comparisons(12, 5, Fraction(3, 2))
    with pytest.raises(ValueError):
        expected_comparisons(4, 5, Fraction(1, 4))
