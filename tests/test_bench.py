import random
import tracemalloc
from fractions import Fraction

import pytest

from seqalign import count_comparisons, enumerate_matches, expected_comparisons
from seqalign.bench import (
    fit_loglog_slope,
    format_table,
    match_probability,
    measure_growth,
    random_sequence,
)


def test_rows_match_closed_form_counters():
    report = measure_growth([16, 24, 40], [4, 6], seed=5)
    assert len(report.rows) == 6
    for row in report.rows:
        predicted = count_comparisons(row.m, row.n)
        assert row.substring_comparisons == predicted.substring_comparisons
        assert row.claimed_comparisons == predicted.claimed_comparisons
    # mixed grid: no axis is held fixed, so no slopes
    assert report.slope_vs_m is None and report.slope_vs_n is None


def test_slope_fit_recovers_exact_powers():
    xs = [2, 4, 8, 16]
    assert fit_loglog_slope(xs, [x * x for x in xs]) == pytest.approx(2.0)
    assert fit_loglog_slope(xs, [7 * x for x in xs]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fit_loglog_slope([2], [4])


def test_growth_report_slopes_and_table():
    report = measure_growth([32, 64, 128, 256], [8], seed=2)
    assert report.slope_vs_m == pytest.approx(1.0, abs=0.1)
    table = format_table(report)
    assert "slope vs m" in table
    assert str(report.rows[0].substring_comparisons) in table


def test_measure_growth_validation():
    with pytest.raises(ValueError):
        measure_growth([], [4])
    with pytest.raises(ValueError):
        measure_growth([8], [16])  # fragment longer than reference
    with pytest.raises(ValueError):
        measure_growth([8], [4], repeats=0)
    with pytest.raises(ValueError):
        measure_growth([0], [1])
    with pytest.raises(ValueError):
        measure_growth([8], [4], symbols="")


def test_counters_only_table_equals_the_index_counters():
    report = measure_growth([16, 24, 40], [4, 6], symbols="AC", seed=3)
    rng = random.Random(3)
    for row in report.rows:  # the grid draws each pair in row order
        s = random_sequence(rng, row.m, "AC", "s")
        v = random_sequence(rng, row.n, "AC", "v")
        counters = enumerate_matches(s, v).counters
        assert (row.substring_comparisons, row.char_comparisons, row.claimed_comparisons) == (
            counters.substring_comparisons, counters.char_comparisons, counters.claimed_comparisons
        )


def test_growth_keeps_no_hit_rows():
    # At min_window 1 an 8192 x 256 index holds about 0.5 M rows (tens of MB).
    tracemalloc.start()
    try:
        measure_growth([8192], [256], seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_rows_carry_the_expected_symbol_count():
    assert match_probability("ACGT") == Fraction(1, 4)
    assert match_probability("AAC") == Fraction(5, 9)
    report = measure_growth([40, 80], [6], symbols="AAC", seed=4)
    for row in report.rows:
        want = expected_comparisons(row.m, row.n, Fraction(5, 9)).char_comparisons
        assert row.expected_char_comparisons == want
    # One symbol: every placement is a full match, so the count is certain.
    report = measure_growth([64], [8], symbols="A")
    assert report.rows[0].expected_char_comparisons == report.rows[0].char_comparisons
    table = format_table(report)
    assert "expected_char" in table.splitlines()[0]
    assert " 1.0000 " in table.splitlines()[1]
