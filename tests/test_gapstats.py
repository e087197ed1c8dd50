import itertools
from fractions import Fraction
from statistics import pvariance

import pytest
from hypothesis import given, strategies as st

from seqalign import (
    CandidateAlignment,
    EmptyInputError,
    GapStatistics,
    SelectionPolicy,
    StructuralViolationError,
    chain_statistics,
    gap_runs,
    select,
    statistics,
)
from seqalign.gapstats import sort_key, variance_rank
from conftest import KNOWN_PLACEMENTS, KNOWN_STATS, S_DNA, chain_of


@pytest.mark.parametrize("runs,mean,variance", KNOWN_STATS)
def test_statistics_reproduce_known_values(runs, mean, variance):
    stats = statistics(runs)
    assert stats.mean == pytest.approx(mean, abs=1e-3)
    assert stats.variance == pytest.approx(variance, abs=1e-3)


def test_statistics_two_run_case():
    stats = statistics((1, 4))
    assert stats.mean == pytest.approx(2.5)
    assert stats.variance == pytest.approx(2.25)


def test_statistics_empty_runs():
    stats = statistics(())
    assert (stats.mean, stats.variance) == (0.0, 0.0)


def test_statistics_rejects_non_positive_runs():
    with pytest.raises(ValueError):
        statistics((3, 0))


@pytest.mark.parametrize(
    "coords,expected_runs",
    list(zip(KNOWN_PLACEMENTS, [s[0] for s in KNOWN_STATS])),
)
def test_gap_runs_of_known_placements(coords, expected_runs):
    assert gap_runs(chain_of(coords), len(S_DNA)) == expected_runs


def test_gap_runs_identity_chain_has_none():
    chain = chain_of(((0, 0, 3),))
    assert gap_runs(chain, 3) == ()
    assert chain_statistics(chain, 3) == GapStatistics((), 0.0, 0.0)


def test_gap_runs_empty_chain_errors():
    with pytest.raises(EmptyInputError):
        gap_runs(CandidateAlignment(blocks=()), 10)


def test_gap_runs_chain_past_the_reference_errors():
    with pytest.raises(StructuralViolationError, match="reference length 5"):
        gap_runs(chain_of(((0, 0, 2), (2, 4, 2))), 5)


NO_BLOCKS = CandidateAlignment(blocks=())


def _entries(run_lists):
    """Entries with real statistics and empty chains, so that block ties fall to input order."""
    return [(NO_BLOCKS, statistics(runs)) for runs in run_lists]


def _chain_with_runs(runs):
    """Unit blocks at fragment positions 0, 1, ... with the given reference gaps between them."""
    starts = itertools.accumulate(runs, lambda s, r: s + 1 + r, initial=0)
    return chain_of((v, s, 1) for v, s in enumerate(starts))


def test_select_prefers_smaller_mean_then_variance():
    # (mean, variance): (5.33, 11.556), (2.5, 2.25), (5, 4.667)
    entries = _entries([(2, 4, 10), (1, 4), (3, 4, 8)])
    assert select(entries, SelectionPolicy(mode="mean_then_variance")) == 1


def test_select_variance_only_mode():
    entries = _entries(runs for runs, _, _ in KNOWN_STATS)
    assert select(entries, SelectionPolicy(mode="variance_only")) == 0
    # The stated default rule would pick the smallest mean instead.
    assert select(entries, SelectionPolicy(mode="mean_then_variance")) == 2


def test_select_single_candidate_and_empty():
    assert select(_entries([(9,)])) == 0
    with pytest.raises(EmptyInputError):
        select([])


def test_select_breaks_mean_ties_by_variance():
    # (mean, variance): (2, 5), (2, 1), (3, 0)
    entries = _entries([(1, 1, 1, 1, 1, 7), (1, 3), (3,)])
    assert select(entries, SelectionPolicy(mode="mean_then_variance")) == 1
    assert select(entries, SelectionPolicy(mode="mean_only")) == 0  # input order
    # Means tie only when equal: a mean 1/100 above the best loses on its
    # mean, however small its variance.
    near = _entries([(1, 1, 1, 1, 1, 7), (1, 3), (2,) * 99 + (3,)])
    assert select(near, SelectionPolicy(mode="mean_then_variance")) == 1


def test_select_zero_gap_identity_wins_under_every_policy():
    # (mean, variance): (3, 1), (0, 0), (3, 4)
    entries = _entries([(2, 4), (), (1, 5)])
    for mode in ("mean_then_variance", "variance_only", "mean_only"):
        assert select(entries, SelectionPolicy(mode=mode)) == 1


def test_sort_key_compares_variance_exactly():
    # Both variances are 14/25, but the first reads 0.5599999999999999 and the
    # second 0.56, so a float key would rank the larger mean first.
    entries = _entries([(2, 1, 3, 2, 3), (2, 1, 3, 2, 1)])
    ranked = sorted(entries, key=sort_key(SelectionPolicy(mode="variance_only")))
    assert [stats.mean for _, stats in ranked] == [1.8, 2.2]
    assert select(entries, SelectionPolicy(mode="variance_only")) == 1


@pytest.mark.xfail(
    strict=True,
    reason="mean_then_variance compares the float variance; the exact key of ROADMAP item 4 mends it",
)
def test_mean_then_variance_exact_ties_follow_block_order():
    # Mean 13/3 and variance 116/9 for both, read as 12.888888888888888 and
    # 12.888888888888891; the documented order then falls to the blocks.
    reads_low = _chain_with_runs((1, 7, 1, 3, 3, 11))
    reads_high = _chain_with_runs((1, 4, 4, 3, 2, 12))
    assert reads_high.blocks < reads_low.blocks
    entries = [(chain, chain_statistics(chain, 40)) for chain in (reads_low, reads_high)]
    assert select(entries, SelectionPolicy(mode="mean_then_variance")) == 1


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(mode="best")


runs_strategy = st.lists(st.integers(1, 50), min_size=1, max_size=8)


@given(runs_strategy)
def test_statistics_permutation_invariant(runs):
    stats = statistics(runs)
    rev = statistics(tuple(reversed(runs)))
    assert rev.mean == stats.mean
    assert rev.variance == stats.variance


@given(runs_strategy, st.integers(2, 9))
def test_statistics_scale_linearly_and_quadratically(runs, c):
    base = statistics(runs)
    scaled = statistics([c * r for r in runs])
    assert scaled.mean == pytest.approx(c * base.mean)
    assert scaled.variance == pytest.approx(c * c * base.variance)


@given(st.lists(runs_strategy, min_size=1, max_size=6), st.integers(2, 7))
def test_select_scale_invariant_for_mean_modes(run_lists, c):
    entries = _entries(run_lists)
    scaled = _entries([c * r for r in runs] for runs in run_lists)
    for mode in ("mean_only", "mean_then_variance"):
        policy = SelectionPolicy(mode=mode)
        assert select(entries, policy) == select(scaled, policy)


@pytest.mark.xfail(
    strict=True,
    reason="mean_then_variance compares the float variance; the exact key of ROADMAP item 4 mends it",
)
def test_select_scale_invariant_on_an_exact_variance_tie():
    # Mean 13/3 and variance 116/9 for both; the float variances order the
    # runs one way unscaled and the other way scaled by 5.
    run_lists = [(1, 7, 1, 3, 3, 11), (1, 4, 4, 3, 2, 12)]
    entries = _entries(run_lists)
    scaled = _entries([5 * r for r in runs] for runs in run_lists)
    mean_only = SelectionPolicy(mode="mean_only")
    assert select(entries, mean_only) == select(scaled, mean_only) == 0
    policy = SelectionPolicy(mode="mean_then_variance")
    assert select(entries, policy) == select(scaled, policy)


@given(st.lists(runs_strategy, min_size=1, max_size=6))
def test_select_total_and_in_bounds(run_lists):
    entries = _entries(run_lists)
    for mode in ("mean_then_variance", "variance_only", "mean_only"):
        i = select(entries, SelectionPolicy(mode=mode))
        assert 0 <= i < len(entries)


@given(st.lists(st.lists(st.integers(1, 30), max_size=7), min_size=2, max_size=8))
def test_variance_rank_orders_as_the_exact_variance_then_the_mean(run_lists):
    rank = variance_rank(max(map(len, run_lists)))
    for a, b in itertools.combinations(run_lists, 2):
        exact = [(pvariance(map(Fraction, r or (0,))), statistics(r).mean) for r in (a, b)]
        assert (rank(a) < rank(b)) == (exact[0] < exact[1])
        assert (rank(a) == rank(b)) == (exact[0] == exact[1])
