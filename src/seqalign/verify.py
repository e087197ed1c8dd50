"""The `seqalign verify` suites: each module cross-checked against a brute-force oracle.

A suite takes (rng, cases, max_m, max_n) and returns the first
counterexample as text, with the inputs that reproduce it, or None when
every case passes.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from statistics import pvariance

from . import baselines, bench, chainer, gapstats, matcher, oracle
from .core import ScoringScheme, Sequence


def _verify_matcher(rng, cases, max_m, max_n):
    for case in range(cases):
        symbols = "AC" if case % 2 == 0 else "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        m = rng.randint(1, max_m)
        n = rng.randint(1, min(m, max_n))
        if case % 10 == 9:
            s, v = Sequence("s", "A" * m), Sequence("v", "A" * n)
        else:
            s = bench.random_sequence(rng, m, symbols, "s")
            v = bench.random_sequence(rng, n, symbols, "v")
        # Half the cases draw min_window in 1..n+1; the index clamps it to n.
        min_window = rng.randint(1, n + 1) if case % 4 >= 2 else 1
        index = matcher.enumerate_matches(s, v, matcher.MatchOptions(min_window=min_window))
        where = f"case {case}: S={s.residues} V={v.residues} min_window={min_window}"
        got = index.blocks()
        want = sorted(
            b for j in range(index.min_window, n + 1) for b in oracle.naive_match_scan(s, v, j)
        )
        if got != want:
            return f"{where}: blocks {got} != oracle {want}"
        want_counters = oracle.naive_scan_counters(s, v, index.min_window)
        if index.counters != want_counters:
            return f"{where}: counters {index.counters} != oracle {want_counters}"
        if index.min_window == 1:
            measured = matcher.measure_counters(s, v)
            if measured != index.counters:
                return f"{where}: measure_counters {measured} != index {index.counters}"
    return None


# The documented candidate order of each policy, written out here instead of
# taken from gapstats.sort_key, so the chainer suite checks the cut against it.
# variance_only compares the exact variance; no runs count as one run of 0.
_DOCUMENTED_ORDER = {
    "mean_then_variance": lambda chain, st: (st.mean, st.variance, chain.blocks),
    "variance_only": lambda c, st: (pvariance(map(Fraction, st.runs or (0,))), st.mean, c.blocks),
    "mean_only": lambda chain, st: (st.mean, chain.blocks),
}


def _verify_chainer(rng, cases, max_m, max_n):
    uncapped = chainer.ChainOptions(max_candidates=10**9, beam_width=10**9)
    for case in range(cases):
        m = rng.randint(1, max_m)
        n = rng.randint(1, min(m, max_n))
        s, v = bench.random_sequence(rng, m, "AB", "s"), bench.random_sequence(rng, n, "AB", "v")
        index = matcher.enumerate_matches(s, v)
        # The oracles refuse more than their block limit at once; the
        # uncapped search has no such bound, so it runs only after them.
        exhaustive = oracle.exhaustive_chains(index.blocks(), n)
        full_cover = bool(exhaustive)
        if not full_cover:  # the fallback: every chain of maximal coverage
            exhaustive = oracle.exhaustive_partial_chains(index.blocks(), m, n)
        result = chainer.enumerate_candidates(index, s, v, uncapped)
        got = {chain.blocks for chain in result.chains}
        want = {chain.blocks for chain in exhaustive}
        if got != want or result.full_coverage != full_cover:
            return (
                f"case {case}: S={s.residues} V={v.residues}: full_coverage={result.full_coverage}, "
                f"oracle {full_cover}; chains differ {sorted(got ^ want)}"
            )
        # The max_candidates cut keeps exactly the best k in policy order.
        k = 1 + case % 4
        capped = chainer.ChainOptions(max_candidates=k, beam_width=10**9)
        for mode, order in _DOCUMENTED_ORDER.items():
            policy = gapstats.SelectionPolicy(mode=mode)
            result = chainer.enumerate_candidates(index, s, v, capped, policy)
            ranked = sorted(exhaustive, key=lambda c: order(c, gapstats.chain_statistics(c, m)))
            got_keys = [chain.blocks for chain in result.chains]
            want_keys = [chain.blocks for chain in ranked[:k]]
            if got_keys != want_keys or result.truncated != (len(ranked) > k):
                return (
                    f"case {case}: S={s.residues} V={v.residues} {mode} max_candidates={k}: "
                    f"kept {got_keys} truncated={result.truncated}, "
                    f"oracle {want_keys} truncated={len(ranked) > k}"
                )
    return None


def _verify_dp(rng, cases, max_m, max_n, local):
    # (scheme, tolerance): 0.3 is no binary fraction, so sum order moves the last bits.
    schemes = ((ScoringScheme(1, -1, -1), 0.0), (ScoringScheme(2, -3, -1), 0.0),
               (ScoringScheme(0.3, -1, -0.3), 1e-9))
    align = baselines.smith_waterman if local else baselines.needleman_wunsch
    brute = oracle.exhaustive_local_score if local else oracle.exhaustive_global_score
    for case in range(cases):
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        s = bench.random_sequence(rng, m, "ACGT", "s")
        v = bench.random_sequence(rng, n, "ACGT", "v")
        for scheme, tol in schemes:
            got = align(s, v, scheme)
            want = brute(s, v, scheme)
            # Gaps removed, global rows spell the inputs, local rows substrings of them.
            rows = [row.replace(baselines.GAP, "") for row in (got.aligned_s, got.aligned_v)]
            spelled = all(r in x if local else r == x for r, x in zip(rows, (s.residues, v.residues)))
            columns = baselines.column_score(got.aligned_s, got.aligned_v, scheme)
            if not spelled or abs(got.score - want) > tol or abs(columns - got.score) > tol:
                return (
                    f"case {case}: S={s.residues} V={v.residues} scheme={scheme}: "
                    f"dp={got.score} rows={got.aligned_s!r}/{got.aligned_v!r} "
                    f"columns={columns} brute={want}"
                )
    return None


# name -> (suite, default max_m, default max_n, cap on both). The brute-force
# scorers of the nw and sw suites refuse sequences longer than their cap; the
# other caps keep a case to seconds, where an unbounded length could draw a
# sequence of billions of residues.
_DP = oracle.MAX_SCORE_LEN
SUITES = {
    "matcher": (_verify_matcher, 20, 10, 100),
    "chainer": (_verify_chainer, 12, 6, 1000),
    "nw": (functools.partial(_verify_dp, local=False), _DP, _DP, _DP),
    "sw": (functools.partial(_verify_dp, local=True), _DP, _DP, _DP),
}
