"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS/FAIL line (run with -s to see them live) and pins
its tolerance inline. Run as: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
from contextlib import contextmanager

import pytest

from seqalign import (
    ChainOptions,
    ScoringScheme,
    SelectionPolicy,
    Sequence,
    chain_statistics,
    count_comparisons,
    emit_fasta,
    emit_report,
    enumerate_candidates,
    enumerate_matches,
    needleman_wunsch,
    parse_fasta,
    parse_rendered,
    render,
    report_from_json,
    select,
    smith_waterman,
    statistics,
)
from seqalign.bench import measure_growth
from seqalign.cli import main
from seqalign.core import AlignmentReport, CandidateAlignment, ComparisonCounters, MatchBlock
from seqalign.oracle import (
    canonicalize,
    exhaustive_chains,
    exhaustive_global_score,
    exhaustive_local_score,
    naive_match_scan,
)
from conftest import KNOWN_PLACEMENTS, KNOWN_STATS, S_DNA, V_DNA, chain_of

UNCAPPED = ChainOptions(max_candidates=10**9, beam_width=10**9)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def _random_pair(rng, max_m, max_n, symbols):
    m = rng.randint(1, max_m)
    n = rng.randint(1, min(m, max_n))
    return (
        Sequence("s", "".join(rng.choice(symbols) for _ in range(m))),
        Sequence("v", "".join(rng.choice(symbols) for _ in range(n))),
    )


def test_criterion_1_gap_statistics():
    with criterion(1, "gap statistics of the four known run lists (+/-0.01)"):
        for runs, mean, variance in KNOWN_STATS:
            stats = statistics(runs)
            assert stats.mean == pytest.approx(mean, abs=0.01)
            assert stats.variance == pytest.approx(variance, abs=0.01)


def test_criterion_2_dna_example_end_to_end(capsys):
    with criterion(2, "DNA example end to end: four known placements present; "
                      "variance policy picks the (3,8,3) chain among them"):
        code = main(["align", "--s", S_DNA, "--v", V_DNA,
                     "--select", "variance", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        keys = [tuple(map(tuple, c["blocks"])) for c in doc["candidates"]]
        for coords in KNOWN_PLACEMENTS:
            assert coords in keys

        # The full enumeration holds chains with lower variance than any of
        # the four known placements, so the winner must only be at least as
        # good; the decisive selection check runs on the restricted set.
        winner = doc["candidates"][doc["selected"]]
        assert winner["variance"] <= 5.556 + 0.01

        s, v = Sequence("s", S_DNA), Sequence("v", V_DNA)
        restricted = [
            (chain, chain_statistics(chain, len(s)))
            for chain in (chain_of(c) for c in KNOWN_PLACEMENTS)
        ]
        picked = select(restricted, SelectionPolicy(mode="variance_only"))
        assert picked == 0
        assert restricted[picked][1].mean == pytest.approx(4.667, abs=0.01)
        assert restricted[picked][1].variance == pytest.approx(5.556, abs=0.01)


def test_criterion_3_mean_first_selection_rule():
    with criterion(3, "mean-then-variance rule picks the smallest-mean candidate"):
        # (mean, variance): (5.33, 11.556), (2.5, 2.25), (5, 4.667)
        entries = [
            (CandidateAlignment(blocks=()), statistics(runs))
            for runs in ((2, 4, 10), (1, 4), (3, 4, 8))
        ]
        assert select(entries, SelectionPolicy(mode="mean_then_variance")) == 1


def test_criterion_4_matcher_completeness():
    with criterion(4, "matcher equals the naive scan on 500 seeded pairs "
                      "(m<=20, n<=10, two alphabets, adversarial repeats)"):
        rng = random.Random(20240)
        for case in range(500):
            symbols = "AC" if case % 2 == 0 else "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            if case % 10 == 9:
                m = rng.randint(1, 20)
                n = rng.randint(1, min(m, 10))
                s, v = Sequence("s", "A" * m), Sequence("v", "A" * n)
            else:
                s, v = _random_pair(rng, 20, 10, symbols)
            blocks = enumerate_matches(s, v).blocks()
            for j in range(1, len(v) + 1):
                got = [b for b in blocks if b.length == j]
                assert got == naive_match_scan(s, v, j), (s.residues, v.residues, j)


def test_criterion_5_chainer_equals_exhaustive_enumeration():
    with criterion(5, "chainer with caps disabled equals the exhaustive chain "
                      "enumeration on 200 seeded pairs (m<=12, n<=6)"):
        rng = random.Random(20241)
        for _ in range(200):
            s, v = _random_pair(rng, 12, 6, "AB")
            index = enumerate_matches(s, v)
            result = enumerate_candidates(index, s, v, UNCAPPED)
            got = {c.blocks for c in result.chains} if result.full_coverage else set()
            want = {c.blocks for c in exhaustive_chains(index.blocks(), len(v))}
            assert got == want, (s.residues, v.residues)


def test_criterion_6_dp_optimality():
    with criterion(6, "NW/SW scores equal the brute-force optima: all pairs "
                      "<=6 over {A,C} and 200 random pairs <=8, two schemes"):
        schemes = (ScoringScheme(1, -1, -1), ScoringScheme(2, -3, -1))
        strings = [
            "".join(p)
            for length in range(1, 7)
            for p in itertools.product("AC", repeat=length)
        ]
        for sa, sb in itertools.product(strings, strings):
            s, v = Sequence("s", sa), Sequence("v", sb)
            for scheme in schemes:
                assert needleman_wunsch(s, v, scheme).score == exhaustive_global_score(s, v, scheme)
                assert smith_waterman(s, v, scheme).score == exhaustive_local_score(s, v, scheme)
        rng = random.Random(20242)
        for _ in range(200):
            s = Sequence("s", "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 8))))
            v = Sequence("v", "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 8))))
            for scheme in schemes:
                assert needleman_wunsch(s, v, scheme).score == exhaustive_global_score(s, v, scheme)
                assert smith_waterman(s, v, scheme).score == exhaustive_local_score(s, v, scheme)


def test_criterion_7_counter_identity_and_growth():
    with criterion(7, "measured counters equal the closed form on 50 pairs; "
                      "growth slope vs m in [0.9,1.1], vs n in [1.7,2.3]"):
        rng = random.Random(20243)
        for _ in range(50):
            m = rng.randint(1, 60)
            n = rng.randint(1, min(m, 16))
            s = Sequence("s", "".join(rng.choice("ACGT") for _ in range(m)))
            v = Sequence("v", "".join(rng.choice("ACGT") for _ in range(n)))
            measured = enumerate_matches(s, v).counters
            predicted = count_comparisons(m, n)
            assert measured.substring_comparisons == predicted.substring_comparisons

        vs_m = measure_growth([256, 512, 1024, 2048, 4096], [16], seed=20244)
        assert 0.9 <= vs_m.slope_vs_m <= 1.1
        # Quadratic growth in the fragment length contradicts the advertised
        # O(m*n) count; the deviation is asserted here, not hidden.
        vs_n = measure_growth([4096], [8, 16, 32, 64, 128], seed=20245)
        assert 1.7 <= vs_n.slope_vs_n <= 2.3


def test_criterion_8_round_trips():
    with criterion(8, "1000 render/parse round trips; FASTA and JSON stable"):
        rng = random.Random(20246)
        for _ in range(1000):
            m = rng.randint(2, 40)
            s_res = "".join(rng.choice("ACGT") for _ in range(m))
            blocks, v_parts = [], []
            pos, v_pos = 0, 0
            for _ in range(rng.randint(1, 5)):
                if pos >= m:
                    break
                start = pos + rng.randint(0, min(4, m - pos - 1))
                length = rng.randint(1, m - start)
                blocks.append(MatchBlock(v_pos, start, length))
                v_parts.append(s_res[start : start + length])
                v_pos += length
                pos = start + length
            s = Sequence("s", s_res)
            v = Sequence("v", "".join(v_parts))
            chain = CandidateAlignment(blocks=tuple(blocks))
            parsed = parse_rendered(render(chain, s, v).text(), s, v)
            assert parsed.blocks == canonicalize(chain).blocks

        fasta = ">a\nacg t\n>b\nTTGG\n>a\nCC\n"
        with pytest.warns(UserWarning):
            once = parse_fasta(fasta)
        again = parse_fasta(emit_fasta(once))
        assert once == again

        s, v = Sequence("s", S_DNA), Sequence("v", V_DNA)
        entries = tuple(
            (chain, chain_statistics(chain, len(s)))
            for chain in (canonicalize(chain_of(c)) for c in KNOWN_PLACEMENTS)
        )
        report = AlignmentReport(
            algorithm="proposed", s=s, v=v, entries=entries, selected=0,
            policy="variance_only", counters=ComparisonCounters(1320, 1755, 1155),
            options={"min_window": 1},
        )
        blob = emit_report(report, "json")
        assert report_from_json(blob) == report
        assert emit_report(report_from_json(blob), "json") == blob


def test_criterion_9_trivial_invariants(capsys):
    with criterion(9, "identity input yields one zero-gap winner under every "
                      "policy; disjoint alphabets exit 2 without --partial"):
        s = v = Sequence("x", "ABC")
        result = enumerate_candidates(enumerate_matches(s, v), s, v)
        assert result.full_coverage
        assert len(result.entries) == 1
        _, stats = result.entries[0]
        assert (stats.mean, stats.variance) == (0.0, 0.0)
        for mode in ("mean_then_variance", "variance_only", "mean_only"):
            assert select(result.entries, SelectionPolicy(mode=mode)) == 0

        code = main(["align", "--s", "AAAA", "--v", "BB"])
        capsys.readouterr()
        assert code == 2
        code = main(["align", "--s", "AAAA", "--v", "BB", "--partial"])
        capsys.readouterr()
        assert code == 0
