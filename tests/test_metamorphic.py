"""Metamorphic relations of the chain search: each holds for any exact
search at any size, so it needs no oracle.

- Reversal: reversing both sequences maps each block (v, s, L) to
  (n - v - L, m - s - L, L). The room and canonical rules are symmetric and
  the gap runs reverse, so coverage, mean and variance are kept.
- Reference extension: residues appended to S keep every chain and its
  room, so the best key never gets worse.
- Relabelling: a bijection on the symbols gives the same blocks.

The uncapped search keeps every chain, so the relations hold for it as
stated. The default beam keeps relabelling; it does not keep reversal.
"""

import random
from fractions import Fraction

import pytest

from perfbench import workloads
from seqalign import (
    ChainOptions,
    SelectionPolicy,
    Sequence,
    align,
    emit_report,
    enumerate_candidates,
    enumerate_matches,
)
from seqalign.gapstats import MODES

UNCAPPED = ChainOptions(max_candidates=10**9, beam_width=10**9)
ALPHABETS = ("AB", "ACGT", "A", "AAB")  # AAB draws A twice as often as B
CAPITALS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Each policy's order over an exact key, coverage first (larger is better).
ORDER = {
    "mean_then_variance": lambda cover, mu, var: (-cover, mu, var),
    "variance_only": lambda cover, mu, var: (-cover, var, mu),
    "mean_only": lambda cover, mu, var: (-cover, mu),
}


def _key(chain, stats) -> tuple:
    """(coverage, mean, variance) as exact fractions; no runs read as one run of 0."""
    runs = stats.runs or (0,)
    k, total = len(runs), sum(runs)
    square = sum(r * r for r in runs)
    return chain.coverage, Fraction(total, k), Fraction(k * square - total * total, k * k)


def _search(s: str, v: str, mode: str):
    s, v = Sequence("s", s), Sequence("v", v)
    return enumerate_candidates(enumerate_matches(s, v), s, v, UNCAPPED, SelectionPolicy(mode))


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for case in range(count):
        symbols = ALPHABETS[case % len(ALPHABETS)]
        m = rng.randint(1, 14)
        n = rng.randint(1, min(m, 7))
        s = "".join(rng.choice(symbols) for _ in range(m))
        v = "".join(rng.choice(symbols) for _ in range(n))
        yield rng, symbols, s, v, MODES[case % len(MODES)]


def test_reversal_keeps_coverage_and_the_key_multiset():
    for _, _, s, v, mode in _cases(1, 150):
        got, back = _search(s, v, mode), _search(s[::-1], v[::-1], mode)
        assert back.full_coverage == got.full_coverage, (s, v)
        keys = sorted(_key(*entry) for entry in got.entries)
        assert sorted(_key(*entry) for entry in back.entries) == keys, (s, v, mode)


def test_appending_to_the_reference_never_worsens_the_best_key():
    for rng, symbols, s, v, mode in _cases(2, 150):
        got = _search(s, v, mode)
        if not got.entries:
            continue
        longer = s + "".join(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
        grown = _search(longer, v, mode)
        best = min(ORDER[mode](*_key(*entry)) for entry in got.entries)
        assert min(ORDER[mode](*_key(*entry)) for entry in grown.entries) <= best, (s, longer, v)


def test_relabelling_the_symbols_keeps_every_chain():
    # The same chains in the same order, so the same key multiset too.
    for rng, _, s, v, mode in _cases(3, 150):
        symbols = sorted(set(s + v))
        table = str.maketrans(dict(zip(symbols, rng.sample(CAPITALS, len(symbols)))))
        got, renamed = _search(s, v, mode), _search(s.translate(table), v.translate(table), mode)
        assert renamed.full_coverage == got.full_coverage, (s, v)
        assert renamed.entries == got.entries, (s, v, mode)


SHORT_READS = workloads.short_reads(1).pairs


def _default(pair, edit=lambda residues: residues):
    """The default search's report on a short-reads pair, both sequences read through edit."""
    return align(Sequence(pair.s_id, edit(pair.s)), Sequence(pair.v_id, edit(pair.v)))


def test_default_search_reports_survive_relabelling():
    # Every capital letter of a JSON report is a residue: ids, keys and
    # values are lower case, so relabelling the report text relabels it.
    table = str.maketrans("ACGT", "GTCA")
    for pair in SHORT_READS:
        want = emit_report(_default(pair), "json").translate(table)
        got = emit_report(_default(pair, lambda residues: residues.translate(table)), "json")
        assert got == want, pair.s_id


@pytest.mark.xfail(
    strict=True,
    reason="the beam cuts on prefixes, so a reversed pair can lose the winner; "
           "ROADMAP item 4 (exact by default) mends it",
)
def test_default_search_keeps_its_winner_key_under_reversal():
    # Passes only once every short-reads seed-1 pair keeps its winner key.
    for pair in SHORT_READS:
        report, back = _default(pair), _default(pair, lambda residues: residues[::-1])
        assert back.full_coverage == report.full_coverage, pair.s_id
        if report.entries:
            assert _key(*back.entries[0]) == _key(*report.entries[0]), pair.s_id
