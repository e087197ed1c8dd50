"""Pinned report bytes: `seqalign align --format json` on small fixed inputs.

Each digest is the SHA-256 of the exact standard output. A change to
candidate enumeration, ordering, selection, statistics or JSON emission
that alters a single byte of the report fails here. Update a digest only
for a deliberate output change, and say why in CHANGES.md.
"""

import hashlib

import pytest

from seqalign.cli import main
from conftest import S_DNA, S_NO_COVER, V_DNA, V_NO_COVER

GOLDEN = (
    pytest.param(
        ("--s", S_DNA, "--v", V_DNA, "--select", "mean"), 0,
        "0068534897c87183faee798aa23b83fd7942f2d5ce64c2b53f1937e826c48b13",
        id="dna-mean",
    ),
    pytest.param(
        ("--s", S_DNA, "--v", V_DNA, "--select", "variance"), 0,
        "7063e103e5d3e26cd7fd2416b3d88d79d042ce5becb061925c22afa9c0ad839d",
        id="dna-variance",
    ),
    pytest.param(
        ("--s", S_NO_COVER, "--v", V_NO_COVER), 2,
        "df3dccc1c6b5a18a2dc500c498ba1db7be9dc37b329902fd68695efd0fb4fe73",
        id="no-cover-exit-2",
    ),
    pytest.param(
        ("--s", S_NO_COVER, "--v", V_NO_COVER, "--partial"), 0,
        "5cc17f6fc26278729864da2ab447cf0c85bc8f33fc3baab79f3eeb05601ff682",
        id="no-cover-partial",
    ),
    pytest.param(
        ("--s", "A" * 30, "--v", "A" * 6, "--beam", "4"), 0,
        "89cfedcff97ac2faadb6919e8ab0ee54c5e313a300c637b1bb83d20e5784f853",
        id="homopolymer-beam-4",
    ),
    # A x 30 against A x 6 at default caps: 1,024 of the chains are kept
    # and the report says truncated, so the max_candidates cut is pinned.
    pytest.param(
        ("--s", "A" * 30, "--v", "A" * 6, "--select", "mean"), 0,
        "0f85dc9feb6f2601d70a66f8a6dcb456bc461840a2d6cea6bd2ebe6e4045f322",
        id="homopolymer-truncated-mean",
    ),
    pytest.param(
        ("--s", "A" * 30, "--v", "A" * 6, "--select", "variance"), 0,
        "a79221183a4bc9b5bd850c3426fbb92f443da49a7350db8741d44f5060f87fc3",
        id="homopolymer-truncated-variance",
    ),
    pytest.param(
        ("--s", "A" * 30, "--v", "A" * 6, "--select", "mean-only"), 0,
        "0d686736436122210162751625914afecb5f33e88d067a1c96456698d63de5d2",
        id="homopolymer-truncated-mean-only",
    ),
)


# The nw and sw baselines. AB/B and ACGTTGCA/TTG are all ties between
# gap placements; GTCTAG/GTTGAG takes the diagonal, up and left traceback
# branches in both aligners.
BASELINE_GOLDEN = (
    pytest.param(
        ("--algo", "nw", "--s", S_DNA, "--v", V_DNA, "--scheme=1,-1,-1"), 0,
        "65a8942bbceb21c6e397d08e68be315e522a799b8038ec1150a5172fd113c229",
        id="dna-nw-unit",
    ),
    pytest.param(
        ("--algo", "nw", "--s", S_DNA, "--v", V_DNA, "--scheme=2,-3,-1"), 0,
        "181c25f9ab1024ed8a968b7ddaa260526a4bdb3029708a953d528d2761bcf5b5",
        id="dna-nw-skewed",
    ),
    pytest.param(
        ("--algo", "nw", "--s", "AB", "--v", "B", "--scheme=1,-1,-1"), 0,
        "163582ef029fd11c2bf5ab5837daadc5015a04de0a2536e8b786709fdb311f6c",
        id="ties-nw-ab",
    ),
    pytest.param(
        ("--algo", "nw", "--s", "ACGTTGCA", "--v", "TTG", "--scheme=1,-1,-1"), 0,
        "b83e6508bebbe2880833da7d411d3d4fea99ea2006f266f474faa443a011b5ad",
        id="ties-nw-ttg",
    ),
    pytest.param(
        ("--algo", "nw", "--s", "GTCTAG", "--v", "GTTGAG", "--scheme=1,-1,-1"), 0,
        "af5c6ab16b4e3a8d134b9f957786788f49627c72f72bace2e04a72d6eef4fb67",
        id="branches-nw",
    ),
    pytest.param(
        ("--algo", "sw", "--s", S_DNA, "--v", V_DNA, "--scheme=1,-1,-1"), 0,
        "d4da86ec72be38f8c658eb738f815c101ee69503f2228bc2d71b00b246f1aa89",
        id="dna-sw-unit",
    ),
    pytest.param(
        ("--algo", "sw", "--s", S_DNA, "--v", V_DNA, "--scheme=2,-3,-1"), 0,
        "f33d51fecdf8182124f7a4bd1d82e9b4c9d0cb5cd3c09782ed693373f8b738bf",
        id="dna-sw-skewed",
    ),
    pytest.param(
        ("--algo", "sw", "--s", "AB", "--v", "B", "--scheme=1,-1,-1"), 0,
        "c18d2f4b7130b3cac37f6dcf6562ad756aa30273b9db0c8d0e180d475f972fdb",
        id="ties-sw-ab",
    ),
    pytest.param(
        ("--algo", "sw", "--s", "ACGTTGCA", "--v", "TTG", "--scheme=1,-1,-1"), 0,
        "5fa311378f45548b67162850d257077021108bb63a9370df44c6e7d2471b0824",
        id="ties-sw-ttg",
    ),
    pytest.param(
        ("--algo", "sw", "--s", "GTCTAG", "--v", "GTTGAG", "--scheme=1,-1,-1"), 0,
        "da5586d9235bc9eff785a5601490d4e66a8c7dedaf22af6f0d4055abc19971d6",
        id="branches-sw",
    ),
)


@pytest.mark.parametrize("args, exit_code, digest", GOLDEN + BASELINE_GOLDEN)
def test_json_report_bytes_are_pinned(capsys, args, exit_code, digest):
    code = main(["align", *args, "--format", "json"])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
