"""Pinned report bytes: `seqalign align --format json` on small fixed inputs.

Each digest is the SHA-256 of the exact standard output. A change to
candidate enumeration, ordering, selection, statistics or JSON emission
that alters a single byte of the report fails here. Update a digest only
for a deliberate output change, and say why in CHANGES.md.
"""

import hashlib

import pytest

from seqalign.cli import main
from conftest import S_DNA, V_DNA

# A 30 x 8 random ACGT pair with no full-coverage chain.
S_NO_COVER = "GCACTGTCGCATCACAAACGATTAACTGAT"
V_NO_COVER = "AAATGAGC"

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


@pytest.mark.parametrize("args, exit_code, digest", GOLDEN)
def test_json_report_bytes_are_pinned(capsys, args, exit_code, digest):
    code = main(["align", *args, "--format", "json"])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
