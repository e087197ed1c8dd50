import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root

from seqalign import CandidateAlignment, MatchBlock, Sequence

# Worked DNA example used across the suite: a 32-symbol reference, a
# 9-symbol fragment, and four known candidate placements whose interior
# gap runs have well-established statistics.
S_DNA = "AGTCTAACTAGAATATACCGTACAGTACGAAG"
V_DNA = "TACTAGGAG"

# A 30 x 8 random ACGT pair with no full-coverage chain.
S_NO_COVER = "GCACTGTCGCATCACAAACGATTAACTGAT"
V_NO_COVER = "AAATGAGC"

KNOWN_PLACEMENTS = (
    ((0, 2, 1), (1, 6, 5), (6, 19, 1), (7, 23, 2)),
    ((0, 4, 1), (1, 6, 5), (6, 19, 1), (7, 30, 2)),
    ((0, 4, 1), (1, 6, 5), (6, 19, 1), (7, 21, 1), (8, 24, 1)),
    ((0, 4, 1), (1, 6, 5), (6, 19, 1), (7, 26, 1), (8, 28, 1)),
)

# (runs, mean, population variance) for each placement above.
KNOWN_STATS = (
    ((3, 8, 3), 4.667, 5.556),
    ((1, 8, 10), 6.333, 14.889),
    ((1, 8, 1, 2), 3.0, 8.5),
    ((1, 8, 6, 1), 4.0, 9.5),
)


def chain_of(coords) -> CandidateAlignment:
    return CandidateAlignment(blocks=tuple(MatchBlock(*c) for c in coords))


@pytest.fixture
def dna_pair():
    return Sequence("s", S_DNA), Sequence("v", V_DNA)


@pytest.fixture
def known_chains():
    return tuple(chain_of(coords) for coords in KNOWN_PLACEMENTS)
