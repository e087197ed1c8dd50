"""Seeded input generators for the benchmark workloads.

Every workload is a pool of (reference, fragment) pairs drawn from the
benchmark seed alone; the program only ever sees the FASTA files written
from the pool. The timed loop cycles through the pool in order, so the
first `exact_pairs` alignments of every run are the same pairs for a given
seed: the exact counters and the report digest are taken over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DNA = "ACGT"

# Flags every alignment passes. With the workload's --min-window and --beam
# they pin every option of `align --algo proposed` that a changed default or
# the SEQALIGN_ALPHABET variable could otherwise change.
PINNED_FLAGS = (
    "--algo", "proposed",
    "--select", "mean",
    "--alphabet", "dna",
    "--format", "json",
    "--max-candidates", "1024",
)


@dataclass(frozen=True)
class Pair:
    s_id: str
    s: str
    v_id: str
    v: str


@dataclass(frozen=True)
class Workload:
    pairs: tuple  # of Pair; cycled by the timed loop
    expect_full_cover: bool  # exit 2 is then a failure
    exact_pairs: int  # alignments every run completes, whatever --seconds
    min_window: int = 1
    beam: int = 256

    def flags(self) -> tuple:
        return PINNED_FLAGS + ("--min-window", str(self.min_window), "--beam", str(self.beam))


def _random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(length))


def _is_subsequence(v: str, s: str) -> bool:
    """True when v tiles into s in order, i.e. a full-cover chain exists."""
    it = iter(s)
    return all(ch in it for ch in v)


def short_reads(seed: int) -> Workload:
    """Paper-size unrelated pairs: per-call, emit and render costs carry a real share."""
    rng = random.Random(f"short-reads:{seed}")
    pairs = []
    # Sizes follow one fixed order that spreads any run of consecutive
    # pairs evenly over m in 30..60 and n in 6..12 (7 and 31 are coprime);
    # only the residues follow the seed. Alignment time depends strongly on
    # the sizes, so this keeps runs of different seeds comparable. The pool
    # is small enough that a run usually covers it, so the run's peak memory
    # seldom depends on how far the run got.
    for i in range(96):
        m, n = 30 + (11 * i) % 31, 6 + i % 7
        pairs.append(Pair(f"s{i:04d}", _random_dna(rng, m), f"v{i:04d}", _random_dna(rng, n)))
    return Workload(
        pairs=tuple(pairs),
        expect_full_cover=False,  # some pairs have no full cover and exit 2
        exact_pairs=32,
    )


def chain_random(seed: int) -> Workload:
    """512 x 16 unrelated pairs with a full cover: the chainer does nearly all the work."""
    rng = random.Random(f"chain-random:{seed}")
    pairs = []
    while len(pairs) < 64:
        s, v = _random_dna(rng, 512), _random_dna(rng, 16)
        if _is_subsequence(v, s):
            i = len(pairs)
            pairs.append(Pair(f"s{i:04d}", s, f"v{i:04d}", v))
    return Workload(
        pairs=tuple(pairs),
        expect_full_cover=True,
        exact_pairs=4,
        # Alignment time varies about 30% between random pairs (with the
        # number of completed chains); beam 64 fits about 20 pairs into a
        # run so the run's figures are steady across seeds. Beam 32 would
        # fit more, but loses existing full covers (seed 15, pair 2).
        beam=64,
    )


def read_map(seed: int) -> Workload:
    """Reads of one 8192-residue reference at --min-window 8: the matcher does nearly all the work."""
    rng = random.Random(f"read-map:{seed}")
    ref = _random_dna(rng, 8192)
    pairs = []
    for i in range(16):
        # Four 32-residue reference segments separated by 1-12-residue
        # deletions: the paper's deletions-only reading of a read.
        gaps = [rng.randint(1, 12) for _ in range(3)]
        pos = rng.randint(0, len(ref) - 128 - sum(gaps))
        parts = []
        for k in range(4):
            parts.append(ref[pos : pos + 32])
            pos += 32 + (gaps[k] if k < 3 else 0)
        pairs.append(Pair("ref", ref, f"read{i:04d}", "".join(parts)))
    return Workload(
        pairs=tuple(pairs),
        min_window=8,
        expect_full_cover=True,
        exact_pairs=2,
    )


def homopolymer(seed: int) -> Workload:
    """A x 100 against A x 10: every partial chain ties, so the chainer's beam saturates.

    Seed-independent by design: the adversarial input is a single pair.
    """
    return Workload(
        pairs=(Pair("polyA100", "A" * 100, "polyA10", "A" * 10),),
        expect_full_cover=True,
        exact_pairs=1,
    )


WORKLOADS = {
    "short-reads": short_reads,
    "chain-random": chain_random,
    "read-map": read_map,
    "homopolymer": homopolymer,
}


def make(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)


def warmup_pair(seed: int) -> Pair:
    """A small pair for the untimed warm-up call that takes first-call costs off the clock."""
    rng = random.Random(f"warm-up:{seed}")
    s = _random_dna(rng, 48)
    return Pair("warmup_s", s, "warmup_v", s[5:9] + s[12:20])


def _fasta(seq_id: str, residues: str, width: int = 60) -> str:
    lines = [f">{seq_id}"]
    lines += [residues[i : i + width] for i in range(0, len(residues), width)]
    return "\n".join(lines) + "\n"


def input_paths(workload: Workload, warmup: Pair, directory: Path) -> list:
    """Per pair (s_path, v_path) of the FASTA files, warm-up pair last."""
    return [
        (str(directory / f"{p.s_id}.fa"), str(directory / f"{p.v_id}.fa"))
        for p in workload.pairs + (warmup,)
    ]


def write_inputs(workload: Workload, warmup: Pair, directory: Path) -> None:
    """Write every distinct sequence of the pool once as a FASTA file."""
    sequences: dict = {}
    for p in workload.pairs + (warmup,):
        for seq_id, residues in ((p.s_id, p.s), (p.v_id, p.v)):
            if sequences.setdefault(seq_id, residues) != residues:
                raise ValueError(f"sequence id {seq_id!r} names two different sequences")
    directory.mkdir(parents=True, exist_ok=True)
    for seq_id, residues in sequences.items():
        (directory / f"{seq_id}.fa").write_text(_fasta(seq_id, residues), encoding="ascii")
