"""Shared domain types: sequences, match blocks, chains, gap statistics, scoring."""

from __future__ import annotations

import math
import string
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .baselines import ScoredAlignment


class SeqalignError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(SeqalignError):
    """An operation received an empty sequence, chain, or candidate list."""


class OrderViolationError(SeqalignError):
    """The fragment is longer than the reference; caller should swap operands."""


class StructuralViolationError(SeqalignError):
    """A block or chain violates ordering, bounds, or symbol-equality invariants."""


class SizeLimitError(SeqalignError):
    """A brute-force verifier was asked to run beyond its hard size limit."""


class ParseError(SeqalignError):
    """Malformed textual input; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


@dataclass(frozen=True)
class Alphabet:
    """A named set of admissible residue symbols.

    Input is checked against it as it is parsed (seqalign.io), with the line
    and column of the first symbol outside it.
    """

    name: str
    symbols: frozenset


UPPERCASE = Alphabet("upper", frozenset(string.ascii_uppercase))
DNA = Alphabet("dna", frozenset("ACGT"))

ALPHABETS = {a.name: a for a in (UPPERCASE, DNA)}

# The alignment algorithms: the proposed method and the two DP baselines.
ALGORITHMS = ("proposed", "nw", "sw")


def get_alphabet(name: str) -> Alphabet:
    try:
        return ALPHABETS[name]
    except KeyError:
        raise ParseError(f"unknown alphabet {name!r}; choose from {sorted(ALPHABETS)}") from None


@dataclass(frozen=True)
class Sequence:
    """An identified string of residues over uppercase ASCII letters."""

    id: str
    residues: str

    def __post_init__(self):
        r = self.residues
        # One pass over the ASCII bytes: bytes.isalpha and isupper know only A-Z
        # and a-z, where str.isalpha looks up every character's Unicode class.
        if not r or (r.isascii() and (b := r.encode("ascii")).isalpha() and b.isupper()):
            return
        bad = next((c for c in r if c not in UPPERCASE.symbols), None)
        if bad is not None:
            raise ParseError(f"residue {bad!r} is not an uppercase ASCII letter")

    def __len__(self) -> int:
        return len(self.residues)


class MatchBlock(namedtuple("MatchBlock", "v_start s_start length")):
    """One recorded substring match: V[v_start:v_start+length] == S[s_start:s_start+length].

    An immutable tuple of its three fields, so hashing, equality and order
    are the tuple's own: a block equals, hashes and orders as the plain
    triple (v_start, s_start, length).
    """

    __slots__ = ()

    def __new__(cls, v_start, s_start, length):
        if v_start < 0 or s_start < 0 or length < 1:
            raise StructuralViolationError(
                f"bad block coordinates MatchBlock(v_start={v_start!r}, "
                f"s_start={s_start!r}, length={length!r})"
            )
        return tuple.__new__(cls, (v_start, s_start, length))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # namedtuple's own _make would skip the check

    @property
    def v_end(self) -> int:
        return self.v_start + self.length

    @property
    def s_end(self) -> int:
        return self.s_start + self.length


_length = attrgetter("length")


def validate_block(block: MatchBlock, s: Sequence, v: Sequence) -> None:
    """Check bounds and symbol-by-symbol equality of a block against both sequences."""
    if block.v_end > len(v) or block.s_end > len(s):
        raise StructuralViolationError(f"block {block} out of bounds for m={len(s)}, n={len(v)}")
    if v.residues[block.v_start : block.v_end] != s.residues[block.s_start : block.s_end]:
        raise StructuralViolationError(f"block {block} does not match the sequences")


def _check_chain_blocks(blocks: tuple) -> None:
    """Each element is a MatchBlock that starts at or after the previous one's
    end in both sequences. Each block's fields are read once; its ends are
    computed here, not through the v_end/s_end properties."""
    prev = None
    v_end = s_end = 0
    for b in blocks:
        if not isinstance(b, MatchBlock):
            raise StructuralViolationError(f"chain element {b!r} is not a MatchBlock")
        v_start, s_start, length = b.v_start, b.s_start, b.length
        if prev is not None and (v_start < v_end or s_start < s_end):
            raise StructuralViolationError(f"blocks {prev} and {b} overlap or cross")
        prev, v_end, s_end = b, v_start + length, s_start + length


@dataclass(frozen=True)
class CandidateAlignment:
    """An ordered, compatible chain of match blocks placing V along S.

    Blocks are sorted by v_start and never overlap or cross in either
    sequence. The blocks tuple is the chain's total order and hash key.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        _check_chain_blocks(self.blocks)

    @property
    def coverage(self) -> int:
        return sum(map(_length, self.blocks))


def validate_chain(chain: CandidateAlignment, s: Sequence, v: Sequence) -> None:
    """Re-validate every block of the chain against the actual sequences."""
    for b in chain.blocks:
        validate_block(b, s, v)


@dataclass(frozen=True)
class GapStatistics:
    """Interior gap runs of a chain with their mean and population variance."""

    runs: tuple
    mean: float
    variance: float


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch/gap parameters for the DP baselines (linear gap costs)."""

    match_score: float = 1.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -1.0

    def __post_init__(self):
        scores = (self.match_score, self.mismatch_penalty, self.gap_penalty)
        if not all(map(math.isfinite, scores)):
            raise ValueError(f"scores must be finite, got {scores}")
        if self.mismatch_penalty > 0:
            raise ValueError("mismatch_penalty must be <= 0")
        if self.gap_penalty > 0:
            raise ValueError("gap_penalty must be <= 0")
        if not self.match_score > self.mismatch_penalty:
            raise ValueError("match_score must exceed mismatch_penalty")

    def score(self, a: str, b: str) -> float:
        return self.match_score if a == b else self.mismatch_penalty


@dataclass(frozen=True)
class ComparisonCounters:
    """Work counters for one matching run.

    substring_comparisons counts whole-substring equality tests,
    char_comparisons counts individual symbols inspected, and
    claimed_comparisons is the value of the advertised closed-form count
    sum((m - (n - k)) * (n - k) for k in 0..n-1), reported alongside the
    measured numbers for contrast.
    """

    substring_comparisons: int = 0
    char_comparisons: int = 0
    claimed_comparisons: int = 0

    def __post_init__(self):
        if min(self.substring_comparisons, self.char_comparisons, self.claimed_comparisons) < 0:
            raise ValueError("counters must be non-negative")


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of one CLI/library alignment run, ready for serialization.

    For the proposed algorithm `entries` holds (chain, statistics) pairs and
    `selected` indexes the winner; for the DP baselines `scored` holds the
    single scored alignment and `entries` is empty.
    """

    algorithm: str  # one of ALGORITHMS
    s: Sequence
    v: Sequence
    entries: tuple = ()
    scored: Optional["ScoredAlignment"] = None
    selected: int = 0
    policy: Optional[str] = None
    counters: ComparisonCounters = field(default_factory=ComparisonCounters)
    swapped: bool = False
    full_coverage: bool = True
    truncated: bool = False
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag {self.algorithm!r}")
        if self.entries and not 0 <= self.selected < len(self.entries):
            raise ValueError("selected index out of range")
