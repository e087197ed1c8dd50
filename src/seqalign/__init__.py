"""Pairwise sequence alignment by shrinking-window substring matching.

Enumerates every substring match between a fragment and a reference at
window sizes from the full fragment down to one symbol, chains compatible
matches into candidate alignments, and selects the best candidate by the
mean and population variance of its interior gap runs. Needleman-Wunsch
and Smith-Waterman baselines, brute-force verifiers, and a comparison-count
benchmark are included.
"""

from .baselines import ScoredAlignment, needleman_wunsch, smith_waterman
from .chainer import (
    ChainOptions,
    ChainResult,
    RenderedAlignment,
    enumerate_candidates,
    render,
)
from .core import (
    ALPHABETS,
    Alphabet,
    AlignmentReport,
    CandidateAlignment,
    ComparisonCounters,
    DNA,
    EmptyInputError,
    GapStatistics,
    MatchBlock,
    OrderViolationError,
    ParseError,
    ScoringScheme,
    SeqalignError,
    Sequence,
    SizeLimitError,
    StructuralViolationError,
    UPPERCASE,
    validate_block,
    validate_chain,
)
from .gapstats import SelectionPolicy, chain_statistics, gap_runs, select, statistics
from .io import emit_fasta, emit_report, parse_fasta, parse_plain, parse_rendered, report_from_json
from .matcher import (
    MatchIndex,
    MatchOptions,
    count_comparisons,
    enumerate_matches,
    expected_comparisons,
)
from .pipeline import align

__version__ = "0.1.0"

__all__ = [
    "ALPHABETS",
    "Alphabet",
    "AlignmentReport",
    "CandidateAlignment",
    "ChainOptions",
    "ChainResult",
    "ComparisonCounters",
    "DNA",
    "EmptyInputError",
    "GapStatistics",
    "MatchBlock",
    "MatchIndex",
    "MatchOptions",
    "OrderViolationError",
    "ParseError",
    "RenderedAlignment",
    "ScoredAlignment",
    "ScoringScheme",
    "SelectionPolicy",
    "SeqalignError",
    "Sequence",
    "SizeLimitError",
    "StructuralViolationError",
    "UPPERCASE",
    "align",
    "chain_statistics",
    "count_comparisons",
    "emit_fasta",
    "emit_report",
    "enumerate_candidates",
    "enumerate_matches",
    "expected_comparisons",
    "gap_runs",
    "needleman_wunsch",
    "parse_fasta",
    "parse_plain",
    "parse_rendered",
    "render",
    "report_from_json",
    "select",
    "smith_waterman",
    "statistics",
    "validate_block",
    "validate_chain",
]
