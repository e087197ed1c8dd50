"""`align`: one pair of sequences in, one report out, through every layer.

Each layer is called through its module attribute (`matcher.enumerate_matches`,
not a name imported from it), so a tracer or a test that replaces the
attribute sees every call.
"""

from __future__ import annotations

from . import baselines, chainer, gapstats, matcher
from .core import ALGORITHMS, AlignmentReport, ComparisonCounters, ScoringScheme, Sequence


def align(
    s: Sequence, v: Sequence, *, algo: str = "proposed", policy: str | None = None,
    match_opts: matcher.MatchOptions | None = None, chain_opts: chainer.ChainOptions | None = None,
    scheme: ScoringScheme | None = None, swap: bool = False, require_full_coverage: bool = True,
) -> AlignmentReport:
    """Align fragment v against reference s and return the report `seqalign align` writes.

    algo is "proposed" (match, chain, select; `policy` names a SelectionPolicy
    mode, default mean_then_variance) or one of the "nw" and "sw" baselines
    scored with `scheme`. swap exchanges the operands first, so gaps in the
    placed row read as insertions. require_full_coverage only goes into the
    report's options: the search is the same either way.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algo {algo!r}; choose from {ALGORITHMS}")
    if swap:
        s, v = v, s
    if algo != "proposed":
        scheme = scheme or ScoringScheme()
        dp = baselines.needleman_wunsch if algo == "nw" else baselines.smith_waterman
        return AlignmentReport(
            algorithm=algo,
            s=s,
            v=v,
            scored=dp(s, v, scheme),
            # Each DP cell inspects one symbol pair.
            counters=ComparisonCounters(char_comparisons=len(s) * len(v)),
            swapped=swap,
            options={"scheme": [scheme.match_score, scheme.mismatch_penalty, scheme.gap_penalty]},
        )
    selection = gapstats.SelectionPolicy(policy or gapstats.SelectionPolicy.mode)
    chain_opts = chain_opts or chainer.ChainOptions()
    index = matcher.enumerate_matches(s, v, match_opts)
    result = chainer.enumerate_candidates(index, s, v, chain_opts, policy=selection)
    return AlignmentReport(
        algorithm="proposed",
        s=s,
        v=v,
        entries=result.entries,  # in policy order: the winner is entry 0
        policy=selection.mode,
        counters=index.counters,
        swapped=swap,
        full_coverage=result.full_coverage,
        truncated=result.truncated,
        options={
            "min_window": index.min_window,
            "max_candidates": chain_opts.max_candidates,
            "beam_width": chain_opts.beam_width,
            "require_full_coverage": require_full_coverage,  # schema-v1 bytes
        },
    )
