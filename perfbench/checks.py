"""Output checks applied to every alignment the benchmark makes.

An alignment fails when any check below finds a problem. The checks use
the program's public functions as the reference: the JSON reader, the
closed-form comparison counts, chain validation and the gap statistics.
"""

from __future__ import annotations

from seqalign import gapstats, io, matcher
from seqalign.core import SeqalignError, Sequence, validate_chain

DOCUMENTED_EXIT_CODES = (0, 2)


def check_alignment(
    text: str,
    exit_code,
    s: Sequence,
    v: Sequence,
    min_window: int,
    expect_full_cover: bool,
) -> list:
    """Problems found in one `align --format json` outcome; empty when it passes.

    `exit_code` is None when the call raised.
    """
    if exit_code is None:
        return ["raised"]
    if exit_code not in DOCUMENTED_EXIT_CODES:
        return [f"exit code {exit_code} is not documented"]
    problems = []
    if exit_code == 2 and expect_full_cover:
        problems.append("exit code 2 on a workload built to have full cover")
    try:
        report = io.report_from_json(text)
        again = io.emit_report(report, "json")
    except (SeqalignError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"report does not parse as schema v1: {exc}"]
    if again != text:
        problems.append("report does not round-trip through report_from_json")
    if report.s != s or report.v != v:
        problems.append("report does not echo the input sequences")
        return problems
    if (exit_code == 0) != report.full_coverage:
        problems.append(f"exit code {exit_code} disagrees with full_coverage={report.full_coverage}")

    m, n = len(s), len(v)
    want = matcher.count_comparisons(m, n, min(min_window, n))
    got = report.counters
    if got.substring_comparisons != want.substring_comparisons:
        problems.append(
            f"substring_comparisons {got.substring_comparisons} != {want.substring_comparisons}"
        )
    if got.claimed_comparisons != want.claimed_comparisons:
        problems.append(
            f"claimed_comparisons {got.claimed_comparisons} != {want.claimed_comparisons}"
        )
    if not want.substring_comparisons <= got.char_comparisons <= want.char_comparisons:
        problems.append(
            f"char_comparisons {got.char_comparisons} outside "
            f"[{want.substring_comparisons}, {want.char_comparisons}]"
        )

    if not report.entries:
        if report.full_coverage:
            problems.append("full coverage claimed without a candidate")
        return problems
    chain, stats = report.entries[report.selected]
    try:
        validate_chain(chain, s, v)
        recount = gapstats.statistics(gapstats.gap_runs(chain, m))
    except (SeqalignError, ValueError) as exc:
        return problems + [f"selected chain is invalid: {exc}"]
    if recount.runs != stats.runs or recount.mean != stats.mean:
        problems.append(
            f"selected runs/mean {stats.runs}/{stats.mean} != recount "
            f"{recount.runs}/{recount.mean}"
        )
    return problems
