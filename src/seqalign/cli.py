"""Command-line entry point: align, verify, and bench subcommands.

Exit codes are part of the interface: 0 success, 1 usage or parse error,
2 no full-coverage alignment without --partial, 3 verification found a
counterexample. Errors go to standard error prefixed with "error: ".
align runs with the cyclic garbage collector paused; memory use is the same.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import random
import sys
from fractions import Fraction
from statistics import pvariance

from . import baselines, bench, chainer, gapstats, io, matcher, oracle
from .core import (
    ComparisonCounters,
    AlignmentReport,
    ScoringScheme,
    SeqalignError,
    Sequence,
    get_alphabet,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_FULL_COVER = 2
EXIT_VERIFY_FAILED = 3

ERROR_PREFIX = "error: "

_POLICY_BY_FLAG = {
    "mean": "mean_then_variance",
    "variance": "variance_only",
    "mean-only": "mean_only",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align a fragment against a reference")
    p_align.add_argument("files", nargs="*", help="two FASTA or plain-text sequence files")
    p_align.add_argument("--s", dest="s_literal", help="reference sequence literal")
    p_align.add_argument("--v", dest="v_literal", help="fragment sequence literal")
    p_align.add_argument("--algo", choices=("proposed", "nw", "sw"), default="proposed")
    p_align.add_argument(
        "--select", choices=tuple(_POLICY_BY_FLAG), default="mean",
        help="candidate selection policy (default: mean, i.e. mean then variance)",
    )
    p_align.add_argument("--swap", action="store_true",
                         help="swap operands so gaps read as insertions")
    p_align.add_argument("--min-window", type=int, default=matcher.MatchOptions.min_window,
                         metavar="K")
    p_align.add_argument("--max-candidates", type=int,
                         default=chainer.ChainOptions.max_candidates, metavar="N")
    p_align.add_argument("--beam", type=int, default=chainer.ChainOptions.beam_width, metavar="B")
    p_align.add_argument("--partial", action="store_true",
                         help="exit 0 with the best partial coverage instead of exiting 2; "
                              "it does not change the search")
    p_align.add_argument("--format", choices=("text", "json"), default="text")
    p_align.add_argument("--scheme", default="1,-1,-1", metavar="MATCH,MISMATCH,GAP",
                         help="scoring for the nw/sw baselines")
    p_align.add_argument(
        "--alphabet", choices=("upper", "dna"),
        help="alphabet preset (default: env SEQALIGN_ALPHABET, else upper)",
    )
    p_align.set_defaults(func=cmd_align)

    p_verify = sub.add_parser("verify", help="cross-check modules against brute-force oracles")
    p_verify.add_argument("--suite", choices=("matcher", "chainer", "nw", "sw", "all"),
                          default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=100, metavar="N")
    p_verify.add_argument("--max-m", type=int, default=None,
                          help="reference length bound (suite defaults: matcher 20, "
                               "chainer 12; nw/sw hard-capped at 8 by the brute-force scorer)")
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="fragment length bound (suite defaults: matcher 10, "
                               "chainer 6; nw/sw hard-capped at 8)")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="measure comparison-count growth")
    p_bench.add_argument("--m-range", default="256:4096:x2", metavar="SPEC",
                         help="comma list or lo:hi:xF geometric spec")
    p_bench.add_argument("--n-range", default="16", metavar="SPEC")
    p_bench.add_argument("--alphabet", default="ACGT", metavar="SYMBOLS",
                         help="symbols to draw random sequences from")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _parse_scheme(text: str) -> ScoringScheme:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--scheme expects MATCH,MISMATCH,GAP")
    try:
        match, mismatch, gap = (float(p) for p in parts)
        return ScoringScheme(match_score=match, mismatch_penalty=mismatch, gap_penalty=gap)
    except ValueError as exc:
        raise UsageError(f"bad --scheme: {exc}") from None


def _load_pair(args) -> tuple:
    # Read per call, not when the parser is built: main reuses one parser.
    alphabet = get_alphabet(args.alphabet or os.environ.get("SEQALIGN_ALPHABET", "upper"))
    if args.s_literal is not None or args.v_literal is not None:
        if args.files or args.s_literal is None or args.v_literal is None:
            raise UsageError("give either two files or both --s and --v")
        s = io.parse_plain(args.s_literal, id="s", alphabet=alphabet)
        v = io.parse_plain(args.v_literal, id="v", alphabet=alphabet)
        return s, v
    if len(args.files) != 2:
        raise UsageError("give either two files or both --s and --v")
    s = io.load_sequences(args.files[0], alphabet)[0]
    v = io.load_sequences(args.files[1], alphabet)[0]
    return s, v


def cmd_align(args) -> int:
    """Run align with the cyclic garbage collector paused, from loading
    through writing the report.

    The chain search makes hundreds of thousands of short-lived tuples that
    reference counting frees; the collector would rescan them again and again
    and free none. The pipeline's data form no cycles, so memory does not
    change: its only cyclic garbage is the closures of a JSON report's
    json.dumps calls, a fixed count whatever the input size, which the first
    collection after the call frees. The caller's collector state is restored
    on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _align(args)
    finally:
        if enabled:
            gc.enable()


def _align(args) -> int:
    scheme = _parse_scheme(args.scheme)  # validated even when unused
    s, v = _load_pair(args)
    if args.swap:  # gaps in the placed row then read as insertions
        s, v = v, s

    if args.algo in ("nw", "sw"):
        align = baselines.needleman_wunsch if args.algo == "nw" else baselines.smith_waterman
        scored = align(s, v, scheme)
        report = AlignmentReport(
            algorithm=args.algo,
            s=s,
            v=v,
            scored=scored,
            # Each DP cell inspects one symbol pair.
            counters=ComparisonCounters(char_comparisons=len(s) * len(v)),
            swapped=args.swap,
            options={
                "scheme": [scheme.match_score, scheme.mismatch_penalty, scheme.gap_penalty]
            },
        )
        sys.stdout.write(io.emit_report(report, args.format))
        return EXIT_OK

    policy = gapstats.SelectionPolicy(mode=_POLICY_BY_FLAG[args.select])
    try:
        opts = matcher.MatchOptions(min_window=args.min_window)
        chain_opts = chainer.ChainOptions(max_candidates=args.max_candidates, beam_width=args.beam)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    index = matcher.enumerate_matches(s, v, opts)
    result = chainer.enumerate_candidates(index, s, v, chain_opts, policy=policy)
    report = AlignmentReport(
        algorithm="proposed",
        s=s,
        v=v,
        entries=result.entries,  # in policy order: the winner is entry 0
        policy=policy.mode,
        counters=index.counters,
        swapped=args.swap,
        full_coverage=result.full_coverage,
        truncated=result.truncated,
        options={
            "min_window": index.min_window,
            "max_candidates": chain_opts.max_candidates,
            "beam_width": chain_opts.beam_width,
            # --partial picks the exit code only; the key keeps schema-v1 bytes.
            "require_full_coverage": not args.partial,
        },
    )
    sys.stdout.write(io.emit_report(report, args.format))
    if not result.full_coverage and not args.partial:
        return EXIT_NO_FULL_COVER
    return EXIT_OK


def _verify_matcher(rng, cases, max_m, max_n):
    max_m = 20 if max_m is None else max_m
    max_n = 10 if max_n is None else max_n
    for case in range(cases):
        symbols = "AC" if case % 2 == 0 else "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        m = rng.randint(1, max_m)
        n = rng.randint(1, min(m, max_n))
        if case % 10 == 9:
            s, v = Sequence("s", "A" * m), Sequence("v", "A" * n)
        else:
            s = bench.random_sequence(rng, m, symbols, "s")
            v = bench.random_sequence(rng, n, symbols, "v")
        # Half the cases draw min_window in 1..n+1; the index clamps it to n.
        min_window = rng.randint(1, n + 1) if case % 4 >= 2 else 1
        index = matcher.enumerate_matches(s, v, matcher.MatchOptions(min_window=min_window))
        where = f"case {case}: S={s.residues} V={v.residues} min_window={min_window}"
        got = index.blocks()
        want = sorted(
            b for j in range(index.min_window, n + 1) for b in oracle.naive_match_scan(s, v, j)
        )
        if got != want:
            return f"{where}: blocks {got} != oracle {want}"
        want_counters = oracle.naive_scan_counters(s, v, index.min_window)
        if index.counters != want_counters:
            return f"{where}: counters {index.counters} != oracle {want_counters}"
        if index.min_window == 1:
            measured = matcher.measure_counters(s, v)
            if measured != index.counters:
                return f"{where}: measure_counters {measured} != index {index.counters}"
    return None


# The documented candidate order of each policy, written out here instead of
# taken from gapstats.sort_key, so the chainer suite checks the cut against it.
# variance_only compares the exact variance; no runs count as one run of 0.
_DOCUMENTED_ORDER = {
    "mean_then_variance": lambda chain, st: (st.mean, st.variance, chain.blocks),
    "variance_only": lambda c, st: (pvariance(map(Fraction, st.runs or (0,))), st.mean, c.blocks),
    "mean_only": lambda chain, st: (st.mean, chain.blocks),
}


def _verify_chainer(rng, cases, max_m, max_n):
    max_m = 12 if max_m is None else max_m
    max_n = 6 if max_n is None else max_n
    uncapped = chainer.ChainOptions(max_candidates=10**9, beam_width=10**9)
    for case in range(cases):
        m = rng.randint(1, max_m)
        n = rng.randint(1, min(m, max_n))
        s, v = bench.random_sequence(rng, m, "AB", "s"), bench.random_sequence(rng, n, "AB", "v")
        index = matcher.enumerate_matches(s, v)
        # The oracles refuse more than their block limit at once; the
        # uncapped search has no such bound, so it runs only after them.
        exhaustive = oracle.exhaustive_chains(index.blocks(), n)
        full_cover = bool(exhaustive)
        if not full_cover:  # the fallback: every chain of maximal coverage
            exhaustive = oracle.exhaustive_partial_chains(index.blocks(), m, n)
        result = chainer.enumerate_candidates(index, s, v, uncapped)
        got = {chain.blocks for chain in result.chains}
        want = {chain.blocks for chain in exhaustive}
        if got != want or result.full_coverage != full_cover:
            return (
                f"case {case}: S={s.residues} V={v.residues}: full_coverage={result.full_coverage}, "
                f"oracle {full_cover}; chains differ {sorted(got ^ want)}"
            )
        # The max_candidates cut keeps exactly the best k in policy order.
        k = 1 + case % 4
        capped = chainer.ChainOptions(max_candidates=k, beam_width=10**9)
        for mode, order in _DOCUMENTED_ORDER.items():
            policy = gapstats.SelectionPolicy(mode=mode)
            result = chainer.enumerate_candidates(index, s, v, capped, policy)
            ranked = sorted(exhaustive, key=lambda c: order(c, gapstats.chain_statistics(c, m)))
            got_keys = [chain.blocks for chain in result.chains]
            want_keys = [chain.blocks for chain in ranked[:k]]
            if got_keys != want_keys or result.truncated != (len(ranked) > k):
                return (
                    f"case {case}: S={s.residues} V={v.residues} {mode} max_candidates={k}: "
                    f"kept {got_keys} truncated={result.truncated}, "
                    f"oracle {want_keys} truncated={len(ranked) > k}"
                )
    return None


def _verify_dp(rng, cases, max_m, max_n, local):
    limit = oracle.MAX_SCORE_LEN
    max_m = limit if max_m is None else min(max_m, limit)
    max_n = limit if max_n is None else min(max_n, limit)
    # (scheme, tolerance): 0.3 is no binary fraction, so sum order moves the last bits.
    schemes = ((ScoringScheme(1, -1, -1), 0.0), (ScoringScheme(2, -3, -1), 0.0),
               (ScoringScheme(0.3, -1, -0.3), 1e-9))
    align = baselines.smith_waterman if local else baselines.needleman_wunsch
    brute = oracle.exhaustive_local_score if local else oracle.exhaustive_global_score
    for case in range(cases):
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        s = bench.random_sequence(rng, m, "ACGT", "s")
        v = bench.random_sequence(rng, n, "ACGT", "v")
        for scheme, tol in schemes:
            got = align(s, v, scheme)
            want = brute(s, v, scheme)
            # Gaps removed, global rows spell the inputs, local rows substrings of them.
            rows = [row.replace(baselines.GAP, "") for row in (got.aligned_s, got.aligned_v)]
            spelled = all(r in x if local else r == x for r, x in zip(rows, (s.residues, v.residues)))
            columns = baselines.column_score(got.aligned_s, got.aligned_v, scheme)
            if not spelled or abs(got.score - want) > tol or abs(columns - got.score) > tol:
                return (
                    f"case {case}: S={s.residues} V={v.residues} scheme={scheme}: "
                    f"dp={got.score} rows={got.aligned_s!r}/{got.aligned_v!r} "
                    f"columns={columns} brute={want}"
                )
    return None


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise UsageError("--cases must be >= 1")
    for flag, value in (("--max-m", args.max_m), ("--max-n", args.max_n)):
        if value is not None and value < 1:
            raise UsageError(f"{flag} must be >= 1")
    suites = {
        "matcher": _verify_matcher,
        "chainer": _verify_chainer,
        "nw": lambda r, c, mm, mn: _verify_dp(r, c, mm, mn, local=False),
        "sw": lambda r, c, mm, mn: _verify_dp(r, c, mm, mn, local=True),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    for name in names:
        rng = random.Random(args.seed)
        failure = suites[name](rng, args.cases, args.max_m, args.max_n)
        if failure is not None:
            print(f"FAIL {name} (seed {args.seed}): {failure}")
            return EXIT_VERIFY_FAILED
        print(f"ok {name}: {args.cases} cases (seed {args.seed})")
    return EXIT_OK


def _parse_size_range(spec: str) -> list:
    try:
        if ":" in spec:
            lo_s, hi_s, step = spec.split(":")
            lo, hi = int(lo_s), int(hi_s)
            if not step.startswith("x"):
                raise ValueError("step must look like x2")
            factor = float(step[1:])
            if lo < 1 or hi < lo or not 1 < factor < math.inf:
                raise ValueError("range must grow by a finite factor")
            steps = math.ceil((math.log(hi) - math.log(lo)) / math.log(factor))
            if steps > 1000:
                raise ValueError(f"{steps} steps, at most 1000")
            values = []
            x = float(lo)
            while round(x) <= hi:
                values.append(int(round(x)))
                x *= factor
            return values
        return [int(p) for p in spec.split(",") if p.strip()]
    except (ValueError, OverflowError) as exc:  # a size past the float range
        raise UsageError(f"bad size range {spec!r}: {exc}") from None


def cmd_bench(args) -> int:
    m_values = _parse_size_range(args.m_range)
    n_values = _parse_size_range(args.n_range)
    try:
        report = bench.measure_growth(
            m_values, n_values, symbols=args.alphabet, seed=args.seed, repeats=args.repeats
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(bench.format_table(report))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, SeqalignError) as exc:
        print(f"{ERROR_PREFIX}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
