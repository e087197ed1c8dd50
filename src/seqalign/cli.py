"""Command-line entry point: align, verify, and bench subcommands.

Exit codes are part of the interface: 0 success, 1 usage or parse error,
a report that cannot be written, or out of memory, 2 no full-coverage
alignment without --partial, 3 verification found a counterexample.
main alone turns a failure into exit 1 and one line on standard error
prefixed with "error: "; a run that exhausts memory prints
"error: out of memory".
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

from . import bench, chainer, io, matcher, verify
from .core import ALGORITHMS, ALPHABETS, ScoringScheme, SeqalignError, get_alphabet
from .pipeline import align

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align a fragment against a reference")
    p_align.add_argument("files", nargs="*",
                         help="two FASTA or plain-text sequence files, one sequence each")
    p_align.add_argument("--s", dest="s_literal", help="reference sequence literal")
    p_align.add_argument("--v", dest="v_literal", help="fragment sequence literal")
    p_align.add_argument("--algo", choices=ALGORITHMS, default="proposed")
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
        "--alphabet", choices=tuple(ALPHABETS),
        help="alphabet preset (default: env SEQALIGN_ALPHABET, else upper)",
    )
    p_align.set_defaults(func=cmd_align)

    p_verify = sub.add_parser("verify", help="cross-check modules against brute-force oracles")
    p_verify.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=100, metavar="N")
    p_verify.add_argument("--max-m", type=int, default=None,
                          help=_bound_help("reference length", lambda suite: suite[1]))
    p_verify.add_argument("--max-n", type=int, default=None,
                          help=_bound_help("fragment length", lambda suite: suite[2]))
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


def _bound_help(what: str, default) -> str:
    """A --max-m/--max-n help text read off verify.SUITES: each suite's
    default(entry), then each suite's cap."""
    suites = verify.SUITES.items()
    text = ", ".join(f"{name} {default(entry)}" for name, entry in suites)
    caps = ", ".join(f"{name} {entry[3]}" for name, entry in suites)
    return f"{what} bound (suite defaults: {text}; caps: {caps})"


def _parse_scheme(text: str) -> ScoringScheme:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--scheme expects MATCH,MISMATCH,GAP")
    try:
        match, mismatch, gap = (float(p) for p in parts)
        return ScoringScheme(match_score=match, mismatch_penalty=mismatch, gap_penalty=gap)
    except ValueError as exc:
        raise ValueError(f"bad --scheme: {exc}") from None


def _load_pair(args) -> tuple:
    # Read per call, not when the parser is built: main reuses one parser.
    alphabet = get_alphabet(args.alphabet or os.environ.get("SEQALIGN_ALPHABET", "upper"))
    literals = (args.s_literal, args.v_literal)
    if None not in literals and not args.files:
        return tuple(io.parse_plain(text, name, alphabet) for text, name in zip(literals, "sv"))
    if literals != (None, None) or len(args.files) != 2:
        raise ValueError("give either two files or both --s and --v")
    pair = []
    for path in args.files:
        records = io.load_sequences(path, alphabet)
        if len(records) > 1:
            raise ValueError(f"{path}: {len(records)} records; align reads one sequence per file")
        pair.append(records[0])
    return tuple(pair)


def cmd_align(args) -> int:
    """Run align with the cyclic garbage collector paused, from loading
    through writing the report.

    The chain search and the report make ten to thirty thousand short-lived
    tuples that reference counting frees; the collector would rescan them
    again and again and free none: about 16 passes and 5% of the time of a
    chain-random alignment, 41 passes and 7% on A x 100 against A x 10. The
    pipeline's data form no cycles, so memory does not change: its only
    cyclic garbage is the closures of a JSON report's json.dumps calls, a
    fixed count whatever the input size, which the first collection after
    the call frees. The caller's collector state is restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _align(args)
    finally:
        if enabled:
            gc.enable()


def _align(args) -> int:
    # Every flag is checked whatever --algo reads it.
    scheme = _parse_scheme(args.scheme)
    match_opts = matcher.MatchOptions(min_window=args.min_window)
    chain_opts = chainer.ChainOptions(max_candidates=args.max_candidates, beam_width=args.beam)
    s, v = _load_pair(args)
    report = align(
        s, v, algo=args.algo, policy=_POLICY_BY_FLAG[args.select], match_opts=match_opts,
        chain_opts=chain_opts, scheme=scheme, swap=args.swap,
        # --partial picks the exit code only; the option keeps schema-v1 bytes.
        require_full_coverage=not args.partial,
    )
    sys.stdout.write(io.emit_report(report, args.format))
    if not report.full_coverage and not args.partial:  # the baselines always cover
        return EXIT_NO_FULL_COVER
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise ValueError("--cases must be >= 1")
    for flag, value in (("--max-m", args.max_m), ("--max-n", args.max_n)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        suite, max_m, max_n, cap = verify.SUITES[name]
        rng = random.Random(args.seed)
        failure = suite(rng, args.cases, min(args.max_m or max_m, cap), min(args.max_n or max_n, cap))
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
        raise ValueError(f"bad size range {spec!r}: {exc}") from None


def cmd_bench(args) -> int:
    m_values = _parse_size_range(args.m_range)
    n_values = _parse_size_range(args.n_range)
    report = bench.measure_growth(
        m_values, n_values, symbols=args.alphabet, seed=args.seed, repeats=args.repeats
    )
    sys.stdout.write(bench.format_table(report))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand: the one place where a failure becomes exit 1 and
    an "error: " line. Any exception not caught here is a bug and propagates."""
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a buffered write error surfaces only here
        return code
    except (ValueError, OSError, SeqalignError) as exc:  # bad value or input, unwritable report
        message = str(exc)
    except MemoryError:  # a stopgap until the search's work is bounded
        message = "out of memory"
    try:  # bytes stdout cannot write would fail again in the interpreter's exit flush
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    print(f"{ERROR_PREFIX}{message}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
