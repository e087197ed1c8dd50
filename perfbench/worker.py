"""The fresh process that runs one workload's closed loop and writes its figures.

One client: each `cli.main` call runs in this process and its report is
checked before the next call starts. Started by run.py as
`python3 -m perfbench.worker --workload W --seed N --seconds S --trace T --dir D --out F`
with the checkout root and its `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _stdio
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import seqalign
from seqalign import bench, cli
from seqalign.core import Sequence

from perfbench import checks, speed, tracer, workloads

# Host-speed kernel time, taken off the clock after each alignment, as a
# share of that alignment's time (see speed.py).
CALIBRATION_SHARE = 0.2

# Fixed grids for the log-log growth slopes of substring_comparisons.
SLOPE_M_GRID = ((64, 128, 256, 512), (8,))
SLOPE_N_GRID = ((512,), (4, 8, 16, 32))

# Counts read off the program's return values inside traced alignments.
TRACE_COUNTS = {
    "matcher.enumerate_matches": lambda index: {"blocks": len(index.blocks())},
    "chainer.enumerate_candidates": lambda result: {
        "candidates": len(result.entries),
        "truncated": int(result.truncated),
        "partial": int(not result.full_coverage),
    },
    "io.emit_report": lambda text: {"emit_bytes": len(text.encode("utf-8"))},
}

# Span name -> per-layer time metric (mean self seconds per traced alignment).
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "io.load_sequences": "io.load_s",
    "matcher.enumerate_matches": "matcher.enumerate_s",
    "chainer.enumerate_candidates": "chainer.enumerate_s",
    "gapstats.chain_statistics": "gapstats.chain_statistics_s",
    "gapstats.select": "gapstats.select_s",
    "chainer.render": "chainer.render_s",
    "io.emit_report": "io.emit_s",
}


def call(main, argv, around=None) -> tuple:
    """One alignment, argv to report text in memory: (seconds, exit code or None, stdout, stderr).

    `around` is a context manager entered around the call alone, such as a
    tracer's `traced(aid)`.
    """
    out, err = _stdio.StringIO(), _stdio.StringIO()
    around = around if around is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), around:
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a raising alignment counts as failed; the loop goes on
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """The closed loop: aligns pool pairs in order and checks each report."""

    def __init__(self, workload: workloads.Workload, paths: list):
        self.workload = workload
        self.paths = paths
        self.sequences = [(Sequence(p.s_id, p.s), Sequence(p.v_id, p.v)) for p in workload.pairs]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []  # first few, for the results file
        self.check_seconds = 0.0
        self.digest = hashlib.sha256()
        self.exact_counters = {"substring_comparisons": 0, "char_comparisons": 0,
                               "claimed_comparisons": 0}

    def argv(self, k: int) -> list:
        return ["align", *self.paths[k], *self.workload.flags()]

    def align(self, main, i: int, record_exact: bool, around=None) -> float:
        """Align pair i (mod pool size) once, then check it; returns the call's seconds."""
        k = i % len(self.sequences)
        seconds, code, text, err = call(main, self.argv(k), around)
        s, v = self.sequences[k]
        t0 = time.perf_counter()
        problems = checks.check_alignment(
            text, code, s, v, self.workload.min_window, self.workload.expect_full_cover
        )
        self.check_seconds += time.perf_counter() - t0
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append({"pair": k, "problems": problems, "stderr": err[-2000:]})
        if record_exact and i < self.workload.exact_pairs:
            self.digest.update(text.encode("utf-8"))
            if code is not None and text:
                counters = json.loads(text).get("counters", {})
                for key in self.exact_counters:
                    self.exact_counters[key] += counters.get(key, 0)
        return seconds

    def warm_up(self, main, warm_paths) -> None:
        _, code, _, err = call(main, ["align", *warm_paths, *self.workload.flags()])
        if code not in checks.DOCUMENTED_EXIT_CODES:
            raise RuntimeError(f"warm-up alignment ended with exit code {code}: {err[-2000:]}")


def _exact_means(loop: Loop) -> dict:
    k = loop.workload.exact_pairs
    return {f"matcher.{key}": value / k for key, value in loop.exact_counters.items()}


def _timing(latencies: list, pool_size: int, slowdown: float) -> dict:
    """Time metrics at reference host speed (see speed.py), with the raw figures beside them.

    Call i aligned pair i % pool_size. Each pair counts once, by the median
    of its calls, so that a run which cycled the pool further does not
    weight its first pairs more.
    """
    by_pair: dict = {}
    for i, seconds in enumerate(latencies):
        by_pair.setdefault(i % pool_size, []).append(seconds)
    pair_seconds = [statistics.median(calls) for calls in by_pair.values()]
    out = {
        "latencies_s": latencies,
        "samples": len(latencies),
        "pairs": len(pair_seconds),
        "slowdown": slowdown,
        "raw_alignments_per_s": len(pair_seconds) / sum(pair_seconds),
        "raw_align_p50_s": statistics.median(pair_seconds),
    }
    out["alignments_per_s"] = out["raw_alignments_per_s"] * slowdown
    out["align_p50_s"] = out["raw_align_p50_s"] / slowdown
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        out["raw_align_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
        out["align_p90_s"] = out["raw_align_p90_s"] / slowdown
    return out


def run_untraced(loop: Loop, seconds: float) -> dict:
    latencies = []
    probe = speed.SpeedProbe()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < loop.workload.exact_pairs or time.perf_counter() < deadline:
        latencies.append(loop.align(cli.main, i, record_exact=True))
        probe.sample(CALIBRATION_SHARE * latencies[-1])
        i += 1
    return _timing(latencies, len(loop.workload.pairs), probe.slowdown())


def run_traced(loop: Loop, seconds: float, spans_path) -> dict:
    """Each pair is aligned untraced and traced, in alternating order; per-layer figures."""
    tr = tracer.Tracer()
    plain, traced = [], []
    with tracer.installed(tr, TRACE_COUNTS):
        traced_main = tr.wrap(tracer.ROOT, cli.main)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < loop.workload.exact_pairs or time.perf_counter() < deadline:
            for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_turn:
                    traced.append(loop.align(traced_main, i, False, around=tr.traced(i)))
                else:
                    plain.append(loop.align(cli.main, i, record_exact=True))
            i += 1
    n_traced = len(traced)
    self_times = tr.self_times()
    layer = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    calls: dict = {}
    accounted = 0.0
    for (aid, name), (self_s, count) in self_times.items():
        accounted += self_s
        if name in SELF_TIME_METRICS:
            layer[SELF_TIME_METRICS[name]] += self_s / n_traced
        if aid < loop.workload.exact_pairs:
            calls[name] = calls.get(name, 0) + count
    k = loop.workload.exact_pairs
    counts = {key: sum(tr.counts[aid][key] for aid in range(k))
              for key in ("blocks", "candidates", "truncated", "partial", "emit_bytes")}
    scored = calls.get("gapstats.chain_statistics", 0)
    per_layer = {
        **layer,
        **_exact_means(loop),
        "matcher.blocks": counts["blocks"] / k,
        "chainer.candidates": counts["candidates"] / k,
        "gapstats.chain_statistics_calls": scored / k,
        "chainer.kept_ratio": counts["candidates"] / scored if scored else 1.0,
        "chainer.truncated_frac": counts["truncated"] / k,
        "chainer.partial_frac": counts["partial"] / k,
        "chainer.render_calls": calls.get("chainer.render", 0) / k,
        "io.emit_bytes": counts["emit_bytes"] / k,
        "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
    }
    if spans_path:
        tr.write_tsv_gz(spans_path)
    mean_traced = sum(traced) / n_traced
    return {
        "per_layer": per_layer,
        "self_share": {metric: layer[metric] / mean_traced for metric in layer},
        "traced_samples": n_traced,
        "spans": len(tr),
        "nesting": sorted([child, parent] for child, parent in tr.nesting()),
        # Share of the traced calls' wall time not covered by any span's self time.
        "unaccounted_frac": 1.0 - accounted / sum(traced),
    }


def growth_slopes() -> dict:
    by_m = bench.measure_growth(*SLOPE_M_GRID)
    by_n = bench.measure_growth(*SLOPE_N_GRID)
    return {
        "matcher.substring_slope_m": by_m.slope_vs_m,
        "matcher.substring_slope_n": by_n.slope_vs_n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True, help="directory holding the input files")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--spans", default=None, help="where to write traced spans (tsv.gz)")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(seqalign.__file__).resolve().parent != src / "seqalign":
        raise RuntimeError(f"imported {seqalign.__file__}, not the checkout's {src}")

    workload = workloads.make(args.workload, args.seed)
    warm = workloads.warmup_pair(args.seed)
    paths = workloads.input_paths(workload, warm, Path(args.dir))
    loop = Loop(workload, paths[:-1])
    loop.warm_up(cli.main, paths[-1])

    if args.trace:
        result = run_traced(loop, args.seconds, args.spans)
        result["per_layer"].update(growth_slopes())
    else:
        result = run_untraced(loop, args.seconds)
        result["exact"] = _exact_means(loop)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        check_seconds=loop.check_seconds,
        problems=loop.problems,
        report_sha256=loop.digest.hexdigest(),
        exact_pairs=workload.exact_pairs,
        flags=list(workload.flags()),
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
