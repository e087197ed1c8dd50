"""Benchmark of `seqalign align`, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-random --seed 1 --seconds 25 --trace 0

It writes the workload's FASTA inputs from the seed, measures set-up time
in fresh interpreters, then runs the workload's closed loop (one client,
`cli.main` called in-process) in a fresh worker process for --seconds and
checks every report. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer ones from a traced run. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details go to .perfbench/results/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_PROBES = 5  # measured launches; one more unmeasured launch goes first

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

END_TO_END_UNITS = {
    "alignments_per_s": "1/s",
    "align_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "matcher.enumerate_s": "s",
    "matcher.blocks": "count",
    "matcher.substring_comparisons": "count",
    "matcher.char_comparisons": "count",
    "matcher.claimed_comparisons": "count",
    "matcher.substring_slope_m": "ratio",
    "matcher.substring_slope_n": "ratio",
    "chainer.enumerate_s": "s",
    "chainer.candidates": "count",
    "chainer.kept_ratio": "ratio",
    "chainer.truncated_frac": "ratio",
    "chainer.partial_frac": "ratio",
    "chainer.render_s": "s",
    "chainer.render_calls": "count",
    "gapstats.chain_statistics_calls": "count",
    "gapstats.chain_statistics_s": "s",
    "gapstats.select_s": "s",
    "io.emit_s": "s",
    "io.emit_bytes": "count",
    "io.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)] + ([extra] if extra else []))
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(input_dir: Path, started: float) -> list:
    """Seconds from launching a fresh interpreter to inputs loaded, per measured launch."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(input_dir)]
    samples = []
    for attempt in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        done = subprocess.run(probe, env=child_env(), capture_output=True, text=True,
                              timeout=remaining(started))
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        if attempt:  # the first launch fills the bytecode and file caches
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_worker(args, input_dir: Path, out_path: Path, spans_path: Path, started: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", str(input_dir), "--out", str(out_path),
    ]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=remaining(started))
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.strip()[-3000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (SRC / "seqalign" / "cli.py").is_file():
            raise BenchError(f"no seqalign sources under {SRC}; run from a checkout")
        from perfbench import workloads

        workload = workloads.make(args.workload, args.seed)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_dir = OUT / "runs" / f"{tag}-{os.getpid()}"
        input_dir = run_dir / "inputs"
        workloads.write_inputs(workload, workloads.warmup_pair(args.seed), input_dir)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        try:
            setup = [] if args.trace else measure_setup(input_dir, started)
            result = run_worker(args, input_dir, run_dir / "worker.json",
                                OUT / "results" / f"{tag}.spans.tsv.gz", started)
        finally:
            shutil.rmtree(input_dir, ignore_errors=True)
    except (BenchError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: result["per_layer"][name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        result["setup_samples_s"] = setup
        metrics = {
            "alignments_per_s": result["alignments_per_s"],
            "align_p50_s": result["align_p50_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    result["metrics"] = metrics
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n",
                                                 encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} alignments attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g} of {attempted})")
    for extra in ("samples", "pairs", "check_seconds", "slowdown", "raw_alignments_per_s",
                  "raw_align_p50_s", "align_p90_s", "traced_samples", "self_share",
                  "unaccounted_frac", "report_sha256", "exact"):
        if extra in result:
            print(f"  {extra}: {result[extra]}")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
