"""The benchmark's pinned report bytes, recomputed in the tier-1 suite.

`perfbench/trajectory.json` pins, per workload and seed, the SHA-256 of the
reports of the first `exact_pairs` alignments and the mean exact counters
over them. This recomputes seed 1 of three workloads through the benchmark's
own closed loop, so a change to any report byte fails here and not only in a
benchmark run. `homopolymer` (seconds per pair) is left to the benchmark and
to the truncated goldens in test_golden.py.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench is a package at the repository root

from perfbench import workloads  # noqa: E402
from perfbench.worker import Loop  # noqa: E402
from seqalign import cli  # noqa: E402

# The trajectory is a list of baselines, latest last.
BASELINE = json.loads((ROOT / "perfbench" / "trajectory.json").read_text(encoding="utf-8"))[-1]


@pytest.mark.parametrize("name", ["short-reads", "chain-random", "read-map"])
def test_seed_1_reports_match_the_trajectory(tmp_path, name):
    workload = workloads.make(name, 1)
    warmup = workloads.warmup_pair(1)
    workloads.write_inputs(workload, warmup, tmp_path)
    loop = Loop(workload, workloads.input_paths(workload, warmup, tmp_path)[:-1])
    for i in range(workload.exact_pairs):
        loop.align(cli.main, i, record_exact=True)
    assert loop.failed == 0, loop.problems
    pinned = BASELINE["workloads"][name]["exact_by_seed"]["1"]
    assert loop.digest.hexdigest() == pinned["report_sha256"]
    for key, total in loop.exact_counters.items():
        assert total / workload.exact_pairs == pinned[f"matcher.{key}"]
