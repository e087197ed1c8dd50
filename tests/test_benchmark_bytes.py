"""The benchmark's pinned report bytes, recomputed in the tier-1 suite.

`perfbench/trajectory.json` pins, per workload and seed, the SHA-256 of the
reports of the first `exact_pairs` alignments and the mean exact counters
over them. This recomputes seed 1 of all four workloads through the
benchmark's own closed loop, so a change to any report byte fails here and
not only in a benchmark run. The traced loop, which the benchmark's
per-layer run uses, is run on seed 1 of three of them.
"""

import json

import pytest

from perfbench import workloads
from perfbench.worker import Loop, run_traced
from seqalign import cli
from conftest import ROOT

# The trajectory is a list of baselines, latest last.
BASELINE = json.loads((ROOT / "perfbench" / "trajectory.json").read_text(encoding="utf-8"))[-1]


def _seed_1_loop(tmp_path, name):
    workload = workloads.make(name, 1)
    warmup = workloads.warmup_pair(1)
    workloads.write_inputs(workload, warmup, tmp_path)
    return Loop(workload, workloads.input_paths(workload, warmup, tmp_path)[:-1])


@pytest.mark.parametrize("name", ["short-reads", "chain-random", "read-map", "homopolymer"])
def test_seed_1_reports_match_the_trajectory(tmp_path, name):
    loop = _seed_1_loop(tmp_path, name)
    workload = loop.workload
    for i in range(workload.exact_pairs):
        loop.align(cli.main, i, record_exact=True)
    assert loop.failed == 0, loop.problems
    pinned = BASELINE["workloads"][name]["exact_by_seed"]["1"]
    assert loop.digest.hexdigest() == pinned["report_sha256"]
    for key, total in loop.exact_counters.items():
        assert total / workload.exact_pairs == pinned[f"matcher.{key}"]


@pytest.mark.parametrize("name", ["short-reads", "chain-random", "read-map"])
def test_traced_loop_checks_every_report(tmp_path, name):
    # The traced loop wraps each layer function and reads counts off its
    # return value; an exception there fails the alignment it happened in.
    # short-reads has pairs without a full cover, so the fallback search runs
    # under the wrappers too.
    loop = _seed_1_loop(tmp_path, name)
    run_traced(loop, 0, None)
    assert loop.failed == 0, loop.problems
