"""The benchmark's pinned report bytes, recomputed in the tier-1 suite.

`perfbench/trajectory.json` pins, per workload and seed, the SHA-256 of the
reports of the first `exact_pairs` alignments and the mean exact counters
over them. This recomputes every pinned seed through the benchmark's own
closed loop, so a change to any report byte fails here and not only in a
benchmark run. `homopolymer` runs at seed 1 only: its one pair is the same
at every seed. The traced loop, which the benchmark's per-layer run uses, is
run on seed 1 of the other three.
"""

import json

import pytest

from perfbench import workloads
from perfbench.worker import Loop, run_traced
from seqalign import cli
from conftest import ROOT

# The trajectory is a list of baselines, latest last.
BASELINE = json.loads((ROOT / "perfbench" / "trajectory.json").read_text(encoding="utf-8"))[-1]


SEEDED = ["short-reads", "chain-random", "read-map"]


def _loop(tmp_path, name, seed=1):
    workload = workloads.make(name, seed)
    warmup = workloads.warmup_pair(seed)
    workloads.write_inputs(workload, warmup, tmp_path)
    return Loop(workload, workloads.input_paths(workload, warmup, tmp_path)[:-1])


def _check_pinned(tmp_path, name, seed):
    loop = _loop(tmp_path, name, seed)
    workload = loop.workload
    for i in range(workload.exact_pairs):
        loop.align(cli.main, i, record_exact=True)
    assert loop.failed == 0, loop.problems
    pinned = BASELINE["workloads"][name]["exact_by_seed"][str(seed)]
    assert loop.digest.hexdigest() == pinned["report_sha256"]
    for key, total in loop.exact_counters.items():
        assert total / workload.exact_pairs == pinned[f"matcher.{key}"]


@pytest.mark.parametrize("name", SEEDED + ["homopolymer"])
def test_seed_1_reports_match_the_trajectory(tmp_path, name):
    _check_pinned(tmp_path, name, 1)


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in SEEDED for seed in BASELINE["seeds"] if seed != 1],
)
def test_every_pinned_seed_matches_the_trajectory(tmp_path, name, seed):
    _check_pinned(tmp_path, name, seed)


@pytest.mark.parametrize("name", SEEDED)
def test_traced_loop_checks_every_report(tmp_path, name):
    # The traced loop wraps each layer function and reads counts off its
    # return value; an exception there fails the alignment it happened in.
    # short-reads has pairs without a full cover, so the fallback search runs
    # under the wrappers too.
    loop = _loop(tmp_path, name)
    run_traced(loop, 0, None)
    assert loop.failed == 0, loop.problems
