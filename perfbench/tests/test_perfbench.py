"""Tests of the benchmark itself: output checks, generators, tracing, the runner.

Run from the checkout root: `python3 -m pytest perfbench/tests -q`.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from seqalign import cli
from seqalign.core import Sequence

from perfbench import checks, tracer, workloads
from perfbench.worker import call

ROOT = Path(__file__).resolve().parents[2]

# Fragment 0-3 and 7-10 of the reference: full cover, two gap-free blocks.
S = "ACGTTGCAACGGTACCATGA"
V = "ACGTCAAC"


def _fasta_pair(tmp_path, s=S, v=V):
    (tmp_path / "s.fa").write_text(f">s\n{s}\n")
    (tmp_path / "v.fa").write_text(f">v\n{v}\n")
    return [str(tmp_path / "s.fa"), str(tmp_path / "v.fa")]


def _align(tmp_path, flags=workloads.PINNED_FLAGS + ("--min-window", "1", "--beam", "256")):
    _, code, text, _ = call(cli.main, ["align", *_fasta_pair(tmp_path), *flags])
    return code, text


def _check(text, code, expect_full_cover=True):
    return checks.check_alignment(
        text, code, Sequence("s", S), Sequence("v", V), 1, expect_full_cover
    )


def _tamper(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


def test_untampered_report_passes(tmp_path):
    code, text = _align(tmp_path)
    assert code == 0
    assert _check(text, code) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["counters"].__setitem__("substring_comparisons", d["counters"]["substring_comparisons"] + 1),
        lambda d: d["counters"].__setitem__("claimed_comparisons", 0),
        lambda d: d["counters"].__setitem__("char_comparisons", d["counters"]["substring_comparisons"] - 1),
        lambda d: d.__setitem__("schema_version", 2),
        lambda d: d["candidates"][d["selected"]].__setitem__("mean", 99.0),
        lambda d: d["candidates"][d["selected"]].__setitem__("runs", [1]),
        lambda d: d["candidates"][d["selected"]].__setitem__("blocks", [[0, 1, 4]]),
        lambda d: d["v"].__setitem__("residues", "ACGTCAAG"),
    ],
    ids=["substring", "claimed", "char-below-substring", "schema", "mean", "runs",
         "chain", "echo"],
)
def test_tampered_report_fails(tmp_path, edit):
    code, text = _align(tmp_path)
    assert _check(_tamper(text, edit), code)


def test_report_that_does_not_round_trip_fails(tmp_path):
    code, text = _align(tmp_path)
    assert _check(text.replace("\n", "\n ", 1), code)


@pytest.mark.parametrize("code", [None, 1, 3])
def test_bad_exit_codes_fail(tmp_path, code):
    _, text = _align(tmp_path)
    assert _check(text, code)


def test_exit_2_fails_only_where_full_cover_is_built_in(tmp_path):
    # The reference holds two T's, so the fragment TTTT has no full cover: exit 2.
    s, v = "ACGTACGATCGA", "TTTT"
    _, code, text, _ = call(cli.main, ["align", *_fasta_pair(tmp_path, s, v),
                                       *workloads.PINNED_FLAGS, "--min-window", "1"])
    assert code == 2
    seqs = (Sequence("s", s), Sequence("v", v))
    assert checks.check_alignment(text, code, *seqs, 1, expect_full_cover=False) == []
    assert checks.check_alignment(text, code, *seqs, 1, expect_full_cover=True)
    # Exit 0 on a partial report is as wrong as exit 2 on a full one.
    assert checks.check_alignment(text, 0, *seqs, 1, expect_full_cover=False)


@pytest.mark.parametrize("name", ["short-reads", "chain-random", "read-map"])
def test_generators_are_deterministic_and_differ_across_seeds(name):
    assert workloads.make(name, 3) == workloads.make(name, 3)
    assert workloads.make(name, 3).pairs != workloads.make(name, 4).pairs
    assert workloads.warmup_pair(3) == workloads.warmup_pair(3)


def test_generated_inputs_have_the_stated_shape():
    reads = workloads.make("short-reads", 0).pairs
    assert all(30 <= len(p.s) <= 60 and 6 <= len(p.v) <= 12 for p in reads)
    chains = workloads.make("chain-random", 0)
    assert all(len(p.s) == 512 and len(p.v) == 16 for p in chains.pairs)
    assert all(workloads._is_subsequence(p.v, p.s) for p in chains.pairs)
    read_map = workloads.make("read-map", 0)
    assert read_map.min_window == 8
    for p in read_map.pairs:
        assert len(p.s) == 8192 and len(p.v) == 128
        segments = [p.v[k : k + 32] for k in range(0, 128, 32)]
        starts = [p.s.find(segments[0])]
        for seg in segments[1:]:
            starts.append(p.s.find(seg, starts[-1] + 32))
        assert all(1 <= b - a - 32 <= 12 for a, b in zip(starts, starts[1:]))
    (homo,) = workloads.make("homopolymer", 5).pairs
    assert (homo.s, homo.v) == ("A" * 100, "A" * 10)


def test_flags_pin_the_alphabet_against_the_environment(monkeypatch):
    monkeypatch.setenv("SEQALIGN_ALPHABET", "upper")
    for name in workloads.WORKLOADS:
        flags = workloads.make(name, 0).flags()
        args = cli.build_parser().parse_args(["align", "s.fa", "v.fa", *flags])
        assert (args.alphabet, args.format, args.algo, args.select) == ("dna", "json", "proposed", "mean")


def test_written_inputs_load_as_the_generated_pairs(tmp_path):
    from seqalign import io
    from seqalign.core import DNA

    workload = workloads.make("read-map", 1)
    warm = workloads.warmup_pair(1)
    workloads.write_inputs(workload, warm, tmp_path)
    paths = workloads.input_paths(workload, warm, tmp_path)
    for pair, (s_path, v_path) in zip(workload.pairs + (warm,), paths):
        assert io.load_sequences(s_path, DNA) == [Sequence(pair.s_id, pair.s)]
        assert io.load_sequences(v_path, DNA) == [Sequence(pair.v_id, pair.v)]


def test_traced_spans_nest_and_account_for_the_call(tmp_path):
    from seqalign import chainer, gapstats

    original_render = chainer.render
    tr = tracer.Tracer()
    with tracer.installed(tr):
        traced_main = tr.wrap(tracer.ROOT, cli.main)
        _, code, _, _ = call(traced_main, ["align", *_fasta_pair(tmp_path),
                                           *workloads.PINNED_FLAGS], around=tr.traced(0))
        _align(tmp_path)  # untraced calls record nothing
    assert code == 0
    assert chainer.render is original_render and not hasattr(gapstats.chain_statistics, "__wrapped__")

    pairs = tr.nesting()
    assert ("chainer.render", "io.emit_report") in pairs
    assert ("gapstats.chain_statistics", "chainer.enumerate_candidates") in pairs
    assert ("cli.main", None) in pairs
    assert {parent for _, parent in pairs} <= {None, "cli.main", "io.emit_report",
                                               "chainer.enumerate_candidates"}
    for i, p in enumerate(tr.parent):
        assert tr.aid[i] == 0
        if p >= 0:
            assert tr.start[p] <= tr.start[i] <= tr.end[i] <= tr.end[p]
    (root,) = [i for i, p in enumerate(tr.parent) if p < 0]
    self_times = tr.self_times()
    assert sum(t for t, _ in self_times.values()) == pytest.approx(tr.end[root] - tr.start[root])
    assert self_times[(0, "io.load_sequences")][1] == 2


def test_timing_counts_each_pool_pair_once():
    from perfbench.worker import _timing

    # Pool of two pairs: pair 0 ran at 1.0 s and 3.0 s, pair 1 once at 4.0 s.
    out = _timing([1.0, 4.0, 3.0], pool_size=2, slowdown=2.0)
    assert (out["samples"], out["pairs"]) == (3, 2)
    assert out["raw_align_p50_s"] == 3.0  # median of the pair medians 2.0 and 4.0
    assert out["raw_alignments_per_s"] == 2 / 6.0
    assert out["align_p50_s"] == 1.5 and out["alignments_per_s"] == 2 / 3.0
    assert "align_p90_s" not in out


def test_speed_probe_reports_slowdown_against_the_reference():
    from perfbench import speed

    probe = speed.SpeedProbe()
    probe.sample(0.0)
    assert probe.kernels == 1
    assert probe.slowdown() == probe.seconds / speed.REFERENCE_KERNEL_S > 0


def test_runner_prints_the_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-reads", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.make("short-reads", 7).exact_pairs
    assert set(result["metrics"]) == {"alignments_per_s", "align_p50_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homopolymer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
