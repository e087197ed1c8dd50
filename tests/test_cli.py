import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from perfbench import workloads
from seqalign import baselines, chainer, cli, matcher, oracle, verify
from seqalign.core import Sequence
from seqalign.cli import main
from conftest import KNOWN_PLACEMENTS, ROOT, S_DNA, V_DNA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_align_dna_example_variance_policy(capsys):
    code, out, err = run(
        capsys, "align", "--s", S_DNA, "--v", V_DNA, "--select", "variance",
        "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["policy"] == "variance_only"
    assert doc["full_coverage"] is True
    keys = {tuple(map(tuple, c["blocks"])) for c in doc["candidates"]}
    for coords in KNOWN_PLACEMENTS:
        assert coords in keys
    winner = doc["candidates"][doc["selected"]]
    variances = [c["variance"] for c in doc["candidates"]]
    assert winner["variance"] == min(variances)


def test_align_identity_pair(capsys):
    code, out, _ = run(capsys, "align", "--s", "ABC", "--v", "ABC", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 1
    assert doc["candidates"][0]["mean"] == 0
    assert doc["candidates"][0]["variance"] == 0


def test_align_json_echoes_effective_min_window(capsys):
    # The matcher clamps --min-window to the fragment length n = 2.
    code, out, _ = run(
        capsys, "align", "--s", "ACGT", "--v", "AC", "--min-window", "9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["options"]["min_window"] == 2


def test_align_text_output_has_display(capsys):
    code, out, _ = run(capsys, "align", "--s", "ABC", "--v", "ABC")
    assert code == 0
    assert "ABC" in out and "|||" in out
    assert "0.000 0.000" in out


def test_align_nw_json_score(capsys):
    code, out, _ = run(
        capsys, "align", "--algo", "nw", "--s", "AC", "--v", "C",
        "--scheme", "1,-1,-1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scored"]["score"] == 0
    assert doc["scored"]["aligned_v"] == "-C"


def test_align_sw_runs(capsys):
    code, out, _ = run(capsys, "align", "--algo", "sw", "--s", "XXACGTXX", "--v", "ACGT",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["scored"]["score"] == 4


def test_align_no_full_cover_exits_2(capsys):
    code, out, _ = run(capsys, "align", "--s", "AAAA", "--v", "BB", "--format", "json")
    assert code == 2
    assert json.loads(out)["full_coverage"] is False


def test_align_partial_flag_accepts_partial(capsys):
    code, out, _ = run(capsys, "align", "--s", "AAAA", "--v", "AB", "--partial",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["full_coverage"] is False
    assert doc["candidates"]


def _align_json(argv, partial):
    """Exit code and JSON document of one align, without the --partial echo."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["align", *argv, "--format", "json", *["--partial"] * partial])
    doc = json.loads(out.getvalue())
    assert doc["options"].pop("require_full_coverage") is not partial
    return code, doc


READ_MAP_PAIR_0 = workloads.make("read-map", 1).pairs[0]


@pytest.mark.parametrize("argv", [
    ("--s", "TCTCAGAGGAACCCAACGTGTGGGTCCTCACGTATCCCTCGTCTCTAGGATC", "--v", "CTGTAACA"),
    ("--s", READ_MAP_PAIR_0.s, "--v", READ_MAP_PAIR_0.v, "--min-window", "8"),
], ids=["full-cover", "read-map-1-0"])
def test_partial_flag_keeps_the_full_cover(argv):
    # --partial picks the exit code only: the full-cover search still runs
    # first, so a pair with a cover gets the default run's document.
    default = _align_json(argv, partial=False)
    partial = _align_json(argv, partial=True)
    assert default[0] == 0 and default[1]["full_coverage"]
    assert partial == default


@settings(max_examples=150, deadline=None)
@given(
    st.text(st.sampled_from("AB"), min_size=1, max_size=10),
    st.text(st.sampled_from("AB"), min_size=1, max_size=5),
    st.sampled_from(["mean", "variance", "mean-only"]),
    st.integers(1, 4),
    st.sampled_from([1, 2, 256]),
)
def test_partial_flag_changes_only_the_exit_code(s, v, select, cap, beam):
    if len(v) > len(s):
        s, v = v, s
    argv = ("--s", s, "--v", v, "--select", select, "--max-candidates", str(cap),
            "--beam", str(beam))
    code, doc = _align_json(argv, partial=False)
    code_partial, doc_partial = _align_json(argv, partial=True)
    assert doc_partial == doc
    assert (code, code_partial) == ((0, 0) if doc["full_coverage"] else (2, 0))


# A short-reads pair whose full covers the default beam loses (ROADMAP item 1).
LOST_COVER = ("TCGATTGGGGCATCTAGGAATGAGAACAATTGCGTCAAAAAAAACTGACAGCCGTTCGGG", "ATCCCGTTA")


def test_lost_cover_pair_has_24_covers_that_beam_1000_finds():
    s, v = (Sequence(name, x) for name, x in zip("sv", LOST_COVER))
    blocks = matcher.enumerate_matches(s, v).blocks()
    covers = {chain.blocks for chain in oracle.exhaustive_chains(blocks, len(v))}
    assert (len(blocks), len(covers)) == (154, 24)
    code, doc = _align_json(("--s", s.residues, "--v", v.residues, "--beam", "1000"), False)
    assert code == 0 and doc["full_coverage"]
    assert {tuple(map(tuple, c["blocks"])) for c in doc["candidates"]} == {
        tuple((b.v_start, b.s_start, b.length) for b in chain) for chain in covers
    }


# A chain-random pair (seed 34, pair 53) whose full covers its pinned beam of
# 64 loses, so a benchmark run on that seed exits 2.
_SEED_34_PAIR_53 = workloads.chain_random(34).pairs[53]
LOST_COVERS = [(*LOST_COVER, ()), (_SEED_34_PAIR_53.s, _SEED_34_PAIR_53.v, ("--beam", "64"))]


def test_lost_cover_pair_has_a_cover_the_default_beam_loses():
    # The cover test finds the tiling, so the full-cover search runs; the
    # beam then loses every cover and the run falls back to partial.
    for s, v, flags in LOST_COVERS:
        index = matcher.enumerate_matches(Sequence("s", s), Sequence("v", v))
        assert chainer._has_cover(chainer._HitRows(index), len(v))
        code, doc = _align_json(("--s", s, "--v", v, *flags), False)
        assert code == 2 and not doc["full_coverage"], flags


@pytest.mark.xfail(
    strict=True,
    reason="the beam ranks partial chains by total gap alone and drops every full cover; "
           "ROADMAP items 1, 2 and 4 (an exact search, exact by default) mend it",
)
def test_lost_cover_pair_default_run_reports_full_cover():
    # Passes only once every pair of LOST_COVERS reports its full cover.
    for s, v, flags in LOST_COVERS:
        code, doc = _align_json(("--s", s, "--v", v, *flags), False)
        assert doc["full_coverage"] and code == 0, flags


def test_align_swap_handles_longer_fragment(capsys):
    code, _, err = run(capsys, "align", "--s", "ACT", "--v", "ACGT")
    assert code == 1
    assert err.startswith("error: ")
    assert "swap" in err

    code, out, _ = run(capsys, "align", "--s", "ACT", "--v", "ACGT", "--swap",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["swapped"] is True
    assert doc["s"]["residues"] == "ACGT"

    code, out, _ = run(capsys, "align", "--s", "ACT", "--v", "ACGT", "--swap")
    assert code == 0
    assert "insertions" in out


def test_align_file_inputs(tmp_path, capsys):
    ref = tmp_path / "ref.fa"
    ref.write_text(f">ref\n{S_DNA}\n")
    frag = tmp_path / "frag.txt"
    frag.write_text(V_DNA + "\n")
    code, out, _ = run(capsys, "align", str(ref), str(frag), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"]["id"] == "ref"
    assert doc["v"]["residues"] == V_DNA


@pytest.mark.parametrize("kind", ["missing", "directory", "non-ascii"])
def test_align_unreadable_input_file_is_one_error_line(tmp_path, capsys, kind):
    ref = tmp_path / "ref.txt"
    ref.write_text(S_DNA + "\n")
    frag = tmp_path / "frag"
    if kind == "directory":
        frag.mkdir()
    elif kind == "non-ascii":
        frag.write_bytes(b"TAC\xc3\x89TAG\n")
    code, out, err = run(capsys, "align", str(ref), str(frag))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(frag) in err
    assert len(err.splitlines()) == 1


def test_align_alphabet_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "align", "--s", "ACGU", "--v", "AC", "--alphabet", "dna")
    assert code == 1 and "alphabet" in err
    monkeypatch.setenv("SEQALIGN_ALPHABET", "dna")
    code, _, err = run(capsys, "align", "--s", "ACGU", "--v", "AC")
    assert code == 1 and "alphabet" in err
    monkeypatch.setenv("SEQALIGN_ALPHABET", "xyz")
    code, out, err = run(capsys, "align", "--s", "ACGT", "--v", "AC")
    assert (code, out) == (1, "")
    assert err == "error: unknown alphabet 'xyz'; choose from ['dna', 'upper']\n"


def test_parser_is_built_once_and_reads_the_alphabet_per_call(capsys, monkeypatch):
    argv = ("align", "--s", "ACGU", "--v", "AC")
    monkeypatch.setenv("SEQALIGN_ALPHABET", "dna")
    code, _, err = run(capsys, *argv)
    assert code == 1 and "alphabet" in err
    parser = cli._parser()
    monkeypatch.setenv("SEQALIGN_ALPHABET", "upper")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "coverage: full" in out
    assert cli._parser() is parser


def test_align_usage_errors(capsys):
    code, _, err = run(capsys, "align", "--s", "AC")
    assert code == 1 and err.startswith("error: ")
    code, _, err = run(capsys, "align")
    assert code == 1
    code, _, err = run(capsys, "align", "--s", "AC", "--v", "C", "--scheme", "1,-1")
    assert code == 1
    code, _, err = run(capsys, "align", "--s", "AC", "--v", "C", "--algo", "blast")
    assert code == 1
    code, _, err = run(capsys, "align", "--s", "AC", "--v", "C", "--min-window", "0")
    assert code == 1
    # The search flags are checked whatever --algo reads them, as --scheme is.
    for algo in ("nw", "sw"):
        for flag in ("--min-window", "--max-candidates", "--beam"):
            code, out, err = run(capsys, "align", "--s", "ACGTTGCA", "--v", "TTG",
                                 "--algo", algo, flag, "0")
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def _chain_random_argv(fmt="json"):
    pair = workloads.chain_random(1).pairs[0]  # 512 x 16 with a full cover
    return ["align", "--s", pair.s, "--v", pair.v, "--beam", "64", "--format", fmt]


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_align_starts_no_garbage_collection(capsys, collector_on):
    # With the collector on, such an alignment would start about 16
    # young-generation passes over its states and report; align pauses it.
    starts = []
    hook = lambda phase, info: starts.append(info) if phase == "start" else None
    gc.callbacks.append(hook)
    try:
        code = main(_chain_random_argv())
        during = len(starts)
    finally:
        gc.callbacks.remove(hook)
    assert code == 0
    assert during == 0
    assert gc.isenabled()


def test_align_restores_the_callers_collector_state(capsys, collector_on, monkeypatch):
    assert main(["align", "--s", S_DNA, "--v", V_DNA]) == 0
    assert gc.isenabled()
    assert main(["align", "--s", "ABC", "--v", "XYZ"]) == 2
    assert gc.isenabled()
    assert main(["align", "--s", "ABC", "--v", "ABC", "--beam", "0"]) == 1
    assert gc.isenabled()
    gc.disable()
    assert main(["align", "--s", S_DNA, "--v", V_DNA]) == 0
    assert not gc.isenabled()
    gc.enable()

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(chainer, "enumerate_candidates", boom)
    with pytest.raises(RuntimeError):
        main(["align", "--s", S_DNA, "--v", V_DNA])
    assert gc.isenabled()

    # A ValueError from any layer is a bad value: one `error: ` line, exit 1.
    def bad_value(*args, **kwargs):
        raise ValueError("bad value")

    capsys.readouterr()
    monkeypatch.setattr(chainer, "enumerate_candidates", bad_value)
    assert main(["align", "--s", S_DNA, "--v", V_DNA]) == 1
    assert capsys.readouterr() == ("", "error: bad value\n")
    assert gc.isenabled()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_align_defers_a_fixed_amount_of_cyclic_garbage(collector_on, fmt):
    # The pipeline's data form no cycles: the only cyclic garbage a call
    # leaves to the next collection is the closures of a JSON report's
    # json.dumps calls, the same count whatever the input size.
    def deferred(argv):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        return gc.collect()

    argvs = [
        ["align", "--s", S_DNA, "--v", V_DNA, "--format", fmt],
        ["align", "--s", "A" * 100, "--v", "A" * 10, "--format", fmt],
        _chain_random_argv(fmt),
    ]
    deferred(argvs[0])  # warm-up: first-call caches
    gc.disable()  # so the count is the call's alone
    try:
        counts = [deferred(argv) for argv in argvs]
    finally:
        gc.enable()
    if fmt == "text":
        assert counts == [0, 0, 0]
    else:
        assert counts[0] > 0 and counts == [counts[0]] * 3


def _run_module(*argv, **kwargs):
    """`python -m seqalign *argv` in a child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(
        [sys.executable, "-m", "seqalign", *argv], env=env, text=True, **{**streams, **kwargs}
    )


def test_python_m_seqalign_runs_the_cli():
    done = _run_module("verify", "--suite", "matcher", "--cases", "3", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok matcher")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_align_to_a_full_device_is_one_error_line(monkeypatch, buffered):
    # Every write to /dev/full fails. Unbuffered, the report's write raises;
    # buffered, only the flush does, and the interpreter flushes once more at
    # exit, which must not print a second message or change the exit code.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if not buffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "w") as full:
        done = _run_module("align", "--s", "ACGTTGCA", "--v", "TTG", stdout=full, timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: [Errno 28] No space left on device\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _random_dna_pair(seed, m, n):
    rng = random.Random(seed)
    s = "".join(rng.choice("ACGT") for _ in range(m))
    return s, "".join(rng.choice("ACGT") for _ in range(n))


def _align_in_a_child(s, v, *flags):
    """`align` in a child with 1 GiB of address space: it must end in a
    report (exit 0 or 2) or in one `error: ` line (exit 1), never a traceback."""
    done = _run_module(
        "align", "--s", s, "--v", v, *flags, preexec_fn=_limit_address_space, timeout=300
    )
    assert "Traceback" not in done.stderr
    if done.returncode == 1:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert done.stdout == ""
    else:
        assert done.returncode in (0, 2), done.stderr
        assert done.stdout.startswith("algorithm: proposed") and done.stderr == ""
    return done


@pytest.mark.parametrize("m,select", [
    *(pytest.param(m, "mean", id=str(m)) for m in (100, 200, 300, 400)),
    pytest.param(300, "variance", id="variance-300"),
    pytest.param(500, "variance", id="variance-500", marks=pytest.mark.xfail(
        strict=True, reason="--select variance keeps its cut over every completion, so "
        "A x 500 against A x 50 runs out of 1 GiB (ROADMAP items 3 and 8)")),
])
def test_align_under_a_memory_limit_ends_in_a_report_or_one_error_line(m, select):
    # A x m against A x m/10: every partial chain ties, so the beam's groups
    # are full at every position. The search builds only the states it keeps,
    # so each size ends in a full-cover report; under --select variance every
    # completion is still built, so memory grows with the completions.
    done = _align_in_a_child("A" * m, "A" * (m // 10), "--select", select)
    assert done.returncode == 0
    assert "coverage: full" in done.stdout


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_1024_by_64_under_a_memory_limit_ends_in_a_report_or_one_error_line(seed):
    _align_in_a_child(*_random_dna_pair(seed, 1024, 64))


@pytest.mark.parametrize("algo", ["nw", "sw"])
@pytest.mark.parametrize("scheme", ["1,-1,nan", "inf,-1,-1", "1,-inf,-1", "1,-1,-inf"])
def test_align_non_finite_scheme_is_one_error_line(capsys, algo, scheme):
    code, out, err = run(
        capsys, "align", "--s", "ACGT", "--v", "AC", "--algo", algo,
        f"--scheme={scheme}", "--format", "json",
    )
    assert code == 1
    assert err.startswith("error: bad --scheme: ")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "algo, scheme",
    [("sw", "1e308,-1e308,-1"), ("nw", "1,-1e308,-1e308")],
    ids=["sw-inf", "nw-minus-inf"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_align_overflowing_score_is_one_error_line(capsys, algo, scheme, fmt):
    # Every value is finite, but the optimal score's sum is not.
    code, out, err = run(
        capsys, "align", "--s", "ACGT", "--v", "AC", "--algo", algo,
        f"--scheme={scheme}", "--format", fmt,
    )
    assert code == 1
    assert err.startswith("error: ") and "overflows" in err
    assert err.count("\n") == 1
    assert out == ""


def test_verify_all_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "42", "--cases", "15")
    assert code == 0
    assert out.count("ok ") == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "nw", "--cases", "0"),
        ("--suite", "chainer", "--max-m", "-5", "--cases", "2"),
        ("--suite", "nw", "--max-n", "-1"),
        ("--suite", "matcher", "--max-m", "0"),
    ],
    ids=["cases-0", "max-m-negative", "max-n-negative", "max-m-0"],
)
def test_verify_zero_cases_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert out == ""


def test_verify_bound_help_follows_the_suite_table(monkeypatch):
    # The --max-m/--max-n help names each suite's defaults and caps as
    # verify.SUITES holds them, including a suite added to the table.
    def help_of(flag):
        verify_parser = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
        return next(a.help for a in verify_parser._actions if flag in a.option_strings)

    assert help_of("--max-m") == (
        "reference length bound (suite defaults: matcher 20, chainer 12, nw 8, sw 8; "
        "caps: matcher 100, chainer 1000, nw 8, sw 8)"
    )
    assert help_of("--max-n").startswith("fragment length bound (suite defaults: matcher 10, ")
    monkeypatch.setitem(verify.SUITES, "select", (None, 30, 9, 40))
    caps = "caps: matcher 100, chainer 1000, nw 8, sw 8, select 40)"
    assert help_of("--max-m").endswith(f"sw 8, select 30; {caps}")
    assert help_of("--max-n").endswith(f"sw 8, select 9; {caps}")


def test_verify_reports_counterexample_for_bad_build(capsys, monkeypatch):
    real = baselines.needleman_wunsch

    def broken(s, v, scheme=None):
        out = real(s, v, scheme)
        return type(out)(out.aligned_s, out.aligned_v, out.score + 1, out.match_mask)

    # The right score on rows swapped, which do not spell the inputs: the nw
    # suite checks the rows and their column score, not only the score.
    def swapped_rows(s, v, scheme=None):
        out = real(s, v, scheme)
        return type(out)(out.aligned_v, out.aligned_s, out.score, out.match_mask)

    for bad in (broken, swapped_rows):
        monkeypatch.setattr(baselines, "needleman_wunsch", bad)
        code, out, _ = run(capsys, "verify", "--suite", "nw", "--seed", "7", "--cases", "5")
        assert code == 3
        assert "FAIL nw" in out
        assert "S=" in out and "V=" in out  # reproducible counterexample

    # Right blocks, one symbol comparison too many: the matcher suite checks
    # the counters against the oracle's scan, not only the blocks.
    real_matches = matcher.enumerate_matches

    def miscounting(s, v, opts=None):
        index = real_matches(s, v, opts)
        counters = index.counters
        index.counters = replace(counters, char_comparisons=counters.char_comparisons + 1)
        return index

    def short_run(s, v, opts=None):
        index = real_matches(s, v, opts)
        index.hits[:1, 2] -= 1  # drops the first row's largest block
        return index

    # Counters right, but one row's run one short. Then every block right,
    # but listed size-major, smallest size first: a per-size set comparison
    # passes that build, the ordered comparison does not. Last, the paper's
    # claimed count off by one: the oracle checks it against its own copy of
    # the paper's loop, not against the matcher's closed form.
    real_blocks = matcher.MatchIndex.blocks
    real_claimed = matcher.claimed_formula_value
    builds = (
        (matcher, "enumerate_matches", miscounting),
        (matcher, "enumerate_matches", short_run),
        (matcher.MatchIndex, "blocks", lambda index: sorted(real_blocks(index), key=lambda b: b.length)),
        (matcher, "claimed_formula_value", lambda m, n: real_claimed(m, n) + 1),
    )
    for target, name, bad in builds:
        monkeypatch.undo()
        monkeypatch.setattr(target, name, bad)
        code, out, _ = run(capsys, "verify", "--suite", "matcher", "--seed", "7", "--cases", "5")
        assert code == 3
        assert "FAIL matcher" in out
        assert "S=" in out and "V=" in out
    monkeypatch.undo()

    # Every chain found, but the max_candidates cut keeps the worst k: the
    # chainer suite checks the capped list against the oracle's ranking.
    real_enumerate = chainer.enumerate_candidates

    def keeps_worst(index, s, v, opts=None, policy=None):
        opts = opts or chainer.ChainOptions()
        full = real_enumerate(index, s, v, replace(opts, max_candidates=10**9), policy)
        return replace(
            full,
            entries=full.entries[-opts.max_candidates :],
            truncated=len(full.entries) > opts.max_candidates,
        )

    # Then a fallback that reads every extension list's coverage as 0, so it
    # keeps the partial chains of every coverage, not only of the best: the
    # chainer suite checks no-cover pairs against the oracle's fallback.
    for target, name, bad in (
        (chainer, "enumerate_candidates", keeps_worst),
        (chainer, "_cover", lambda entry: 0),
    ):
        monkeypatch.undo()
        monkeypatch.setattr(target, name, bad)
        code, out, _ = run(capsys, "verify", "--suite", "chainer", "--seed", "7", "--cases", "20")
        assert code == 3
        assert "FAIL chainer" in out
        assert "S=" in out and "V=" in out


def test_verify_chainer_past_the_oracle_limit_fails_before_searching(capsys, monkeypatch):
    # Seed 0, case 0 draws m 865, n 198: 169,761 blocks. The oracle refuses
    # them at once, before the uncapped search, which has no size bound.
    def unreachable(*args, **kwargs):
        raise AssertionError("the uncapped search ran before the oracle")

    monkeypatch.setattr(chainer, "enumerate_candidates", unreachable)
    code, out, err = run(
        capsys, "verify", "--suite", "chainer", "--max-m", "1000", "--max-n", "400",
        "--cases", "3",
    )
    assert code == 1
    assert err.splitlines() == [
        f"error: 169761 blocks exceed the exhaustive-chain limit of {oracle.MAX_CHAIN_BLOCKS}"
    ]
    # The suite caps both bounds at 1000, so a far larger --max-m draws the same case.
    huge = run(capsys, "verify", "--suite", "chainer", "--max-m", "99999999999", "--max-n", "400",
               "--cases", "3")
    assert huge == (code, out, err)


def test_bench_small_run(capsys):
    code, out, _ = run(
        capsys, "bench", "--m-range", "64,128,256", "--n-range", "8", "--seed", "3",
    )
    assert code == 0
    assert "slope vs m" in out
    assert "advertised O(mn) slope" in out


def test_bench_geometric_range(capsys):
    code, out, _ = run(capsys, "bench", "--m-range", "64", "--n-range", "4:16:x2",
                       "--seed", "3")
    assert code == 0
    assert "slope vs n" in out


def test_bench_degenerate_ranges(capsys):
    code, _, err = run(capsys, "bench", "--m-range", "", "--n-range", "8")
    assert code == 1
    code, _, err = run(capsys, "bench", "--m-range", "8", "--n-range", "64")
    assert code == 1 and "fragment" in err
    code, _, err = run(capsys, "bench", "--m-range", "64:8:x2", "--n-range", "4")
    assert code == 1
    code, out, err = run(capsys, "bench", "--m-range", "1:10:xinf", "--n-range", "1")
    assert code == 1 and err.startswith("error: ") and "finite" in err
    assert err.count("\n") == 1 and out == ""
    # A factor barely above 1 would step about 2e10 times; a bound past the
    # float range overflows the stepping.
    for spec in ("1:1000000000:x1.000000001", f"1:{10 ** 400}:x1e200"):
        code, out, err = run(capsys, "bench", "--m-range", spec, "--n-range", "1")
        assert code == 1 and err.startswith("error: ") and "bad size range" in err
        assert err.count("\n") == 1 and out == ""


def test_bench_empty_alphabet_is_one_error_line(capsys):
    code, out, err = run(capsys, "bench", "--alphabet=", "--m-range", "8", "--n-range", "4")
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert out == ""
