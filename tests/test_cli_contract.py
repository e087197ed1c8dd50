"""Property test of the CLI contract: every `align` input ends in a report or
in exactly one `error: ` line, every JSON report is valid JSON that
round-trips through `io.report_from_json`, and a `proposed` report selects
its first candidate.
"""

import contextlib
import json
import os
import tempfile
from io import StringIO

from hypothesis import example, given, settings, strategies as st

from seqalign import io
from seqalign.cli import main

# Lowercase symbols are uppercased and blanks dropped; "1" and "*" are not
# symbols, and a blank-only literal is empty input.
def _residues(max_size):
    return st.one_of(
        *[st.text(symbols, min_size=1, max_size=max_size) for symbols in ("A", "AC", "ACGT")],
        st.text("ACgt 1*", max_size=max_size),
    )


# Valid schemes, some of whose scores overflow a float once summed.
SCHEMES = st.tuples(
    st.sampled_from(("1", "2", "0.5", "1e200", "1e308")),
    st.sampled_from(("-1", "-3", "-0.3", "0", "-1e308")),
    st.sampled_from(("-1", "-0.3", "0", "-1e200", "-1e308")),
).map(",".join)
# "n" stands for the fragment length.
EDGES = (None, "-1", "0", "1", "n", "n+5")
ALGOS = ("proposed", "nw", "sw")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _edge(value, n):
    return {"n": str(n), "n+5": str(n + 5)}.get(value, value)


def _inputs(s, v, as_files, tmp):
    if not as_files:
        return [f"--s={s}", f"--v={v}"]
    paths = []
    for name, residues in (("s.fa", s), ("v.txt", v)):
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(f">{name}\n{residues}\n" if name.endswith(".fa") else residues)
        paths.append(path)
    return paths


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    s=_residues(16),
    v=_residues(8),
    as_files=st.booleans(),
    algo=st.sampled_from(ALGOS),
    select=st.sampled_from(("mean", "variance", "mean-only")),
    scheme=SCHEMES,
    window=st.sampled_from(EDGES),
    beam=st.sampled_from(EDGES),
    cap=st.sampled_from(EDGES),
    swap=st.booleans(),
    partial=st.booleans(),
    fmt=st.sampled_from(("text", "json")),
)
# Scores that overflow a float once summed.
@example(s="ACGT", v="AC", as_files=False, algo="sw", select="mean", scheme="1e308,-1e308,-1",
         window=None, beam=None, cap=None, swap=False, partial=False, fmt="json")
@example(s="ACGT", v="AC", as_files=False, algo="nw", select="mean", scheme="1,-1e308,-1e308",
         window=None, beam=None, cap=None, swap=False, partial=False, fmt="json")
# A fractional gap whose border cell gap * i differs from the rounded running sum.
@example(s="CCCAAACACACACA", v="CC", as_files=False, algo="nw", select="mean", scheme="0.3,-1,-0.3",
         window=None, beam=None, cap=None, swap=False, partial=False, fmt="text")
# Two chains with variance 14/25 whose float variances order them the other
# way round from their means; the winner is entry 0 all the same.
@example(s="GCAAGCGTTGCGGCAATGCTCTGAACTGCTCCCCCG", v="CAGATATCCT", as_files=False,
         algo="proposed", select="variance", scheme="1,-1,-1", window=None, beam=None,
         cap=None, swap=False, partial=False, fmt="json")
def test_align_ends_in_a_report_or_one_error_line(
    s, v, as_files, algo, select, scheme, window, beam, cap, swap, partial, fmt
):
    n = len(v)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["align", *_inputs(s, v, as_files, tmp), "--algo", algo, "--select", select,
                f"--scheme={scheme}", "--format", fmt]
        for flag, value in (("--min-window", window), ("--beam", beam), ("--max-candidates", cap)):
            if value is not None:
                argv.append(f"{flag}={_edge(value, n)}")
        argv += ["--swap"] * swap + ["--partial"] * partial
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2), argv
    if code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return
    assert err == "", argv
    if fmt == "json":
        doc = json.loads(out, parse_constant=_reject_constant)
        assert io.emit_report(io.report_from_json(out), "json") == out, argv
        if algo == "proposed":
            assert doc["selected"] == 0, argv  # the candidates come in policy order
