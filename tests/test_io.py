import json
import math
import random
import string
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from seqalign import (
    AlignmentReport,
    ChainOptions,
    ComparisonCounters,
    DNA,
    EmptyInputError,
    GapStatistics,
    MatchBlock,
    ParseError,
    ScoringScheme,
    SelectionPolicy,
    Sequence,
    align,
    chain_statistics,
    emit_fasta,
    emit_report,
    enumerate_candidates,
    enumerate_matches,
    needleman_wunsch,
    parse_fasta,
    parse_plain,
    parse_rendered,
    render,
    report_from_json,
    smith_waterman,
)
from perfbench import workloads
from seqalign import chainer
from seqalign.core import UPPERCASE, CandidateAlignment
from seqalign.gapstats import MODES
from seqalign.io import _clean_body, _clean_line
from seqalign.matcher import MatchOptions
from seqalign.oracle import canonicalize
from conftest import KNOWN_PLACEMENTS, S_DNA, chain_of


def test_parse_fasta_two_records():
    seqs = parse_fasta(">a\nACGT\n>b\nTT\n")
    assert [(q.id, q.residues) for q in seqs] == [("a", "ACGT"), ("b", "TT")]


def test_parse_fasta_folds_case_and_strips_whitespace():
    (seq,) = parse_fasta(">a\nac gt\n")
    assert seq.residues == "ACGT"


def test_parse_fasta_multiline_record():
    (seq,) = parse_fasta(">a\nACG\nT\nTT\n")
    assert seq.residues == "ACGTTT"


def test_parse_fasta_dna_alphabet_violation_names_position():
    with pytest.raises(ParseError) as exc:
        parse_fasta(">a\nACGU\n", alphabet=DNA)
    assert exc.value.line == 2
    assert exc.value.column == 4


def test_parse_fasta_duplicate_ids_warn_and_rename():
    with pytest.warns(UserWarning, match="duplicate"):
        seqs = parse_fasta(">a\nAC\n>a\nGT\n>a\nTT\n")
    assert [q.id for q in seqs] == ["a", "a.2", "a.3"]


def test_parse_fasta_empty_and_headerless():
    with pytest.raises(EmptyInputError):
        parse_fasta("\n\n")
    with pytest.raises(ParseError):
        parse_fasta("ACGT\n>a\nAC\n")


def test_fasta_round_trip_is_stable():
    text = ">a\nacg t\n>b\nTTTTTTTTTT\n"
    once = parse_fasta(text)
    again = parse_fasta(emit_fasta(once))
    assert once == again
    assert emit_fasta(once) == emit_fasta(again)


def test_parse_plain():
    seq = parse_plain("ac\ngt\n", id="raw")
    assert (seq.id, seq.residues) == ("raw", "ACGT")
    with pytest.raises(EmptyInputError):
        parse_plain("  \n")


def test_load_sequences_detects_format(tmp_path):
    from seqalign.io import load_sequences

    fasta = tmp_path / "in.fa"
    fasta.write_text(">z\nACGT\n")
    assert load_sequences(fasta)[0].id == "z"
    plain = tmp_path / "raw.txt"
    plain.write_text("acgt\n")
    (seq,) = load_sequences(plain)
    assert seq.residues == "ACGT"
    assert seq.id == "raw.txt"


def test_parse_rendered_identity_block():
    s = v = Sequence("x", "ABC")
    chain = parse_rendered("ABC\n|||\nABC", s, v)
    assert chain.blocks == (MatchBlock(0, 0, 3),)


def test_parse_rendered_without_markers_infers_matches():
    s, v = Sequence("s", "AXB"), Sequence("v", "AB")
    chain = parse_rendered(("AXB", "", "A-B"), s, v)
    assert chain.blocks == (MatchBlock(0, 0, 1), MatchBlock(1, 2, 1))


def test_parse_rendered_pads_omitted_trailing_gaps(dna_pair):
    s, v = dna_pair
    chain = parse_rendered((S_DNA, "", "--T---ACTAG--------G---AG"), s, v)
    assert chain.blocks == chain_of(KNOWN_PLACEMENTS[0]).blocks


def test_parse_rendered_errors_name_the_column():
    s, v = Sequence("s", "AXB"), Sequence("v", "AB")
    with pytest.raises(ParseError):
        parse_rendered(("AXB", "", "A-BC"), s, v)  # longer than the reference
    with pytest.raises(ParseError) as exc:
        parse_rendered(("AXB", "", "B-A"), s, v)  # fragment symbols out of order
    assert exc.value.column == 1
    with pytest.raises(ParseError) as exc:
        parse_rendered(("AXB", " | ", "AB-"), s, v)  # marked symbol disagrees with S
    assert exc.value.column == 2
    with pytest.raises(ParseError):
        parse_rendered(("AXB", "|||", "A-B"), s, v)  # marker over a gap
    with pytest.raises(ParseError):
        parse_rendered(("AXB", "", "A--"), s, v)  # fragment symbol missing
    with pytest.raises(ParseError):
        parse_rendered("AXB\nA-B", s, v)  # not a three-line block
    with pytest.raises(ParseError, match="line 1"):
        parse_rendered(("AXC", "", "A-B"), s, v)  # line 1 is not the reference
    with pytest.raises(ParseError, match="no matched positions"):
        parse_rendered(("AXB", "", "BA-"), s, Sequence("v", "BA"))  # no column matches


def test_render_parse_round_trip_random_chains():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(2, 30)
        s_res = "".join(rng.choice("ACGT") for _ in range(m))
        blocks, v_parts = [], []
        pos, v_pos = 0, 0
        for _ in range(rng.randint(1, 4)):
            if pos >= m:
                break
            start = pos + rng.randint(0, min(3, m - pos - 1))
            length = rng.randint(1, m - start)
            blocks.append(MatchBlock(v_pos, start, length))
            v_parts.append(s_res[start : start + length])
            v_pos += length
            pos = start + length
        s = Sequence("s", s_res)
        v = Sequence("v", "".join(v_parts))
        chain = CandidateAlignment(blocks=tuple(blocks))
        parsed = parse_rendered(render(chain, s, v).text(), s, v)
        assert parsed.blocks == canonicalize(chain).blocks


def _dna_report(dna_pair, known_chains):
    s, v = dna_pair
    entries = tuple(
        (canonicalize(c), chain_statistics(c, len(s))) for c in known_chains
    )
    return AlignmentReport(
        algorithm="proposed",
        s=s,
        v=v,
        entries=entries,
        selected=0,
        policy="variance_only",
        counters=ComparisonCounters(1320, 1755, 1155),
        options={"min_window": 1},
    )


def test_text_report_carries_three_decimal_statistics(dna_pair, known_chains):
    text = emit_report(_dna_report(dna_pair, known_chains), "text")
    for row in ("4.667 5.556", "6.333 14.889", "3.000 8.500", "4.000 9.500"):
        assert row in text
    assert text.count(S_DNA) == 4  # one rendered block per candidate
    assert "#1 *" in text


def test_text_report_marks_partial_outcome(dna_pair):
    s, v = dna_pair
    report = AlignmentReport(
        algorithm="proposed", s=s, v=v, entries=(), policy="mean_then_variance",
        full_coverage=False,
    )
    text = emit_report(report, "text")
    assert "coverage: partial" in text
    assert "no alignment" in text


def test_json_report_round_trip(dna_pair, known_chains):
    report = _dna_report(dna_pair, known_chains)
    blob = emit_report(report, "json")
    doc = json.loads(blob)
    assert doc["schema_version"] == 1
    assert doc["counters"]["substring_comparisons"] == 1320
    assert [tuple(map(tuple, c["blocks"])) for c in doc["candidates"]] == [
        tuple(coords) for coords in KNOWN_PLACEMENTS
    ]
    back = report_from_json(blob)
    assert back == report
    assert emit_report(back, "json") == blob


def test_json_report_round_trip_for_dp_baseline():
    s, v = Sequence("s", "AC"), Sequence("v", "C")
    report = AlignmentReport(
        algorithm="nw",
        s=s,
        v=v,
        scored=needleman_wunsch(s, v, ScoringScheme(1, -1, -1)),
        counters=ComparisonCounters(char_comparisons=2),
        options={"scheme": [1, -1, -1]},
    )
    blob = emit_report(report, "json")
    assert json.loads(blob)["scored"]["score"] == 0
    assert report_from_json(blob) == report


def test_unknown_schema_version_rejected(dna_pair, known_chains):
    blob = emit_report(_dna_report(dna_pair, known_chains), "json")
    doc = json.loads(blob)
    doc["schema_version"] = 99
    with pytest.raises(ParseError):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "make",
    [
        lambda doc: '{"schema_version": 1}',
        lambda doc: "[]",
        lambda doc: json.dumps(
            {**doc, "candidates": [{**doc["candidates"][0], "blocks": [[0, 1]]}]}
        ),
        lambda doc: json.dumps({**doc, "candidates": [7]}),
        lambda doc: '{"schema_version": 1, ',
        lambda doc: json.dumps({**doc, "algorithm": "blast"}),
        lambda doc: json.dumps({**doc, "selected": len(doc["candidates"])}),
    ],
    ids=["no-fields", "not-an-object", "two-element-block", "candidate-not-an-object",
         "not-json", "unknown-algorithm", "selected-out-of-range"],
)
def test_malformed_report_raises_parse_error(dna_pair, known_chains, make):
    doc = json.loads(emit_report(_dna_report(dna_pair, known_chains), "json"))
    with pytest.raises(ParseError):
        report_from_json(make(doc))


def test_unknown_format_rejected(dna_pair, known_chains):
    with pytest.raises(ValueError):
        emit_report(_dna_report(dna_pair, known_chains), "yaml")


def _clean_line_by_symbol(raw, line_no, alphabet):
    """The symbol-by-symbol scan that _clean_line must agree with."""
    out = []
    for col, ch in enumerate(raw, start=1):
        if ch in " \t\r":
            continue
        up = ch.upper()
        if up not in alphabet.symbols:
            raise ParseError(
                f"symbol {ch!r} not in alphabet {alphabet.name!r}", line=line_no, column=col
            )
        out.append(up)
    return "".join(out)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=st.sampled_from("acgtACGTxyzXYZ \t\r\x0b-*1ßıſ\u212a"), max_size=30),
    st.integers(1, 9),
    st.sampled_from([UPPERCASE, DNA]),
)
def test_clean_line_agrees_with_symbol_scan(raw, line_no, alphabet):
    assert _outcome(_clean_line, raw, line_no, alphabet) == _outcome(
        _clean_line_by_symbol, raw, line_no, alphabet
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet=st.sampled_from("acgtACGTxX \t\r-ıß"), max_size=12), max_size=6),
    st.sampled_from([UPPERCASE, DNA]),
)
def test_clean_body_agrees_with_the_line_scan(raws, alphabet):
    # The one-pass body check against _clean_line on each line in turn: the
    # same residues, or the same error at the same line and column.
    lines = list(enumerate(raws, start=3))
    want = _outcome(lambda: "".join(_clean_line(raw, no, alphabet) for no, raw in lines))
    assert _outcome(_clean_body, lines, alphabet) == want


def test_bad_symbol_deep_in_a_long_record_names_its_line_and_column():
    lines = [">long"] + ["ACGT" * 15] * 130
    lines[119] = "ACGTACGTACGTAC" + "N" + "GT" * 22  # line 120 of the file
    with pytest.raises(ParseError) as exc:
        parse_fasta("\n".join(lines) + "\n", alphabet=DNA)
    assert (exc.value.line, exc.value.column) == (120, 15)
    with pytest.raises(ParseError) as exc:
        parse_plain("\n".join(lines[1:]), alphabet=DNA)
    assert (exc.value.line, exc.value.column) == (119, 15)


def _reference_json(report):
    """The report as json.dumps writes it: the oracle of the schema writer."""
    candidates = []
    for chain, stats in report.entries:
        rendered = render(chain, report.s, report.v)
        candidates.append(
            {
                "blocks": [[b.v_start, b.s_start, b.length] for b in chain.blocks],
                "coverage": chain.coverage,
                "runs": list(stats.runs),
                "mean": stats.mean,
                "variance": stats.variance,
                "rendered": [rendered.s_line, rendered.marker_line, rendered.v_line],
                "substitutions": list(rendered.substitutions),
            }
        )
    sc = report.scored
    doc = {
        "schema_version": 1,
        "algorithm": report.algorithm,
        "s": {"id": report.s.id, "residues": report.s.residues},
        "v": {"id": report.v.id, "residues": report.v.residues},
        "swapped": report.swapped,
        "policy": report.policy,
        "options": report.options,
        "counters": {
            "substring_comparisons": report.counters.substring_comparisons,
            "char_comparisons": report.counters.char_comparisons,
            "claimed_comparisons": report.counters.claimed_comparisons,
        },
        "full_coverage": report.full_coverage,
        "truncated": report.truncated,
        "selected": report.selected,
        "candidates": candidates,
        "scored": None if sc is None else {
            "aligned_s": sc.aligned_s,
            "aligned_v": sc.aligned_v,
            "score": sc.score,
            "match_mask": list(sc.match_mask),
        },
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


ids = st.one_of(st.text(), st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té \U0001f600')))
finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(max_size=4))


@st.composite
def reports(draw):
    # A few letters per report, so the sequences share blocks; over the
    # examples every letter of A-Z appears in the quoted lines.
    alphabet = st.lists(st.sampled_from(string.ascii_uppercase), min_size=1, max_size=4, unique=True)
    letters = st.sampled_from(draw(alphabet))
    m = draw(st.integers(1, 10))
    s = Sequence(draw(ids), draw(st.text(letters, min_size=m, max_size=m)))
    n = draw(st.integers(1, min(m, 5)))
    v = Sequence(draw(ids), draw(st.text(letters, min_size=n, max_size=n)))
    common = dict(
        s=s,
        v=v,
        counters=ComparisonCounters(*draw(st.lists(st.integers(0, 10**12), min_size=3, max_size=3))),
        swapped=draw(st.booleans()),
        options=draw(st.dictionaries(st.text(max_size=4), json_values, max_size=3)),
    )
    algo = draw(st.sampled_from(["proposed", "nw", "sw"]))
    if algo != "proposed":
        scheme = ScoringScheme(draw(st.floats(0.5, 3)), draw(st.floats(-3, 0)), draw(st.floats(-3, 0)))
        align = needleman_wunsch if algo == "nw" else smith_waterman
        return AlignmentReport(algorithm=algo, scored=align(s, v, scheme), **common)
    policy = SelectionPolicy(mode=draw(st.sampled_from(MODES)))
    opts = ChainOptions(max_candidates=draw(st.integers(1, 6)))
    result = enumerate_candidates(enumerate_matches(s, v), s, v, opts, policy)
    entries = result.entries
    if draw(st.booleans()):  # statistics as any finite floats, e.g. 1.5555555555555554
        entries = tuple(
            (chain, GapStatistics(stats.runs, draw(finite), draw(finite)))
            for chain, stats in entries
        )
    return AlignmentReport(
        algorithm="proposed",
        entries=entries,
        policy=policy.mode,
        full_coverage=result.full_coverage,
        truncated=result.truncated,
        **common,
    )


@settings(max_examples=300, deadline=None)
@given(reports())
def test_json_writer_matches_json_dumps(report):
    text = emit_report(report, "json")
    assert text == _reference_json(report)
    assert emit_report(report_from_json(text), "json") == text


def test_json_writer_on_fixed_cases(dna_pair, known_chains):
    report = _dna_report(dna_pair, known_chains)
    chain, stats = report.entries[0]
    odd = GapStatistics(stats.runs, 1.5555555555555554, -0.0)
    # A partial outcome: C is absent from the reference, so the fallback
    # places it in the gap between the matched A and B as a substitution.
    s, v = Sequence("s", "AXXB"), Sequence("v", "ACB")
    result = enumerate_candidates(enumerate_matches(s, v), s, v)
    assert not result.full_coverage
    assert [render(c, s, v).substitutions for c in result.chains] == [(1,)]
    partial = replace(report, s=s, v=v, entries=result.entries, full_coverage=False)
    for case in (
        report,
        replace(report, entries=()),
        replace(report, entries=((chain, odd),)),
        replace(report, s=Sequence('q"\\\x01\u00e9', S_DNA)),
        partial,
    ):
        assert emit_report(case, "json") == _reference_json(case)
    assert '"mean": 1.5555555555555554,' in emit_report(replace(report, entries=((chain, odd),)), "json")


def _benchmark_report(name: str) -> AlignmentReport:
    """The report `seqalign align` writes for the first pair of the benchmark workload at seed 1."""
    workload = workloads.make(name, 1)
    pair = workload.pairs[0]
    return align(
        Sequence(pair.s_id, pair.s), Sequence(pair.v_id, pair.v),
        match_opts=MatchOptions(min_window=workload.min_window),
        chain_opts=ChainOptions(max_candidates=1024, beam_width=workload.beam),
    )


@pytest.mark.parametrize(
    "name, size, candidates", [("chain-random", 512, 1024), ("read-map", 8192, 3)]
)
def test_json_writer_on_benchmark_pairs(name, size, candidates):
    # Full size, from seed 1 of the benchmark: 1,024 candidates of 512
    # columns that share their blocks, and one read on an 8,192-residue
    # reference.
    report = _benchmark_report(name)
    assert (len(report.s), len(report.entries)) == (size, candidates)
    assert emit_report(report, "json") == _reference_json(report)


def test_writers_with_shared_pieces_on_a_benchmark_pair(monkeypatch):
    # Both writers share one dict of render's pieces per report. At full
    # size they write what rendering each candidate alone writes, and the
    # 1,024 chains (12,067 block references) leave a few distinct pieces,
    # not one per chain.
    report = _benchmark_report("chain-random")
    s, v = report.s, report.v
    pieces = {}
    for chain, _ in report.entries:
        render(chain, s, v, pieces)
    assert len(pieces) <= 200
    shared = {form: emit_report(report, form) for form in ("text", "json")}
    calls = []

    def alone(chain, s, v, pieces=None):
        calls.append(pieces)
        return render(chain, s, v)

    monkeypatch.setattr(chainer, "render", alone)
    for form, text in shared.items():
        assert emit_report(report, form) == text
    assert len(calls) == 2 * len(report.entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mean", "variance"])
def test_json_writer_rejects_non_finite_statistics(dna_pair, known_chains, bad, field):
    report = _dna_report(dna_pair, known_chains)
    chain, stats = report.entries[0]
    report = replace(report, entries=((chain, replace(stats, **{field: bad})),))
    with pytest.raises(ValueError) as want:
        _reference_json(report)
    with pytest.raises(ValueError) as got:
        emit_report(report, "json")
    assert str(got.value) == str(want.value)
