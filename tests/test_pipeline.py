"""`seqalign.align` is the report `seqalign align` writes, and every layer call stays traceable."""

import pytest

from perfbench import tracer, workloads
from seqalign import ChainOptions, MatchOptions, ScoringScheme, Sequence, align, emit_report
from seqalign.cli import main
from conftest import S_DNA, S_NO_COVER, V_DNA, V_NO_COVER

_CHAIN_RANDOM = workloads.make("chain-random", 1)
_PAIR = _CHAIN_RANDOM.pairs[0]

# (s, v, align flags, the same options as keyword arguments of `align`)
CASES = (
    pytest.param(S_DNA, V_DNA, ("--select", "mean"), {}, id="dna-mean"),
    pytest.param(S_DNA, V_DNA, ("--select", "variance"), {"policy": "variance_only"},
                 id="dna-variance"),
    pytest.param(S_DNA, V_DNA, ("--select", "mean-only"), {"policy": "mean_only"},
                 id="dna-mean-only"),
    pytest.param(S_NO_COVER, V_NO_COVER, (), {}, id="no-cover"),
    pytest.param(S_NO_COVER, V_NO_COVER, ("--partial",), {"require_full_coverage": False},
                 id="no-cover-partial"),
    pytest.param(V_DNA, S_DNA, ("--swap", "--max-candidates", "7"),
                 {"swap": True, "chain_opts": ChainOptions(max_candidates=7)}, id="swap"),
    pytest.param(S_DNA, V_DNA, ("--algo", "nw"), {"algo": "nw"}, id="nw"),
    pytest.param(S_DNA, V_DNA, ("--algo", "sw", "--scheme=2,-3,-1"),
                 {"algo": "sw", "scheme": ScoringScheme(2.0, -3.0, -1.0)}, id="sw-skewed"),
    pytest.param(
        _PAIR.s, _PAIR.v, _CHAIN_RANDOM.flags(),
        {"match_opts": MatchOptions(min_window=_CHAIN_RANDOM.min_window),
         "chain_opts": ChainOptions(max_candidates=1024, beam_width=_CHAIN_RANDOM.beam)},
        id="chain-random-seed-1-pair-0",
    ),
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("s, v, flags, kwargs", CASES)
def test_align_returns_the_report_the_cli_writes(capsys, s, v, flags, kwargs, fmt):
    code = main(["align", "--s", s, "--v", v, *flags, "--format", fmt])
    out = capsys.readouterr().out
    report = align(Sequence("s", s), Sequence("v", v), **kwargs)
    assert emit_report(report, fmt) == out
    assert code == (0 if report.full_coverage or "--partial" in flags else 2)


def test_align_rejects_an_unknown_algo():
    with pytest.raises(ValueError, match="unknown algo"):
        align(Sequence("s", S_DNA), Sequence("v", V_DNA), algo="blast")


def test_every_layer_call_on_the_align_path_is_traced(tmp_path, capsys):
    # The pipeline calls each layer through its module attribute; a name
    # imported from a layer module would escape the tracer's wrapper.
    paths = []
    for name, residues in (("s", S_DNA), ("v", V_DNA)):
        paths.append(tmp_path / f"{name}.fa")
        paths[-1].write_text(f">{name}\n{residues}\n")
    spans = tracer.Tracer()
    with tracer.installed(spans), spans.traced(0):
        assert main(["align", *map(str, paths)]) == 0
    capsys.readouterr()
    recorded = {spans.names[i] for i in spans.name_id}
    assert recorded == set(tracer.LAYER_FUNCTIONS) - {"gapstats.select"}
