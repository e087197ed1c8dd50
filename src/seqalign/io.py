"""Sequence ingestion, dash-format alignment parsing, and report output.

Supports standard FASTA plus a plain-text mode (one raw sequence per file)
for letter-string inputs that are not DNA. Reports serialize either as the
three-line text display with a statistics table, or as a versioned JSON
document; JSON carries full-precision numbers while text rounds statistics
to three decimals.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Optional

from . import chainer
from .baselines import ScoredAlignment
from .core import (
    Alphabet,
    AlignmentReport,
    CandidateAlignment,
    ComparisonCounters,
    EmptyInputError,
    GapStatistics,
    MatchBlock,
    ParseError,
    SeqalignError,
    Sequence,
    UPPERCASE,
    validate_chain,
)

SCHEMA_VERSION = 1

_WS = " \t\r"
_DROP_WS = str.maketrans("", "", _WS)


def _clean_line(raw: str, line_no: int, alphabet: Alphabet) -> str:
    """Uppercase one sequence line symbol by symbol, dropping whitespace; error at its column."""
    out = []
    for col, ch in enumerate(raw, start=1):
        if ch in _WS:
            continue
        up = ch.upper()
        if up not in alphabet.symbols:
            raise ParseError(
                f"symbol {ch!r} not in alphabet {alphabet.name!r}", line=line_no, column=col
            )
        out.append(up)
    return "".join(out)


def _clean_body(lines: list, alphabet: Alphabet) -> str:
    """One record's (line number, raw line) pairs, uppercased and joined without whitespace.

    The whole body is checked at once: one translate drops the whitespace,
    one upper folds the case, and a second translate, which deletes every
    symbol of the alphabet, must leave nothing. Upper-casing a whole ASCII
    string maps each symbol to one symbol, as _clean_line does; outside
    ASCII it may not ("ß" becomes "SS"). Only a body that fails is scanned
    line by line, which names the line and column of the first bad symbol.
    """
    body = "".join(raw for _, raw in lines)
    cleaned = body.translate(_DROP_WS).upper()
    if body.isascii() and not cleaned.translate(dict.fromkeys(map(ord, alphabet.symbols))):
        return cleaned
    return "".join(_clean_line(raw, line_no, alphabet) for line_no, raw in lines)


def parse_fasta(stream, alphabet: Alphabet = UPPERCASE) -> list:
    """Parse FASTA records into validated sequences.

    Sequence lines are concatenated with whitespace stripped and symbols
    uppercased. Duplicate ids get a deterministic numeric suffix and a
    warning.
    """
    text = stream if isinstance(stream, str) else stream.read()
    records: list = []
    header: Optional[str] = None
    body: list = []  # (line number, raw line) of the current record
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                records.append((header, _clean_body(body, alphabet)))
            header = line[1:].strip() or f"seq{len(records) + 1}"
            body = []
        else:
            if header is None:
                raise ParseError("sequence data before the first '>' header", line=line_no)
            body.append((line_no, raw))
    if header is not None:
        records.append((header, _clean_body(body, alphabet)))
    if not records:
        raise EmptyInputError("no FASTA records found")

    seen: dict = {}
    out = []
    for rid, residues in records:
        seen[rid] = seen.get(rid, 0) + 1
        if seen[rid] > 1:
            new_id = f"{rid}.{seen[rid]}"
            warnings.warn(f"duplicate sequence id {rid!r} renamed to {new_id!r}")
            rid = new_id
        out.append(Sequence(id=rid, residues=residues))
    return out


def emit_fasta(seqs, width: int = 60) -> str:
    lines = []
    for seq in seqs:
        lines.append(f">{seq.id}")
        for i in range(0, len(seq.residues), width):
            lines.append(seq.residues[i : i + width])
        if not seq.residues:
            lines.append("")
    return "\n".join(lines) + "\n"


def parse_plain(text: str, id: str = "seq", alphabet: Alphabet = UPPERCASE) -> Sequence:
    """One raw sequence: all whitespace dropped, symbols uppercased and validated."""
    residues = _clean_body(list(enumerate(text.splitlines(), start=1)), alphabet)
    if not residues:
        raise EmptyInputError("no sequence symbols in plain-text input")
    return Sequence(id=id, residues=residues)


def load_sequences(path, alphabet: Alphabet = UPPERCASE) -> list:
    """Read a FASTA or plain-text sequence file (FASTA when it starts with '>')."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except OSError as exc:
        raise SeqalignError(f"cannot read {path}: {exc.strerror}") from None
    stripped = text.lstrip()
    if stripped.startswith(">"):
        return parse_fasta(text, alphabet)
    name = str(path).rsplit("/", 1)[-1]
    return [parse_plain(text, id=name, alphabet=alphabet)]


def parse_rendered(block, s: Sequence, v: Sequence) -> CandidateAlignment:
    """Recover the canonical chain from a three-line dash-format display.

    Line 3 may omit trailing dashes (they are padded back to length m);
    every non-dash symbol must be the next fragment symbol in order, and
    '|'-marked columns must agree with the reference.
    """
    lines = block.splitlines() if isinstance(block, str) else [str(ln) for ln in block]
    if len(lines) < 3:
        raise ParseError("expected a three-line alignment block")
    s_line, marker_line, v_line = (ln.rstrip("\n") for ln in lines[:3])
    m, n = len(s), len(v)
    if s_line and s_line != s.residues:
        raise ParseError("line 1 does not reproduce the reference sequence")
    if len(v_line) > m:
        raise ParseError(f"line 3 is longer ({len(v_line)}) than the reference ({m})")
    v_line = v_line.ljust(m, "-")
    marker_line = marker_line.ljust(m)
    # A blank marker line means markers were omitted; infer a match wherever
    # the placed symbol agrees with the reference.
    has_markers = "|" in marker_line

    blocks: list = []
    k = 0  # next fragment symbol to account for
    for c in range(m):
        ch = v_line[c]
        marked = marker_line[c] == "|" if has_markers else ch != "-" and ch == s.residues[c]
        if ch == "-":
            if marked:
                raise ParseError("match marker over a gap", column=c + 1)
            continue
        if k >= n or ch != v.residues[k]:
            raise ParseError(
                f"symbol {ch!r} is not the next fragment symbol", column=c + 1
            )
        if marked:
            if ch != s.residues[c]:
                raise ParseError(
                    f"marked symbol {ch!r} disagrees with the reference", column=c + 1
                )
            last = blocks[-1] if blocks else None
            if last is not None and last.s_end == c and last.v_end == k:
                blocks[-1] = MatchBlock(last.v_start, last.s_start, last.length + 1)
            else:
                blocks.append(MatchBlock(k, c, 1))
        k += 1
    if k != n:
        raise ParseError(f"only {k} of {n} fragment symbols appear in line 3")
    if not blocks:
        raise ParseError("alignment contains no matched positions")
    # A block grows while it stays contiguous in both sequences, so the
    # chain comes out canonical.
    chain = CandidateAlignment(blocks=tuple(blocks))
    validate_chain(chain, s, v)
    return chain


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _json_float(x) -> str:
    """A float as json.dumps writes it; NaN and the infinities raise the
    ValueError that allow_nan=False raises."""
    if type(x) is not float:
        return json.dumps(x, allow_nan=False)
    if -math.inf < x < math.inf:  # false for NaN too
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


# A candidate's arrays sit at indent 6 and their items at indent 8; the
# candidates array sits at indent 2 and its items at indent 4.
_ITEM8, _SEP8, _END6 = "\n        ", ",\n        ", "\n      "
_ITEM4, _SEP4, _END2 = "\n    ", ",\n    ", "\n  "


class _BlockTexts(dict):
    """Each distinct block's JSON text at indent 8, encoded on first use.

    The kept chains share their blocks, so a report holds far fewer distinct
    blocks than block references.
    """

    def __missing__(self, b: MatchBlock) -> str:
        text = self[b] = (
            f"[\n          {b.v_start},\n          {b.s_start},\n          {b.length}\n        ]"
        )
        return text


def _candidates_json(report: AlignmentReport) -> str:
    """The candidates array, as it sits at indent 2 in the report document.

    Byte for byte what json.dumps(..., indent=2, allow_nan=False) writes,
    without that call's pure-Python encoder. The three rendered lines are
    written inside plain quotes, not encoded: a Sequence admits only A-Z, and
    render adds only '-', ' ' and '|', none of which JSON escapes. Each
    distinct block is encoded once per report, each array is one join, and
    each candidate is one f-string. The chains are rendered from one dict of
    pieces per report (see chainer.render).
    """
    s, v = report.s, report.v
    s_line = s.residues
    block_text = _BlockTexts()
    pieces: dict = {}  # render's pieces, shared by the report's chains
    out = []
    for chain, stats in report.entries:
        rendered = chainer.render(chain, s, v, pieces)
        blocks = _SEP8.join(map(block_text.__getitem__, chain.blocks))
        runs = _SEP8.join(map(str, stats.runs))
        subs = _SEP8.join(map(str, rendered.substitutions))
        out.append(
            "{\n"
            f'      "blocks": [{_ITEM8}{blocks}{_END6}],\n'
            f'      "coverage": {chain.coverage},\n'
            f'      "runs": {f"[{_ITEM8}{runs}{_END6}]" if runs else "[]"},\n'
            f'      "mean": {_json_float(stats.mean)},\n'
            f'      "variance": {_json_float(stats.variance)},\n'
            f'      "rendered": [{_ITEM8}"{s_line}",{_ITEM8}"{rendered.marker_line}",'
            f'{_ITEM8}"{rendered.v_line}"{_END6}],\n'
            f'      "substitutions": {f"[{_ITEM8}{subs}{_END6}]" if subs else "[]"}\n'
            "    }"
        )
    return f"[{_ITEM4}{_SEP4.join(out)}{_END2}]" if out else "[]"


def emit_report(report: AlignmentReport, format: str = "text") -> str:
    if format == "json":
        return _emit_json(report)
    if format == "text":
        return _emit_text(report)
    raise ValueError(f"unknown report format {format!r}")


def _emit_json(report: AlignmentReport) -> str:
    candidates = _candidates_json(report)
    head = {
        "schema_version": SCHEMA_VERSION,
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
    }
    scored = None
    if report.scored is not None:
        scored = {
            "aligned_s": report.scored.aligned_s,
            "aligned_v": report.scored.aligned_v,
            "score": report.scored.score,
            "match_mask": list(report.scored.match_mask),
        }
    # The head ends in "\n}"; the last two members are spliced in before it.
    # Newlines occur in dumped JSON only between tokens, so indenting the
    # nested value is a replace.
    head_text = json.dumps(head, indent=2, allow_nan=False)[:-2]
    scored_text = json.dumps(scored, indent=2, allow_nan=False).replace("\n", "\n  ")
    return f'{head_text},\n  "candidates": {candidates},\n  "scored": {scored_text}\n}}\n'


def _emit_text(report: AlignmentReport) -> str:
    lines = [
        f"algorithm: {report.algorithm}",
        f"s: {report.s.id}  m={len(report.s)}",
        f"v: {report.v.id}  n={len(report.v)}",
    ]
    if report.swapped:
        lines.append("note: operands swapped; gap runs mark insertions relative to the original reference")
    if report.algorithm == "proposed":
        lines.append(f"policy: {report.policy}")
        coverage = "full" if report.full_coverage else "partial"
        lines.append(
            f"coverage: {coverage}  candidates: {len(report.entries)}"
            + ("  (truncated)" if report.truncated else "")
        )
        c = report.counters
        lines.append(
            "counters: "
            f"substring_comparisons={c.substring_comparisons} "
            f"char_comparisons={c.char_comparisons} "
            f"claimed_comparisons={c.claimed_comparisons}"
        )
        if not report.entries:
            lines.append("no alignment: the sequences share no admissible match blocks")
        pieces: dict = {}  # render's pieces, shared by the report's chains
        for i, (chain, stats) in enumerate(report.entries):
            mark = " *" if i == report.selected else ""
            runs = ",".join(str(r) for r in stats.runs) or "none"
            lines.append("")
            lines.append(
                f"#{i + 1}{mark} gap mean/variance: {_fmt(stats.mean)} {_fmt(stats.variance)}"
                f"  runs: {runs}  coverage: {chain.coverage}/{len(report.v)}"
            )
            lines.append(chainer.render(chain, report.s, report.v, pieces).text())
    else:
        lines.append(f"score: {report.scored.score:g}")
        mask = "".join("|" if hit else " " for hit in report.scored.match_mask)
        lines.append(report.scored.aligned_s)
        lines.append(mask)
        lines.append(report.scored.aligned_v)
    return "\n".join(lines) + "\n"


def report_from_json(text: str) -> AlignmentReport:
    """Rebuild an AlignmentReport from its JSON form (schema version 1).

    The text comes from outside the program: a document that is not JSON,
    or not schema v1 in any field, ends in ParseError.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"report is not JSON: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported report schema_version {version!r}")
    try:
        entries = []
        for cand in doc["candidates"]:
            chain = CandidateAlignment(blocks=tuple(MatchBlock(*b) for b in cand["blocks"]))
            stats = GapStatistics(
                runs=tuple(cand["runs"]), mean=cand["mean"], variance=cand["variance"]
            )
            entries.append((chain, stats))
        scored = None
        if doc["scored"] is not None:
            sc = doc["scored"]
            scored = ScoredAlignment(
                aligned_s=sc["aligned_s"],
                aligned_v=sc["aligned_v"],
                score=sc["score"],
                match_mask=tuple(sc["match_mask"]),
            )
        counters = doc["counters"]
        return AlignmentReport(
            algorithm=doc["algorithm"],
            s=Sequence(**doc["s"]),
            v=Sequence(**doc["v"]),
            entries=tuple(entries),
            scored=scored,
            selected=doc["selected"],
            policy=doc["policy"],
            counters=ComparisonCounters(
                substring_comparisons=counters["substring_comparisons"],
                char_comparisons=counters["char_comparisons"],
                claimed_comparisons=counters["claimed_comparisons"],
            ),
            swapped=doc["swapped"],
            full_coverage=doc["full_coverage"],
            truncated=doc["truncated"],
            options=doc["options"],
        )
    except (SeqalignError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"malformed schema-v1 report: {type(exc).__name__}: {exc}") from exc
