"""Span tracing of `seqalign align` from outside the program.

`installed` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent, alignment id) per
call while an alignment is being traced, and restores them afterwards.
Spans live in typed arrays so that hundreds of thousands of them stay
small; a layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from array import array
from collections import defaultdict

# "module.function" of seqalign, also the span name. The program calls each
# of these through its module attribute, so replacing the attribute puts a
# span around every call on the `align` path.
LAYER_FUNCTIONS = (
    "io.load_sequences",
    "io.emit_report",
    "matcher.enumerate_matches",
    "chainer.enumerate_candidates",
    "chainer.render",
    "gapstats.chain_statistics",
    "gapstats.select",
)
ROOT = "cli.main"


class Tracer:
    """Records spans of the alignment currently set by `traced(aid)`."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.aid = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._alignment = -1  # -1: not recording
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # aid -> count name -> sum

    def wrap(self, name: str, fn, count=None):
        """Traced version of fn; `count(result)` gives {count name: value} to add up per alignment."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced_call(*args, **kwargs):
            aid = self._alignment
            if aid < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.aid.append(aid)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                totals = self.counts[aid]
                for key, value in count(result).items():
                    totals[key] += value
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    @contextlib.contextmanager
    def traced(self, aid: int):
        """Record spans of the calls made inside the block under alignment `aid`."""
        self._alignment = aid
        try:
            yield
        finally:
            self._alignment = -1
            self._stack.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict:
        """{(aid, name): (self seconds, calls)} summed over each alignment's spans."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict = defaultdict(lambda: [0.0, 0])
        for i, nid in enumerate(self.name_id):
            entry = totals[(self.aid[i], self.names[nid])]
            entry[0] += self.end[i] - self.start[i] - child[i]
            entry[1] += 1
        return {key: tuple(value) for key, value in totals.items()}

    def nesting(self) -> set:
        """(child name, parent name) pairs observed; the root's parent is None."""
        return {
            (self.names[self.name_id[i]], self.names[self.name_id[p]] if p >= 0 else None)
            for i, p in enumerate(self.parent)
        }

    def write_tsv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tname\talignment\tparent\tstart\tend\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{self.aid[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer, counts=None):
    """Replace each LAYER_FUNCTIONS entry with its traced wrapper for the block's duration.

    `counts` maps a span name to a function reading counts off that call's
    return value (see Tracer.wrap).
    """
    counts = counts or {}
    originals = []
    try:
        for name in LAYER_FUNCTIONS:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"seqalign.{module_name}")
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, counts.get(name)))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
