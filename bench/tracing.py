"""In-memory span tracer for the traced benchmark run.

A span is (name, start, end, parent, op id). Span names are
``<layer>.<call>``, where the layer is an amrsg module, so a layer's self
time is the sum of its spans' durations minus the time their child spans
cover. Aggregates are kept exactly; the span records themselves are capped
so that a long traced run cannot exhaust memory.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# Span records kept for the output file; aggregates never stop counting.
MAX_SPANS = 200_000

# The one call whose every duration is kept, for its p50 and p99.
SAMPLED = "convert.external"

# Calls amrsg makes internally that a per-layer metric needs. Each entry is
# (module whose global the caller resolves, global name, span name). Only the
# traced run wraps them, and it restores the originals afterwards.
INTERNAL_CALLS = [
    ("amrsg.linearize", "serialize_penman", "amr.serialize_penman"),
    ("amrsg.linearize", "tokenize", "linearize.tokenize"),
    ("amrsg.retrieval", "f_score", "evaluate.f_score"),
    ("amrsg.evaluate", "f_score", "evaluate.f_score"),
    ("amrsg.retrieval", "sg_from_json", "scenegraph.sg_from_json"),
    ("amrsg.corpus", "sg_from_json", "scenegraph.sg_from_json"),
    ("amrsg.retrieval", "RetrievalIndex", "retrieval.index_build"),
    ("amrsg.amr", "parse_penman", "amr.parse_penman"),
    ("amrsg.convert", "parse_sg_text", "scenegraph.parse_sg_text"),
]


class Tracer:
    """Spans and counts of one traced stretch; inert until ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self._names: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child seconds, record index]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.samples: list[float] = []  # durations of SAMPLED spans
        self.counts: dict[str, float] = {}
        self._rec_name = array("i")
        self._rec_start = array("d")
        self._rec_end = array("d")
        self._rec_parent = array("l")
        self._rec_op = array("l")
        self.dropped = 0
        self._t0 = time.perf_counter()

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        idx = self._names.setdefault(name, len(self._names))
        rec = -1
        if len(self._rec_name) < MAX_SPANS:
            rec = len(self._rec_name)
            self._rec_name.append(idx)
            self._rec_start.append(0.0)
            self._rec_end.append(0.0)
            self._rec_parent.append(self._stack[-1][3] if self._stack else -1)
            self._rec_op.append(self.op_id)
        else:
            self.dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, rec])

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, rec = self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if name == SAMPLED:
            self.samples.append(dur)
        if self._stack:
            self._stack[-1][2] += dur
        if rec >= 0:
            self._rec_start[rec] = start - self._t0
            self._rec_end[rec] = end - self._t0

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; the cheap path when
        tracing is off."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close()
        self._after(name, result)
        return result

    def _after(self, name: str, result) -> None:
        if name == "evaluate.f_score":
            # Kuhn's adjacency compares every generated tuple with every
            # reference tuple; the match yield shows how much of that
            # comparison work finds a match.
            self.count("evaluate.pairs_compared", result.g_size * result.r_size)
            self.count("evaluate.tuples_matched", len(result.matches))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # --- wrapping amrsg's internal calls -------------------------------------

    @contextmanager
    def wrap_internal_calls(self):
        """Replace the INTERNAL_CALLS globals with span-recording wrappers.

        A name missing from its module (renamed or removed by a later
        change) is skipped; its metric then reads 0 calls.
        """
        saved = []
        for module_name, attr, span_name in INTERNAL_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(span_name, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, span_name: str, fn):
        def traced(*args, **kwargs):
            return self.call(span_name, fn, *args, **kwargs)

        return traced

    # --- results -------------------------------------------------------------

    def mean_s(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_s.get(name, 0.0) / calls if calls else 0.0

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        """Write span records as tab-separated lines:
        name, start µs, end µs, parent record index, op id."""
        names = {i: n for n, i in self._names.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self._rec_name)} dropped={self.dropped}\n")
            fh.write("# name\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self._rec_name)):
                fh.write(
                    f"{names[self._rec_name[i]]}\t{self._rec_start[i] * 1e6:.1f}\t"
                    f"{self._rec_end[i] * 1e6:.1f}\t{self._rec_parent[i]}\t{self._rec_op[i]}\n"
                )
