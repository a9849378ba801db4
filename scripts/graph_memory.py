"""Measure the memory that a loaded set of scene graphs or of PENMAN graphs holds.

Usage, from the root of a checkout:

    python3 scripts/graph_memory.py                     # seed 1, 500 records, 2,000 graphs
    python3 scripts/graph_memory.py --seed 2 --records 2000 --graphs 5000 --top 8

Both inputs come from the benchmark's generator and are written to a
temporary file outside the checkout, then read back under tracemalloc. For
each load it prints the memory retained (allocated during the load and still
alive after it), the peak during the load and the bytes retained per item,
and it counts the strings the loaded objects store: how many references, how
many distinct objects and how many distinct values.

First the records of the ``corpus_pipeline`` workload's input
(``bench/gen.corpus_input``, 500 by default) are read with ``load_records``;
the ``stored scene-graph tuples:`` and ``stored scene-graph fields:`` lines
count the tuples of their scene graphs and the fields of those tuples. The
records stay loaded from then on.

Then the graphs of the ``adapter_convert`` workload's input
(``bench/gen.adapter_input``, 2,000 by default) are read with
``load_penman_file``. For them it also prints the bytes retained per edge
and the source lines whose allocations are retained, largest first, each
with the line that called it; the ``stored strings:`` line counts node keys,
concepts, edge sources, roles and targets. ``parse_penman`` stores them
through the symbol table that ``sg_from_json`` filled, so a string equal to a
record's field is that field's object, not a new one.

At seed 1 (Python 3.11.7) the 500 records retain 0.58 MB and peak at 0.61 MB,
1,226 bytes per record. Their 4,938 tuples are 1,267 objects and their 6,451
fields 376, one per distinct value, since ``sg_from_json`` stores both
through the symbol table; with one object per tuple they retained 0.72 MB
(1,520 bytes per record), and with one string per field as well 1.04 MB. The 2,000 graphs retain 2.03 MB and peak at
2.05 MB, 1,066 bytes per graph and 81 per edge (26,375 edges), and their
128,949 strings are 514 objects; with a symbol table of their own they
retained 2.06 MB, 1,080 and 82 bytes. Each graph keeps its edges as one flat
tuple of their fields. With one ``AmrEdge`` per edge and an instance dict per
graph they retained 3.62 MB, 1,897 bytes per graph and 144 per edge. The file
is read one block at a time, so the peak exceeds the retained memory only by
one block and the file's read buffer (reading the whole file first gave a
peak of 4.95 MB). It is a measurement, not a test; ``tests/test_scripts.py``
only checks that it runs, on 50 records and 50 graphs.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402

from amrsg.amr import load_penman_file  # noqa: E402
from amrsg.corpus import load_records  # noqa: E402

MB = 2**20


def _where(frame: tracemalloc.Frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{frame.lineno}"


def _traced_load(load, path: Path):
    """``load(path)`` under tracemalloc: (result, retained bytes, peak bytes, snapshot)."""
    gc.collect()
    tracemalloc.start(2)  # a site and its caller
    try:
        result = load(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return result, retained, peak, snapshot


def _report(n: int, what: str, retained: int, peak: int) -> None:
    print(f"{n} {what}s")
    print(f"retained {retained / MB:.2f} MB, peak {peak / MB:.2f} MB, {retained / n:,.0f} bytes per {what}")


def _counts(stored: list) -> str:
    return (
        f"{len(stored):,} references, {len({id(s) for s in stored}):,} objects, "
        f"{len(set(stored)):,} distinct values"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--records", type=int, default=500, help="corpus records generated (default 500)")
    parser.add_argument("--graphs", type=int, default=2000, help="graphs generated (default 2000)")
    parser.add_argument("--top", type=int, default=5, help="allocation sites listed (default 5)")
    args = parser.parse_args()
    if args.records < 1 or args.graphs < 1 or args.top < 0:
        parser.error("--records and --graphs must be at least 1 and --top at least 0")

    print(f"Python {sys.version.split()[0]}, seed {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("\n".join(gen.corpus_input(args.seed, args.records).lines) + "\n", encoding="utf-8")
        loaded, retained, peak, _ = _traced_load(load_records, path)
        _report(len(loaded.records), "record", retained, peak)
        tuples = [
            t
            for r in loaded.records
            for section in (r.scene_graph.objects, r.scene_graph.attributes, r.scene_graph.relations)
            for t in section
        ]
        print(f"stored scene-graph tuples: {_counts(tuples)}")
        print(f"stored scene-graph fields: {_counts([f for t in tuples for f in t])}")

        path = Path(tmp) / "graphs.amr"
        path.write_text(gen.adapter_input(args.seed, args.graphs).penman, encoding="utf-8")
        graphs, retained, peak, snapshot = _traced_load(load_penman_file, path)

    _report(len(graphs), "graph", retained, peak)
    edges = sum(len(g.edges) for g in graphs)
    if edges:
        print(f"{edges:,} edges, {retained / edges:,.0f} bytes retained per edge")
    own = tracemalloc.Filter(False, tracemalloc.__file__)
    stats = snapshot.filter_traces([own]).statistics("traceback")
    print(f"{'retained MB':>11} {'blocks':>8}  site < caller")
    for stat in stats[: args.top]:
        sites = " < ".join(_where(frame) for frame in reversed(stat.traceback))
        print(f"{stat.size / MB:>11.2f} {stat.count:>8}  {sites}")
    symbols = [
        s
        for g in graphs
        for s in (*g.nodes, *g.nodes.values(), *(field for edge in g.edges for field in edge))
    ]
    print(f"stored strings: {_counts(symbols)}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a reader that left early is a BrokenPipeError here, not at exit
    except BrokenPipeError:
        # stdout's reader left early (``| head``): point stdout at devnull, so
        # that the interpreter's last flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
