"""Measure the memory that a loaded set of PENMAN graphs holds.

Usage, from the root of a checkout:

    python3 scripts/graph_memory.py                     # seed 1, 2,000 graphs
    python3 scripts/graph_memory.py --seed 2 --graphs 5000 --top 8

The graphs come from the benchmark's generator (``bench/gen.adapter_input``,
the input of the ``adapter_convert`` workload). Their PENMAN text is written
to a temporary file outside the checkout and read back with
``load_penman_file`` under tracemalloc. It prints the memory the loaded graphs
retain (allocated during the load and still alive after it), the peak during
the load, the bytes retained per graph, and the source lines whose
allocations are retained, largest first, each with the line that called it.
A last line counts the strings the graphs store (node keys, concepts, edge
sources, roles and targets): how many references, how many distinct objects
and how many distinct values.

The file is read one block at a time, so the peak exceeds the retained
memory only by one block and the file's read buffer: at seed 1 with 2,000
graphs (Python 3.11.7) it reads retained 3.63 MB and peak 3.65 MB, where
reading the whole file first gave a peak of 4.95 MB. It is a measurement,
not a test; ``tests/test_scripts.py`` only checks that it runs, on 50 graphs.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402

from amrsg.amr import load_penman_file  # noqa: E402


def _where(frame: tracemalloc.Frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{frame.lineno}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--graphs", type=int, default=2000, help="graphs generated (default 2000)")
    parser.add_argument("--top", type=int, default=5, help="allocation sites listed (default 5)")
    args = parser.parse_args()
    if args.graphs < 1 or args.top < 0:
        parser.error("--graphs must be at least 1 and --top at least 0")

    text = gen.adapter_input(args.seed, args.graphs).penman
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graphs.amr"
        path.write_text(text, encoding="utf-8")
        gc.collect()
        tracemalloc.start(2)  # a site and its caller
        try:
            graphs = load_penman_file(path)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

    mb = 2**20
    print(f"Python {sys.version.split()[0]}, seed {args.seed}, {len(graphs)} graphs")
    print(
        f"retained {retained / mb:.2f} MB, peak {peak / mb:.2f} MB, "
        f"{retained / len(graphs):,.0f} bytes per graph"
    )
    own = tracemalloc.Filter(False, tracemalloc.__file__)
    stats = snapshot.filter_traces([own]).statistics("traceback")
    print(f"{'retained MB':>11} {'blocks':>8}  site < caller")
    for stat in stats[: args.top]:
        sites = " < ".join(_where(frame) for frame in reversed(stat.traceback))
        print(f"{stat.size / mb:>11.2f} {stat.count:>8}  {sites}")

    symbols = [
        s
        for g in graphs
        for s in (*g.nodes, *g.nodes.values(), *(field for edge in g.edges for field in edge))
    ]
    print(
        f"stored strings: {len(symbols):,} references, {len({id(s) for s in symbols}):,} objects, "
        f"{len(set(symbols)):,} distinct values"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
