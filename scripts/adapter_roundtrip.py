"""Time the external-adapter request path, graph by graph.

Usage, from the root of a checkout:

    python3 scripts/adapter_roundtrip.py                  # seed 1, 2,000 graphs, best of 9
    python3 scripts/adapter_roundtrip.py --seed 2 --graphs 500 --runs 5
    python3 scripts/adapter_roundtrip.py --baseline ../other-checkout

The graphs come from the benchmark's generator (``bench/gen.adapter_input``),
and the child is the benchmark's stand-in model (``bench/stub_model.py``);
nothing is written. Each graph goes through the three steps of one
``adapter_convert`` operation: the DFS linearization's ``.text``,
``ExternalAdapter.request`` of that text, and ``parse_sg_text`` of the reply.
Every step keeps its best time per graph over ``--runs`` passes, and every
reply is checked against the stand-in model's own answer. The process, and
so the child, is pinned to one CPU as in ``bench/run.py``, and the passes
run with the garbage collector off. The table has the columns of
``scripts/corpus_stages.py``: the median graph, and the mean of the slowest
10% of graphs. It is a measurement, not a test: nothing runs it
automatically.

With ``--baseline <checkout>``, the ``amrsg`` of ``<checkout>/src`` is loaded
too, under the module name ``amrsg_baseline``, with its own adapter and
child, and each round times one pass of each in the same process, the two
alternating which goes first. The table then gives both sides' median graph,
the median over graphs of the per-graph ratio (this checkout / baseline),
and that ratio for the means of the slowest 10% of graphs (by the baseline's
totals).
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from corpus_stages import ROOT, load_amrsg, load_baseline, print_ratios, print_table

import gen  # noqa: E402  (bench/, put on sys.path by corpus_stages)
import stub_model  # noqa: E402
from run import pin_to_one_cpu  # noqa: E402

STAGES = ["linearize dfs text", "request", "parse_sg_text"]
TIMEOUT_S = 10.0


def run_once(lib: SimpleNamespace, adapter, graph) -> tuple[list[float], str]:
    """One graph through the request path of ``lib``; the seconds each step
    took, and the raw reply."""
    clock = time.perf_counter
    t0 = clock()
    text = lib.linearize(graph, lib.Strategy.DFS).text
    t1 = clock()
    reply = adapter.request(text)
    t2 = clock()
    lib.parse_sg_text(reply)
    t3 = clock()
    return [t1 - t0, t2 - t1, t3 - t2], reply


def time_pass(
    lib: SimpleNamespace, adapter, graphs: list, best: list[list[float]], check: list[str] | None
) -> None:
    """One pass over ``graphs``; each keeps its best time per step in ``best``.
    With ``check``, each reply must equal the expected reply of its graph."""
    for k, (times, graph) in enumerate(zip(best, graphs)):
        took, reply = run_once(lib, adapter, graph)
        times[:] = map(min, times, took)
        if check is not None and reply != check[k]:
            raise SystemExit(f"error: graph {k}: reply {reply[:60]!r} is not the stand-in model's")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--graphs", type=int, default=2000, help="graphs generated (default 2000)")
    parser.add_argument("--runs", type=int, default=9, help="passes; each graph keeps its best (default 9)")
    parser.add_argument(
        "--baseline", type=Path, metavar="CHECKOUT",
        help="also time the amrsg of CHECKOUT/src, alternating passes, and print ratios",
    )
    args = parser.parse_args()
    if args.graphs < 1 or args.runs < 1:
        parser.error("--graphs and --runs must be at least 1")

    texts = gen.adapter_input(args.seed, args.graphs).canonical
    expected = [stub_model.render(stub_model.reply_tuples(text)) for text in texts]
    libs = [load_amrsg("amrsg")]
    if args.baseline is not None:
        libs.append(load_baseline(parser, args.baseline))
    graphs = [[lib.parse_penman(text) for text in texts] for lib in libs]

    pin_to_one_cpu()  # before the children start, so they inherit it
    command = [sys.executable, str(ROOT / "bench" / "stub_model.py")]
    adapters = [lib.ExternalAdapter(command, timeout=TIMEOUT_S) for lib in libs]
    bests = [[[float("inf")] * len(STAGES) for _ in texts] for _ in libs]
    try:
        gc.collect()
        gc.disable()
        for run in range(args.runs):
            order = range(len(libs)) if run % 2 == 0 else reversed(range(len(libs)))
            for side in order:
                check = expected if run == 0 else None
                time_pass(libs[side], adapters[side], graphs[side], bests[side], check)
    finally:
        gc.enable()
        for adapter in adapters:
            adapter.close()

    print(
        f"Python {sys.version.split()[0]}, seed {args.seed}, {len(texts)} graphs, "
        f"best of {args.runs} runs per graph, one CPU"
    )
    if args.baseline is None:
        print_table(STAGES, bests[0])
    else:
        print(f"baseline: {args.baseline}")
        print_ratios(STAGES, *bests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
