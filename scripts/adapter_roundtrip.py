"""Time the external-adapter request path, graph by graph.

Usage, from the root of a checkout:

    python3 scripts/adapter_roundtrip.py                  # seed 1, 2,000 graphs, best of 9
    python3 scripts/adapter_roundtrip.py --seed 2 --graphs 500 --runs 5
    python3 scripts/adapter_roundtrip.py --baseline ../other-checkout

The graphs come from the benchmark's generator (``bench/gen.adapter_input``),
and the child is the benchmark's stand-in model (``bench/stub_model.py``),
one per side; nothing is written. Each graph goes through the three steps of
one ``adapter_convert`` operation: the DFS linearization's ``.text``,
``ExternalAdapter.request`` of that text, and ``parse_sg_text`` of the reply.
Every reply, on every pass, is checked against the stand-in model's own
answer. The process, and so the child, is pinned to one CPU as in
``bench/run.py``. The options and the table are those of
``scripts/corpus_stages.py``. It is a measurement, not a test.
"""

from __future__ import annotations

import sys
import time
from functools import partial
from types import SimpleNamespace

from corpus_stages import ROOT, best_of, load_sides, parse_args, print_table

import gen  # noqa: E402  (bench/, put on sys.path by corpus_stages)
import stub_model  # noqa: E402
from run import pin_to_one_cpu  # noqa: E402

STAGES = ["linearize dfs text", "request", "parse_sg_text"]
TIMEOUT_S = 10.0


def _run_pass(lib: SimpleNamespace, adapter, graphs: list, expected: list[str]) -> list[list[float]]:
    """Every graph through the request path of ``lib``; the seconds each step
    took. Each reply must equal the expected reply of its graph."""
    clock = time.perf_counter
    took = []
    for k, graph in enumerate(graphs):
        t0 = clock()
        text = lib.linearize(graph, lib.Strategy.DFS).text
        t1 = clock()
        reply = adapter.request(text)
        t2 = clock()
        lib.parse_sg_text(reply)
        t3 = clock()
        took.append([t1 - t0, t2 - t1, t3 - t2])
        if reply != expected[k]:
            raise SystemExit(f"error: graph {k}: reply {reply[:60]!r} is not the stand-in model's")
    return took


def main() -> int:
    parser, args = parse_args(__doc__, "graphs", 2000)
    libs = load_sides(parser, args.baseline)
    texts = gen.adapter_input(args.seed, args.graphs).canonical
    expected = [stub_model.render(stub_model.reply_tuples(text)) for text in texts]
    graphs = [[lib.parse_penman(text) for text in texts] for lib in libs]

    pin_to_one_cpu()  # before the children start, so they inherit it
    command = [sys.executable, str(ROOT / "bench" / "stub_model.py")]
    adapters = [lib.ExternalAdapter(command, timeout=TIMEOUT_S) for lib in libs]
    try:
        passes = [partial(_run_pass, *side, expected) for side in zip(libs, adapters, graphs)]
        bests = best_of(passes, args.runs)
    finally:
        for adapter in adapters:
            adapter.close()
    print_table(args, STAGES, bests, ", one CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main())
