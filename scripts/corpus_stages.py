"""Time each stage of the corpus pipeline, graph by graph.

Usage, from the root of a checkout:

    python3 scripts/corpus_stages.py                    # seed 1, 500 records, best of 9
    python3 scripts/corpus_stages.py --seed 2 --records 1000 --runs 5

The records come from the benchmark's generator (``bench/gen.corpus_input``);
nothing is written. Each record goes through the stages of the
``corpus_pipeline`` workload in order: ``filter_ungrounded``, ``parse_penman``,
the DFS, BFS and in-order linearizations, ``convert_rules``, ``serialize_sg``,
``parse_sg_text`` and ``f_score``. Every stage keeps its best time per graph
over ``--runs`` passes. Records whose AMR does not parse are left out of the
table. Two columns follow: the median graph (the median of each stage's
times, and of the totals), and the slowest 10% of graphs by total time (the
mean of each stage over them). The passes run with the garbage collector
off (``gc.collect()``, then ``gc.disable()``, enabled again afterwards):
otherwise each collection is charged to whichever stage happens to trigger
it, and a stage that allocates less moves time into the others. It is a
measurement, not a test: nothing runs it automatically.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402

from amrsg.amr import PenmanError, parse_penman  # noqa: E402
from amrsg.convert import convert_rules  # noqa: E402
from amrsg.corpus import filter_ungrounded, record_from_json  # noqa: E402
from amrsg.evaluate import f_score  # noqa: E402
from amrsg.linearize import Strategy, linearize  # noqa: E402
from amrsg.scenegraph import parse_sg_text, serialize_sg  # noqa: E402

STAGES = [
    "filter_ungrounded",
    "parse_penman",
    "linearize dfs",
    "linearize bfs",
    "linearize inorder",
    "convert_rules",
    "serialize_sg",
    "parse_sg_text",
    "f_score",
]


def run_once(record) -> list[float]:
    """One record through every stage; the seconds each stage took."""
    clock = time.perf_counter
    t0 = clock()
    filtered = filter_ungrounded(record)
    t1 = clock()
    graph = parse_penman(record.amr)
    t2 = clock()
    linearize(graph, Strategy.DFS)
    t3 = clock()
    linearize(graph, Strategy.BFS)
    t4 = clock()
    linearize(graph, Strategy.IN_ORDER)
    t5 = clock()
    sg = convert_rules(graph)
    t6 = clock()
    text = serialize_sg(sg)
    t7 = clock()
    parsed = parse_sg_text(text)
    t8 = clock()
    f_score(parsed, filtered.scene_graph)
    t9 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t8 - t7, t9 - t8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--records", type=int, default=500, help="records generated (default 500)")
    parser.add_argument("--runs", type=int, default=9, help="passes; each graph keeps its best (default 9)")
    args = parser.parse_args()
    if args.records < 1 or args.runs < 1:
        parser.error("--records and --runs must be at least 1")

    records, rejected = [], 0
    for line in gen.corpus_input(args.seed, args.records).lines:
        try:
            record = record_from_json(json.loads(line))
        except (KeyError, ValueError):  # the generator's deliberately broken lines
            continue
        try:
            parse_penman(record.amr)
        except PenmanError:
            rejected += 1
            continue
        records.append(record)

    best = [[float("inf")] * len(STAGES) for _ in records]
    gc.collect()
    gc.disable()
    try:
        for _ in range(args.runs):
            for times, record in zip(best, records):
                times[:] = map(min, times, run_once(record))
    finally:
        gc.enable()

    totals = [sum(times) for times in best]
    slowest = sorted(range(len(best)), key=totals.__getitem__)[-max(1, len(best) // 10) :]
    print(
        f"Python {sys.version.split()[0]}, seed {args.seed}, {len(records)} graphs "
        f"({rejected} rejected records left out), best of {args.runs} runs per graph"
    )
    print(f"{'stage':<20} {'median graph us':>16} {'slowest 10% us':>16}")
    for s, stage in enumerate(STAGES):
        median = statistics.median(times[s] for times in best)
        tail = statistics.mean(best[k][s] for k in slowest)
        print(f"{stage:<20} {median * 1e6:>16.1f} {tail * 1e6:>16.1f}")
    total_median = statistics.median(totals)
    total_tail = statistics.mean(totals[k] for k in slowest)
    print(f"{'total':<20} {total_median * 1e6:>16.1f} {total_tail * 1e6:>16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
