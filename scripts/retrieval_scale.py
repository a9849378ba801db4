"""Time ``rank`` on large synthetic indices and check its rankings.

Usage, from the root of a checkout:

    python3 scripts/retrieval_scale.py                  # 1,000 and 10,000 images
    python3 scripts/retrieval_scale.py 1000 10000 100000 --queries 5
    python3 scripts/retrieval_scale.py --bench-shape --baseline ../other-checkout

Each size is a number of images with 5 regions each, made by the benchmark's
generator (``bench/gen.retrieval_input``, seed 1). ``--bench-shape`` takes
the sizes of the ``retrieval`` workload instead (its full scale in
``bench/workloads.SCALES``: 50 images x 2 regions, 200 queries). Each side
builds one index per size, and every query keeps its best time over ``RUNS``
rounds (``corpus_stages.best_of``). The line per size gives the mean
ms/query and the MB that one round's results hold together, as tracemalloc
counts them outside the timed rounds; with ``--baseline``, the baseline's
too, and the median over queries of the per-query ratio (this checkout /
baseline).

Before the timed rounds, every ranking of this checkout is checked against
brute-force scoring (``score_image`` of ``tests/helpers.py`` on every image,
sorted by score descending and image id), and with ``--baseline`` both sides
must give the same ranking and gold rank for every query. The script exits 1
if a ranking differs. It is a measurement, not a test.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from functools import partial
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

from corpus_stages import ROOT, best_of, load_sides

import gen  # noqa: E402  (bench/, put on sys.path by corpus_stages)
from workloads import SCALES  # noqa: E402

sys.path.insert(0, str(ROOT / "tests"))
from helpers import brute_force_ranking  # noqa: E402

REGIONS_PER_IMAGE = 5
RUNS = 25  # rounds; every query keeps its best time per side


def _inputs(lib: SimpleNamespace, data) -> tuple:
    """``lib.rank``, the index of the generated images, and the (query, gold
    image id) pairs, as objects of ``lib``."""
    images = [
        (image_id, [lib.sg_from_json(gen.sg_json(r)) for r in regions]) for image_id, regions in data.regions
    ]
    queries = [(lib.sg_from_json(gen.sg_json(sg)), gold) for _, sg, gold in data.queries]
    return lib.rank, lib.RetrievalIndex(images), queries


def _rank_pass(rank, index, queries: list) -> list[list[float]]:
    """Every query through ``rank``; the seconds each took."""
    clock = time.perf_counter
    took = []
    for query, gold in queries:
        start = clock()
        rank(query, index, gold)
        took.append([clock() - start])
    return took


def _held_results(rank, index, queries: list) -> tuple[list, float]:
    """One round's results, and the MB that they hold together."""
    tracemalloc.start()
    try:
        results = [rank(query, index, gold) for query, gold in queries]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return results, held / 2**20


def _measure(libs: list[SimpleNamespace], n_images: int, n_regions: int, n_queries: int) -> bool:
    """Check and time ``rank`` of each side at one size; print its line, and
    return whether the rankings are identical."""
    data = gen.retrieval_input(1, n_images, n_regions, n_queries)
    sides = [_inputs(lib, data) for lib in libs]
    answers, held = zip(*(_held_results(*side) for side in sides))
    _, index, queries = sides[0]
    same = all(
        list(result.ranking) == brute_force_ranking(query, index)
        for result, (query, _) in zip(answers[0], queries)
    )
    key = attrgetter("ranking", "gold_rank")
    same = same and all(list(map(key, side)) == list(map(key, answers[0])) for side in answers[1:])
    bests = best_of([partial(_rank_pass, *side) for side in sides], RUNS)
    best = [[took for (took,) in times] for times in bests]  # one stage per query
    line = f"{n_images:>7} images x {n_regions}: rank {statistics.mean(best[0]) * 1e3:8.4f} ms/query"
    line += f", results {held[0]:7.3f} MB"
    if len(best) == 2:
        ratio = statistics.median(a / b for a, b in zip(*best))
        line += f" | baseline {statistics.mean(best[1]) * 1e3:8.4f} ms/query, results {held[1]:7.3f} MB"
        line += f" | median query ratio {ratio:6.3f}"
    print(f"{line} | rankings {'identical' if same else 'DIFFER'}")
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, help="image counts (default 1000 10000)")
    parser.add_argument("--queries", type=int, help="queries per size (default 20)")
    parser.add_argument(
        "--bench-shape", action="store_true",
        help="the retrieval workload's images, regions and queries instead of the above",
    )
    parser.add_argument(
        "--baseline", type=Path, metavar="CHECKOUT",
        help="also time rank of the amrsg of CHECKOUT/src, alternating rounds, and print ratios",
    )
    args = parser.parse_args()
    if args.bench_shape:
        if args.sizes or args.queries is not None:
            parser.error("--bench-shape sets the sizes and --queries")
        full = SCALES["full"]
        sizes, regions, queries = [full["images"]], full["regions"], full["queries"]
    else:
        sizes, regions = args.sizes or [1000, 10000], REGIONS_PER_IMAGE
        queries = 20 if args.queries is None else args.queries
    if min(sizes + [queries]) < 1:
        parser.error("sizes and --queries must be at least 1")

    libs = load_sides(parser, args.baseline)
    print(
        f"Python {sys.version.split()[0]}, {queries} queries per size, "
        f"best of {RUNS} runs per query, garbage collector off"
    )
    if args.baseline is not None:
        print(f"baseline: {args.baseline}")
    ok = [_measure(libs, n, regions, queries) for n in sizes]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
