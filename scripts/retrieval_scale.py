"""Time ``rank`` against brute-force scoring on large synthetic indices.

Usage, from the root of a checkout:

    python3 scripts/retrieval_scale.py                  # 1,000 and 10,000 images
    python3 scripts/retrieval_scale.py 1000 10000 100000 --queries 5
    python3 scripts/retrieval_scale.py --bench-shape --baseline ../other-checkout

Each size is a number of images with 5 regions each, made by the benchmark's
generator (``bench/gen.retrieval_input``, seed 1). ``--bench-shape`` takes
the sizes of the ``retrieval`` workload instead (its full scale in
``bench/workloads.SCALES``: 50 images x 2 regions, 200 queries). For every
query the script checks that ``rank`` returns the brute-force ranking in full
(``score_image`` of ``tests/helpers.py`` on every image, sorted by score
descending and image id), then prints ms/query of both and the speed-up. It
exits 1 if a ranking differs. It is a measurement, not a test.

With ``--baseline <checkout>``, the ``amrsg`` of ``<checkout>/src`` is loaded
too, under the module name ``amrsg_baseline`` (as ``corpus_stages.py`` does),
and no brute force runs. Each size builds one index per side, and each of
5 rounds times every query once on each side, the two alternating which goes
first, with the garbage collector off. Every query keeps its best time per
side. The line per size gives both sides' mean ms/query and the median over
queries of the per-query ratio (this checkout / baseline). It checks that
both sides return the same ranking and gold rank for every query, and the
script exits 1 if they differ.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from corpus_stages import ROOT, load_amrsg, load_baseline

import gen  # noqa: E402  (bench/, put on sys.path by corpus_stages)
from workloads import SCALES  # noqa: E402

sys.path.insert(0, str(ROOT / "tests"))
from helpers import brute_force_ranking  # noqa: E402

REGIONS_PER_IMAGE = 5
RUNS = 5  # rounds of an A/B comparison


def inputs(lib: SimpleNamespace, data) -> tuple[list, list]:
    """The generated images and (query, gold image id) pairs as scene graphs of ``lib``."""
    images = [
        (image_id, [lib.sg_from_json(gen.sg_json(r)) for r in regions]) for image_id, regions in data.regions
    ]
    queries = [(lib.sg_from_json(gen.sg_json(sg)), gold) for _, sg, gold in data.queries]
    return images, queries


def measure(lib: SimpleNamespace, n_images: int, n_regions: int, n_queries: int) -> bool:
    images, queries = inputs(lib, gen.retrieval_input(1, n_images, n_regions, n_queries))
    start = time.perf_counter()
    index = lib.RetrievalIndex(images)
    build_s = time.perf_counter() - start
    sparse_s = brute_s = 0.0
    same = True
    for query, gold in queries:
        start = time.perf_counter()
        result = lib.rank(query, index, gold)
        sparse_s += time.perf_counter() - start
        start = time.perf_counter()
        expected = brute_force_ranking(query, index)
        brute_s += time.perf_counter() - start
        same = same and list(result.ranking) == expected
    sparse_ms, brute_ms = sparse_s * 1e3 / len(queries), brute_s * 1e3 / len(queries)
    print(
        f"{n_images:>7} images x {n_regions}: build {build_s * 1e3:8.1f} ms | "
        f"rank {sparse_ms:8.3f} ms/query | brute force {brute_ms:9.2f} ms/query | "
        f"{brute_ms / sparse_ms:5.1f}x | rankings {'identical' if same else 'DIFFER'}"
    )
    return same


def compare(libs: list[SimpleNamespace], n_images: int, n_regions: int, n_queries: int) -> bool:
    """A/B of ``rank`` in one process: this checkout's ``libs[0]`` against the
    baseline's ``libs[1]``."""
    data = gen.retrieval_input(1, n_images, n_regions, n_queries)
    sides = []
    for lib in libs:
        images, queries = inputs(lib, data)
        sides.append((lib.rank, lib.RetrievalIndex(images), queries))
    best = [[float("inf")] * len(data.queries) for _ in libs]
    results: list[list] = [[], []]
    clock = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        for run in range(RUNS):
            for side in (0, 1) if run % 2 == 0 else (1, 0):
                rank, index, queries = sides[side]
                times = best[side]
                for k, (query, gold) in enumerate(queries):
                    start = clock()
                    result = rank(query, index, gold)
                    took = clock() - start
                    if took < times[k]:
                        times[k] = took
                    if run == 0:
                        results[side].append(result)
    finally:
        gc.enable()
    same = all(
        (ours.ranking, ours.gold_rank) == (theirs.ranking, theirs.gold_rank)
        for ours, theirs in zip(*results)
    )
    ours_ms, theirs_ms = (statistics.mean(times) * 1e3 for times in best)
    ratio = statistics.median(a / b for a, b in zip(*best))
    print(
        f"{n_images:>7} images x {n_regions}: rank {ours_ms:8.4f} ms/query | "
        f"baseline {theirs_ms:8.4f} ms/query | median query ratio {ratio:6.3f} | "
        f"rankings {'identical' if same else 'DIFFER'}"
    )
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
        help="time rank against the amrsg of CHECKOUT/src, alternating rounds, and print ratios",
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

    libs = [load_amrsg("amrsg")]
    if args.baseline is None:
        print(f"Python {sys.version.split()[0]}, {queries} queries per size")
        ok = [measure(libs[0], n, regions, queries) for n in sizes]
    else:
        libs.append(load_baseline(parser, args.baseline))
        print(
            f"Python {sys.version.split()[0]}, {queries} queries per size, "
            f"best of {RUNS} runs per query, garbage collector off"
        )
        print(f"baseline: {args.baseline}")
        ok = [compare(libs, n, regions, queries) for n in sizes]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
