"""Time ``rank`` against brute-force scoring on large synthetic indices.

Usage, from the root of a checkout:

    python3 scripts/retrieval_scale.py                  # 1,000 and 10,000 images
    python3 scripts/retrieval_scale.py 1000 10000 100000 --queries 5

Each size is a number of images with 5 regions each, made by the benchmark's
generator (``bench/gen.retrieval_input``, seed 1). For every query the script
checks that ``rank`` returns the brute-force ranking in full (``score_image``
of ``tests/helpers.py`` on every image, sorted by score descending and image
id), then prints ms/query of both and the speed-up. It exits 1 if a ranking
differs. It is a measurement, not a test: nothing runs it automatically.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import gen  # noqa: E402
from helpers import brute_force_ranking  # noqa: E402

from amrsg.retrieval import RetrievalIndex, rank  # noqa: E402
from amrsg.scenegraph import sg_from_json  # noqa: E402

REGIONS_PER_IMAGE = 5


def measure(n_images: int, n_queries: int) -> bool:
    data = gen.retrieval_input(1, n_images, REGIONS_PER_IMAGE, n_queries)
    images = [
        (image_id, [sg_from_json(gen.sg_json(r)) for r in regions]) for image_id, regions in data.regions
    ]
    queries = [(sg_from_json(gen.sg_json(sg)), gold) for _, sg, gold in data.queries]
    start = time.perf_counter()
    index = RetrievalIndex(images)
    build_s = time.perf_counter() - start
    sparse_s = brute_s = 0.0
    same = True
    for query, gold in queries:
        start = time.perf_counter()
        result = rank(query, index, gold)
        sparse_s += time.perf_counter() - start
        start = time.perf_counter()
        expected = brute_force_ranking(query, index)
        brute_s += time.perf_counter() - start
        same = same and list(result.ranking) == expected
    sparse_ms, brute_ms = sparse_s * 1e3 / len(queries), brute_s * 1e3 / len(queries)
    print(
        f"{n_images:>7} images x {REGIONS_PER_IMAGE}: build {build_s * 1e3:8.1f} ms | "
        f"rank {sparse_ms:8.2f} ms/query | brute force {brute_ms:9.2f} ms/query | "
        f"{brute_ms / sparse_ms:5.1f}x | rankings {'identical' if same else 'DIFFER'}"
    )
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[1000, 10000], help="image counts")
    parser.add_argument("--queries", type=int, default=20, help="queries per size (default 20)")
    args = parser.parse_args()
    if args.queries < 1 or any(n < 1 for n in args.sizes):
        parser.error("sizes and --queries must be at least 1")
    print(f"Python {sys.version.split()[0]}, {args.queries} queries per size")
    ok = [measure(n, args.queries) for n in args.sizes]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
