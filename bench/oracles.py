"""Output oracles, kept apart from amrsg's implementations.

They read amrsg's results only through public attributes and recompute the
expected answer with different algorithms: Counter multiset intersection in
place of bipartite matching, and a brute-force ranking over the benchmark's
own copy of the index.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def sg_counter(sg) -> Counter:
    """Multiset of plain string tuples of an amrsg SceneGraph."""
    return Counter(
        [(o.name,) for o in sg.objects]
        + [(a.object, a.attribute) for a in sg.attributes]
        + [(r.subject, r.predicate, r.object) for r in sg.relations]
    )


def f1(g: Counter, r: Counter) -> float:
    """SPICE-style F1 from multiset intersection.

    Uses the same float expression as a one-to-one matcher would, so a
    correct implementation agrees exactly, not just approximately.
    """
    g_size, r_size = sum(g.values()), sum(r.values())
    if not g_size and not r_size:
        return 1.0
    m = sum((g & r).values())
    p = m / g_size if g_size else 0.0
    rec = m / r_size if r_size else 0.0
    return 2 * p * rec / (p + rec) if p + rec > 0 else 0.0


def mean_f1(scores_by_region: dict[str, float]) -> float:
    """Mean in region-id order, as a corpus report sums it."""
    ordered = [scores_by_region[k] for k in sorted(scores_by_region)]
    return sum(ordered) / len(ordered)


class BruteForceRanking:
    """Rank every image by its best region F1; ties by ascending image id."""

    def __init__(self, images: Sequence[tuple[str, Sequence[Counter]]]):
        self.images = [(image_id, list(regions)) for image_id, regions in images]
        self.region_count = sum(len(regions) for _, regions in self.images)

    def rank(self, query: Counter) -> tuple[list[tuple[str, float]], int]:
        """Return (ranking, regions sharing at least one tuple with query)."""
        scored, hits = [], 0
        for image_id, regions in self.images:
            best = 0.0
            for region in regions:
                if query & region:
                    hits += 1
                best = max(best, f1(query, region))
            scored.append((image_id, best))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored, hits


def recall_and_median(gold_ranks: Sequence[int], ks: Sequence[int]) -> dict:
    """Recall@k and lower-middle median rank of 1-based gold ranks."""
    ranks = sorted(gold_ranks)
    n = len(ranks)
    return {
        "recall_at": {k: sum(1 for r in ranks if r <= k) / n for k in ks},
        "median_rank": ranks[(n - 1) // 2],
    }
