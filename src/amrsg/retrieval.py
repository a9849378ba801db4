"""F-score-similarity image retrieval: rank images against a scene-graph
query and report Recall@k and median rank.

An image's score for a query is the best F1 over its region scene graphs
(a query describes a single region). Ranking is score-descending with ties
broken by ascending image id, so results are reproducible.

``RetrievalIndex`` builds an inverted tuple index once, so ``rank`` scores
only the regions that share a tuple with the query; the rankings are those of
running ``evaluate.f_score`` on every region. The index also holds one
``(image id, 0.0)`` pair per image, in id order, and a query's pairs start
as those: only an image that scores builds a pair of its own, so rankings
share every zero-score pair. ``rank`` sorts the pairs once by score,
descending; the sort is stable, so ties keep id order. The gold rank is the
position of the gold image's pair in that ranking. ``metrics_from_ranks``
needs only the gold ranks, so a caller may keep those and drop the rankings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .corpus import json_id, read_jsonl
from .scenegraph import SceneGraph, SgTuple, json_typed, sg_from_json, sg_to_json, to_tuples


class UnknownGoldImage(ValueError):
    pass


class EmptyResults(ValueError):
    pass


class RetrievalIndex:
    """Immutable collection of (image id, region scene graphs), plus the
    inverted tuple index that ``rank`` reads, built once here.

    Images are numbered in image id order, and regions image by image in
    that order: postings then list images roughly in number order, and so
    ``rank`` makes its pairs roughly in that order, which measured faster on
    large indices (``scripts/retrieval_scale.py``).
    ``_postings`` maps each tuple to the numbers of the regions holding it, a
    region once per occurrence, so a region's repeats are adjacent.
    ``_region_size`` and ``_region_image`` give each region's tuple count and
    image number; ``_with_empty_region`` numbers the images with an empty
    region. ``_zero_pairs`` is each image's ``(image id, 0.0)``, by number.
    """

    def __init__(self, images: Sequence[tuple[str, Sequence[SceneGraph]]]):
        seen = set()
        for image_id, regions in images:
            if image_id in seen:
                raise ValueError(f"duplicate image id {image_id!r}")
            if not regions:
                raise ValueError(f"image {image_id!r} has no region graphs")
            seen.add(image_id)
        self.images: tuple[tuple[str, tuple[SceneGraph, ...]], ...] = tuple(
            (image_id, tuple(regions)) for image_id, regions in images
        )
        self._sorted_ids = sorted(seen)
        self._zero_pairs = tuple((image_id, 0.0) for image_id in self._sorted_ids)
        self._image_number = {image_id: k for k, image_id in enumerate(self._sorted_ids)}
        postings: dict[SgTuple, list[int]] = {}
        get = postings.get
        sizes: list[int] = []
        owners: list[int] = []
        empty: list[int] = []
        for image, (_, regions) in enumerate(sorted(self.images, key=itemgetter(0))):
            for region in regions:
                number = len(sizes)
                tuples = to_tuples(region)
                for t in tuples:
                    numbers = get(t)
                    if numbers is None:
                        postings[t] = [number]
                    else:
                        numbers.append(number)
                sizes.append(len(tuples))
                owners.append(image)
                if not tuples:
                    empty.append(image)
        self._postings = postings
        self._region_size = sizes
        self._region_image = owners
        self._with_empty_region = empty

    def image_ids(self) -> list[str]:
        return [image_id for image_id, _ in self.images]


@dataclass(frozen=True)
class RankedResult:
    query_id: str
    ranking: tuple[tuple[str, float], ...]
    gold_image_id: str
    gold_rank: int  # 1-based


def _image_scores(query: SceneGraph, index: RetrievalIndex) -> list[tuple[str, float]]:
    """Every image's (image id, best region F1), by image number; an image
    that scores 0 keeps the index's own pair.

    Only regions on the query tuples' postings are scored; every other region
    shares no tuple with the query and scores 0. A region's overlap is the
    multiset intersection size: each posting counts up to the tuple's query
    multiplicity. F1 uses ``f_score``'s float expression, so each score
    equals ``f_score``'s exactly.
    """
    ids, pairs = index._sorted_ids, list(index._zero_pairs)
    tuples = to_tuples(query)
    if not tuples:
        # both empty: F1 = 1; an empty query scores 0 on any other region
        for image in index._with_empty_region:
            pairs[image] = (ids[image], 1.0)
        return pairs
    wanted: dict[SgTuple, int] = {}  # each query tuple's multiplicity
    for t in tuples:
        wanted[t] = wanted.get(t, 0) + 1
    overlap: dict[int, int] = {}
    get = overlap.get
    for t, cap in wanted.items():
        last, run = -1, 0
        for number in index._postings.get(t, ()):
            if number != last:
                last, run = number, 1
            elif run < cap:
                run += 1
            else:
                continue
            overlap[number] = get(number, 0) + 1
    g_size = len(tuples)
    sizes, owners = index._region_size, index._region_image
    scores = [0.0] * len(pairs)  # each image's best F1 so far: cheaper to read than its pair's
    for number, m in overlap.items():
        p = m / g_size
        rec = m / sizes[number]
        f1 = 2 * p * rec / (p + rec)
        image = owners[number]
        if f1 > scores[image]:
            scores[image] = f1
            pairs[image] = (ids[image], f1)
    return pairs


def rank(
    query: SceneGraph,
    index: RetrievalIndex,
    gold_image_id: str,
    query_id: str = "",
) -> RankedResult:
    """Rank every image, score descending (ties by ascending image id)."""
    gold = index._image_number.get(gold_image_id)
    if gold is None:
        raise UnknownGoldImage(f"gold image {gold_image_id!r} not in index")
    pairs = _image_scores(query, index)
    gold_pair = pairs[gold]
    # pairs start in image id order, and a stable sort keeps ties in that order
    pairs.sort(key=itemgetter(1), reverse=True)
    ranking = tuple(pairs)
    return RankedResult(query_id, ranking, gold_image_id, ranking.index(gold_pair) + 1)


def metrics_from_ranks(gold_ranks: Sequence[int], ks: Sequence[int] = (5, 10)) -> dict:
    """Recall@k per cutoff plus median rank (lower middle for even counts)."""
    if not gold_ranks:
        raise EmptyResults("no ranked results to aggregate")
    ranks = sorted(gold_ranks)
    n = len(ranks)
    median = ranks[(n - 1) // 2]
    recall_at = {k: sum(1 for r in ranks if r <= k) / n for k in ks}
    return {"recall_at": recall_at, "median_rank": median}


def aggregate_metrics(results: Sequence[RankedResult], ks: Sequence[int] = (5, 10)) -> dict:
    """``metrics_from_ranks`` of the results' gold ranks."""
    return metrics_from_ranks([res.gold_rank for res in results], ks)


# --- index file format -----------------------------------------------------


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """One image per line: {"image_id": ..., "regions": [scene graph JSON]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, regions in index.images:
            fh.write(
                json.dumps({"image_id": image_id, "regions": [sg_to_json(r) for r in regions]})
                + "\n"
            )


def _image_from_json(data: dict) -> tuple[str, list[SceneGraph]]:
    regions = json_typed(data["regions"], list, "regions")
    return json_id(data, "image_id"), [sg_from_json(r) for r in regions]


def load_index(path: str | Path) -> RetrievalIndex:
    """Inverse of save_index; ValueError naming the line of the first bad line,
    or the offset of a byte that is not UTF-8."""
    images, errors = read_jsonl(path, _image_from_json)
    if errors:
        lineno, message = errors[0]
        raise ValueError(f"line {lineno}: {message}")
    return RetrievalIndex(images)
