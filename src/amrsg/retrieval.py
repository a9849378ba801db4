"""F-score-similarity image retrieval: rank images against a scene-graph
query and report Recall@k and median rank.

An image's score for a query is the best F1 over its region scene graphs
(a query describes a single region). Ranking is score-descending with ties
broken by ascending image id, so results are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import json_id, read_jsonl
from .evaluate import f_score
from .scenegraph import SceneGraph, sg_from_json, sg_to_json


class UnknownGoldImage(ValueError):
    pass


class EmptyResults(ValueError):
    pass


class RetrievalIndex:
    """Immutable collection of (image id, region scene graphs)."""

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

    def image_ids(self) -> list[str]:
        return [image_id for image_id, _ in self.images]


@dataclass(frozen=True)
class RankedResult:
    query_id: str
    ranking: tuple[tuple[str, float], ...]
    gold_image_id: str
    gold_rank: int  # 1-based


def score_image(query: SceneGraph, regions: Sequence[SceneGraph]) -> float:
    """Best per-region F1; the best-matching region defines the image score."""
    return max(f_score(query, region).f1 for region in regions)


def rank(
    query: SceneGraph,
    index: RetrievalIndex,
    gold_image_id: str,
    query_id: str = "",
) -> RankedResult:
    """Score every image, sort descending (ties by ascending image id)."""
    scored = [(image_id, score_image(query, regions)) for image_id, regions in index.images]
    scored.sort(key=lambda item: (-item[1], item[0]))
    for gold_rank, (image_id, _) in enumerate(scored, start=1):
        if image_id == gold_image_id:
            return RankedResult(query_id, tuple(scored), gold_image_id, gold_rank)
    raise UnknownGoldImage(f"gold image {gold_image_id!r} not in index")


def aggregate_metrics(results: Sequence[RankedResult], ks: Sequence[int] = (5, 10)) -> dict:
    """Recall@k per cutoff plus median rank (lower middle for even counts)."""
    if not results:
        raise EmptyResults("no ranked results to aggregate")
    ranks = sorted(res.gold_rank for res in results)
    n = len(ranks)
    median = ranks[(n - 1) // 2]
    recall_at = {k: sum(1 for r in ranks if r <= k) / n for k in ks}
    return {"recall_at": recall_at, "median_rank": median}


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
    return json_id(data, "image_id"), [sg_from_json(r) for r in data["regions"]]


def load_index(path: str | Path) -> RetrievalIndex:
    """Inverse of save_index; ValueError naming the line of the first bad line."""
    images, errors = read_jsonl(path, _image_from_json)
    if errors:
        lineno, message = errors[0]
        raise ValueError(f"line {lineno}: {message}")
    return RetrievalIndex(images)
