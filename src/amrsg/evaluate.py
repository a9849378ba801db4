"""SPICE-style F-score over scene-graph tuples with one-to-one matching.

Precision and recall count matched tuples over generated / reference tuple
counts; F1 is their harmonic mean. Tuples match only when exactly equal, so
the maximum one-to-one matching is the multiset intersection: the k-th
occurrence of a tuple on one side pairs with its k-th occurrence on the other,
and a tuple on either side is used at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scenegraph import SceneGraph, SgTuple, to_tuples


class EmptyCorpus(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    matches: tuple[tuple[int, int], ...]
    g_size: int
    r_size: int


@dataclass(frozen=True)
class CorpusReport:
    mean_f1: float
    per_region: tuple[tuple[str, EvalReport], ...]
    region_count: int


def match_tuples(g: Sequence[SgTuple], r: Sequence[SgTuple]) -> list[tuple[int, int]]:
    """Maximum one-to-one matching between generated and reference tuples.

    Pairs the k-th occurrence of each tuple in ``g`` with its k-th occurrence
    in ``r`` and returns the pairs in ``g``-index order. Tuples of different
    kinds are never equal, so they never match.
    """
    # each tuple's positions in ``r``, last first for ``pop``; one hash per tuple, none cached
    unused: dict[SgTuple, list[int]] = {}
    for j in range(len(r) - 1, -1, -1):
        unused.setdefault(r[j], []).append(j)
    return [(i, js.pop()) for i, t in enumerate(g) if (js := unused.get(t))]


def f_score(g: SceneGraph, r: SceneGraph) -> EvalReport:
    """F1 between a generated and a reference scene graph.

    Conventions: both empty -> P = R = F1 = 1; exactly one empty -> F1 = 0.
    """
    gt = to_tuples(g)
    rt = to_tuples(r)
    matches = match_tuples(gt, rt)
    m = len(matches)
    if not gt and not rt:
        p = rec = f1 = 1.0
    else:
        p = m / len(gt) if gt else 0.0
        rec = m / len(rt) if rt else 0.0
        f1 = 2 * p * rec / (p + rec) if p + rec > 0 else 0.0
    return EvalReport(p, rec, f1, tuple(matches), len(gt), len(rt))


def evaluate_corpus(
    pairs: Sequence[tuple[str, SceneGraph, SceneGraph]],
) -> CorpusReport:
    """Per-region f_score plus the arithmetic mean, ordered by region id."""
    if not pairs:
        raise EmptyCorpus("no region pairs to evaluate")
    per_region = sorted(
        ((region_id, f_score(g, r)) for region_id, g, r in pairs),
        key=lambda item: item[0],
    )
    mean_f1 = sum(rep.f1 for _, rep in per_region) / len(per_region)
    return CorpusReport(mean_f1, tuple(per_region), len(per_region))
