"""Region-record corpus I/O: line-delimited JSON ingestion, the
ungrounded-tuple filter, dataset statistics, and a Visual Genome
region-graph converter.

Corpus line format::

    {"image_id": "1", "region_id": "1_0", "description": "...",
     "scene_graph": {"objects": [...], "attributes": [...], "relations": [...]},
     "amr": "(z0 / ...)"}        # amr optional
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .scenegraph import (
    EmptyAfterNormalization,
    SceneGraph,
    json_typed,
    normalize,
    sg_from_json,
    sg_to_json,
)

_WORD_RE = re.compile(r"[a-z0-9]+")
_STR_OR_NULL = (str, type(None))

T = TypeVar("T")


@dataclass(frozen=True)
class RegionRecord:
    image_id: str
    region_id: str
    description: str
    scene_graph: SceneGraph
    amr: str | None = None


@dataclass
class LoadResult:
    records: list[RegionRecord]
    skipped: int
    errors: list[tuple[int, str]]  # (line number, message)


def record_to_json(record: RegionRecord) -> dict:
    data = {
        "image_id": record.image_id,
        "region_id": record.region_id,
        "description": record.description,
        "scene_graph": sg_to_json(record.scene_graph),
    }
    if record.amr is not None:
        data["amr"] = record.amr
    return data


def json_id(data: dict, key: str) -> str:
    """``data[key]``, a non-empty JSON string or an integer, as a string; KeyError
    if ``key`` is absent, ValueError naming it for any other value, null included."""
    value = data[key]
    if isinstance(value, str) and value or isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"{key} is {json.dumps(value)}, not a non-empty string or an integer")


def optional_json_id(data: dict, key: str) -> str:
    """``json_id(data, key)``, or "" (no id) where ``key`` is absent, null or ""."""
    return "" if data.get(key) in (None, "") else json_id(data, key)


def record_from_json(data: dict) -> RegionRecord:
    image_id, region_id = json_id(data, "image_id"), json_id(data, "region_id")
    description = json_typed(data["description"], str, "description")
    if not description.strip():
        raise ValueError("empty description")
    amr = json_typed(data.get("amr"), _STR_OR_NULL, "amr")
    return RegionRecord(image_id, region_id, description, sg_from_json(data["scene_graph"]), amr)


def read_jsonl(
    path: str | Path, parse: Callable[[dict], T]
) -> tuple[list[T], list[tuple[int, str]]]:
    """``parse`` of each non-blank line's JSON object; a line that is not one, or
    that ``parse`` rejects, is skipped and returned as (line number, message).
    A KeyError from ``parse`` reads ``missing key '<key>'``."""
    items: list[T] = []
    errors: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                items.append(parse(json_typed(json.loads(line), dict, "line")))
            except KeyError as err:
                errors.append((lineno, f"missing key {err.args[0]!r}"))
            except (TypeError, ValueError) as err:  # SgError is a ValueError
                errors.append((lineno, str(err)))
    return items, errors


def load_records(path: str | Path) -> LoadResult:
    """Load a JSONL corpus; malformed lines are counted and skipped."""
    records, errors = read_jsonl(path, record_from_json)
    return LoadResult(records, len(errors), errors)


def region_graph_from_json(data: dict) -> tuple[str, str, SceneGraph]:
    """A ``{region_id, image_id?, scene_graph}`` line, as ``eval`` and ``retrieve``
    read it: (region id, image id or "" if it is absent, null or "", scene graph)."""
    image_id = optional_json_id(data, "image_id")
    return json_id(data, "region_id"), image_id, sg_from_json(data["scene_graph"])


def save_records(records: Iterable[RegionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_json(record)) + "\n")


# --- ungrounded-tuple filter -----------------------------------------------


def _variants(token: str) -> set[str]:
    # naive suffix stemming: dogs -> dog, boxes -> box, running -> runn
    out = {token}
    if token.endswith("ing") and len(token) > 4:
        out.add(token[:-3])
    if token.endswith("es") and len(token) > 3:
        out.add(token[:-2])
    if token.endswith("s") and len(token) > 2:
        out.add(token[:-1])
    return out


def _grounded(name: str, description_variants: set[str]) -> bool:
    for word in _WORD_RE.findall(name.lower()):
        if _variants(word) & description_variants:
            return True
    return False


def filter_ungrounded(record: RegionRecord) -> RegionRecord:
    """Drop tuples whose head object shares no token with the description.

    Grounding is lexical overlap after lowercasing plus naive suffix
    stemming. Attributes and relations referencing a dropped object are
    dropped with it. Idempotent.
    """
    desc_variants: set[str] = set()
    for tok in _WORD_RE.findall(record.description.lower()):
        desc_variants |= _variants(tok)
    kept_names = {o.name for o in record.scene_graph.objects if _grounded(o.name, desc_variants)}
    sg = SceneGraph(
        [o for o in record.scene_graph.objects if o.name in kept_names],
        [a for a in record.scene_graph.attributes if a.object in kept_names],
        [
            r
            for r in record.scene_graph.relations
            if r.subject in kept_names and r.object in kept_names
        ],
    )
    return replace(record, scene_graph=sg)


# --- statistics ------------------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    image_count: int
    region_count: int
    mean_regions_per_image: float
    object_tuples: int
    attribute_tuples: int
    relation_tuples: int


def corpus_stats(records: Sequence[RegionRecord]) -> CorpusStats:
    image_ids = {r.image_id for r in records}
    return CorpusStats(
        image_count=len(image_ids),
        region_count=len(records),
        mean_regions_per_image=len(records) / len(image_ids) if image_ids else 0.0,
        object_tuples=sum(len(r.scene_graph.objects) for r in records),
        attribute_tuples=sum(len(r.scene_graph.attributes) for r in records),
        relation_tuples=sum(len(r.scene_graph.relations) for r in records),
    )


# --- Visual Genome region graphs ------------------------------------------


def _normalized(term: str | None) -> str | None:
    """``normalize(term)``, or None where ``term`` is None, empty or nothing after it."""
    try:
        return normalize(term) if term else None
    except EmptyAfterNormalization:
        return None


def _vg_list(data: dict, key: str, item: type | tuple[type, ...]) -> list:
    """``data[key]``, absent meaning empty, checked to be a JSON array of ``item``."""
    items = json_typed(data.get(key, []), list, key)
    for i, value in enumerate(items):
        json_typed(value, item, f"{key}[{i}]")
    return items


def _vg_object_name(obj: dict) -> str | None:
    name = json_typed(obj.get("name"), _STR_OR_NULL, "name")
    names = json_typed(obj.get("names"), (list, type(None)), "names")
    if not name and names:
        name = json_typed(names[0], _STR_OR_NULL, "names[0]")
    return _normalized(name)


def convert_vg_regions(vg_images: Iterable[dict]) -> list[RegionRecord]:
    """Map the Visual Genome region-graph JSON layout into region records.

    Expected per-image shape: {"image_id", "regions": [{"region_id",
    "phrase", "objects": [{"object_id", "name"/"names", "attributes"?}],
    "relationships": [{"subject_id", "object_id", "predicate"}]}]}.
    Ids follow ``optional_json_id``, so ``1`` and ``"1"`` name the same object;
    a null string field counts as absent. Regions of an image without an id
    are skipped, and a region without one gets ``<image_id>_<n>``. Objects
    without a usable name, empty attributes and relationships with
    unresolvable endpoints are skipped. All terms are normalized. A bad id or
    a value of the wrong JSON type is a ValueError naming the image's index.
    """
    records: list[RegionRecord] = []
    for n, image in enumerate(vg_images):
        json_typed(image, dict, f"image {n}")
        try:
            image_id = optional_json_id(image, "image_id")
            for region in _vg_list(image, "regions", dict):
                phrase = (json_typed(region.get("phrase"), _STR_OR_NULL, "phrase") or "").strip()
                if not phrase or not image_id:
                    continue
                region_id = optional_json_id(region, "region_id") or f"{image_id}_{len(records)}"
                records.append(RegionRecord(image_id, region_id, phrase, _vg_scene_graph(region)))
        except ValueError as err:
            raise ValueError(f"image {n}: {err}") from None
    return records


def _vg_scene_graph(region: dict) -> SceneGraph:
    by_id: dict[str, str] = {}
    objects: list[str] = []
    attributes: list[tuple[str, str]] = []
    for obj in _vg_list(region, "objects", dict):
        object_id, name = optional_json_id(obj, "object_id"), _vg_object_name(obj)
        if name is None:
            continue
        if object_id:
            by_id[object_id] = name
        objects.append(name)
        for attr in _vg_list(obj, "attributes", _STR_OR_NULL):
            if attr := _normalized(attr):
                attributes.append((name, attr))
    relations: list[tuple[str, str, str]] = []
    for rel in _vg_list(region, "relationships", dict):
        subj = by_id.get(optional_json_id(rel, "subject_id"))
        obj = by_id.get(optional_json_id(rel, "object_id"))
        pred = _normalized(json_typed(rel.get("predicate"), _STR_OR_NULL, "predicate"))
        if subj and obj and pred:
            relations.append((subj, pred, obj))
    return SceneGraph(objects, attributes, relations)
