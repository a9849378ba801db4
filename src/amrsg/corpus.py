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
    normalize,
    sg_from_json,
    sg_to_json,
)

_WORD_RE = re.compile(r"[a-z0-9]+")

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


def record_from_json(data: dict) -> RegionRecord:
    image_id, region_id = json_id(data, "image_id"), json_id(data, "region_id")
    description, amr = data["description"], data.get("amr")
    if not isinstance(description, str) or not description.strip():
        raise ValueError("empty description")
    if amr is not None and not isinstance(amr, str):
        raise ValueError(f"amr is a JSON {type(amr).__name__}, not a string or null")
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
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError(f"a JSON {type(data).__name__}, not an object")
                items.append(parse(data))
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
    image_id = "" if data.get("image_id") in (None, "") else json_id(data, "image_id")
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


_ID = (str, int)


def _checked(value, types: type | tuple[type, ...], what: str):
    """``value`` if it is null or of ``types``; ValueError naming ``what``."""
    if value is None or isinstance(value, types):
        return value
    expected = {str: "a string", list: "a list", _ID: "a string or an integer"}[types]
    raise ValueError(f"{what} is a JSON {type(value).__name__}, not {expected}")


def _vg_object_name(obj: dict, where: str) -> str | None:
    name = _checked(obj.get("name"), str, f"{where}: name")
    names = _checked(obj.get("names"), list, f"{where}: names")
    if not name and names:
        name = _checked(names[0], str, f"{where}: names[0]")
    if not name:
        return None
    try:
        return normalize(name)
    except EmptyAfterNormalization:
        return None


def _objects(value, what: str) -> list[dict]:
    """``value`` if it is a list of JSON objects; ValueError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ValueError(f"{what} is not a list of objects")
    return value


def convert_vg_regions(vg_images: Iterable[dict]) -> list[RegionRecord]:
    """Map the Visual Genome region-graph JSON layout into region records.

    Expected per-image shape: {"image_id", "regions": [{"region_id",
    "phrase", "objects": [{"object_id", "name"/"names", "attributes"?}],
    "relationships": [{"subject_id", "object_id", "predicate"}]}]}.
    A null id or string field counts as absent. Objects without a usable
    name, empty attributes and relationships with unresolvable endpoints are
    skipped. All terms are normalized. Raises ValueError, naming the image by
    its index, where an image, region, object or relationship is not a JSON
    object, a list of them is not a list, ``names`` or ``attributes`` is not a
    list, a phrase, name, attribute or predicate is not a string, or an id is
    not a string or an integer.
    """
    records: list[RegionRecord] = []
    for n, image in enumerate(vg_images):
        if not isinstance(image, dict):
            raise ValueError(f"image {n} is a JSON {type(image).__name__}, not an object")
        where = f"image {n}"
        image_id = _checked(image.get("image_id"), _ID, f"{where}: image_id")
        image_id = "" if image_id is None else str(image_id)
        for region in _objects(image.get("regions", []), f"{where}: regions"):
            phrase = (_checked(region.get("phrase"), str, f"{where}: phrase") or "").strip()
            if not phrase or not image_id:
                continue
            region_id = _checked(region.get("region_id"), _ID, f"{where}: region_id")
            if region_id is None:
                region_id = f"{image_id}_{len(records)}"
            by_id: dict = {}
            objects: list[str] = []
            attributes: list[tuple[str, str]] = []
            for obj in _objects(region.get("objects", []), f"{where}: objects"):
                object_id = _checked(obj.get("object_id"), _ID, f"{where}: object_id")
                name = _vg_object_name(obj, where)
                if name is None:
                    continue
                if object_id is not None:
                    by_id[object_id] = name
                objects.append(name)
                attrs = obj.get("attributes", [])
                if not isinstance(attrs, list):
                    raise ValueError(f"{where}: attributes is not a list")
                for attr in attrs:
                    attr = _checked(attr, str, f"{where}: attribute")
                    try:
                        attributes.append((name, normalize(attr or "")))
                    except EmptyAfterNormalization:
                        continue
            relations: list[tuple[str, str, str]] = []
            for rel in _objects(region.get("relationships", []), f"{where}: relationships"):
                subj = by_id.get(_checked(rel.get("subject_id"), _ID, f"{where}: subject_id"))
                obj = by_id.get(_checked(rel.get("object_id"), _ID, f"{where}: object_id"))
                pred = _checked(rel.get("predicate"), str, f"{where}: predicate")
                if subj is None or obj is None or not pred:
                    continue
                try:
                    relations.append((subj, normalize(pred), obj))
                except EmptyAfterNormalization:
                    continue
            records.append(
                RegionRecord(
                    image_id=image_id,
                    region_id=str(region_id),
                    description=phrase,
                    scene_graph=SceneGraph(objects, attributes, relations),
                )
            )
    return records
