import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.amr import parse_penman
from amrsg.corpus import (
    RegionRecord,
    convert_vg_regions,
    corpus_stats,
    filter_ungrounded,
    load_records,
    record_from_json,
    record_to_json,
    save_records,
)
from amrsg.scenegraph import RelationTuple, SceneGraph
from helpers import FIG1_PENMAN
from test_scenegraph import _ANY_FIELD, _RULE_FIELD


def _record(image_id="1", region_id="1_0", description="A dog", objects=("dog",), **kw):
    return RegionRecord(
        image_id=image_id,
        region_id=region_id,
        description=description,
        scene_graph=SceneGraph(objects=list(objects), **kw),
    )


def _line(record):
    return json.dumps(record_to_json(record))


def test_load_well_formed(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(_line(_record(region_id="r1")) + "\n" + _line(_record(region_id="r2")) + "\n")
    result = load_records(path)
    assert len(result.records) == 2
    assert result.skipped == 0


def test_load_skips_malformed_with_position(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        _line(_record(region_id="r1")) + "\n"
        + "{not json\n"
        + _line(_record(region_id="r3")) + "\n"
        + '{"image_id": "1", "region_id": "r4", "description": "a dog", "scene_graph": []}\n'
        + "[1]\n"
        + '{"image_id": null, "region_id": "r6", "description": "a dog", "scene_graph": {}}\n'
        + '{"image_id": "1", "region_id": "", "description": "a dog", "scene_graph": {}}\n'
        + '{"image_id": 1.5, "region_id": "r8", "description": "a dog", "scene_graph": {}}\n'
        + '{"image_id": 9, "region_id": "r9", "description": "a dog", "scene_graph": {}}\n'
    )
    result = load_records(path)
    assert [(r.image_id, r.region_id) for r in result.records] == [("1", "r1"), ("1", "r3"), ("9", "r9")]
    assert result.skipped == 6
    assert [lineno for lineno, _ in result.errors] == [2, 4, 5, 6, 7, 8]
    assert "image_id is null" in result.errors[3][1]
    assert "region_id is \"\"" in result.errors[4][1]


def test_load_skips_field_outside_the_wire_grammar(tmp_path):
    path = tmp_path / "corpus.jsonl"
    bad = {"objects": [["dog"]], "attributes": [["dog", "big, red"]]}
    path.write_text(
        _line(_record(region_id="r1")) + "\n"
        + json.dumps({"image_id": "1", "region_id": "r2", "description": "a dog", "scene_graph": bad})
        + "\n"
    )
    result = load_records(path)
    assert [r.region_id for r in result.records] == ["r1"]
    assert [lineno for lineno, _ in result.errors] == [2]
    assert "'big, red'" in result.errors[0][1]


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_records("/nonexistent/corpus.jsonl")


def test_load_record_with_amr(tmp_path):
    record = RegionRecord(
        image_id="1",
        region_id="1_0",
        description="Golden retriever standing in the snow",
        scene_graph=SceneGraph(objects=["retriever", "snow"]),
        amr=FIG1_PENMAN,
    )
    path = tmp_path / "corpus.jsonl"
    path.write_text(_line(record) + "\n")
    loaded = load_records(path).records[0]
    graph = parse_penman(loaded.amr)
    assert graph.nodes["z0"] == "stand-01"


def test_save_load_roundtrip_byte_stable(tmp_path):
    records = [
        _record(region_id="r1", attributes=[("dog", "red")]),
        RegionRecord("2", "r2", "snow", SceneGraph(objects=["snow"]), amr="(z0 / snow)"),
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_records(records, first)
    save_records(load_records(first).records, second)
    assert first.read_bytes() == second.read_bytes()


# --- ungrounded-tuple filter -------------------------------------------------


def test_filter_bus_red_example():
    record = RegionRecord(
        image_id="1",
        region_id="r1",
        description="A person holding on umbrella",
        scene_graph=SceneGraph(
            objects=["person", "umbrella", "bus"],
            attributes=[("bus", "red")],
        ),
    )
    filtered = filter_ungrounded(record)
    assert {o.name for o in filtered.scene_graph.objects} == {"person", "umbrella"}
    assert filtered.scene_graph.attributes == ()


def test_filter_keeps_grounded_record_unchanged():
    record = _record(description="A dog on the mat", objects=("dog", "mat"),
                     relations=[("dog", "on", "mat")])
    assert filter_ungrounded(record).scene_graph == record.scene_graph


def test_filter_plural_stemming():
    record = _record(description="dogs running", objects=("dog",))
    assert [o.name for o in filter_ungrounded(record).scene_graph.objects] == ["dog"]
    # independent token-overlap check
    desc_tokens = {"dogs", "running", "dog", "runn", "running"[:-3]}
    assert "dog" in desc_tokens


def test_filter_ing_and_es_stemming():
    record = _record(description="a man walking past boxes", objects=("man", "walk", "box"))
    assert {o.name for o in filter_ungrounded(record).scene_graph.objects} == {"man", "walk", "box"}


def test_filter_drops_relations_with_ungrounded_endpoint():
    record = _record(
        description="a dog",
        objects=("dog", "mat"),
        relations=[("dog", "on", "mat")],
    )
    filtered = filter_ungrounded(record)
    assert {o.name for o in filtered.scene_graph.objects} == {"dog"}
    assert filtered.scene_graph.relations == ()


def test_filter_idempotent():
    rng = random.Random(83)
    words = ["dog", "cat", "snow", "tree", "bus"]
    for _ in range(50):
        description = " ".join(rng.sample(words, 2))
        record = _record(
            description=description,
            objects=tuple(rng.sample(words, 3)),
            attributes=[(rng.choice(words), "red")],
        )
        once = filter_ungrounded(record)
        twice = filter_ungrounded(once)
        assert once.scene_graph == twice.scene_graph


def test_filter_never_adds_tuples():
    rng = random.Random(89)
    words = ["dog", "cat", "snow", "tree", "bus"]
    for _ in range(50):
        record = _record(
            description=" ".join(rng.sample(words, 2)),
            objects=tuple(rng.sample(words, 3)),
        )
        before = record.scene_graph
        after = filter_ungrounded(record).scene_graph
        assert len(after.objects) + len(after.attributes) + len(after.relations) <= len(
            before.objects
        ) + len(before.attributes) + len(before.relations)


# --- statistics ----------------------------------------------------------------


def test_stats_empty():
    stats = corpus_stats([])
    assert stats.image_count == 0
    assert stats.region_count == 0
    assert stats.mean_regions_per_image == 0.0


def test_stats_two_images_three_regions_each():
    records = [
        _record(image_id=str(i), region_id=f"{i}_{j}") for i in range(2) for j in range(3)
    ]
    stats = corpus_stats(records)
    assert stats.image_count == 2
    assert stats.region_count == 6
    assert stats.mean_regions_per_image == 3.0
    assert stats.object_tuples == 6


def test_stats_regions_per_image_like_retrieval_dev_set():
    # 454 images averaging 11.2 regions: 91 images with 12 regions, rest 11
    records = []
    for i in range(454):
        n = 12 if i < 91 else 11
        for j in range(n):
            records.append(_record(image_id=str(i), region_id=f"{i}_{j}"))
    stats = corpus_stats(records)
    assert stats.mean_regions_per_image == pytest.approx(11.2, abs=0.05)


# --- Visual Genome converter ---------------------------------------------------


def test_vg_convert_basic():
    vg = [
        {
            "image_id": 7,
            "regions": [
                {
                    "region_id": 70,
                    "phrase": "A red bus on the street",
                    "objects": [
                        {"object_id": 1, "name": "Bus", "attributes": ["Red"]},
                        {"object_id": 2, "names": ["street"]},
                    ],
                    "relationships": [
                        {"subject_id": 1, "object_id": 2, "predicate": "ON"}
                    ],
                }
            ],
        }
    ]
    records = convert_vg_regions(vg)
    assert len(records) == 1
    record = records[0]
    assert record.image_id == "7" and record.region_id == "70"
    assert record.scene_graph == SceneGraph(
        objects=["bus", "street"],
        attributes=[("bus", "red")],
        relations=[("bus", "on", "street")],
    )


def test_vg_convert_skips_unresolvable():
    vg = [
        {
            "image_id": 1,
            "regions": [
                {
                    "region_id": 10,
                    "phrase": "something",
                    "objects": [{"object_id": 1, "name": "dog"}],
                    "relationships": [{"subject_id": 1, "object_id": 99, "predicate": "on"}],
                },
                {"region_id": 11, "phrase": "", "objects": []},
            ],
        }
    ]
    records = convert_vg_regions(vg)
    assert len(records) == 1
    assert records[0].scene_graph.relations == ()


def test_vg_convert_null_object_id_resolves_nothing():
    vg = [
        {
            "image_id": 1,
            "regions": [
                {
                    "phrase": "a dog and a cat",
                    "objects": [{"object_id": None, "name": "dog"}, {"object_id": 2, "name": "cat"}],
                    "relationships": [{"object_id": 2, "predicate": "on"}],
                }
            ],
        }
    ]
    (record,) = convert_vg_regions(vg)
    assert record.scene_graph == SceneGraph(objects=["dog", "cat"])


def test_vg_convert_null_fields_count_as_absent():
    vg = [
        {"image_id": None, "regions": [{"phrase": "x"}]},
        {
            "image_id": 0,
            "regions": [
                {
                    "region_id": None,
                    "phrase": "a big dog",
                    "objects": [{"object_id": 1, "name": "dog", "attributes": [None, "Big"]}],
                }
            ],
        },
    ]
    (record,) = convert_vg_regions(vg)
    assert (record.image_id, record.region_id) == ("0", "0_0")
    assert record.scene_graph == SceneGraph(objects=["dog"], attributes=[("dog", "big")])


def test_vg_convert_ids_follow_the_record_id_rule():
    objects = [
        {"object_id": 1, "name": "dog"},
        {"object_id": "", "name": "cat"},
        {"object_id": "2", "name": "mat"},
    ]
    relationships = [
        {"subject_id": "1", "object_id": 2, "predicate": "on"},
        {"subject_id": "", "object_id": 2, "predicate": "near"},
    ]
    region = {"region_id": "", "phrase": "a dog on a mat", "objects": objects, "relationships": relationships}
    (record,) = convert_vg_regions([{"image_id": 1, "regions": [region]}])
    assert (record.image_id, record.region_id) == ("1", "1_0")
    assert record.scene_graph.relations == (RelationTuple("dog", "on", "mat"),)


# Ids of every kind the id rule names: booleans are errors, null and "" no id.
_VG_ID = st.sampled_from([None, "", True, False]) | st.integers() | st.text(min_size=1, max_size=3)
_VG_FIELD = _RULE_FIELD | _ANY_FIELD | st.none()
_VG_OBJECT = st.fixed_dictionaries(
    {"object_id": _VG_ID, "name": _VG_FIELD, "attributes": st.lists(_VG_FIELD, max_size=2)},
    optional={"names": st.lists(_VG_FIELD, max_size=2)},
)


@st.composite
def _vg_region(draw) -> dict:
    objects = draw(st.lists(_VG_OBJECT, max_size=3))
    # endpoints name the region's objects, an integer id also by its string, or nothing
    ids = [o["object_id"] for o in objects]
    endpoint = st.sampled_from(ids + [str(i) for i in ids if type(i) is int] + [None, ""])
    relationship = st.fixed_dictionaries(
        {"subject_id": endpoint, "object_id": endpoint, "predicate": _VG_FIELD}
    )
    return {
        "region_id": draw(_VG_ID),
        "phrase": draw(_VG_FIELD),
        "objects": objects,
        "relationships": draw(st.lists(relationship, max_size=3)),
    }


_VG_IMAGE = st.fixed_dictionaries({"image_id": _VG_ID, "regions": st.lists(_vg_region(), max_size=2)})


@settings(max_examples=300, deadline=None)
@given(st.lists(_VG_IMAGE, max_size=2))
def test_every_vg_record_reads_back_unchanged(images):
    try:
        records = convert_vg_regions(images)
    except ValueError as err:  # only a boolean id breaks the rules here
        assert " is true, " in str(err) or " is false, " in str(err)
        return
    for record in records:
        assert record_from_json(record_to_json(record)) == record
