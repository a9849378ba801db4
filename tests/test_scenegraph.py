import copy
import pickle
import random
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.amr import parse_penman
from amrsg.convert import convert_rules
from amrsg.corpus import RegionRecord, filter_ungrounded, load_records
from amrsg.retrieval import load_index
from amrsg.scenegraph import (
    SYMBOLS,
    AttributeTuple,
    BadArity,
    EmptyAfterNormalization,
    ObjectTuple,
    RelationTuple,
    SceneGraph,
    SgError,
    UnbalancedParentheses,
    normalize,
    parse_sg_text,
    serialize_sg,
    sg_from_json,
    sg_to_json,
    to_tuples,
)
from helpers import normalize_oracle, random_graph, random_scene_graph, reference_parse_sg_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Golden  Retriever ", "golden retriever"),
        ("the snow", "snow"),
        ("A person", "person"),
        ("AN  Umbrella", "umbrella"),
        ("dog", "dog"),
        ("The Old Oak tree", "old oak tree"),
        ("Big, red (car)", "big red car"),
        ("the,dog)", "dog"),
    ],
)
def test_normalize(raw, expected):
    assert normalize(raw) == expected
    assert normalize(raw) == normalize_oracle(raw)


@pytest.mark.parametrize("raw", ["", "   ", "the", "a  an the", "( , )", "(the)"])
def test_normalize_empty(raw):
    with pytest.raises(EmptyAfterNormalization):
        normalize(raw)


# Whitespace that str.split() and re's \s both know, letters that change
# length or leave ASCII when lowercased, the delimiters and the articles.
_TERM = st.lists(
    st.sampled_from(["\xa0", "\x1c", " ", "\u0130", "\u212a", "(", ")", ",", "a", "an", "the",
                     "The", "dog", "x"]),
    max_size=6,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TERM)
def test_normalize_matches_the_oracle(term):
    try:
        got = normalize(term)
    except EmptyAfterNormalization:
        got = ""  # the oracle's "nothing left"
    assert got == normalize_oracle(term)


def test_serialize_fig1_semantics():
    sg = SceneGraph(
        objects=["retriever", "snow"],
        attributes=[("retriever", "golden")],
        relations=[("retriever", "standing in", "snow")],
    )
    assert serialize_sg(sg) == "( retriever ) ( snow ) ( retriever , golden ) ( retriever , standing in , snow )"


def test_serialize_empty():
    assert serialize_sg(SceneGraph()) == ""


def test_serialize_single_object():
    assert serialize_sg(SceneGraph(objects=["dog"])) == "( dog )"


def test_serialize_is_sorted_within_sections():
    sg = SceneGraph(objects=["zebra", "ant"], attributes=[("zebra", "striped"), ("ant", "small")])
    assert serialize_sg(sg) == "( ant ) ( zebra ) ( ant , small ) ( zebra , striped )"


def test_parse_single_object():
    assert parse_sg_text("( dog )") == SceneGraph(objects=["dog"])


def test_parse_attribute_auto_inserts_object():
    sg = parse_sg_text("( retriever , golden )")
    assert [o.name for o in sg.objects] == ["retriever"]
    assert sg.attributes == (AttributeTuple("retriever", "golden"),)


def test_parse_bad_arity():
    with pytest.raises(BadArity):
        parse_sg_text("( a , b , c , d )")
    with pytest.raises(BadArity):
        parse_sg_text("( )")


def test_parse_unbalanced():
    with pytest.raises(UnbalancedParentheses):
        parse_sg_text("( dog ")
    with pytest.raises(UnbalancedParentheses):
        parse_sg_text("dog )")


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("( dog ) x", UnbalancedParentheses, "unexpected 'x' at offset 8"),
        ("( dog ) )", UnbalancedParentheses, "unexpected ')' at offset 8"),
        (" , ( dog )", UnbalancedParentheses, "unexpected ',' at offset 1"),
        ("( dog ) ( cat", UnbalancedParentheses, "unclosed group at offset 8"),
        ("( dog ) ( a ( b ) )", UnbalancedParentheses, "nested group at offset 8"),
        ("( dog ) ( a ( b", UnbalancedParentheses, "unclosed group at offset 8"),
        ("( dog ) ( a , , b )", BadArity, "empty field in group at offset 8"),
        ("( dog ) ( a , )", BadArity, "empty field in group at offset 8"),
        ("( dog ) ( )", BadArity, "empty field in group at offset 8"),
        ("( dog ) ( a , b , c , d )", BadArity, "group with 4 fields at offset 8"),
        ("( a , b , c , )", BadArity, "empty field in group at offset 0"),
        ("\xa0\x1c(a)\u3000x", UnbalancedParentheses, "unexpected 'x' at offset 6"),
    ],
)
def test_parse_error_class_message_and_offset(text, error, message):
    with pytest.raises(SgError) as info:
        parse_sg_text(text)
    assert type(info.value) is error
    assert str(info.value) == message


# Texts of the wire grammar, with whitespace that str.strip removes but that
# no ASCII space test sees, and stray delimiters.
_WIRE_PIECE = st.sampled_from(
    ["(", ")", ",", " ", "\x1c", "\xa0", "\u2028", "\t", "dog", "a b", "red car", "x"]
)
_WIRE_GROUP = st.lists(st.sampled_from(["dog", "a b", " cat ", "\xa0red\x1c", ""]), max_size=5).map(
    lambda fields: "(" + ",".join(fields) + ")"
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_WIRE_GROUP | _WIRE_PIECE, max_size=12).map("".join)
    | st.text(alphabet=st.sampled_from(" \t\n\x1c\xa0ab(),") | st.characters(), max_size=40)
)
def test_parse_matches_the_character_loop_reference(text):
    try:
        expected = reference_parse_sg_text(text)
    except SgError as err:
        with pytest.raises(SgError) as info:
            parse_sg_text(text)
        assert (type(info.value), str(info.value)) == (type(err), str(err))
        return
    parsed = parse_sg_text(text)
    assert (parsed.objects, parsed.attributes, parsed.relations) == (
        expected.objects, expected.attributes, expected.relations
    )


def test_roundtrip_property():
    rng = random.Random(3)
    for _ in range(200):
        sg = random_scene_graph(rng)
        assert parse_sg_text(serialize_sg(sg)) == sg


def test_to_tuples_counts():
    sg = SceneGraph(
        objects=["retriever", "snow"],
        attributes=[("retriever", "gold")],
        relations=[("retriever", "stand in", "snow")],
    )
    tuples = to_tuples(sg)
    assert len(tuples) == 4
    assert sum(isinstance(t, ObjectTuple) for t in tuples) == 2
    assert sum(isinstance(t, AttributeTuple) for t in tuples) == 1
    assert sum(isinstance(t, RelationTuple) for t in tuples) == 1


def test_to_tuples_empty():
    assert to_tuples(SceneGraph()) == []


def test_multiset_semantics():
    sg = SceneGraph(objects=["a", "a"])
    assert to_tuples(sg) == [ObjectTuple("a"), ObjectTuple("a")]
    assert sg != SceneGraph(objects=["a"])
    assert (SceneGraph(objects=["dog"]) == "dog") is False


def test_tuple_count_invariant():
    rng = random.Random(31)
    for _ in range(50):
        sg = random_scene_graph(rng)
        assert len(to_tuples(sg)) == len(sg.objects) + len(sg.attributes) + len(sg.relations)


def test_closure_invariant():
    rng = random.Random(37)
    for _ in range(50):
        sg = random_scene_graph(rng)
        names = {o.name for o in sg.objects}
        for a in sg.attributes:
            assert a.object in names
        for r in sg.relations:
            assert r.subject in names and r.object in names


def test_relation_endpoints_auto_inserted():
    sg = SceneGraph(relations=[("dog", "on", "mat")])
    assert {o.name for o in sg.objects} == {"dog", "mat"}


def test_json_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        sg = random_scene_graph(rng)
        assert sg_from_json(sg_to_json(sg)) == sg


def test_json_shape():
    sg = SceneGraph(objects=["dog"], attributes=[("dog", "red")], relations=[("dog", "on", "mat")])
    data = sg_to_json(sg)
    assert data["attributes"] == [["dog", "red"]]
    assert data["relations"] == [["dog", "on", "mat"]]
    assert ["dog"] in data["objects"] and ["mat"] in data["objects"]


def test_auto_inserted_objects_in_first_reference_order():
    sg = SceneGraph(
        objects=["cat"],
        attributes=[("dog", "red"), ("cat", "big"), ("dog", "old")],
        relations=[("mat", "under", "dog"), ("dog", "on", "rug")],
    )
    assert [o.name for o in sg.objects] == ["cat", "dog", "mat", "rug"]


def test_tuple_kinds_are_their_field_tuples():
    assert ObjectTuple("dog") == ("dog",)
    assert RelationTuple("dog", "on", "mat") == ("dog", "on", "mat")
    assert len({ObjectTuple("dog"), AttributeTuple("dog", "red"), RelationTuple("dog", "on", "mat")}) == 3
    assert repr(AttributeTuple("dog", "red")) == "AttributeTuple(object='dog', attribute='red')"
    assert repr(SceneGraph(attributes=[("dog", "red")])) == (
        "SceneGraph(objects=['dog'], attributes=[('dog', 'red')], relations=[])"
    )
    with pytest.raises(TypeError):
        AttributeTuple("dog", "red", "mat")


@pytest.mark.parametrize(
    "field", ["", " dog", "dog ", "\t", "a, b", "dog (big)", "x )", "(", 5, None]
)
def test_field_outside_the_wire_grammar_is_an_error(field):
    with pytest.raises(SgError):
        SceneGraph(objects=[field])
    with pytest.raises(SgError):
        SceneGraph(attributes=[("dog", field)])
    with pytest.raises(SgError):
        SceneGraph(relations=[(field, "on", "mat")])


_RULE = "a field is a non-empty string with no surrounding whitespace and no '(', ')' or ','"
_SHAPE = "not a tuple or list of"


@pytest.mark.parametrize(
    "sections, message",
    [
        # a bare string is one item, not a sequence of fields
        ({"attributes": ["ab"]}, f"AttributeTuple 'ab': {_SHAPE} 2 fields"),
        ({"relations": ["abc"]}, f"RelationTuple 'abc': {_SHAPE} 3 fields"),
        ({"attributes": [("dog",)]}, f"AttributeTuple ('dog',): {_SHAPE} 2 fields"),
        ({"attributes": [["dog", "red", "x"]]}, f"AttributeTuple ['dog', 'red', 'x']: {_SHAPE} 2 fields"),
        ({"attributes": [None]}, f"AttributeTuple None: {_SHAPE} 2 fields"),
        (
            {"attributes": [("dog", "red"), ObjectTuple("dog")]},
            f"AttributeTuple ObjectTuple(name='dog'): {_SHAPE} 2 fields",
        ),
        (
            {"relations": [AttributeTuple("dog", "red")]},
            f"RelationTuple AttributeTuple(object='dog', attribute='red'): {_SHAPE} 3 fields",
        ),
        ({"relations": [("dog", "on")]}, f"RelationTuple ('dog', 'on'): {_SHAPE} 3 fields"),
        # an iterable of three fields that is not a tuple or list
        ({"relations": [range(3)]}, f"RelationTuple range(0, 3): {_SHAPE} 3 fields"),
        # items in order of section, and an item's shape before its fields
        ({"objects": [" dog"], "attributes": ["ab"]}, f"field ' dog' of (' dog',): {_RULE}"),
        ({"attributes": [("dog", " red"), "ab"]}, f"field ' red' of ('dog', ' red'): {_RULE}"),
        ({"relations": [("dog", "on", "mat", " x")]}, f"RelationTuple ('dog', 'on', 'mat', ' x'): {_SHAPE} 3 fields"),
        # an object is a string, so a tuple is a bad field, not an object
        ({"objects": [("dog",)]}, f"field ('dog',) of (('dog',),): {_RULE}"),
    ],
)
def test_scene_graph_item_errors(sections, message):
    with pytest.raises(SgError) as info:
        SceneGraph(**sections)
    assert str(info.value) == message


def test_scene_graph_takes_tuples_and_lists_of_each_arity():
    sg = SceneGraph(["dog", ObjectTuple("cat")], [["dog", "red"], AttributeTuple("cat", "big")], [("dog", "on", "mat")])
    assert sg.objects == (("dog",), ("cat",), ("mat",))
    assert sg.attributes == (("dog", "red"), ("cat", "big"))
    assert [type(t) for t in to_tuples(sg)] == [ObjectTuple] * 3 + [AttributeTuple] * 2 + [RelationTuple]


def test_a_scene_graph_survives_pickle_and_copy():
    sg = SceneGraph(["dog", "dog"], [("dog", "red")], [("dog", "on", "mat")])
    for again in (pickle.loads(pickle.dumps(sg)), copy.copy(sg), copy.deepcopy(sg)):
        assert type(again) is SceneGraph and again is not sg
        assert (again.objects, again.attributes, again.relations) == (sg.objects, sg.attributes, sg.relations)
        assert [type(t) for t in to_tuples(again)] == [type(t) for t in to_tuples(sg)]
    assert pickle.loads(pickle.dumps(SceneGraph())) == SceneGraph()


def _in_field_rule(field) -> bool:
    return isinstance(field, str) and bool(field) and field == field.strip() and not set(field) & set("(),")


# Any text, with the characters the wire grammar gives a meaning to made common.
_ANY_FIELD = st.text(alphabet=st.characters() | st.sampled_from(" \t\n\u00a0ab(),"), max_size=6)
# The same text made to follow the field rule.
_RULE_FIELD = _ANY_FIELD.map(lambda f: f.translate({ord(c): None for c in "(),"}).strip()).filter(bool)


def _sections(field):
    """(objects, attributes, relations) with every field drawn from ``field``."""
    return st.tuples(
        st.lists(field, max_size=3),
        st.lists(st.tuples(field, field), max_size=3),
        st.lists(st.tuples(field, field, field), max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(_sections(_ANY_FIELD | st.none() | st.integers()))
def test_scene_graph_accepts_exactly_the_field_rule(sections):
    objects, attributes, relations = sections
    fields = objects + [f for t in attributes + relations for f in t]
    try:
        SceneGraph(*sections)
    except SgError:
        assert not all(_in_field_rule(f) for f in fields)
    else:
        assert all(_in_field_rule(f) for f in fields)


@settings(max_examples=300, deadline=None)
@given(_sections(_RULE_FIELD) | _sections(_ANY_FIELD))
def test_every_accepted_scene_graph_round_trips(sections):
    try:
        sg = SceneGraph(*sections)
    except SgError:
        return
    assert parse_sg_text(serialize_sg(sg)) == sg


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(" \t\nab(),") | st.characters(), max_size=40))
def test_arbitrary_text_raises_only_sg_error(text):
    try:
        sg = parse_sg_text(text)
    except SgError:
        return
    assert parse_sg_text(serialize_sg(sg)) == sg


# Any JSON value, with the section keys and arrays of fields made common.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_FIELD,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["objects", "attributes", "relations"]) | _ANY_FIELD, inner, max_size=3),
    max_leaves=12,
)
_SECTION_JSON = st.dictionaries(
    st.sampled_from(["objects", "attributes", "relations"]),
    st.lists(st.lists(_RULE_FIELD | _ANY_FIELD | st.none(), min_size=1, max_size=3), max_size=3) | _JSON,
)


@settings(max_examples=300, deadline=None)
@given(_JSON | _SECTION_JSON | _sections(_RULE_FIELD).map(lambda s: sg_to_json(SceneGraph(*s))))
def test_arbitrary_json_gives_a_scene_graph_or_sg_error(data):
    try:
        sg = sg_from_json(data)
    except SgError:
        return
    assert sg_from_json(sg_to_json(sg)) == sg


@pytest.mark.parametrize(
    "data, message",
    [
        ({"objects": [[1]]}, f"field 1 of (1,): {_RULE}"),
        ({"objects": [[None]]}, f"field None of (None,): {_RULE}"),
        ({"relations": [["dog", None, "mat"]]}, f"field None of ('dog', None, 'mat'): {_RULE}"),
        ({"objects": [[""]]}, f"field '' of ('',): {_RULE}"),
        ({"objects": [[" dog"]]}, f"field ' dog' of (' dog',): {_RULE}"),
        ({"attributes": [["dog", "red\t"]]}, f"field 'red\\t' of ('dog', 'red\\t'): {_RULE}"),
        ({"objects": [["a (b"]]}, f"field 'a (b' of ('a (b',): {_RULE}"),
        ({"objects": [["a)"]]}, f"field 'a)' of ('a)',): {_RULE}"),
        ({"relations": [["dog", "on, in", "mat"]]}, f"field 'on, in' of ('dog', 'on, in', 'mat'): {_RULE}"),
        # the first bad field in the order objects, attributes, relations
        ({"objects": [["dog"], [" cat"]], "attributes": [["dog", 1]]}, f"field ' cat' of (' cat',): {_RULE}"),
        ({"objects": "dog"}, "objects is not a list of 1-field arrays"),
        ({"objects": [["dog", "cat"]]}, "objects is not a list of 1-field arrays"),
        ({"attributes": None}, "attributes is not a list of 2-field arrays"),
        ({"attributes": [["dog"]]}, "attributes is not a list of 2-field arrays"),
        ({"relations": {}}, "relations is not a list of 3-field arrays"),
        ({"relations": [["dog", "on"]]}, "relations is not a list of 3-field arrays"),
        # a shape error in any section comes before a bad field in any section
        ({"objects": [[1]], "relations": [["dog", "on"]]}, "relations is not a list of 3-field arrays"),
        ([], "scene graph is a JSON array, not an object"),
    ],
)
def test_sg_from_json_errors(data, message):
    with pytest.raises(SgError) as info:
        sg_from_json(data)
    assert str(info.value) == message


@settings(max_examples=300, deadline=None)
@given(_sections(_ANY_FIELD | st.none() | st.integers()))
def test_sg_from_json_gives_what_the_checked_constructor_gives(sections):
    def outcome(build):
        try:
            sg = build()
        except SgError as err:
            return str(err)
        return sg.objects, sg.attributes, sg.relations

    objects, attributes, relations = sections
    data = {"objects": [[o] for o in objects], "attributes": [*map(list, attributes)], "relations": [*map(list, relations)]}
    assert outcome(lambda: sg_from_json(data)) == outcome(lambda: SceneGraph(*sections))


def test_sg_from_json_keeps_a_str_subclass_field_as_given():
    class Name(str):
        pass

    sg = sg_from_json({"objects": [[Name("dog")]], "attributes": [["dog", "red"]]})
    assert sg == SceneGraph(["dog"], [("dog", "red")])
    assert type(sg.objects[0].name) is Name and type(sg.attributes[0].object) is str
    with pytest.raises(SgError, match="field 'dog ' of"):
        sg_from_json({"objects": [[Name("dog ")]]})


@pytest.mark.parametrize("plain_first", [True, False], ids=["plain-then-subclass", "subclass-then-plain"])
def test_sg_from_json_keeps_a_str_subclass_field_in_any_section_and_order(plain_first):
    class Name(str):
        pass

    # "dog" as an attribute's object and as a relation's subject, one of them a Name
    first, second = ("dog", Name("dog")) if plain_first else (Name("dog"), "dog")
    sg = sg_from_json({"attributes": [[first, "red"]], "relations": [[second, "on", "mat"]]})
    assert sg == SceneGraph(attributes=[("dog", "red")], relations=[("dog", "on", "mat")])
    assert type(sg.attributes[0].object) is type(first) and type(sg.relations[0].subject) is type(second)
    # no Name became the stored object of its value
    assert type(parse_sg_text("( dog )").objects[0].name) is str
    assert type(sg_from_json({"objects": [["dog"]]}).objects[0].name) is str


def test_both_models_share_one_object_per_value():
    [concept] = parse_penman("(z0 / dog)").nodes.values()
    assert parse_sg_text("( dog )").objects[0].name is concept
    assert sg_from_json({"objects": [["dog"]]}).objects[0].name is concept


def test_readers_store_each_distinct_field_once():
    # the fields of every graph the three readers return, across all of them
    graphs = [r.scene_graph for r in load_records(GOLDEN / "corpus.jsonl").records]
    graphs += [sg for _, regions in load_index(GOLDEN / "index.jsonl").images for sg in regions]
    graphs += [parse_sg_text(serialize_sg(sg)) for sg in graphs]
    fields = [f for sg in graphs for t in to_tuples(sg) for f in t]
    assert len(fields) > 2 * len(set(fields))
    assert len({id(f) for f in fields}) == len(set(fields))


def test_readers_share_one_tuple_per_value():
    # every object is listed, so none is added by the constructor
    text = "( dog ) ( mat ) ( dog , red ) ( dog , on , mat )"
    data = {"objects": [["mat"], ["dog"]], "attributes": [["dog", "red"]], "relations": [["dog", "on", "mat"]]}
    first, again, from_json = parse_sg_text(text), parse_sg_text(text), sg_from_json(data)
    assert first == from_json
    by_value = {t: t for t in to_tuples(first)}
    for t in [*to_tuples(again), *to_tuples(from_json)]:
        assert t is by_value[t]
    [relation] = from_json.relations
    assert relation.subject is first.objects[0].name and relation.object is first.objects[1].name


class _Name(str):
    pass


def test_the_symbol_table_stores_each_tuple_as_its_arity_kind():
    parse_sg_text("( dog ) ( dog , red ) ( dog , on , mat )")
    load_records(GOLDEN / "corpus.jsonl")
    sg_from_json({"objects": [[_Name("cat")]], "attributes": [[_Name("cat"), "black"]]})
    kinds = {1: ObjectTuple, 2: AttributeTuple, 3: RelationTuple}
    stored = [(key, value) for key, value in SYMBOLS.items() if isinstance(key, tuple)]
    assert len(stored) > 20
    for key, value in stored:
        assert value is key and type(key) is kinds[len(key)], key
        assert all(type(f) is str and SYMBOLS[f] is f for f in key), key


def test_a_str_subclass_field_finds_no_stored_tuple():
    plain = parse_sg_text("( dog ) ( dog , red ) ( dog , on , mat )")
    sg = sg_from_json({
        "objects": [[_Name("dog")]], "attributes": [["dog", _Name("red")]], "relations": [["dog", "on", _Name("mat")]]
    })
    assert sg == plain
    # the objects dog and mat (added for the relation), the attribute and the relation
    assert [type(f) for t in to_tuples(sg) for f in t] == [_Name, _Name, str, _Name, str, str, _Name]
    assert not any(t is p for t, p in zip(to_tuples(sg), to_tuples(plain)))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"objects": [["dog,"]]}, "field 'dog,' of ('dog,',)"),
        ({"attributes": [["dog", " red"]]}, "field ' red' of ('dog', ' red')"),
        ({"relations": [["dog", "on (", "mat"]]}, "field 'on (' of ('dog', 'on (', 'mat')"),
    ],
    ids=["object", "attribute", "relation"],
)
def test_a_bad_field_raises_the_same_error_every_time_it_is_read(data, message):
    # the first read stores the tuple, so later reads find it
    for _ in range(3):
        with pytest.raises(SgError) as info:
            sg_from_json(data)
        assert str(info.value).startswith(f"{message}: a field is a non-empty string")


@pytest.mark.parametrize(
    "change",
    [
        lambda sg: setattr(sg, "objects", ("x",)),
        lambda sg: setattr(sg, "relations", ()),
        lambda sg: delattr(sg, "attributes"),
        lambda sg: setattr(sg, "extra", 1),
    ],
    ids=["assign-objects", "assign-relations", "delete-attributes", "assign-new-name"],
)
def test_a_scene_graph_refuses_assignment_and_deletion(change):
    sg = SceneGraph(["dog"], [("dog", "red")])
    with pytest.raises(AttributeError, match="a SceneGraph is immutable$"):
        change(sg)
    assert repr(sg) == "SceneGraph(objects=['dog'], attributes=[('dog', 'red')], relations=[])"


def test_scene_graph_has_no_instance_dict():
    with pytest.raises(AttributeError):
        SceneGraph(["dog"]).extra = 1


def _assert_in_field_rule(sg: SceneGraph) -> None:
    """``sg``, built again by the checking constructor, does not raise and has
    the same tuples in the same order."""
    again = SceneGraph(sg.objects, sg.attributes, sg.relations)
    assert (again.objects, again.attributes, again.relations) == (
        sg.objects, sg.attributes, sg.relations
    )


# convert_rules, parse_sg_text and filter_ungrounded build their scene graphs
# without the field check, trusting their own fields to follow the rule.
@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0),
    _sections(_RULE_FIELD),
    st.lists(st.text(alphabet=" \t\n\xa0\x1c\u2028", max_size=3), min_size=1, max_size=5),
    _ANY_FIELD,
)
def test_trusted_producers_follow_the_field_rule(seed, sections, spaces, description):
    _assert_in_field_rule(convert_rules(random_graph(random.Random(seed))))
    sg = SceneGraph(*sections)
    spaced = "".join(part + space for part, space in zip(serialize_sg(sg).split(" "), cycle(spaces)))
    parsed = parse_sg_text(spaces[-1] + spaced)
    _assert_in_field_rule(parsed)
    for graph in (sg, parsed):
        # every other object named in the description, so that some are kept
        named = " ".join(name for name, in graph.objects[::2])
        record = RegionRecord("1", "1_0", f"{description} {named}", graph)
        _assert_in_field_rule(filter_ungrounded(record).scene_graph)
