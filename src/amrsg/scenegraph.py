"""Scene graphs as tuple multisets plus their canonical text serialization.

A scene graph is three multisets: object names, (object, attribute) pairs,
and (subject, predicate, object) triples. The wire format used both as the
seq2seq target and as the evaluator input is::

    ( retriever ) ( snow ) ( retriever , golden ) ( retriever , standing in , snow )

i.e. one parenthesized group per tuple, arity 1/2/3 distinguishing the
kind, sections ordered objects, attributes, relations, lexicographic
within each section. A field is a non-empty string with no leading or
trailing whitespace and no '(', ')' or ','; ``SceneGraph`` rejects any other,
so every scene graph survives ``parse_sg_text(serialize_sg(sg))``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence, Union

# bumped when the wire grammar changes
GRAMMAR_VERSION = "1"

_ARTICLES = {"a", "an", "the"}
_DELIMS_TO_SPACES = str.maketrans("(),", "   ")


class SgError(ValueError):
    pass


class EmptyAfterNormalization(SgError):
    pass


class BadArity(SgError):
    pass


class UnbalancedParentheses(SgError):
    pass


def normalize(term: str) -> str:
    """Lowercase, turn '(', ')' and ',' into spaces, collapse whitespace,
    strip leading articles."""
    words = term.lower().translate(_DELIMS_TO_SPACES).split()
    while words and words[0] in _ARTICLES:
        words.pop(0)
    if not words:
        raise EmptyAfterNormalization(f"nothing left of {term!r} after normalization")
    return " ".join(words)


# Each kind hashes, compares and sorts as the plain tuple of its fields; kinds
# never compare equal to each other because their arities differ.
class ObjectTuple(NamedTuple):
    name: str


class AttributeTuple(NamedTuple):
    object: str
    attribute: str


class RelationTuple(NamedTuple):
    subject: str
    predicate: str
    object: str


SgTuple = Union[ObjectTuple, AttributeTuple, RelationTuple]


class SceneGraph:
    """Multisets of object/attribute/relation tuples.

    Objects referenced by attributes or relations but absent from the object
    multiset are auto-inserted once at construction. Equality is multiset
    equality per section; insertion order is otherwise irrelevant. Raises
    SgError for a field that breaks the wire grammar's field rule.
    """

    def __init__(
        self,
        objects: Iterable[str | ObjectTuple] = (),
        attributes: Iterable[Sequence[str] | AttributeTuple] = (),
        relations: Iterable[Sequence[str] | RelationTuple] = (),
    ):
        objs = [o if isinstance(o, ObjectTuple) else ObjectTuple(o) for o in objects]
        attrs = [a if isinstance(a, AttributeTuple) else AttributeTuple(*a) for a in attributes]
        rels = [r if isinstance(r, RelationTuple) else RelationTuple(*r) for r in relations]
        for t in objs + attrs + rels:
            for f in t:
                # plain `in` tests: cheaper than a set or regex call per field
                bad = not isinstance(f, str) or not f or f != f.strip()
                if bad or "(" in f or ")" in f or "," in f:
                    raise SgError(
                        f"field {f!r} of {tuple(t)}: a field is a non-empty string with no"
                        " surrounding whitespace and no '(', ')' or ','"
                    )
        present = {o.name for o in objs}
        referenced = [a.object for a in attrs] + [n for r in rels for n in (r.subject, r.object)]
        objs += [ObjectTuple(n) for n in dict.fromkeys(referenced) if n not in present]
        self.objects: tuple[ObjectTuple, ...] = tuple(objs)
        self.attributes: tuple[AttributeTuple, ...] = tuple(attrs)
        self.relations: tuple[RelationTuple, ...] = tuple(rels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SceneGraph):
            return NotImplemented
        return (
            Counter(self.objects) == Counter(other.objects)
            and Counter(self.attributes) == Counter(other.attributes)
            and Counter(self.relations) == Counter(other.relations)
        )

    def __repr__(self) -> str:
        return (
            f"SceneGraph(objects={[o.name for o in self.objects]}, "
            f"attributes={[tuple(a) for a in self.attributes]}, "
            f"relations={[tuple(r) for r in self.relations]})"
        )


def to_tuples(sg: SceneGraph) -> list[SgTuple]:
    """Flat multiset union of the three sections."""
    return list(sg.objects) + list(sg.attributes) + list(sg.relations)


def serialize_sg(sg: SceneGraph) -> str:
    """Render the canonical target string (sections sorted lexicographically)."""
    groups = []
    for t in sorted(sg.objects) + sorted(sg.attributes) + sorted(sg.relations):
        groups.append("( " + " , ".join(t) + " )")
    return " ".join(groups)


def parse_sg_text(text: str) -> SceneGraph:
    """Inverse of serialize_sg up to ordering; arity dispatches tuple kind."""
    objects: list[ObjectTuple] = []
    attributes: list[AttributeTuple] = []
    relations: list[RelationTuple] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c != "(":
            raise UnbalancedParentheses(f"unexpected {c!r} at offset {i}")
        end = text.find(")", i + 1)
        if end == -1:
            raise UnbalancedParentheses(f"unclosed group at offset {i}")
        inner = text[i + 1 : end]
        if "(" in inner:
            raise UnbalancedParentheses(f"nested group at offset {i}")
        fields = [f.strip() for f in inner.split(",")]
        if any(not f for f in fields):
            raise BadArity(f"empty field in group at offset {i}")
        if len(fields) == 1:
            objects.append(ObjectTuple(fields[0]))
        elif len(fields) == 2:
            attributes.append(AttributeTuple(*fields))
        elif len(fields) == 3:
            relations.append(RelationTuple(*fields))
        else:
            raise BadArity(f"group with {len(fields)} fields at offset {i}")
        i = end + 1
    return SceneGraph(objects, attributes, relations)


# --- JSON rendering --------------------------------------------------------


def sg_to_json(sg: SceneGraph) -> dict:
    """JSON-ready dict: each section an array of arrays of strings."""
    return {
        "objects": [list(t) for t in sg.objects],
        "attributes": [list(t) for t in sg.attributes],
        "relations": [list(t) for t in sg.relations],
    }


# JSON's name for each Python type that json.loads returns, and the wording of an expected one
_JSON_NAMES = {"dict": "object", "list": "array", "str": "string", "int": "number",
               "float": "number", "bool": "boolean", "NoneType": "null"}
_EXPECTED = {dict: "an object", list: "an array", str: "a string", type(None): "null"}


def json_typed(value, types: type | tuple[type, ...], what: str, error: type = ValueError):
    """``value`` if it is an instance of ``types``, else ``error`` reading
    ``<what> is a JSON <type>, not <expected>``: the type rule of every JSON reader."""
    if isinstance(value, types):
        return value
    expected = " or ".join(_EXPECTED[t] for t in (types if isinstance(types, tuple) else (types,)))
    name = type(value).__name__
    raise error(f"{what} is a JSON {_JSON_NAMES.get(name, name)}, not {expected}")


_SECTIONS = {"objects": ObjectTuple, "attributes": AttributeTuple, "relations": RelationTuple}


def sg_from_json(data: dict) -> SceneGraph:
    """Inverse of sg_to_json; SgError for any other JSON value."""
    json_typed(data, dict, "scene graph", SgError)
    sections = []
    for key, kind in _SECTIONS.items():
        items, arity = data.get(key, []), len(kind._fields)
        # one pass, then compare counts; tuple.__new__ is NamedTuple._make without its overhead
        section = isinstance(items, list) and [
            tuple.__new__(kind, t) for t in items if isinstance(t, list) and len(t) == arity
        ]
        if section is False or len(section) != len(items):
            raise SgError(f"{key} is not a list of {arity}-field arrays")
        sections.append(section)
    return SceneGraph(*sections)
