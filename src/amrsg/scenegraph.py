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

import re
from collections import Counter
from typing import Iterable, NamedTuple, Sequence, Union

# bumped when the wire grammar changes
GRAMMAR_VERSION = "1"

_ARTICLES = {"a", "an", "the"}
_DELIMS_TO_SPACES = str.maketrans("(),", "   ")
_ONE_WORD = re.compile(r"[^\s(),]+").fullmatch


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
    # one lowercase word that is not an article is its own normal form; ``\s``
    # and ``str.split()`` share one whitespace test
    if _ONE_WORD(term) and term == term.lower() and term not in _ARTICLES:
        return term
    words = term.lower().translate(_DELIMS_TO_SPACES).split()
    while words and words[0] in _ARTICLES:
        words.pop(0)
    if not words:
        raise EmptyAfterNormalization(f"nothing left of {term!r} after normalization")
    return " ".join(words)


def normalize_or_none(term: str | None) -> str | None:
    """``normalize(term)``, or None where ``term`` is None, empty or nothing after it."""
    try:
        return normalize(term) if term else None
    except EmptyAfterNormalization:
        return None


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
_SECTIONS = {"objects": ObjectTuple, "attributes": AttributeTuple, "relations": RelationTuple}


def _is_field(f: object) -> bool:
    """The field rule; plain ``in`` tests cost less than a set or regex call."""
    return (
        isinstance(f, str) and f != "" and f == f.strip() and "(" not in f and ")" not in f and "," not in f
    )


class SceneGraph:
    """Multisets of object/attribute/relation tuples.

    Objects referenced by attributes or relations but absent from the object
    multiset are auto-inserted once at construction. Equality is multiset
    equality per section; insertion order is otherwise irrelevant. ``__new__``
    takes objects as strings or ``ObjectTuple``s and attributes and relations
    as tuples or lists of their arity, raises SgError for any other item or for
    a field off the field rule, then hands them to ``_unchecked``, the trusted
    constructor that the readers and ``convert_rules`` take. Assigning to or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ("objects", "attributes", "relations")
    objects: tuple[ObjectTuple, ...]
    attributes: tuple[AttributeTuple, ...]
    relations: tuple[RelationTuple, ...]

    def __new__(
        cls,
        objects: Iterable[str | ObjectTuple] = (),
        attributes: Iterable[Sequence[str] | AttributeTuple] = (),
        relations: Iterable[Sequence[str] | RelationTuple] = (),
    ):
        sections = [o if isinstance(o, ObjectTuple) else (o,) for o in objects], [*attributes], [*relations]
        for kind, items in zip(_SECTIONS.values(), sections):
            arity = len(kind._fields)
            for i, t in enumerate(items):
                if not (isinstance(t, (tuple, list)) and len(t) == arity):
                    raise SgError(f"{kind.__name__} {t!r}: not a tuple or list of {arity} fields")
                for f in t:
                    if not _is_field(f):
                        raise SgError(
                            f"field {f!r} of {tuple(t)}: a field is a non-empty string with no"
                            " surrounding whitespace and no '(', ')' or ','"
                        )
                items[i] = tuple.__new__(kind, t)
        return cls._unchecked(*sections)

    @classmethod
    def _unchecked(
        cls, objs: list[ObjectTuple], attrs: list[AttributeTuple], rels: list[RelationTuple]
    ) -> SceneGraph:
        """The one writer of a scene graph's sections, from tuples that its
        caller built to the field rule. Takes ownership of ``objs``, and adds to
        it, in order of first mention, each object the other tuples name."""
        if attrs or rels:
            named = dict.fromkeys([obj for obj, _ in attrs])
            for subj, _, obj in rels:
                named[subj] = named[obj] = None
            present = {name for name, in objs}
            objs += [tuple.__new__(ObjectTuple, (n,)) for n in named if n not in present]
        sg = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(sg, "objects", tuple(objs))
        setattr_(sg, "attributes", tuple(attrs))
        setattr_(sg, "relations", tuple(rels))
        return sg

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a SceneGraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a SceneGraph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SceneGraph):
            return NotImplemented
        # one multiset: tuples of different kinds never collide, their arities differ
        return Counter(to_tuples(self)) == Counter(to_tuples(other))

    def __repr__(self) -> str:
        return (
            f"SceneGraph(objects={[o.name for o in self.objects]}, "
            f"attributes={[tuple(a) for a in self.attributes]}, "
            f"relations={[tuple(r) for r in self.relations]})"
        )

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since assignment raises
        return self.__class__, (self.objects, self.attributes, self.relations)


def to_tuples(sg: SceneGraph) -> list[SgTuple]:
    """Flat multiset union of the three sections: objects, attributes, relations."""
    return [*sg.objects, *sg.attributes, *sg.relations]


def serialize_sg(sg: SceneGraph) -> str:
    """Render the canonical target string (sections sorted lexicographically)."""
    groups = []
    for t in sorted(sg.objects) + sorted(sg.attributes) + sorted(sg.relations):
        groups.append("( " + " , ".join(t) + " )")
    return " ".join(groups)


# One group's 1-3 fields, each without the whitespace around it, or one
# character that starts no group. ``\s`` matches exactly the characters that
# ``str.isspace`` accepts, so a field is what ``str.strip`` leaves of it.
_FIELD = r"([^\s(),]+(?:\s+[^\s(),]+)*)"
_GROUP_RE = re.compile(
    rf"\(\s*{_FIELD}\s*(?:,\s*{_FIELD}\s*(?:,\s*{_FIELD}\s*)?)?\)|(\S)"
)
# Each string that parse_penman, iter_penman_blocks, parse_sg_text and
# sg_from_json store, and each tuple the last two store, mapped to itself: one
# object per value for the life of the process, shared by the graphs of both
# models. A tuple is stored only as its arity's kind; the plain tuple of its
# fields finds it, since the two hash and compare alike.
SYMBOLS: dict[str | SgTuple, str | SgTuple] = {}


def _store(kind: type[SgTuple], *fields: str) -> SgTuple:
    """The ``kind`` tuple of ``fields``, each exactly a str, that ``SYMBOLS``
    holds, built from stored fields and stored under itself where it has none."""
    t = tuple.__new__(kind, [SYMBOLS.setdefault(f, f) for f in fields])
    return SYMBOLS.setdefault(t, t)


def _group_error(text: str, i: int) -> SgError:
    """The error of the stray character or malformed group at offset ``i``."""
    if text[i] != "(":
        return UnbalancedParentheses(f"unexpected {text[i]!r} at offset {i}")
    end = text.find(")", i + 1)
    if end == -1:
        return UnbalancedParentheses(f"unclosed group at offset {i}")
    inner = text[i + 1 : end]
    if "(" in inner:
        return UnbalancedParentheses(f"nested group at offset {i}")
    fields = inner.split(",")
    if not all(f.strip() for f in fields):
        return BadArity(f"empty field in group at offset {i}")
    # a group of 1-3 non-empty fields matches the pattern, so this one has more
    return BadArity(f"group with {len(fields)} fields at offset {i}")


def parse_sg_text(text: str) -> SceneGraph:
    """Inverse of serialize_sg up to ordering; arity dispatches tuple kind.

    Raises UnbalancedParentheses for a stray character, an unclosed or a
    nested group, and BadArity for an empty field or more than three, each
    naming the offset of the first such character or group. Each tuple, and
    each of its fields, is the one object per value that ``SYMBOLS`` holds.
    """
    objects: list[ObjectTuple] = []
    attributes: list[AttributeTuple] = []
    relations: list[RelationTuple] = []
    stored = SYMBOLS.get
    for a, b, c, _ in _GROUP_RE.findall(text):
        if c:
            relations.append(stored((a, b, c)) or _store(RelationTuple, a, b, c))
        elif b:
            attributes.append(stored((a, b)) or _store(AttributeTuple, a, b))
        elif a:
            objects.append(stored((a,)) or _store(ObjectTuple, a))
        else:
            raise next(_group_error(text, m.start()) for m in _GROUP_RE.finditer(text) if m[4])
    # each field is non-empty, has no whitespace around it and no '(', ')' or
    # ',', by the pattern: the field rule
    return SceneGraph._unchecked(objects, attributes, relations)


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


def sg_from_json(data: dict) -> SceneGraph:
    """Inverse of sg_to_json; SgError for any other JSON value. Stores each
    tuple and field as ``parse_sg_text`` does, and checks each distinct field
    once."""
    json_typed(data, dict, "scene graph", SgError)
    sections = []
    for key, kind in _SECTIONS.items():
        items, arity = data.get(key, []), len(kind._fields)
        # a list comprehension costs less per item than all() over a generator
        shaped = isinstance(items, list) and [t for t in items if isinstance(t, list) and len(t) == arity]
        if shaped is False or len(shaped) != len(items):
            raise SgError(f"{key} is not a list of {arity}-field arrays")
        sections.append(items)
    objects, attributes, relations = sections
    stored = SYMBOLS.get
    # a tuple with a field that is not exactly a str is left out, so its list
    # comes out short, before a str subclass could find a stored tuple
    objs = [stored((a,)) or _store(ObjectTuple, a) for a, in objects if type(a) is str]
    attrs = [stored((a, b)) or _store(AttributeTuple, a, b)
             for a, b in attributes if type(a) is type(b) is str]
    rels = [stored((a, b, c)) or _store(RelationTuple, a, b, c)
            for a, b, c in relations if type(a) is type(b) is type(c) is str]
    kept = len(objs) + len(attrs) + len(rels) == len(objects) + len(attributes) + len(relations)
    # the field rule, once per distinct field
    if kept and all(map(_is_field, set().union(*objs, *attrs, *rels))):
        return SceneGraph._unchecked(objs, attrs, rels)
    # the checking constructor gives the first bad field's error, or keeps a str subclass
    return SceneGraph([tuple.__new__(ObjectTuple, t) for t in objects], attributes, relations)
