"""AMR graph model and PENMAN notation parser/serializer.

An AMR is a rooted directed graph whose nodes are variables labelled with
concepts and whose edges carry role labels like ``:ARG0`` or ``:mod``.
The textual form is PENMAN notation::

    (z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))

A variable referenced again after its declaration (a bare token instead of
a nested ``(var / concept ...)`` expression) is a re-entrancy and turns the
tree into a DAG. Edge targets may also be constants: quoted strings,
numbers, or ``-``, kept as their text.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from .scenegraph import SYMBOLS

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9]*$")
_FRAME_RE = re.compile(r".+-[0-9][0-9]$")


class PenmanError(ValueError):
    """Base for all PENMAN parse failures. Carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EmptyInput(PenmanError):
    pass


class UnbalancedParentheses(PenmanError):
    pass


class DuplicateVariableDeclaration(PenmanError):
    pass


class UndeclaredVariableReference(PenmanError):
    pass


class AmrEdge(NamedTuple):
    """``target`` is a variable exactly when it is a key of the graph's
    ``nodes``; otherwise it is a constant (a quoted string, a number or '-'),
    kept as its surface text, quotes included."""

    source: str
    role: str
    target: str


def unquote(text: str) -> str:
    """A constant's or a concept's value: ``text`` without the quotes around it."""
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    return text


class AmrGraph:
    """Immutable AMR graph: ``AmrGraph(root, nodes, edges, metadata={})``.

    ``edges`` are stored in textual order, the depth-first pre-order of the
    PENMAN text: each edge leaves the root or a node declared earlier whose
    parentheses are still open, and an edge that leaves a node closes every
    node nested inside it, so no later edge leaves those. A variable is
    declared where it is first attached, so the first edge into a node is its
    tree edge; the root has none. The tree edges form a spanning tree rooted at
    ``root``, and re-entrancies are the remaining variable-targeted edges.

    ``parse_penman`` builds graphs in this order. The constructor's ``__new__``
    checks a graph built by hand against the same rule, in one pass over the
    edges, then hands it to ``_from_edge_fields``, the trusted constructor that
    ``parse_penman`` takes; so every graph round-trips through
    ``serialize_penman``, and the walks trust it and never raise. Its ValueError
    names the first fault: a root that is not a node, a symbol the lexer would
    not read back as one token of its kind, an edge that is not three strings
    or whose source is no longer open, a node deeper than ``MAX_DEPTH``, a
    target shaped like a variable that is not a node, or unreached nodes.
    ``edges`` may be any iterable of ``AmrEdge``s, plain tuples or lists.

    The edges are kept as one flat tuple of their fields, ``(source, role,
    target, source, role, target, ...)``, so a loaded graph holds no object
    per edge; ``iter_edges`` reads them, and only this module knows the
    format. Equality ignores ``metadata``; assigning to an attribute raises
    AttributeError.
    """

    __slots__ = ("root", "nodes", "_edge_fields", "metadata")

    def __new__(
        cls,
        root: str,
        nodes: dict[str, str],
        edges: Iterable[tuple[str, str, str]],
        metadata: dict[str, str] | None = None,
    ):
        if root not in nodes:
            raise ValueError(f"root {root!r} is not a node")
        for var, concept in nodes.items():
            if not (_is_one_token(var) and _VAR_RE.match(var)):
                raise ValueError(f"node {var!r}: not a variable")
            if not _is_atom_or_literal(concept):
                raise ValueError(f"concept {concept!r}: not one atom or string literal")
        fields: list[str] = []
        open_nodes = [root]  # the innermost last
        undeclared = nodes.keys() - {root}
        for i, edge in enumerate(edges):
            if not (
                isinstance(edge, (tuple, list))
                and len(edge) == 3
                and all(isinstance(f, str) for f in edge)
            ):
                raise ValueError(f"edge {i} {edge!r}: an edge is three strings, (source, role, target)")
            source, role, target = edge
            while open_nodes[-1] != source:
                open_nodes.pop()
                if not open_nodes:
                    raise ValueError(f"edge {source} {role} {target}: its source is not an open node")
            if not (_is_one_token(role) and role[0] == ":" and len(role) > 1):
                raise ValueError(f"role {role!r}: not one role")
            if target in undeclared:  # the first edge into a node declares it
                undeclared.remove(target)
                open_nodes.append(target)
                if len(open_nodes) > MAX_DEPTH:
                    raise ValueError(f"node {target}: nesting deeper than {MAX_DEPTH} levels")
            elif target not in nodes and not _is_atom_or_literal(target):
                raise ValueError(f"constant {target!r}: not one atom or string literal")
            elif target not in nodes and _VAR_RE.match(target):  # parse_penman: an undeclared reference
                raise ValueError("edge {} {} {}: its target is a variable that is not a node".format(*edge))
            fields += edge
        if undeclared:
            raise ValueError(f"nodes never reached from the root: {', '.join(sorted(undeclared))}")
        return cls._from_edge_fields(root, nodes, tuple(fields), {} if metadata is None else metadata)

    @classmethod
    def _from_edge_fields(
        cls, root: str, nodes: dict[str, str], fields: tuple[str, ...], metadata: dict[str, str]
    ) -> AmrGraph:
        """The one writer of a graph's slots. Its caller built the parts to the
        PENMAN grammar, which enforces what ``__new__`` checks."""
        graph = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(graph, "root", root)
        setattr_(graph, "nodes", nodes)
        setattr_(graph, "_edge_fields", fields)
        setattr_(graph, "metadata", metadata)
        return graph

    @property
    def edges(self) -> tuple[AmrEdge, ...]:
        """The edges as ``AmrEdge``s in stored order, built anew on each access
        for ``repr``, pickle and copy; a walk reads ``iter_edges`` instead."""
        return tuple(map(AmrEdge._make, iter_edges(self)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: an AmrGraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: an AmrGraph is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.nodes, self._edge_fields) == (other.root, other.nodes, other._edge_fields)

    def __repr__(self) -> str:
        return (
            f"AmrGraph(root={self.root!r}, nodes={self.nodes!r}, edges={self.edges!r}, "
            f"metadata={self.metadata!r})"
        )

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since assignment raises
        return self.__class__, (self.root, self.nodes, self.edges, self.metadata)


def iter_edges(graph: AmrGraph) -> Iterator[tuple[str, str, str]]:
    """The graph's edges in stored order, each as a plain (source, role,
    target) tuple read from the flat fields, with no ``AmrEdge`` built."""
    it = iter(graph._edge_fields)
    return zip(it, it, it)


def children_index(graph: AmrGraph) -> dict[str, list[tuple[str, str, bool]]]:
    """Map each source variable to its outgoing edges in stored order, each as
    a plain (role, target, declares) tuple. ``declares`` marks the tree edge:
    the target is a node other than the root, and no earlier edge targets it.
    Callers build it once per walk; it is not kept on the graph, so a loaded
    corpus does not hold one per graph."""
    index: dict[str, list[tuple[str, str, bool]]] = {}
    undeclared = graph.nodes.keys() - {graph.root}
    for source, role, target in iter_edges(graph):
        declares = target in undeclared
        undeclared.discard(target)
        index.setdefault(source, []).append((role, target, declares))
    return index


def is_frame(concept: str) -> bool:
    """True for PropBank-style frames like 'stand-01'."""
    return bool(_FRAME_RE.match(concept))


# --- parser ----------------------------------------------------------------

# Only space, tab, CR and LF separate tokens. A '"' that starts a token opens
# a string literal, in which a backslash escapes the next character; a '"'
# inside an atom is part of the atom. The literal's pattern repeats whole runs
# of plain characters, not single characters, so matching a long literal does
# not grow the regex engine's stack. The pattern has no groups, so one
# ``findall`` lexes at C level, and a token's kind is its first character:
# '(', ')', '/', '"' for a literal (a lone '"' is an unterminated one), ':' for
# a role, anything else an atom. Offsets are found again only for an error.
_TOKEN_RE = re.compile(r'[()/]|"[^"\\]*(?:\\[\s\S][^"\\]*)*"|"|:[^()/ \t\r\n]*|[^()/ \t\r\n]+')
_PUNCTUATION = "()/:"  # first characters of the tokens that are neither atom nor literal


def _is_one_token(symbol: object) -> bool:
    """True when the lexer reads ``symbol`` back as exactly one token: the
    alternative of ``_TOKEN_RE`` that ``findall`` takes at its start spans it
    whole. A lone '"' is none, since it opens an unterminated literal."""
    m = isinstance(symbol, str) and _TOKEN_RE.match(symbol)
    return bool(m) and m.end() == len(symbol) and symbol != '"'


def _is_atom_or_literal(symbol: object) -> bool:  # a concept or a constant
    return _is_one_token(symbol) and symbol[0] not in _PUNCTUATION


MAX_DEPTH = 200
"""Deepest node nesting ``parse_penman`` and the ``AmrGraph`` constructor
accept; the root is level 1. No walk recurses, so it guards no recursion
limit: it is a limit on the input."""


def _offset(text: str, i: int) -> int:
    """Offset of token ``i`` of ``text``; the end of the text for the end
    marker that follows the last token."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == i:
            return m.start()
    return len(text)


def parse_penman(text: str, metadata: dict[str, str] | None = None) -> AmrGraph:
    """Parse a single PENMAN expression into an AmrGraph.

    Edges are stored in textual order, so the edge at each variable's
    declaration point is the first edge into it. Raises a PenmanError subclass
    with a byte offset on any malformed input, and a PenmanError for nesting
    deeper than ``MAX_DEPTH``.

    Every string the graph keeps is the one object per value that
    ``scenegraph.SYMBOLS`` holds for the life of the process, so graphs share
    their symbols and a re-entrant edge's target is the very key in ``nodes``.
    """
    tokens = _TOKEN_RE.findall(text)
    if '"' in tokens:
        raise PenmanError("unterminated string literal", _offset(text, tokens.index('"')))
    if not tokens:
        raise EmptyInput("empty input", 0)
    if tokens[0] != "(":
        raise UnbalancedParentheses(f"expected '(' at start, got {tokens[0]!r}", _offset(text, 0))
    end = len(text)
    tokens.append("")  # end of input
    nodes: dict[str, str] = {}
    fields: list[str] = []  # the edges' flat fields, three per edge
    stack: list[str] = []  # variables of the open nodes, root first
    role: str | None = ""  # while tokens[i] opens a node: its tree edge's role
    symbol = SYMBOLS.setdefault
    is_variable = _VAR_RE.match
    i = 0
    while True:
        token = tokens[i]
        if role is not None:  # "( var / concept"
            if len(stack) == MAX_DEPTH:
                raise PenmanError(f"nesting deeper than {MAX_DEPTH} levels", _offset(text, i))
            var = tokens[i + 1]
            if not is_variable(var):
                if not var:
                    raise UnbalancedParentheses("unexpected end of input", end)
                if var[0] in _PUNCTUATION or var[0] == '"':
                    raise PenmanError(f"expected atom, got {var!r}", _offset(text, i + 1))
                raise PenmanError(f"invalid variable name {var!r}", _offset(text, i + 1))
            slash = tokens[i + 2]
            if slash != "/":
                if not slash:
                    raise UnbalancedParentheses("unexpected end of input", end)
                raise PenmanError(f"expected slash, got {slash!r}", _offset(text, i + 2))
            concept = tokens[i + 3]
            if not concept:
                raise UnbalancedParentheses("unexpected end of input", end)
            if concept[0] in _PUNCTUATION:
                raise PenmanError(f"invalid concept {concept!r}", _offset(text, i + 3))
            if var in nodes:
                raise DuplicateVariableDeclaration(
                    f"variable {var!r} declared twice", _offset(text, i + 1)
                )
            var = symbol(var, var)
            nodes[var] = symbol(concept, concept)
            if stack:
                fields += (stack[-1], role, var)
            stack.append(var)
            role = None
            i += 4
        elif token == ")":
            stack.pop()
            i += 1
            if not stack:
                break
        elif not token:
            raise UnbalancedParentheses("missing ')'", end)
        elif token[0] != ":":
            raise PenmanError(f"expected role label, got {token!r}", _offset(text, i))
        elif len(token) < 2:
            raise PenmanError("empty role label", _offset(text, i))
        else:
            target = tokens[i + 1]
            if target == "(":
                role = symbol(token, token)
                i += 1
                continue
            if target not in nodes:  # not a re-entrancy, so it must be a constant
                if is_variable(target):
                    # declaration must precede any bare reference
                    raise UndeclaredVariableReference(
                        f"reference to undeclared variable {target!r}", _offset(text, i + 1)
                    )
                if not target:
                    raise UnbalancedParentheses("missing edge target", end)
                if target[0] in _PUNCTUATION:
                    raise PenmanError(f"invalid edge target {target!r}", _offset(text, i + 1))
            fields += (stack[-1], symbol(token, token), symbol(target, target))
            i += 2
    if tokens[i]:
        raise UnbalancedParentheses(f"trailing content {tokens[i]!r}", _offset(text, i))
    return AmrGraph._from_edge_fields(next(iter(nodes)), nodes, tuple(fields), dict(metadata or {}))


def penman_pieces(graph: AmrGraph) -> list[str]:
    """The depth-first PENMAN walk as text pieces, which joined with single
    spaces give the canonical PENMAN string.

    A piece is a node's ``(var / concept``, a role, a bare variable at a
    re-entrancy or a constant; closing parentheses attach to the piece
    before them. One pass over the stored edges, in their order, which is the
    text's order: an edge whose source is not the innermost open node closes
    the nodes above its source, and a target is declared where it is first
    reached.
    """
    nodes = graph.nodes
    root = graph.root
    pieces = [f"({root} / {nodes[root]}"]
    open_nodes = [root]  # the innermost last
    undeclared = nodes.keys() - {root}
    for source, role, target in iter_edges(graph):
        if source != open_nodes[-1]:
            k = open_nodes.index(source) + 1
            pieces[-1] += ")" * (len(open_nodes) - k)
            del open_nodes[k:]
        pieces.append(role)
        if target in undeclared:
            undeclared.remove(target)
            open_nodes.append(target)
            pieces.append(f"({target} / {nodes[target]}")
        else:
            pieces.append(target)
    pieces[-1] += ")" * len(open_nodes)
    return pieces


def serialize_penman(graph: AmrGraph) -> str:
    """Canonical PENMAN text: single spaces around '/', one space before each
    role, children in stored edge order, bare variables at re-entrancies."""
    return " ".join(penman_pieces(graph))


# --- PENMAN files ----------------------------------------------------------

_META_KEY_RE = re.compile(r"::([A-Za-z0-9_-]+)")


def _parse_metadata_line(line: str, meta: dict[str, str]) -> None:
    # "# ::id 42 ::snt Golden retriever" splits to ["", "id", " 42 ", "snt", " Golden retriever"]
    parts = _META_KEY_RE.split(line.lstrip("#").strip())
    for key, value in zip(parts[1::2], parts[2::2]):
        meta[SYMBOLS.setdefault(key, key)] = value.strip()  # the graphs of a file share each key


def iter_penman_blocks(lines: Iterable[str]) -> Iterator[tuple[dict[str, str], str]]:
    """Yield (metadata, penman_text) per blank-line-separated block of ``lines``,
    holding one block at a time; lines starting with '#' carry ``::key value``
    metadata. ``lines`` are those of a text file opened in universal newlines
    mode (``open(path, encoding="utf-8")``), which ends a line only at LF, CRLF
    or CR; ``str.splitlines`` would also break a string literal at U+2028,
    U+0085, form feed and the like, which ``parse_penman`` keeps. A ``str`` is
    a TypeError: iterating it would give one line per character."""
    if isinstance(lines, str):
        raise TypeError("iter_penman_blocks takes lines, not a str")
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            if body:
                yield meta, "\n".join(body)
                meta, body = {}, []
            continue
        if stripped.startswith("#"):
            _parse_metadata_line(stripped, meta)
        else:
            body.append(line.rstrip("\n"))
    if body:
        yield meta, "\n".join(body)


def not_utf8(text_file: TextIO, err: UnicodeDecodeError) -> ValueError:
    """``not UTF-8 (<reason>) at byte <n>`` for ``err``, raised while reading
    ``text_file``, with ``n`` the offset in the file of the byte it names."""
    # the decoder counts from the start of the chunk it was given, the last one read
    offset = text_file.buffer.tell() - len(err.object) + err.start
    return ValueError(f"not UTF-8 ({err.reason}) at byte {offset}")


def load_penman_file(path: str | Path) -> list[AmrGraph]:
    """Parse every graph in a UTF-8 PENMAN file, metadata attached. A byte that
    is not UTF-8 is a ValueError naming the path and its offset in the file."""
    with open(path, encoding="utf-8") as lines:
        try:
            return [parse_penman(block, metadata=meta) for meta, block in iter_penman_blocks(lines)]
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {not_utf8(lines, err)}") from None
