"""AMR graph model and PENMAN notation parser/serializer.

An AMR is a rooted directed graph whose nodes are variables labelled with
concepts and whose edges carry role labels like ``:ARG0`` or ``:mod``.
The textual form is PENMAN notation::

    (z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))

A variable referenced again after its declaration (a bare token instead of
a nested ``(var / concept ...)`` expression) is a re-entrancy and turns the
tree into a DAG. Edge targets may also be constants: quoted strings,
numbers, or ``-``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9]*$")
_FRAME_RE = re.compile(r".+-[0-9][0-9]$")
_NUMBER_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?$")


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


@dataclass(frozen=True)
class Constant:
    """A leaf edge target that is not a variable: quoted string, number, or '-'.

    ``text`` keeps the surface form, quotes included.
    """

    text: str

    @property
    def value(self) -> str:
        if len(self.text) >= 2 and self.text[0] == '"' and self.text[-1] == '"':
            return self.text[1:-1]
        return self.text


EdgeTarget = Union[str, Constant]


@dataclass(frozen=True)
class AmrEdge:
    source: str
    role: str
    target: EdgeTarget


@dataclass(frozen=True)
class AmrGraph:
    """Immutable AMR graph.

    ``edges`` keep textual attachment order. ``tree_edge_indices`` marks the
    edges whose target variable was declared at that attachment point; they
    form a spanning tree rooted at ``root``. Re-entrancies are the remaining
    variable-targeted edges.
    """

    root: str
    nodes: dict[str, str]
    edges: tuple[AmrEdge, ...]
    tree_edge_indices: frozenset[int]
    metadata: dict[str, str] = field(default_factory=dict, compare=False)


def children_index(graph: AmrGraph) -> dict[str, list[tuple[int, AmrEdge]]]:
    """Map each source variable to its outgoing (edge index, edge) pairs in
    stored order. Callers build it once per walk; it is not kept on the
    graph, so a loaded corpus does not hold one per graph."""
    index: dict[str, list[tuple[int, AmrEdge]]] = {}
    for i, e in enumerate(graph.edges):
        index.setdefault(e.source, []).append((i, e))
    return index


def is_frame(concept: str) -> bool:
    """True for PropBank-style frames like 'stand-01'."""
    return bool(_FRAME_RE.match(concept))


def frame_lemma(concept: str) -> str:
    """Strip the two-digit sense suffix from a frame label."""
    return concept[:-3] if is_frame(concept) else concept


def is_variable_token(tok: str) -> bool:
    return bool(_VAR_RE.match(tok))


# --- parser ----------------------------------------------------------------

# Only space, tab, CR and LF separate tokens. A '"' that starts a token opens
# a string literal, in which a backslash escapes the next character; a '"'
# inside an atom is part of the atom. A lone '"' is an unterminated literal.
# The literal's pattern repeats whole runs of plain characters, not single
# characters, so matching a long literal does not grow the regex engine's stack.
_TOKEN_RE = re.compile(
    r'(?P<open>\()|(?P<close>\))|(?P<slash>/)|(?P<string>"[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r'|(?P<unterminated>")|(?P<role>:[^()/ \t\r\n]*)|(?P<atom>[^()/ \t\r\n]+)'
)

MAX_DEPTH = 200
"""Deepest node nesting ``parse_penman`` accepts; the root is level 1. It keeps
the recursive walks over a parsed graph (``penman_pieces``,
``linearize_inorder``) well inside Python's default recursion limit."""


def parse_penman(text: str, metadata: dict[str, str] | None = None) -> AmrGraph:
    """Parse a single PENMAN expression into an AmrGraph.

    Edge order follows textual attachment order; the edge at each variable's
    declaration point becomes a tree edge. Raises a PenmanError subclass with
    a byte offset on any malformed input, and a PenmanError for nesting deeper
    than ``MAX_DEPTH``.
    """
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, _, off in tokens:
        if kind == "unterminated":
            raise PenmanError("unterminated string literal", off)
    if not tokens:
        raise EmptyInput("empty input", 0)
    if tokens[0][0] != "open":
        raise UnbalancedParentheses(f"expected '(' at start, got {tokens[0][1]!r}", tokens[0][2])
    end = len(text)
    tokens.append(("end", "", end))
    nodes: dict[str, str] = {}
    edges: list[AmrEdge] = []
    tree_indices: set[int] = set()
    stack: list[str] = []  # variables of the open nodes, root first
    role: str | None = ""  # while tokens[i] opens a node: its tree edge's role
    i = 0
    while True:
        kind, value, off = tokens[i]
        if role is not None:  # "( var / concept"
            if len(stack) == MAX_DEPTH:
                raise PenmanError(f"nesting deeper than {MAX_DEPTH} levels", off)
            vkind, var, voff = tokens[i + 1]
            if vkind == "end":
                raise UnbalancedParentheses("unexpected end of input", end)
            if vkind != "atom":
                raise PenmanError(f"expected atom, got {var!r}", voff)
            if not is_variable_token(var):
                raise PenmanError(f"invalid variable name {var!r}", voff)
            skind, slash, soff = tokens[i + 2]
            if skind == "end":
                raise UnbalancedParentheses("unexpected end of input", end)
            if skind != "slash":
                raise PenmanError(f"expected slash, got {slash!r}", soff)
            ckind, concept, coff = tokens[i + 3]
            if ckind == "end":
                raise UnbalancedParentheses("unexpected end of input", end)
            if ckind not in ("atom", "string"):
                raise PenmanError(f"invalid concept {concept!r}", coff)
            if var in nodes:
                raise DuplicateVariableDeclaration(f"variable {var!r} declared twice", voff)
            nodes[var] = concept
            if stack:
                tree_indices.add(len(edges))
                edges.append(AmrEdge(stack[-1], role, var))
            stack.append(var)
            role = None
            i += 4
        elif kind == "close":
            stack.pop()
            i += 1
            if not stack:
                break
        elif kind == "end":
            raise UnbalancedParentheses("missing ')'", end)
        elif kind != "role":
            raise PenmanError(f"expected role label, got {value!r}", off)
        elif len(value) < 2:
            raise PenmanError("empty role label", off)
        else:
            tkind, target, toff = tokens[i + 1]
            if tkind == "end":
                raise UnbalancedParentheses("missing edge target", end)
            if tkind == "open":
                role = value
                i += 1
                continue
            if tkind == "atom" and is_variable_token(target):
                if target not in nodes:
                    # declaration must precede any bare reference
                    raise UndeclaredVariableReference(
                        f"reference to undeclared variable {target!r}", toff
                    )
                edges.append(AmrEdge(stack[-1], value, target))
            elif tkind in ("atom", "string"):
                edges.append(AmrEdge(stack[-1], value, Constant(target)))
            else:
                raise PenmanError(f"invalid edge target {target!r}", toff)
            i += 2
    kind, value, off = tokens[i]
    if kind != "end":
        raise UnbalancedParentheses(f"trailing content {value!r}", off)
    return AmrGraph(
        root=next(iter(nodes)),
        nodes=nodes,
        edges=tuple(edges),
        tree_edge_indices=frozenset(tree_indices),
        metadata=dict(metadata or {}),
    )


def penman_pieces(graph: AmrGraph) -> tuple[list[str], list[str]]:
    """The depth-first PENMAN walk as two parallel lists: text pieces, which
    joined with single spaces give the canonical PENMAN string, and tokens,
    the same pieces with the spaces around each node's '/' dropped.

    A piece is a node's ``(var / concept``, a role, a bare variable at a
    re-entrancy or a constant; closing parentheses attach to the piece
    before them. Children follow stored edge order.
    """
    index = children_index(graph)
    texts: list[str] = []
    tokens: list[str] = []

    def emit(var: str) -> None:
        concept = graph.nodes[var]
        texts.append(f"({var} / {concept}")
        tokens.append(f"({var}/{concept}")
        for i, e in index.get(var, ()):
            texts.append(e.role)
            tokens.append(e.role)
            if i in graph.tree_edge_indices:
                emit(e.target)
            else:
                target = e.target.text if isinstance(e.target, Constant) else e.target
                texts.append(target)
                tokens.append(target)
        texts[-1] += ")"
        tokens[-1] += ")"

    emit(graph.root)
    return texts, tokens


def serialize_penman(graph: AmrGraph) -> str:
    """Canonical PENMAN text: single spaces around '/', one space before each
    role, children in stored edge order, bare variables at re-entrancies."""
    return " ".join(penman_pieces(graph)[0])


# --- PENMAN files ----------------------------------------------------------

_META_KEY_RE = re.compile(r"::([A-Za-z0-9_-]+)")


def _parse_metadata_line(line: str, meta: dict[str, str]) -> None:
    # "# ::id 42 ::snt Golden retriever standing in the snow"
    body = line.lstrip("#").strip()
    matches = list(_META_KEY_RE.finditer(body))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(body)
        meta[m.group(1)] = body[m.end() : end].strip()


def iter_penman_blocks(text: str) -> Iterator[tuple[dict[str, str], str]]:
    """Yield (metadata, penman_text) per blank-line-separated block.

    Lines starting with '#' carry ``::key value`` metadata pairs.
    """
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            if body:
                yield meta, "\n".join(body)
                meta, body = {}, []
            continue
        if stripped.startswith("#"):
            _parse_metadata_line(stripped, meta)
        else:
            body.append(line)
    if body:
        yield meta, "\n".join(body)


def load_penman_file(path: str | Path) -> list[AmrGraph]:
    """Parse every graph in a UTF-8 PENMAN file, metadata attached."""
    text = Path(path).read_text(encoding="utf-8")
    return [parse_penman(block, metadata=meta) for meta, block in iter_penman_blocks(text)]
