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
class Diagnostic:
    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


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

    def is_tree_edge(self, index: int) -> bool:
        return index in self.tree_edge_indices


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


# --- lexer -----------------------------------------------------------------

_DELIMS = set("()/ \t\r\n")


def quoted_string_end(text: str, start: int) -> int:
    """Index just past the string literal whose opening quote is at
    ``text[start]``, or -1 if it is unterminated. A backslash escapes the
    character after it."""
    j, n = start + 1, len(text)
    while j < n and text[j] != '"':
        j += 2 if text[j] == "\\" else 1
    return j + 1 if j < n else -1


def _lex(text: str) -> list[tuple[str, str, int]]:
    """Split PENMAN text into (kind, value, offset) tokens.

    Kinds: 'open', 'close', 'slash', 'role', 'atom', 'string'.
    """
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "(":
            toks.append(("open", c, i))
            i += 1
        elif c == ")":
            toks.append(("close", c, i))
            i += 1
        elif c == "/":
            toks.append(("slash", c, i))
            i += 1
        elif c == '"':
            j = quoted_string_end(text, i)
            if j < 0:
                raise PenmanError("unterminated string literal", i)
            toks.append(("string", text[i:j], i))
            i = j
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            tok = text[i:j]
            toks.append(("role" if tok.startswith(":") else "atom", tok, i))
            i = j
    return toks


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.nodes: dict[str, str] = {}
        self.edges: list[AmrEdge] = []
        self.tree_indices: set[int] = set()

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected_kind: str | None = None):
        tok = self._peek()
        if tok is None:
            raise UnbalancedParentheses("unexpected end of input", self.length)
        if expected_kind is not None and tok[0] != expected_kind:
            if expected_kind in ("open", "close"):
                raise UnbalancedParentheses(f"expected '{expected_kind}' token, got {tok[1]!r}", tok[2])
            raise PenmanError(f"expected {expected_kind}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_node(self) -> str:
        self._next("open")
        kind, var, off = self._next("atom")
        if not is_variable_token(var):
            raise PenmanError(f"invalid variable name {var!r}", off)
        self._next("slash")
        ckind, concept, coff = self._next()
        if ckind not in ("atom", "string"):
            raise PenmanError(f"invalid concept {concept!r}", coff)
        if var in self.nodes:
            raise DuplicateVariableDeclaration(f"variable {var!r} declared twice", off)
        self.nodes[var] = concept
        while True:
            tok = self._peek()
            if tok is None:
                raise UnbalancedParentheses("missing ')'", self.length)
            if tok[0] == "close":
                self.pos += 1
                return var
            rkind, role, roff = self._next()
            if rkind != "role":
                raise PenmanError(f"expected role label, got {role!r}", roff)
            if len(role) < 2:
                raise PenmanError("empty role label", roff)
            tok = self._peek()
            if tok is None:
                raise UnbalancedParentheses("missing edge target", self.length)
            if tok[0] == "open":
                idx = len(self.edges)
                self.edges.append(AmrEdge(var, role, ""))  # patched below
                child = self.parse_node()
                self.edges[idx] = AmrEdge(var, role, child)
                self.tree_indices.add(idx)
            elif tok[0] in ("atom", "string"):
                self.pos += 1
                value = tok[1]
                if tok[0] == "atom" and is_variable_token(value):
                    if value not in self.nodes:
                        # declaration must precede any bare reference
                        raise UndeclaredVariableReference(
                            f"reference to undeclared variable {value!r}", tok[2]
                        )
                    self.edges.append(AmrEdge(var, role, value))
                else:
                    self.edges.append(AmrEdge(var, role, Constant(value)))
            else:
                raise PenmanError(f"invalid edge target {tok[1]!r}", tok[2])


def parse_penman(text: str, metadata: dict[str, str] | None = None) -> AmrGraph:
    """Parse a single PENMAN expression into an AmrGraph.

    Edge order follows textual attachment order; the edge at each variable's
    declaration point becomes a tree edge. Raises a PenmanError subclass with
    a byte offset on any malformed input.
    """
    tokens = _lex(text)
    if not tokens:
        raise EmptyInput("empty input", 0)
    parser = _Parser(tokens, len(text))
    first = tokens[0]
    if first[0] != "open":
        raise UnbalancedParentheses(f"expected '(' at start, got {first[1]!r}", first[2])
    root = parser.parse_node()
    extra = parser._peek()
    if extra is not None:
        raise UnbalancedParentheses(f"trailing content {extra[1]!r}", extra[2])
    return AmrGraph(
        root=root,
        nodes=parser.nodes,
        edges=tuple(parser.edges),
        tree_edge_indices=frozenset(parser.tree_indices),
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


def validate(graph: AmrGraph) -> list[Diagnostic]:
    """Return one diagnostic per invariant violation; empty list iff valid."""
    diags: list[Diagnostic] = []
    if graph.root not in graph.nodes:
        diags.append(Diagnostic("MissingRoot", graph.root))
    for e in graph.edges:
        if e.source not in graph.nodes:
            diags.append(Diagnostic("DanglingEdgeSource", e.source))
        if isinstance(e.target, str) and e.target not in graph.nodes:
            diags.append(Diagnostic("UndeclaredVariableReference", e.target))
    # reachability over all edges
    index = children_index(graph)
    seen = set()
    stack = [graph.root] if graph.root in graph.nodes else []
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for _, e in index.get(v, ()):
            if isinstance(e.target, str) and e.target in graph.nodes:
                stack.append(e.target)
    for v in graph.nodes:
        if v not in seen:
            diags.append(Diagnostic("UnreachableNode", v))
    # spanning-tree shape: each non-root node exactly one incoming tree edge
    incoming: dict[str, int] = {v: 0 for v in graph.nodes}
    for i in graph.tree_edge_indices:
        if i < len(graph.edges):
            e = graph.edges[i]
            if isinstance(e.target, str) and e.target in incoming:
                incoming[e.target] += 1
    for v, count in incoming.items():
        if v == graph.root:
            if count != 0:
                diags.append(Diagnostic("TreeEdgeIntoRoot", v))
        elif count > 1:
            diags.append(Diagnostic("MultipleTreeEdges", v))
        elif count == 0 and v in seen:
            diags.append(Diagnostic("MissingTreeEdge", v))
    return diags


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
