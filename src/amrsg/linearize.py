"""Linearize AMR graphs into token sequences for seq2seq consumption.

Three strategies over the same graph, shown here on
``(z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))``:

DFS       (z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))
BFS       (z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)
in-order  (z2 / gold) :mod (z1 / retriever) :ARG1 (z0 / stand-01) :ARG2 (z3 / snow)

DFS keeps the PENMAN nesting (slash included). BFS and in-order drop the
original nesting and wrap every node in its own parentheses. Tokenization
removes the spaces inside node units, so DFS tokens look like
``(z0/stand-01`` and BFS/in-order tokens like ``(z0/stand-01)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .amr import AmrEdge, AmrGraph, Constant, quoted_string_end, serialize_penman


class Strategy(str, Enum):
    DFS = "dfs"
    BFS = "bfs"
    IN_ORDER = "inorder"


class MalformedLinearization(ValueError):
    pass


@dataclass(frozen=True)
class LinearizedSequence:
    strategy: Strategy
    tokens: tuple[str, ...]
    text: str


def _node_unit(graph: AmrGraph, target) -> str:
    """BFS/in-order rendering of an edge target as a standalone unit."""
    if isinstance(target, Constant):
        return f"({target.text})"
    return f"({target} / {graph.nodes[target]})"


def linearize_dfs(graph: AmrGraph) -> LinearizedSequence:
    """Depth-first linearization: the canonical PENMAN string itself."""
    text = serialize_penman(graph)
    return LinearizedSequence(Strategy.DFS, tuple(tokenize(text, Strategy.DFS)), text)


def linearize_bfs(graph: AmrGraph) -> LinearizedSequence:
    """Breadth-first: root unit first, then queue order over tree edges.

    Each dequeued node emits role + target unit for every outgoing edge in
    stored order; only tree-edge targets are enqueued. Re-entrant targets
    emit ``(var)`` without re-declaring the concept.
    """
    parts = [f"({graph.root} / {graph.nodes[graph.root]})"]
    queue = deque([graph.root])
    while queue:
        var = queue.popleft()
        for i, e in graph.outgoing(var):
            if graph.is_tree_edge(i):
                parts.append(e.role)
                parts.append(_node_unit(graph, e.target))
                queue.append(e.target)
            elif isinstance(e.target, Constant):
                parts.append(e.role)
                parts.append(f"({e.target.text})")
            else:
                parts.append(e.role)
                parts.append(f"({e.target})")
    text = " ".join(parts)
    return LinearizedSequence(Strategy.BFS, tuple(tokenize(text, Strategy.BFS)), text)


def linearize_inorder(graph: AmrGraph) -> LinearizedSequence:
    """Left-Root-Right over the spanning tree.

    The first child's subtree is emitted, then the role of the edge up to the
    current node, then the node itself, then each remaining child as role +
    subtree. Re-entrant and constant children are leaves rendered as
    ``(var)`` / ``(literal)``.
    """

    def emit(var: str) -> list[str]:
        children: list[tuple[AmrEdge, bool]] = []  # (edge, expand?)
        for i, e in graph.outgoing(var):
            children.append((e, graph.is_tree_edge(i)))
        unit = f"({var} / {graph.nodes[var]})"
        if not children:
            return [unit]
        parts: list[str] = []
        first_edge, first_expand = children[0]
        parts.extend(_leaf_or_subtree(first_edge, first_expand))
        parts.append(first_edge.role)
        parts.append(unit)
        for e, expand in children[1:]:
            parts.append(e.role)
            parts.extend(_leaf_or_subtree(e, expand))
        return parts

    def _leaf_or_subtree(e: AmrEdge, expand: bool) -> list[str]:
        if expand:
            return emit(e.target)
        if isinstance(e.target, Constant):
            return [f"({e.target.text})"]
        return [f"({e.target})"]

    text = " ".join(emit(graph.root))
    return LinearizedSequence(Strategy.IN_ORDER, tuple(tokenize(text, Strategy.IN_ORDER)), text)


_LINEARIZERS = {
    Strategy.DFS: linearize_dfs,
    Strategy.BFS: linearize_bfs,
    Strategy.IN_ORDER: linearize_inorder,
}


def linearize(graph: AmrGraph, strategy: Strategy) -> LinearizedSequence:
    return _LINEARIZERS[strategy](graph)


def tokenize(text: str, strategy: Strategy) -> list[str]:
    """Split a linearized string into model tokens.

    Fuses each node unit by dropping the spaces around '/', so
    ``(z1 / retriever`` becomes ``(z1/retriever`` (DFS) and
    ``(z2 / gold)`` becomes ``(z2/gold)``. Roles stay standalone. Quoted
    constants are kept intact.
    """
    depth = 0
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = quoted_string_end(text, i)
            if j < 0:
                raise MalformedLinearization("unterminated string literal")
            out.append(text[i:j])
            i = j
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise MalformedLinearization("unbalanced parentheses")
        if c == " ":
            # fuse spaces around the node-internal slash
            prev_slash = out and out[-1] == "/"
            next_slash = i + 1 < n and text[i + 1] == "/"
            if not (prev_slash or next_slash):
                out.append(" ")
            i += 1
            continue
        out.append(c)
        i += 1
    if depth != 0:
        raise MalformedLinearization("unbalanced parentheses")
    return "".join(out).split()
