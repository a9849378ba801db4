"""Linearize AMR graphs into token sequences for seq2seq consumption.

Three strategies over the same graph, shown here on
``(z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))``:

DFS       (z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))
BFS       (z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)
in-order  (z2 / gold) :mod (z1 / retriever) :ARG1 (z0 / stand-01) :ARG2 (z3 / snow)

DFS keeps the PENMAN nesting (slash included). BFS and in-order drop the
original nesting and wrap every node in its own parentheses. Each strategy
walks the graph once and emits every unit (node, role, re-entrant variable
or constant) twice: as a text piece, and as a token that is the same piece
with the spaces around a node's '/' dropped. So DFS tokens look like
``(z0/stand-01``, BFS/in-order tokens like ``(z0/stand-01)``, and a quoted
constant is always one token, spaces and all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .amr import AmrGraph, children_index, penman_pieces


class Strategy(str, Enum):
    DFS = "dfs"
    BFS = "bfs"
    IN_ORDER = "inorder"


@dataclass(frozen=True)
class LinearizedSequence:
    strategy: Strategy
    tokens: tuple[str, ...]
    text: str


def _emit_node(graph: AmrGraph, var: str, texts: list[str], tokens: list[str]) -> None:
    """BFS/in-order unit of a declared node: ``(var / concept)``."""
    concept = graph.nodes[var]
    texts.append(f"({var} / {concept})")
    tokens.append(f"({var}/{concept})")


def _emit_leaf(target: str, texts: list[str], tokens: list[str]) -> None:
    """BFS/in-order unit of a re-entrant or constant target: ``(var)`` /
    ``(literal)``."""
    unit = f"({target})"
    texts.append(unit)
    tokens.append(unit)


def linearize_dfs(graph: AmrGraph) -> LinearizedSequence:
    """Depth-first linearization: the canonical PENMAN string itself."""
    texts, tokens = penman_pieces(graph)
    return LinearizedSequence(Strategy.DFS, tuple(tokens), " ".join(texts))


def linearize_bfs(graph: AmrGraph) -> LinearizedSequence:
    """Breadth-first: root unit first, then queue order over tree edges.

    Each dequeued node emits role + target unit for every outgoing edge in
    stored order; only tree-edge targets are enqueued. Re-entrant targets
    emit ``(var)`` without re-declaring the concept.
    """
    index = children_index(graph)
    texts: list[str] = []
    tokens: list[str] = []
    _emit_node(graph, graph.root, texts, tokens)
    queue = deque([graph.root])
    while queue:
        for role, target, declares in index.get(queue.popleft(), ()):
            texts.append(role)
            tokens.append(role)
            if declares:
                _emit_node(graph, target, texts, tokens)
                queue.append(target)
            else:
                _emit_leaf(target, texts, tokens)
    return LinearizedSequence(Strategy.BFS, tuple(tokens), " ".join(texts))


def linearize_inorder(graph: AmrGraph) -> LinearizedSequence:
    """Left-Root-Right over the spanning tree.

    The first child's subtree is emitted, then the role of the edge up to the
    current node, then the node itself, then each remaining child as role +
    subtree. Re-entrant and constant children are leaves rendered as
    ``(var)`` / ``(literal)``.
    """
    index = children_index(graph)
    texts: list[str] = []
    tokens: list[str] = []

    def emit_child(target: str, declares: bool) -> None:
        if declares:
            emit(target)
        else:
            _emit_leaf(target, texts, tokens)

    def emit(var: str) -> None:
        children = index.get(var)
        if not children:
            _emit_node(graph, var, texts, tokens)
            return
        first_role, first_target, first_declares = children[0]
        emit_child(first_target, first_declares)
        texts.append(first_role)
        tokens.append(first_role)
        _emit_node(graph, var, texts, tokens)
        for role, target, declares in children[1:]:
            texts.append(role)
            tokens.append(role)
            emit_child(target, declares)

    emit(graph.root)
    return LinearizedSequence(Strategy.IN_ORDER, tuple(tokens), " ".join(texts))


_LINEARIZERS = {
    Strategy.DFS: linearize_dfs,
    Strategy.BFS: linearize_bfs,
    Strategy.IN_ORDER: linearize_inorder,
}


def linearize(graph: AmrGraph, strategy: Strategy) -> LinearizedSequence:
    return _LINEARIZERS[strategy](graph)
