"""Linearize AMR graphs into token sequences for seq2seq consumption.

Three strategies over the same graph, shown here on
``(z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))``:

DFS       (z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))
BFS       (z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)
in-order  (z2 / gold) :mod (z1 / retriever) :ARG1 (z0 / stand-01) :ARG2 (z3 / snow)

DFS keeps the PENMAN nesting (slash included). BFS and in-order drop the
original nesting and wrap every node in its own parentheses. Each strategy
walks the graph once and emits every unit (node, role, re-entrant variable
or constant) as a text piece; the text is the pieces joined with single
spaces. Tokens are derived from the pieces on demand: a piece's token is the
piece with its first ``" / "`` replaced by ``"/"``, unless the piece begins
with a quoted string (``"`` or ``("``). Only a node's piece has ``" / "``
outside quotes, and its first one follows the variable, so DFS tokens look
like ``(z0/stand-01``, BFS/in-order tokens like ``(z0/stand-01)``, and a
quoted concept or constant keeps its spaces, ``" / "`` included. A new
kind of piece must keep this rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .amr import AmrGraph, children_index, iter_edges, iter_nodes, penman_pieces


class Strategy(str, Enum):
    DFS = "dfs"
    BFS = "bfs"
    IN_ORDER = "inorder"


_QUOTED = ('"', '("')
# str.replace's other arguments for ``map``: endless, unchanging iterators
_SLASH, _BARE, _ONCE = repeat(" / "), repeat("/"), repeat(1)


@dataclass(frozen=True)
class LinearizedSequence:
    strategy: Strategy
    text: str
    pieces: tuple[str, ...]

    @property
    def tokens(self) -> tuple[str, ...]:
        """The model-input tokens, derived from ``pieces`` by the module's rule."""
        if '"' in self.text:
            return tuple([p if p.startswith(_QUOTED) else p.replace(" / ", "/", 1) for p in self.pieces])
        # no piece begins with a quoted string, so the rule maps every piece alike
        return tuple(map(str.replace, self.pieces, _SLASH, _BARE, _ONCE))


def _sequence(strategy: Strategy, pieces: list[str]) -> LinearizedSequence:
    return LinearizedSequence(strategy, " ".join(pieces), tuple(pieces))


def linearize_dfs(graph: AmrGraph) -> LinearizedSequence:
    """Depth-first linearization: the canonical PENMAN string itself."""
    return _sequence(Strategy.DFS, penman_pieces(graph))


def linearize_bfs(graph: AmrGraph) -> LinearizedSequence:
    """Breadth-first: root unit first, then queue order over tree edges.

    Each dequeued node emits role + target unit for every outgoing edge in
    stored order; only tree-edge targets are enqueued. Re-entrant targets
    emit ``(var)`` without re-declaring the concept.
    """
    index = children_index(graph)
    root, concept = next(iter_nodes(graph))
    pieces = [f"({root} / {concept})"]
    queue = deque([root])
    while queue:
        for role, target, concept in index.get(queue.popleft(), ()):
            pieces.append(role)
            if concept:  # the tree edge
                pieces.append(f"({target} / {concept})")
                queue.append(target)
            else:
                pieces.append(f"({target})")
    return _sequence(Strategy.BFS, pieces)


def linearize_inorder(graph: AmrGraph) -> LinearizedSequence:
    """Left-Root-Right over the spanning tree.

    The first child's subtree is emitted, then the role of the edge up to the
    current node, then the node itself, then each remaining child as role +
    subtree. Re-entrant and constant children are leaves rendered as
    ``(var)`` / ``(literal)``.

    One pass over the stored edges, in their order, with a stack of open
    nodes as ``penman_pieces`` keeps: a node's piece, and then the role of its
    first edge, wait on the stack until its first subtree closes.
    """
    nodes = iter_nodes(graph)
    root, concept = next(nodes)
    pieces: list[str] = []
    # the innermost open node: its variable, its piece while it has no child
    # yet, and the pieces of its parent that wait for its subtree to close;
    # the open nodes around it wait in ``outer`` as the same triples
    var, piece, waiting = root, f"({root} / {concept})", ()
    outer: list[tuple] = []
    declared, concept = next(nodes, (None, None))
    for source, role, target in iter_edges(graph):
        while var != source:  # close the innermost node
            if piece:
                pieces.append(piece)
            pieces += waiting
            var, piece, waiting = outer.pop()
        if piece:  # the first edge of ``var``: its role and piece wait for this subtree
            held = (role, piece)
            piece = None
        else:
            pieces.append(role)
            held = ()
        if target == declared:  # the next node in declaration order: its tree edge
            outer.append((var, piece, waiting))
            var, piece, waiting = target, f"({target} / {concept})", held
            declared, concept = next(nodes, (None, None))
        else:
            pieces.append(f"({target})")
            pieces += held
    outer.append((var, piece, waiting))
    for _, piece, waiting in reversed(outer):  # close every open node, the innermost first
        if piece:
            pieces.append(piece)
        pieces += waiting
    return _sequence(Strategy.IN_ORDER, pieces)


_LINEARIZERS = {
    Strategy.DFS: linearize_dfs,
    Strategy.BFS: linearize_bfs,
    Strategy.IN_ORDER: linearize_inorder,
}


def linearize(graph: AmrGraph, strategy: Strategy) -> LinearizedSequence:
    return _LINEARIZERS[strategy](graph)
