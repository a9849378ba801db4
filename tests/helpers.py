"""Shared test utilities: random graph/tuple generators and independent
oracles kept deliberately separate from the implementations they check."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

from amrsg.amr import MAX_DEPTH, AmrEdge, AmrGraph
from amrsg.corpus import record_to_json
from amrsg.evaluate import f_score
from amrsg.scenegraph import (
    AttributeTuple,
    BadArity,
    ObjectTuple,
    RelationTuple,
    SceneGraph,
    UnbalancedParentheses,
)

CONCEPTS = [
    "dog", "cat", "snow", "tree", "person", "umbrella", "gold", "retriever", "car", "house",
    '"golden retriever"',
]
FRAMES = ["stand-01", "run-02", "want-01", "eat-01", "hold-01", "sit-02"]
ROLES = [":ARG0", ":ARG1", ":ARG2", ":mod", ":location", ":domain", ":time"]
CONSTANT_SURFACES = ["-", "3", '"red car"', "42"]

_VARIABLE_RE = re.compile(r"[a-z][a-zA-Z0-9]*$")


def is_variable_token(tok: str) -> bool:
    """True for a token that PENMAN reads as a variable, not a constant."""
    return bool(_VARIABLE_RE.match(tok))


def random_graph(
    rng: random.Random,
    max_nodes: int = 12,
    max_reentrancies: int = 2,
    p_constant: float = 0.08,
) -> AmrGraph:
    """Build a valid AmrGraph with edges in textual attachment order,
    mimicking how a PENMAN parse would have produced it."""
    nodes: dict[str, str] = {}
    edges: list[AmrEdge] = []
    declared: list[str] = []
    counter = [0]
    total = rng.randint(1, max_nodes)
    reent_left = [rng.randint(0, max_reentrancies)]

    def new_var() -> str:
        v = f"z{counter[0]}"
        counter[0] += 1
        nodes[v] = rng.choice(CONCEPTS + FRAMES)
        declared.append(v)
        return v

    def expand(var: str, depth: int) -> None:
        while rng.random() < 0.65 and depth < 6:
            role = rng.choice(ROLES)
            r = rng.random()
            if r < p_constant:
                edges.append(AmrEdge(var, role, rng.choice(CONSTANT_SURFACES)))
            elif r < p_constant + 0.12 and reent_left[0] > 0 and len(declared) > 1:
                edges.append(AmrEdge(var, role, rng.choice(declared)))
                reent_left[0] -= 1
            elif len(nodes) < total:
                child = new_var()
                edges.append(AmrEdge(var, role, child))
                expand(child, depth + 1)
            else:
                break

    root = new_var()
    expand(root, 0)
    return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))


MUTATION_ALPHABET = '()/:" \\\nzZ0a-'


def mutate_text(rng: random.Random, text: str) -> str:
    """One random edit of a PENMAN text: insert a character that the lexer
    treats specially, delete a character or a span, repeat a span, or cut the
    text short."""
    i = rng.randint(0, len(text))
    j = rng.randint(i, min(len(text), i + 8))
    edit = rng.randrange(5)
    if edit == 0:
        return text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
    if edit == 1:
        return text[:i] + text[i + 1 :]
    if edit == 2:
        return text[:i] + text[j:]
    if edit == 3:
        return text[:j] + text[i:j] + text[j:]
    return text[:i]


# --- independent oracles -----------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


class GraphParts(NamedTuple):
    """A graph's raw parts, which ``AmrGraph(*parts)`` checks and may refuse.
    The oracles below read them as they read an ``AmrGraph``, so a test can
    ask them about parts that no graph may hold."""

    root: str
    nodes: dict[str, str]
    edges: tuple[AmrEdge, ...]


def validate(graph: AmrGraph | GraphParts) -> list[Diagnostic]:
    """Return one diagnostic per invariant violation; empty list iff valid."""
    diags: list[Diagnostic] = []
    if graph.root not in graph.nodes:
        diags.append(Diagnostic("MissingRoot", graph.root))
    for e in graph.edges:
        if e.source not in graph.nodes:
            diags.append(Diagnostic("DanglingEdgeSource", e.source))
        if is_variable_token(e.target) and e.target not in graph.nodes:
            diags.append(Diagnostic("UndeclaredVariableReference", e.target))
    # Textual order is the pre-order of a depth-first walk from the root over
    # each node's edges in stored order, which declares a node at its first
    # visit. The walk visits exactly the nodes reachable from the root. A node
    # it would declare below level MAX_DEPTH (the root is level 1) ends the
    # check, as it ends parse_penman.
    out: dict[str, list[AmrEdge]] = {}
    for e in graph.edges:
        out.setdefault(e.source, []).append(e)
    visited = {graph.root}
    walk: list[AmrEdge] = []
    # the remaining edges of each node on the walk's path, the root's first
    path = [iter(out.get(graph.root, ()))] if graph.root in graph.nodes else []
    while path:
        e = next(path[-1], None)
        if e is None:
            path.pop()
            continue
        walk.append(e)
        if e.target in graph.nodes and e.target not in visited:
            visited.add(e.target)
            if len(path) == MAX_DEPTH:
                return diags + [Diagnostic("NestingTooDeep", e.target)]
            path.append(iter(out.get(e.target, ())))
    for v in graph.nodes:
        if v not in visited:
            diags.append(Diagnostic("UnreachableNode", v))
    for stored, walked in zip_longest(graph.edges, walk):
        if stored != walked:
            diags.append(Diagnostic("EdgeOutOfTextualOrder", " ".join(stored)))
            break
    return diags


def _children(graph: AmrGraph | GraphParts) -> dict[str, list[tuple[str, str, bool]]]:
    """Each node's outgoing edges in stored order as (role, target, declares),
    where ``declares`` marks the first stored edge into a node other than the
    root: the node's tree edge."""
    first_in: dict[str, int] = {}
    for i, e in enumerate(graph.edges):
        first_in.setdefault(e.target, i)
    index: dict[str, list[tuple[str, str, bool]]] = {}
    for i, (source, role, target) in enumerate(graph.edges):
        declares = first_in[target] == i and target in graph.nodes and target != graph.root
        index.setdefault(source, []).append((role, target, declares))
    return index


def reference_penman_pieces(graph: AmrGraph | GraphParts) -> tuple[list[str], list[str]]:
    """Reference DFS walk for ``amr.penman_pieces``: recursive, over each
    node's edges in stored order, declaring a node at the first stored edge
    into it. It also writes text for parts that the constructor refuses,
    which ``parse_penman`` then refuses or reads as other parts. Builds
    texts and tokens apart, each by its own f-string, so it checks
    ``LinearizedSequence.tokens`` as well."""
    index = _children(graph)
    texts: list[str] = []
    tokens: list[str] = []

    def emit(var: str) -> None:
        concept = graph.nodes[var]
        texts.append(f"({var} / {concept}")
        tokens.append(f"({var}/{concept}")
        for role, target, declares in index.get(var, ()):
            texts.append(role)
            tokens.append(role)
            if declares:
                emit(target)
            else:
                texts.append(target)
                tokens.append(target)
        texts[-1] += ")"
        tokens[-1] += ")"

    emit(graph.root)
    return texts, tokens


def reference_walk_pieces(graph: AmrGraph, strategy: str) -> tuple[list[str], list[str]]:
    """Reference BFS (``strategy`` "bfs") or in-order ("inorder") walk: texts
    and tokens built apart, a node as ``(var / concept)`` and ``(var/concept)``,
    any other target as ``(target)`` in both. Each node's tree edge is the
    first stored edge into it."""
    index = _children(graph)
    texts: list[str] = []
    tokens: list[str] = []

    def piece(text: str, token: str | None = None) -> None:
        texts.append(text)
        tokens.append(text if token is None else token)

    def node(var: str) -> None:
        piece(f"({var} / {graph.nodes[var]})", f"({var}/{graph.nodes[var]})")

    def inorder(var: str) -> None:
        children = index.get(var, [])
        if not children:
            node(var)
        for k, (role, target, declares) in enumerate(children):
            if k:
                piece(role)
            if declares:
                inorder(target)
            else:
                piece(f"({target})")
            if not k:
                piece(role)
                node(var)

    if strategy == "inorder":
        inorder(graph.root)
        return texts, tokens
    node(graph.root)
    queue = [graph.root]
    for var in queue:
        for role, target, declares in index.get(var, ()):
            piece(role)
            if declares:
                node(target)
                queue.append(target)
            else:
                piece(f"({target})")
    return texts, tokens


QUOTED_SLASHES = ['"a / b"', '"(x / y"', '"/ c /"', '" / "', '"(p / q) / r"']


def with_quoted_slashes(rng: random.Random, graph: AmrGraph) -> AmrGraph:
    """``graph`` with about half its concepts and constants replaced by
    quoted strings that hold ``" / "`` and ``"("``."""
    nodes = {v: rng.choice(QUOTED_SLASHES) if rng.random() < 0.5 else c for v, c in graph.nodes.items()}
    edges = tuple(
        AmrEdge(e.source, e.role, rng.choice(QUOTED_SLASHES))
        if e.target not in graph.nodes and rng.random() < 0.5
        else e
        for e in graph.edges
    )
    return AmrGraph(graph.root, nodes, edges)


def reference_parse_sg_text(text: str) -> SceneGraph:
    """Reference reader of the scene-graph wire grammar: a character loop
    that finds each group's ')' and splits its inside at ','."""
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
        if "" in fields:
            raise BadArity(f"empty field in group at offset {i}")
        if len(fields) == 1:
            objects.append(ObjectTuple(*fields))
        elif len(fields) == 2:
            attributes.append(AttributeTuple(*fields))
        elif len(fields) == 3:
            relations.append(RelationTuple(*fields))
        else:
            raise BadArity(f"group with {len(fields)} fields at offset {i}")
        i = end + 1
    return SceneGraph(objects, attributes, relations)


def write_records(records, path) -> None:
    """Write region records as a JSONL corpus, one ``record_to_json`` object a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_json(record)) + "\n")


def reference_match_tuples(g, r) -> list[tuple[int, int]]:
    """Pairing oracle: the k-th occurrence of each tuple in ``g`` with its k-th
    occurrence in ``r``, where ``r`` has one, in ``g``-index order."""
    seen: Counter = Counter()
    pairs = []
    for i, t in enumerate(g):
        positions = [j for j, u in enumerate(r) if u == t]
        if seen[t] < len(positions):
            pairs.append((i, positions[seen[t]]))
        seen[t] += 1
    return pairs


def multiset_intersection_size(g_tuples, r_tuples) -> int:
    """Matching-size oracle, valid under exact-equality compatibility."""
    gc, rc = Counter(g_tuples), Counter(r_tuples)
    return sum(min(count, rc[t]) for t, count in gc.items())


def score_image(query: SceneGraph, regions) -> float:
    """Brute-force image score: ``f_score`` on every region, the best F1."""
    return max(f_score(query, region).f1 for region in regions)


def brute_force_ranking(query: SceneGraph, index) -> list[tuple[str, float]]:
    """Every image of a RetrievalIndex by score_image, sorted by (-score, id)."""
    scored = [(image_id, score_image(query, regions)) for image_id, regions in index.images]
    return sorted(scored, key=lambda item: (-item[1], item[0]))


def normalize_oracle(term: str) -> str:
    """Second normalizer implementation (regex based)."""
    s = re.sub(r"[\s(),]+", " ", term.lower()).strip()
    s = re.sub(r"^(?:(?:a|an|the) )*(?:a|an|the)?$|^(?:(?:a|an|the) )+", "", s)
    return s


def variants(token: str) -> set[str]:
    """A word and its naive suffix stems: dogs -> dog, boxes -> box, running -> runn."""
    out = {token}
    if token.endswith("ing") and len(token) > 4:
        out.add(token[:-3])
    if token.endswith("es") and len(token) > 3:
        out.add(token[:-2])
    if token.endswith("s") and len(token) > 2:
        out.add(token[:-1])
    return out


def random_tuple_multiset(rng: random.Random, max_size: int = 10) -> list:
    """Small vocabulary so duplicates and cross-arity collisions occur."""
    names = ["dog", "cat", "snow"]
    preds = ["on", "in"]
    out = []
    for _ in range(rng.randint(0, max_size)):
        arity = rng.choice([1, 1, 2, 3])
        if arity == 1:
            out.append(ObjectTuple(rng.choice(names)))
        elif arity == 2:
            out.append(AttributeTuple(rng.choice(names), rng.choice(["red", "big"])))
        else:
            out.append(RelationTuple(rng.choice(names), rng.choice(preds), rng.choice(names)))
    return out


def random_scene_graph(rng: random.Random, max_size: int = 8) -> SceneGraph:
    objects, attributes, relations = [], [], []
    for t in random_tuple_multiset(rng, max_size):
        if isinstance(t, ObjectTuple):
            objects.append(t)
        elif isinstance(t, AttributeTuple):
            attributes.append(t)
        else:
            relations.append(t)
    return SceneGraph(objects, attributes, relations)


FIG1_PENMAN = "(z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))"
WANT_PENMAN = "(z0 / want-01 :ARG0 (z1 / dog) :ARG1 (z2 / eat-01 :ARG0 z1))"
