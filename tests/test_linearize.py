import gc
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.amr import MAX_DEPTH, AmrEdge, AmrGraph, children_index, parse_penman, serialize_penman
from amrsg.linearize import (
    LinearizedSequence,
    Strategy,
    linearize,
    linearize_bfs,
    linearize_dfs,
    linearize_inorder,
)
from helpers import (
    FIG1_PENMAN,
    WANT_PENMAN,
    GraphParts,
    random_graph,
    reference_penman_pieces,
    reference_walk_pieces,
    validate,
    with_quoted_slashes,
)

BFS_TEXT = "(z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)"
INORDER_TEXT = "(z2 / gold) :mod (z1 / retriever) :ARG1 (z0 / stand-01) :ARG2 (z3 / snow)"


@pytest.fixture
def fig1():
    return parse_penman(FIG1_PENMAN)


@pytest.fixture
def want():
    return parse_penman(WANT_PENMAN)


def test_dfs_text_is_canonical_penman(fig1):
    assert linearize_dfs(fig1).text == FIG1_PENMAN


def test_dfs_tokens(fig1):
    assert linearize_dfs(fig1).tokens == (
        "(z0/stand-01",
        ":ARG1",
        "(z1/retriever",
        ":mod",
        "(z2/gold))",
        ":ARG2",
        "(z3/snow))",
    )


def test_dfs_single_node():
    seq = linearize_dfs(parse_penman("(z0 / dog)"))
    assert seq.text == "(z0 / dog)"
    assert seq.tokens == ("(z0/dog)",)


def test_dfs_reentrancy(want):
    assert linearize_dfs(want).tokens == (
        "(z0/want-01",
        ":ARG0",
        "(z1/dog)",
        ":ARG1",
        "(z2/eat-01",
        ":ARG0",
        "z1))",
    )


def test_bfs_text(fig1):
    assert linearize_bfs(fig1).text == BFS_TEXT


def test_bfs_single_node():
    assert linearize_bfs(parse_penman("(z0 / dog)")).text == "(z0 / dog)"


def test_bfs_reentrancy(want):
    assert linearize_bfs(want).text == "(z0 / want-01) :ARG0 (z1 / dog) :ARG1 (z2 / eat-01) :ARG0 (z1)"


def test_inorder_text(fig1):
    assert linearize_inorder(fig1).text == INORDER_TEXT


def test_inorder_single_node():
    assert linearize_inorder(parse_penman("(z0 / dog)")).text == "(z0 / dog)"


def test_inorder_reentrancy(want):
    assert (
        linearize_inorder(want).text
        == "(z1 / dog) :ARG0 (z0 / want-01) :ARG1 (z1) :ARG0 (z2 / eat-01)"
    )


def test_tokenize_bfs(fig1):
    assert linearize_bfs(fig1).tokens == (
        "(z0/stand-01)",
        ":ARG1",
        "(z1/retriever)",
        ":ARG2",
        "(z3/snow)",
        ":mod",
        "(z2/gold)",
    )


def test_tokenize_single_node():
    assert linearize_bfs(parse_penman("(z0 / dog)")).tokens == ("(z0/dog)",)


def test_tokenize_inorder(fig1):
    assert linearize_inorder(fig1).tokens == (
        "(z2/gold)",
        ":mod",
        "(z1/retriever)",
        ":ARG1",
        "(z0/stand-01)",
        ":ARG2",
        "(z3/snow)",
    )


def test_fidelity_each_concept_exactly_once():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, p_constant=0.0)
        for strategy in Strategy:
            text = linearize(g, strategy).text
            for var, concept in g.nodes.items():
                assert text.count(f"{var} / {concept}") == 1
                assert f"({var}" in text


def test_dfs_invertibility():
    rng = random.Random(19)
    for _ in range(100):
        g = random_graph(rng)
        assert parse_penman(linearize_dfs(g).text) == g


def test_role_token_count_equals_edge_count():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng)
        for strategy in Strategy:
            tokens = linearize(g, strategy).tokens
            assert sum(1 for t in tokens if t.startswith(":")) == len(g.edges)
            assert len(tokens) == 2 * len(g.edges) + 1


def test_bfs_queue_discipline_matches_reference_simulation():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng)
        text = linearize_bfs(g).text
        # reference queue simulation over the spanning tree, whose edges are
        # the first stored edge into each node other than the root
        first_in: dict[str, int] = {}
        out: dict[str, list[int]] = {}
        for i, e in enumerate(g.edges):
            first_in.setdefault(e.target, i)
            out.setdefault(e.source, []).append(i)
        tree = {i for target, i in first_in.items() if target in g.nodes and target != g.root}
        order = [g.root]
        queue = deque([g.root])
        while queue:
            for i in out.get(queue.popleft(), []):
                if i in tree:
                    order.append(g.edges[i].target)
                    queue.append(g.edges[i].target)
        positions = [text.index(f"({v} / ") for v in order]
        assert positions == sorted(positions)


def test_determinism():
    g = parse_penman(FIG1_PENMAN)
    for strategy in Strategy:
        assert linearize(g, strategy) == linearize(g, strategy)
        assert hash(linearize(g, strategy)) == hash(linearize(g, strategy))


@pytest.mark.parametrize(
    "piece,token",
    [
        ("(z0 / dog", "(z0/dog"),
        ("(z0 / dog))", "(z0/dog))"),
        ("(z0 / dog)", "(z0/dog)"),
        ('(x / "a / b"', '(x/"a / b"'),
        ('(x / "a / b"))', '(x/"a / b"))'),
        ('("a / b")', '("a / b")'),
        ('"a / b"', '"a / b"'),
        ('"a / b")', '"a / b")'),
        ("(z1)", "(z1)"),
        ("(3)", "(3)"),
        ("z1))", "z1))"),
        ("-", "-"),
        (":ARG0", ":ARG0"),
    ],
)
def test_token_of_each_kind_of_piece(piece, token):
    assert LinearizedSequence(Strategy.DFS, piece, (piece,)).tokens == (token,)


def _reference(g, strategy):
    if strategy is Strategy.DFS:
        return reference_penman_pieces(g)
    return reference_walk_pieces(g, strategy.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_texts_and_tokens_match_the_references(seed):
    rng = random.Random(seed)
    for g in (random_graph(rng), with_quoted_slashes(rng, random_graph(rng))):
        for strategy in Strategy:
            seq = linearize(g, strategy)
            texts, tokens = _reference(g, strategy)
            assert seq.strategy is strategy
            assert seq.pieces == tuple(texts)
            assert seq.text == " ".join(texts)
            assert seq.tokens == tuple(tokens)


# Edges out of attachment order: z1 and z2 are first reached from each other,
# not from the root.
_OUT_OF_ORDER = GraphParts(
    root="z0",
    nodes={"z0": "dog", "z1": "cat", "z2": "tree"},
    edges=(AmrEdge("z1", ":mod", "z2"), AmrEdge("z0", ":ARG0", "z2"), AmrEdge("z2", ":ARG1", "z1")),
)
_ISOLATED = GraphParts(root="z0", nodes={"z0": "dog", "z1": "cat"}, edges=())
# Edges in attachment order only: z1's subtree was closed by z0's second edge,
# so no PENMAN text gives this order.
_ATTACHMENT_ONLY = GraphParts(
    root="z0",
    nodes={"z0": "dog", "z1": "cat", "z2": "tree", "z3": "snow"},
    edges=(AmrEdge("z0", ":ARG0", "z1"), AmrEdge("z0", ":ARG1", "z2"), AmrEdge("z1", ":mod", "z3")),
)


@pytest.mark.parametrize(
    "parts,message,kind",
    [
        (_OUT_OF_ORDER, "edge z1 :mod z2: its source is not an open node", "EdgeOutOfTextualOrder"),
        (_ISOLATED, "nodes never reached from the root: z1", "UnreachableNode"),
        (_ATTACHMENT_ONLY, "edge z1 :mod z3: its source is not an open node", "EdgeOutOfTextualOrder"),
    ],
    ids=["out-of-order", "isolated-node", "attachment-only"],
)
def test_the_constructor_refuses_parts_no_walk_could_read_whole(parts, message, kind):
    # no graph can hold these parts, so no walk is ever given them
    with pytest.raises(ValueError, match=f"^{message}$"):
        AmrGraph(*parts)
    assert kind in [d.kind for d in validate(parts)]


def _refusal(parts: GraphParts) -> str | None:
    """The constructor's message for ``parts``, or None when it accepts them."""
    try:
        AmrGraph(*parts)
    except ValueError as err:
        return str(err)
    return None


def _walks_accept(parts: GraphParts) -> None:
    """Every walk reads the graph of accepted ``parts``, and DFS round-trips."""
    graph = AmrGraph(*parts)
    children_index(graph)
    for strategy in Strategy:
        linearize(graph, strategy)
    assert parse_penman(serialize_penman(graph)) == graph


def _hand_built(rng: random.Random) -> GraphParts:
    """A ``random_graph``'s parts with its edges permuted, some dropped, or both."""
    g = random_graph(rng)
    edges = list(g.edges)
    edit = rng.randrange(3)
    if edit != 1:
        rng.shuffle(edges)
    if edit != 0:
        edges = [e for e in edges if rng.random() < 0.8]
    return GraphParts(g.root, g.nodes, tuple(edges))


def test_the_constructor_refuses_exactly_the_edge_lists_validate_flags():
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(600):
        parts = _hand_built(rng)
        refusal = _refusal(parts)
        diagnostics = validate(parts)
        kinds = {d.kind for d in diagnostics}
        if refusal is None:
            assert diagnostics == [], parts
            _walks_accept(parts)
        elif refusal.endswith(": its source is not an open node"):
            assert "EdgeOutOfTextualOrder" in kinds, (diagnostics, refusal, parts)
        else:
            unreached = sorted(d.subject for d in diagnostics)
            assert kinds == {"UnreachableNode"}, (diagnostics, refusal, parts)
            assert refusal == f"nodes never reached from the root: {', '.join(unreached)}", parts
        outcomes[refusal.partition(":")[0] if refusal else "accepted"] += 1
    # many graphs of each outcome: accepted, an edge out of textual order, a node no edge reaches
    assert outcomes.pop("accepted") > 100, outcomes
    assert outcomes.pop("nodes never reached from the root") > 20, outcomes
    assert sum(outcomes.values()) > 100, outcomes


def test_the_constructor_refuses_an_edge_retargeted_to_a_variable_that_is_not_a_node():
    rng = random.Random(37)
    refused = 0
    for _ in range(300):
        g = random_graph(rng)
        if not g.edges:
            continue
        edges = list(g.edges)
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(target="z99")
        bad = GraphParts(g.root, g.nodes, tuple(edges))
        # the edges before it are as parsed, so the check fails at this edge
        message = "edge {} {} z99: its target is a variable that is not a node".format(*edges[k][:2])
        assert _refusal(bad) == message, bad
        assert ("UndeclaredVariableReference", "z99") in [(d.kind, d.subject) for d in validate(bad)]
        refused += 1
    assert refused > 150


TOO_DEEP = f"node z{MAX_DEPTH}: nesting deeper than {MAX_DEPTH} levels"


@pytest.mark.parametrize(
    "length, refusal",
    [(MAX_DEPTH, None), (MAX_DEPTH + 1, TOO_DEEP), (1000, TOO_DEEP)],
    ids=["max_depth", "max_depth_plus_1", "1000"],
)
def test_the_constructor_refuses_a_chain_deeper_than_max_depth(length, refusal):
    """A hand-built chain ``z0 :mod z1 :mod ...`` of ``length`` nested nodes:
    the constructor accepts exactly the chains that round-trip through
    ``parse_penman``, whose graph every walk reads without a RecursionError,
    and refuses a deeper one with one ValueError."""
    chain = GraphParts(
        "z0",
        {f"z{i}": "n" for i in range(length)},
        tuple(AmrEdge(f"z{i}", ":mod", f"z{i + 1}") for i in range(length - 1)),
    )
    assert _refusal(chain) == refusal
    if refusal is None:
        assert validate(chain) == []
        _walks_accept(chain)
    else:
        assert [(d.kind, d.subject) for d in validate(chain)] == [("NestingTooDeep", f"z{MAX_DEPTH}")]


def test_no_linearization_leaves_a_reference_cycle():
    # with the cyclic collector off, reference counting alone must free what a
    # walk builds, as soon as the walk returns
    rng = random.Random(3)
    graphs = [parse_penman(FIG1_PENMAN), parse_penman(WANT_PENMAN)]
    graphs += [random_graph(rng, max_nodes=30, max_reentrancies=4, p_constant=0.2) for _ in range(200)]
    gc.collect()
    gc.disable()
    try:
        for strategy in Strategy:
            for g in graphs:
                linearize(g, strategy).tokens
            assert gc.collect() == 0, strategy
    finally:
        gc.enable()


def test_constants_wrapped_in_bfs_and_inorder():
    g = parse_penman("(z0 / car :mod (z1 / red) :quant 3)")
    assert ":quant (3)" in linearize_bfs(g).text
    assert ":quant (3)" in linearize_inorder(g).text
    assert linearize_dfs(g).text == "(z0 / car :mod (z1 / red) :quant 3)"
