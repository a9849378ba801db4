import ast
import copy
import gc
import importlib
import io
import json
import operator
import pickle
import random
import re
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.amr import (
    MAX_DEPTH,
    AmrEdge,
    AmrGraph,
    DuplicateVariableDeclaration,
    EmptyInput,
    PenmanError,
    UnbalancedParentheses,
    UndeclaredVariableReference,
    children_index,
    iter_penman_blocks,
    load_penman_file,
    parse_penman,
    penman_pieces,
    serialize_penman,
    unquote,
)
from amrsg.convert import convert_rules
from amrsg.linearize import Strategy, linearize, linearize_dfs
from amrsg.scenegraph import parse_sg_text, serialize_sg, sg_from_json, sg_to_json
from helpers import (
    FIG1_PENMAN,
    WANT_PENMAN,
    GraphParts,
    declaration_order,
    is_variable_token,
    mutate_text,
    random_graph,
    reference_penman_pieces,
    validate,
    with_shuffled_nodes,
)


def test_parse_retriever_graph():
    g = parse_penman(FIG1_PENMAN)
    assert g.root == "z0"
    assert g.nodes == {"z0": "stand-01", "z1": "retriever", "z2": "gold", "z3": "snow"}
    assert g.edges == (
        AmrEdge("z0", ":ARG1", "z1"),
        AmrEdge("z1", ":mod", "z2"),
        AmrEdge("z0", ":ARG2", "z3"),
    )


def test_parse_minimal_graph():
    g = parse_penman("(z0 / dog)")
    assert g.root == "z0"
    assert g.nodes == {"z0": "dog"}
    assert g.edges == ()


def test_parse_reentrancy():
    g = parse_penman(WANT_PENMAN)
    assert len(g.nodes) == 3
    assert len(g.edges) == 3
    index = children_index(g)  # does not raise: every node is reached in textual order
    reentrant = [
        (source, role, target)
        for source, children in index.items()
        for role, target, declares in children
        if not declares
    ]
    assert reentrant == [("z2", ":ARG0", "z1")]


def test_parse_constants():
    g = parse_penman('(z0 / car :mod "bright red" :quant 3 :polarity -)')
    assert [e.target for e in g.edges] == ['"bright red"', "3", "-"]
    assert not any(e.target in g.nodes for e in g.edges)


@pytest.mark.parametrize(
    "text,value",
    [('"red car"', "red car"), ('"', '"'), ('"dog', '"dog'), ("3", "3"), ("-", "-")],
)
def test_unquote(text, value):
    assert unquote(text) == value


def test_parse_non_z_variables():
    g = parse_penman("(w / want-01 :ARG0 (b / boy))")
    assert g.root == "w"
    assert g.nodes == {"w": "want-01", "b": "boy"}


def chain_penman(depth: int) -> str:
    """A chain of ``depth`` nested nodes: ``(z0 / n :ARG0 (z1 / n ...))``."""
    return " :ARG0 ".join(f"(z{i} / n" for i in range(depth)) + ")" * depth


@pytest.mark.parametrize(
    "text,exc",
    [
        ("", EmptyInput),
        ("   ", EmptyInput),
        ("(z0 / dog", UnbalancedParentheses),
        ("(z0 / dog))", UnbalancedParentheses),
        ("z0 / dog)", UnbalancedParentheses),
        ("(z0 / dog :mod (z0 / cat))", DuplicateVariableDeclaration),
        ("(z0 / dog :mod z9)", UndeclaredVariableReference),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc) as info:
        parse_penman(text)
    assert info.value.offset >= 0


# One row per raise site of parse_penman: exact class, message and offset.
@pytest.mark.parametrize(
    "text,exc,message,offset",
    [
        ('(z0 / dog :mod "big)', PenmanError, "unterminated string literal", 15),
        (" \n\t", EmptyInput, "empty input", 0),
        ("  z0 / dog)", UnbalancedParentheses, "expected '(' at start, got 'z0'", 2),
        ("( ", UnbalancedParentheses, "unexpected end of input", 2),
        ("(z0 ", UnbalancedParentheses, "unexpected end of input", 4),
        ("(z0 / ", UnbalancedParentheses, "unexpected end of input", 6),
        ("(/ dog)", PenmanError, "expected atom, got '/'", 1),
        ('( "z0" / dog)', PenmanError, "expected atom, got '\"z0\"'", 2),
        ("(Z0 / dog)", PenmanError, "invalid variable name 'Z0'", 1),
        ("(z0 dog)", PenmanError, "expected slash, got 'dog'", 4),
        ("(z0 / :mod)", PenmanError, "invalid concept ':mod'", 6),
        ("(z0 / dog :mod (z0 / cat))", DuplicateVariableDeclaration, "variable 'z0' declared twice", 16),
        ("(z0 / dog ", UnbalancedParentheses, "missing ')'", 10),
        ("(z0 / dog cat)", PenmanError, "expected role label, got 'cat'", 10),
        ('(z0 / dog "cat")', PenmanError, "expected role label, got '\"cat\"'", 10),
        ("(z0 / dog : cat)", PenmanError, "empty role label", 10),
        ("(z0 / dog :mod  ", UnbalancedParentheses, "missing edge target", 16),
        ("(z0 / dog :mod z9)", UndeclaredVariableReference, "reference to undeclared variable 'z9'", 15),
        ("(z0 / dog :mod /)", PenmanError, "invalid edge target '/'", 15),
        ("(z0 / dog :mod :ARG0 z0)", PenmanError, "invalid edge target ':ARG0'", 15),
        ("(z0 / dog) (z1 / cat)", UnbalancedParentheses, "trailing content '('", 11),
        ("(z0 / dog))", UnbalancedParentheses, "trailing content ')'", 10),
        (
            chain_penman(MAX_DEPTH + 1),
            PenmanError,
            f"nesting deeper than {MAX_DEPTH} levels",
            chain_penman(MAX_DEPTH + 1).index(f"(z{MAX_DEPTH} / n"),
        ),
    ],
)
def test_every_parse_error_has_its_class_message_and_offset(text, exc, message, offset):
    with pytest.raises(PenmanError) as info:
        parse_penman(text)
    assert type(info.value) is exc
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


# A message that quotes a token names the one at the error's offset.
_QUOTED_TOKEN_RE = re.compile(
    r"(?:got|variable|variable name|concept|edge target|content) ('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=1, max_value=4))
def test_error_offsets_hold_on_mutated_graphs(seed, n_mutations):
    rng = random.Random(seed)
    text = serialize_penman(random_graph(rng))
    for _ in range(n_mutations):
        text = mutate_text(rng, text)
    try:
        parse_penman(text)
    except PenmanError as err:
        quoted = _QUOTED_TOKEN_RE.search(str(err))
        if quoted:
            assert text[err.offset :].startswith(ast.literal_eval(quoted.group(1))), str(err)
        else:
            assert 0 <= err.offset <= len(text)


def _parsed_variants(rng: random.Random) -> list[tuple[str, AmrGraph]]:
    """A random graph's PENMAN text and ten chains of three edits of it, each
    step kept, with the graph of every one that parses."""
    text = serialize_penman(random_graph(rng))
    variants = [text]
    for _ in range(10):
        mutated = text
        for _ in range(3):
            mutated = mutate_text(rng, mutated)
            variants.append(mutated)
    parsed = []
    for variant in variants:
        try:
            parsed.append((variant, parse_penman(variant)))
        except PenmanError:
            continue
    return parsed


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0))
def test_edge_target_is_a_node_iff_it_is_a_variable_token(seed):
    for variant, g in _parsed_variants(random.Random(seed)):
        for e in g.edges:
            assert (e.target in g.nodes) == is_variable_token(e.target), (variant, e)


def _dfs_first_visits(g: AmrGraph) -> set[AmrEdge]:
    """The edges along which a depth-first walk over all edges, children in
    stored order, first reaches each node."""
    out: dict[str, list[AmrEdge]] = {}
    for e in g.edges:
        out.setdefault(e.source, []).append(e)
    visited = {g.root}
    first: set[AmrEdge] = set()

    def visit(var: str) -> None:
        for e in out.get(var, ()):
            if e.target in g.nodes and e.target not in visited:
                visited.add(e.target)
                first.add(e)
                visit(e.target)

    visit(g.root)
    return first


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0))
def test_declaring_edges_span_each_parsed_graph_as_its_dfs_tree(seed):
    for variant, g in _parsed_variants(random.Random(seed)):
        assert validate(g) == [], variant
        assert AmrGraph(g.root, g.nodes, g.edges) == g, variant  # the constructor accepts every parsed graph
        index = children_index(g)
        nodes = g.nodes
        declaring = [
            (source, role, target)
            for source, children in index.items()
            for role, target, concept in children
            if concept
        ]
        concepts = [(target, concept) for children in index.values() for _, target, concept in children]
        assert all(concept is None or concept == nodes[target] for target, concept in concepts), variant
        assert len(declaring) == len(nodes) - 1, variant
        assert list(nodes) == declaration_order(g), variant
        reached = {g.root}
        stack = [g.root]
        while stack:
            for _, target, declares in index.get(stack.pop(), ()):
                if declares:
                    reached.add(target)
                    stack.append(target)
        assert reached == set(g.nodes), variant
        assert set(declaring) == _dfs_first_visits(g), variant
        assert parse_penman(serialize_penman(g)) == g, variant


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0))
def test_penman_pieces_match_the_recursive_reference(seed):
    rng = random.Random(seed)
    graphs = [("random_graph", random_graph(rng)), *_parsed_variants(rng)]
    for variant, g in graphs:
        texts, tokens = reference_penman_pieces(g)
        assert penman_pieces(g) == texts, variant
        assert linearize_dfs(g).tokens == tuple(tokens), variant
        assert parse_penman(serialize_penman(g)) == g, variant


def test_error_offsets_point_at_the_problem():
    text = "(z0 / dog :mod z9)"
    with pytest.raises(UndeclaredVariableReference) as info:
        parse_penman(text)
    assert text[info.value.offset :].startswith("z9")


def test_serialize_examples():
    assert serialize_penman(parse_penman(FIG1_PENMAN)) == FIG1_PENMAN
    assert serialize_penman(parse_penman("(z0 / dog)")) == "(z0 / dog)"
    assert serialize_penman(parse_penman(WANT_PENMAN)) == WANT_PENMAN


def test_serialize_normalizes_whitespace():
    messy = "(z0 / dog\n   :mod (z1 / big))"
    assert serialize_penman(parse_penman(messy)) == "(z0 / dog :mod (z1 / big))"


def _stored_strings(g: AmrGraph) -> list[str]:
    return [*g.nodes, *g.nodes.values(), *(s for e in g.edges for s in e)]


def test_roundtrip_random_graphs():
    rng = random.Random(7)
    reentrancies = 0
    for _ in range(200):
        g = random_graph(rng)
        text = serialize_penman(g)
        parsed = parse_penman(text)
        assert parsed == g
        # A second text, built apart from the first, gives the same string
        # objects: node keys, concepts, roles and constants are interned.
        again = parse_penman(text.replace(" :", "\n  :"))
        assert again == g
        for a, b in zip(_stored_strings(again), _stored_strings(parsed), strict=True):
            assert a is b, (text, a)
        keys = {v: v for v in parsed.nodes}
        into_nodes = [e for e in parsed.edges if e.target in keys]
        for e in into_nodes:
            assert e.target is keys[e.target], (text, e)  # the very key in nodes
        reentrancies += len(into_nodes) - (len(parsed.nodes) - 1)
    assert reentrancies > 0


def test_parser_totality_on_fuzzed_input():
    rng = random.Random(11)
    alphabet = "()/: z01ab\"-"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_penman(text)
        except PenmanError as err:
            assert 0 <= err.offset <= len(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list('()/:" \\\t\r\nz0a-')) | st.characters()))
def test_arbitrary_text_raises_only_penman_error(text):
    try:
        g = parse_penman(text)
    except PenmanError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert AmrGraph(g.root, g.nodes, g.edges) == g


def test_chain_at_max_depth_round_trips_and_linearizes():
    g = parse_penman(chain_penman(MAX_DEPTH))
    assert len(g.nodes) == MAX_DEPTH
    assert serialize_penman(g) == chain_penman(MAX_DEPTH)
    assert parse_penman(serialize_penman(g)) == g
    for strategy in Strategy:
        assert len(linearize(g, strategy).tokens) == 2 * MAX_DEPTH - 1


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000, 5000])
def test_nesting_deeper_than_max_depth_is_an_error(depth):
    text = chain_penman(depth)
    with pytest.raises(PenmanError, match=f"nesting deeper than {MAX_DEPTH} levels") as info:
        parse_penman(text)
    assert type(info.value) is PenmanError
    # the offset is that of the "(" opening level MAX_DEPTH + 1
    assert text[info.value.offset :].startswith(f"(z{MAX_DEPTH} / n")


# serialize_penman, children_index and the three linearizations
_WALKS = [serialize_penman, children_index, *(partial(linearize, strategy=s) for s in Strategy)]


def test_validate_valid_graph():
    assert validate(parse_penman(FIG1_PENMAN)) == []


def test_validate_undeclared_reference():
    g = parse_penman(FIG1_PENMAN)
    bad = GraphParts(
        root=g.root,
        nodes=g.nodes,
        edges=g.edges + (AmrEdge("z0", ":mod", "z9"),),
    )
    kinds = [(d.kind, d.subject) for d in validate(bad)]
    assert ("UndeclaredVariableReference", "z9") in kinds
    with pytest.raises(ValueError, match="^edge z0 :mod z9: its target is a variable that is not a node$"):
        AmrGraph(*bad)


def test_the_constructor_refuses_a_target_shaped_like_a_variable_that_is_not_a_node():
    # parse_penman reads "z9" as a reference to an undeclared variable, so no
    # PENMAN text gives this graph, and serializing it would not round-trip
    parts = GraphParts("z0", {"z0": "dog"}, (AmrEdge("z0", ":mod", "z9"),))
    with pytest.raises(UndeclaredVariableReference):
        parse_penman("(z0 / dog :mod z9)")
    assert [(d.kind, d.subject) for d in validate(parts)] == [("UndeclaredVariableReference", "z9")]
    with pytest.raises(ValueError, match="^edge z0 :mod z9: its target is a variable that is not a node$"):
        AmrGraph(*parts)


@pytest.mark.parametrize("constant", ["-", "3", "-0.5", '"z9"', "Z9", '"(z0 / dog)"'])
def test_walks_keep_a_constant_not_shaped_like_a_variable(constant):
    graph = AmrGraph("z0", {"z0": "dog"}, (AmrEdge("z0", ":mod", constant),))
    assert validate(graph) == []
    assert parse_penman(serialize_penman(graph)) == graph
    for walk in _WALKS:
        walk(graph)


def test_validate_unreachable_node():
    g = parse_penman(FIG1_PENMAN)
    # drop the tree edge z1 -:mod-> z2 entirely
    edges = tuple(e for e in g.edges if e != AmrEdge("z1", ":mod", "z2"))
    bad = GraphParts(root=g.root, nodes=g.nodes, edges=edges)
    kinds = [(d.kind, d.subject) for d in validate(bad)]
    assert ("UnreachableNode", "z2") in kinds
    with pytest.raises(ValueError, match="^nodes never reached from the root: z2$"):
        AmrGraph(*bad)


def test_validate_edges_out_of_attachment_order():
    # Every node is reachable, but z1 and z2 are first reached from each
    # other, not from the root, so the PENMAN text would never declare them.
    bad = GraphParts(
        root="z0",
        nodes={"z0": "dog", "z1": "cat", "z2": "tree"},
        edges=(
            AmrEdge("z1", ":mod", "z2"),
            AmrEdge("z0", ":ARG0", "z2"),
            AmrEdge("z2", ":ARG1", "z1"),
        ),
    )
    kinds = [(d.kind, d.subject) for d in validate(bad)]
    assert kinds == [("EdgeOutOfTextualOrder", "z1 :mod z2")]
    with pytest.raises(ValueError, match="^edge z1 :mod z2: its source is not an open node$"):
        AmrGraph(*bad)


def test_the_constructor_refuses_edges_in_attachment_but_not_textual_order():
    # Each edge leaves a node an earlier edge reached, but z1's subtree was
    # closed by z0's second edge, so no PENMAN text gives this edge order.
    bad = GraphParts(
        root="z0",
        nodes={"z0": "dog", "z1": "cat", "z2": "tree", "z3": "snow"},
        edges=(
            AmrEdge("z0", ":ARG0", "z1"),
            AmrEdge("z0", ":ARG1", "z3"),
            AmrEdge("z1", ":mod", "z2"),
        ),
    )
    kinds = [(d.kind, d.subject) for d in validate(bad)]
    assert kinds == [("EdgeOutOfTextualOrder", "z0 :ARG1 z3")]
    with pytest.raises(ValueError, match="^edge z1 :mod z2: its source is not an open node$"):
        AmrGraph(*bad)


def test_the_constructor_refuses_a_root_that_is_not_a_node():
    # every walk used to raise KeyError: 'z9' on this graph
    with pytest.raises(ValueError, match="^root 'z9' is not a node$"):
        AmrGraph("z9", {"z0": "dog"}, ())
    assert [(d.kind, d.subject) for d in validate(GraphParts("z9", {"z0": "dog"}, ()))] == [
        ("MissingRoot", "z9"),
        ("UnreachableNode", "z0"),
    ]


def _one_edge(role: str, target: str) -> GraphParts:
    return GraphParts("z0", {"z0": "dog"}, (AmrEdge("z0", role, target),))


def _round_trips(parts: GraphParts) -> bool:
    """True when ``parse_penman`` reads the reference DFS text of ``parts``
    back as ``parts``."""
    try:
        parsed = parse_penman(" ".join(reference_penman_pieces(parts)[0]))
    except PenmanError:
        return False
    return (parsed.root, parsed.nodes, parsed.edges) == parts


@pytest.mark.parametrize(
    "parts, refusal",
    [
        (GraphParts("Z0", {"Z0": "dog"}, ()), "node 'Z0': not a variable"),
        (GraphParts("z0", {"z0": "big dog"}, ()), "concept 'big dog': not one atom or string literal"),
        (GraphParts("z0", {"z0": ""}, ()), "concept '': not one atom or string literal"),
        (GraphParts("z0", {"z0": "a)"}, ()), "concept 'a)': not one atom or string literal"),
        (_one_edge("ARG0", "-"), "role 'ARG0': not one role"),
        (_one_edge(":mod", "very big"), "constant 'very big': not one atom or string literal"),
        (GraphParts("z0", {"z0": "dog\n"}, ()), "concept 'dog\\n': not one atom or string literal"),
        (GraphParts("z0\n", {"z0\n": "dog"}, ()), "node 'z0\\n': not a variable"),
        (_one_edge(":", "-"), "role ':': not one role"),
        (_one_edge(":mod", '"'), "constant '\"': not one atom or string literal"),
        (_one_edge(":mod", ":x"), "constant ':x': not one atom or string literal"),
        (_one_edge("::", "-"), None),
        (_one_edge(":mod", "Z0"), None),
        (_one_edge(":mod", '"very big"'), None),
        (GraphParts("z0", {"z0": '"big dog"'}, ()), None),
        (GraphParts("z0", {"z0": 'a"b'}, ()), None),
        (GraphParts("z0", {"z0": '"a\nb"'}, ()), None),
    ],
    ids=[
        "node_Z0", "concept_with_space", "empty_concept", "concept_a_paren", "role_ARG0",
        "constant_with_space", "concept_newline", "node_newline", "empty_role", "lone_quote",
        "constant_role_shaped", "role_double_colon", "constant_Z0", "quoted_constant",
        "quoted_concept", "quote_inside_atom", "newline_inside_literal",
    ],
)
def test_the_constructor_refuses_a_symbol_the_lexer_would_not_read_back(parts, refusal):
    if refusal is None:
        assert AmrGraph(*parts) == parse_penman(" ".join(reference_penman_pieces(parts)[0]))
    else:
        with pytest.raises(ValueError) as info:
            AmrGraph(*parts)
        assert str(info.value) == refusal
    assert _round_trips(parts) == (refusal is None)


def _mutated_parts(rng: random.Random) -> tuple[str, GraphParts]:
    """A ``random_graph``'s parts with one symbol (a node key, renamed
    everywhere, a concept, a role or a constant) edited once by
    ``mutate_text``, and which kind of symbol it was."""
    g = random_graph(rng)
    root, nodes, edges = g.root, dict(g.nodes), list(g.edges)
    constants = [k for k, e in enumerate(edges) if e.target not in nodes]
    kind = rng.choice(["node", "concept"] + ["role"] * bool(edges) + ["constant"] * bool(constants))
    if kind == "node":
        old = rng.choice(list(nodes))
        new = mutate_text(rng, old)
        rename = {old: new}.get
        root = rename(root, root)
        nodes = {rename(v, v): c for v, c in nodes.items()}
        edges = [AmrEdge(rename(s, s), r, rename(t, t)) for s, r, t in edges]
    elif kind == "concept":
        var = rng.choice(list(nodes))
        nodes[var] = mutate_text(rng, nodes[var])
    elif kind == "role":
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(role=mutate_text(rng, edges[k].role))
    else:
        k = rng.choice(constants)
        edges[k] = edges[k]._replace(target=mutate_text(rng, edges[k].target))
    return kind, GraphParts(root, nodes, tuple(edges))


def test_the_constructor_accepts_exactly_the_symbols_that_round_trip():
    rng = random.Random(41)
    outcomes = Counter()
    for _ in range(3000):
        kind, parts = _mutated_parts(rng)
        try:
            AmrGraph(*parts)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _round_trips(parts), parts
        outcomes[kind, accepted] += 1
    # each kind of symbol is both accepted and refused many times
    for kind in ("node", "concept", "role", "constant"):
        assert outcomes[kind, True] > 30 and outcomes[kind, False] > 30, outcomes


def test_penman_blocks_with_metadata(tmp_path):
    content = (
        "# ::id r1 ::snt Golden retriever standing in the snow\n"
        f"{FIG1_PENMAN}\n"
        "\n"
        "# ::id r2 ::snt A dog\n"
        "(z0 / dog)\n"
    )
    path = tmp_path / "graphs.penman"
    path.write_text(content, encoding="utf-8")
    blocks = list(iter_penman_blocks(io.StringIO(content)))
    assert len(blocks) == 2
    assert list(iter_penman_blocks(io.StringIO(content.rstrip("\n")))) == blocks  # no final line end
    assert blocks[0][0] == {"id": "r1", "snt": "Golden retriever standing in the snow"}
    graphs = load_penman_file(path)
    assert graphs[0].metadata["id"] == "r1"
    assert graphs[1].nodes == {"z0": "dog"}


def test_penman_blocks_come_before_the_lines_after_them_are_read():
    def lines():
        yield "# ::id r1\n"
        yield "(z0 / dog\n"
        yield "  :mod (z1 / big))\n"
        yield "\n"
        raise AssertionError("read past the first block's blank line")

    blocks = iter_penman_blocks(lines())
    assert next(blocks) == ({"id": "r1"}, "(z0 / dog\n  :mod (z1 / big))")
    with pytest.raises(AssertionError, match="read past"):
        next(blocks)


def test_penman_blocks_refuse_a_str():
    # iterating a str would give one line per character
    with pytest.raises(TypeError, match="not a str"):
        next(iter_penman_blocks("(z0 / dog)\n"))


def test_loading_a_penman_file_holds_little_more_than_its_graphs(tmp_path, monkeypatch):
    # the reader holds one block at a time, not the file's text and every line of it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen = importlib.import_module("gen")
    path = tmp_path / "graphs.penman"
    path.write_text(gen.adapter_input(1, 300).penman, encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        graphs = load_penman_file(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graphs) == 300
    assert peak - retained < 64 * 1024, (retained, peak)



def test_reading_graphs_that_are_dropped_at_once_never_resizes_a_symbol_table(monkeypatch):
    # As a stream converter does, each graph and scene graph is dropped right
    # after it is read. Were their strings freed with them, as plain
    # ``sys.intern`` does, the next read would add them back, and about one
    # read in 400 would pay some 400 KB to resize the interpreter's table of
    # interned strings.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    texts = list(importlib.import_module("gen").corpus_input(1, 500).canonical.values())

    def read(text):
        parsed = parse_sg_text(serialize_sg(convert_rules(parse_penman(text))))
        sg_from_json(json.loads(json.dumps(sg_to_json(parsed))))

    for text in texts:  # the tables grow to hold the corpus's symbols
        read(text)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(6):
            for text in texts:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                read(text)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 100 * 1024, sorted(peaks)[-5:]

@pytest.mark.parametrize(
    "offset, before",
    [(100, b""), (8192, b""), (8193, "\u00e9".encode()), (23695, b"")],
    ids=["first_chunk", "chunk_boundary", "after_a_character_split_across_the_boundary", "deep"],
)
def test_load_penman_file_names_the_file_offset_of_a_byte_that_is_not_utf8(tmp_path, offset, before):
    # the file is read in chunks of 8,192 bytes; a comment line runs up to the bad byte
    head = b"(z0 / dog)\n\n# "
    data = head + b"x" * (offset - len(head) - len(before)) + before + b"\xff\n\n(z1 / cat)\n"
    assert data.index(b"\xff") == offset
    path = tmp_path / "graphs.penman"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_penman_file(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{path}: not UTF-8 (invalid start byte) at byte {offset}"


def test_multiline_penman_block():
    text = "(z0 / want-01\n    :ARG0 (z1 / dog)\n    :ARG1 (z2 / eat-01 :ARG0 z1))"
    g = parse_penman(text)
    assert serialize_penman(g) == WANT_PENMAN


# --- the graph's storage and public surface ----------------------------------


def test_a_parsed_graph_holds_no_object_per_edge():
    g = parse_penman(FIG1_PENMAN)
    assert len(g.edges) == 3
    assert not hasattr(g, "__dict__")
    # what the graph refers to, and what that refers to in turn: strings and
    # three flat tuples (the nodes' eight fields, the edges' nine and the empty
    # metadata), with no dict and no edge object
    held = gc.get_referents(g)
    held += [x for h in held if isinstance(h, tuple) for x in gc.get_referents(h)]
    assert not [h for h in held if isinstance(h, (AmrEdge, dict)) or (isinstance(h, tuple) and len(h) == 3)], held
    assert sorted(len(h) for h in held if type(h) is tuple) == [0, 8, 9]


def test_a_graph_rebuilt_from_its_public_fields_equals_it():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng)
        assert AmrGraph(g.root, g.nodes, g.edges) == g
        plain = AmrGraph(g.root, g.nodes, [tuple(e) for e in g.edges])
        assert plain == g
        assert plain.edges == g.edges
        assert all(type(e) is AmrEdge for e in plain.edges)
        assert type(g.edges) is tuple
        assert AmrGraph(g.root, g.nodes, g.edges, metadata={"id": "other"}) == g  # metadata is not compared
        assert repr(g) == f"AmrGraph(root={g.root!r}, nodes={dict(g.nodes)!r}, edges={g.edges!r}, metadata={{}})"
        if g.edges:
            assert "edges=(AmrEdge(source=" in repr(g)
            edges = list(g.edges)
            edges[-1] = edges[-1]._replace(role=":other")
            assert AmrGraph(g.root, g.nodes, edges) != g


def test_a_graph_is_immutable_and_survives_pickle_and_copy():
    g = parse_penman(FIG1_PENMAN, metadata={"id": "r1"})
    for name in ("root", "nodes", "edges", "metadata", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)
    for again in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert again == g
        assert again.edges == g.edges
        assert again.metadata == {"id": "r1"}


@pytest.mark.parametrize(
    "change",
    [
        lambda g: operator.setitem(g.nodes, "z9", "cat"),
        lambda g: operator.delitem(g.nodes, "z0"),
        lambda g: operator.setitem(g.metadata, "id", "x"),
    ],
    ids=["add_node", "delete_root", "set_metadata"],
)
def test_a_graph_s_mappings_refuse_a_change(change):
    # each used to go through: serialize_penman then dropped an added node
    # without an error, and the text read back != the graph
    g = parse_penman("(z0 / dog :mod (z1 / big))", metadata={"id": "r1"})
    shown = repr(g)
    with pytest.raises(TypeError, match="does not support item"):
        change(g)
    assert repr(g) == shown
    assert g.nodes == {"z0": "dog", "z1": "big"} and g.metadata == {"id": "r1"}
    assert parse_penman(serialize_penman(g)) == g


def _attempted_changes(g: AmrGraph) -> list:
    """Every way to change ``g`` in place that a caller might try."""
    nodes, metadata = g.nodes, g.metadata
    var = next(iter(nodes))
    return [
        partial(operator.setitem, nodes, "z99", "cat"),
        partial(operator.setitem, nodes, var, "cat"),
        partial(operator.delitem, nodes, var),
        partial(operator.setitem, metadata, "id", "x"),
        partial(operator.delitem, metadata, "id"),
        *(
            partial(getattr, mapping, method)  # a mappingproxy has none of them
            for mapping in (nodes, metadata)
            for method in ("clear", "pop", "popitem", "setdefault", "update")
        ),
        *(partial(setattr, g, name, None) for name in ("root", "nodes", "edges", "metadata")),
        *(partial(delattr, g, name) for name in ("root", "nodes", "edges", "metadata")),
        *([partial(operator.setitem, g.edges, 0, AmrEdge(var, ":mod", "-"))] if g.edges else []),
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_no_change_to_a_graph_goes_through(seed):
    g = random_graph(random.Random(seed))
    g = AmrGraph(g.root, g.nodes, g.edges, metadata={"id": f"r{seed}", "snt": "A dog"})
    shown = repr(g)
    for change in _attempted_changes(g):
        with pytest.raises((TypeError, AttributeError)):
            change()
    assert repr(g) == shown
    assert parse_penman(serialize_penman(g)) == g
    for again in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert again == g
        assert repr(again) == shown


def test_a_graph_keeps_its_nodes_in_declaration_order_and_copies_its_mappings():
    parsed = parse_penman("(z0 / want-01 :ARG1 (z2 / eat-01 :ARG0 (z1 / dog)) :ARG0 z1)", metadata={"id": "r1"})
    nodes = {"z1": "dog", "z2": "eat-01", "z0": "want-01"}
    metadata = {"id": "r1"}
    built = AmrGraph("z0", nodes, parsed.edges, metadata)
    assert built == parsed
    assert list(built.nodes) == list(parsed.nodes) == ["z0", "z2", "z1"]
    assert repr(built) == repr(parsed)
    # changing the caller's dicts afterwards leaves the graph as it was
    nodes["z1"] = "cat"
    nodes["z3"] = "tree"
    del nodes["z2"]
    metadata["id"] = "x"
    assert built == parsed
    assert repr(built) == repr(parsed)
    assert serialize_penman(built) == serialize_penman(parsed)
    given_to_parse = {"id": "r2"}
    g = parse_penman("(z0 / dog)", metadata=given_to_parse)
    given_to_parse["id"] = "x"
    assert g.metadata == {"id": "r2"}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_a_graph_built_from_nodes_in_any_order_equals_its_parsed_twin(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    shuffled = with_shuffled_nodes(rng, g)
    assert shuffled == g == parse_penman(serialize_penman(shuffled))
    assert list(shuffled.nodes) == declaration_order(g)
    assert repr(shuffled) == repr(g)


@pytest.mark.parametrize(
    "edge, shown",
    [
        (("z0", ":mod"), "('z0', ':mod')"),
        (("z0", ":mod", 3), "('z0', ':mod', 3)"),
        (("z0", ":mod", "z1", "z2"), "('z0', ':mod', 'z1', 'z2')"),
        (None, "None"),
        ("z0 :mod z1", "'z0 :mod z1'"),
    ],
    ids=["two_fields", "int_target", "four_fields", "none", "str"],
)
def test_a_hand_built_edge_that_is_not_three_strings_is_a_value_error(edge, shown):
    # it used to fail only later, in serialize_penman, with an unpacking or type error
    edges = [AmrEdge("z0", ":ARG0", "z1"), edge]
    with pytest.raises(ValueError) as info:
        AmrGraph("z0", {"z0": "dog", "z1": "cat"}, edges)
    assert type(info.value) is ValueError
    assert str(info.value) == f"edge 1 {shown}: an edge is three strings, (source, role, target)"


def test_loaded_graphs_share_each_metadata_key(tmp_path):
    path = tmp_path / "graphs.penman"
    path.write_text("# ::id r1 ::snt A dog\n(z0 / dog)\n\n# ::id r2 ::snt A cat\n(z0 / cat)\n", encoding="utf-8")
    first, second = load_penman_file(path)
    assert first.metadata == {"id": "r1", "snt": "A dog"}
    for a, b in zip(first.metadata, second.metadata, strict=True):
        assert a is b, a
