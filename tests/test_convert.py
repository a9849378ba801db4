import itertools
import random
import re
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.amr import Constant, parse_penman
from amrsg.convert import (
    AdapterCrashed,
    AdapterError,
    AdapterTimeout,
    ExternalAdapter,
    MalformedModelOutput,
    convert_external,
    convert_rules,
    export_training_pairs,
)
from amrsg.corpus import RegionRecord
from amrsg.linearize import Strategy, linearize_dfs
from amrsg.scenegraph import SceneGraph
from helpers import FIG1_PENMAN, random_graph


# --- independent rule interpreter (oracle) ----------------------------------


def _bf_norm(term):
    words = re.sub("[(),]", " ", term).lower().split()
    i = 0
    while i < len(words) and words[i] in ("a", "an", "the"):
        i += 1
    return " ".join(words[i:]) or None


def _bf_is_frame(label):
    return re.search(r"-[0-9][0-9]$", label) is not None


def _bf_surface(graph, target):
    if isinstance(target, Constant):
        raw = target.value
    else:
        label = graph.nodes[target]
        raw = label[:-3] if _bf_is_frame(label) else label
    return _bf_norm(raw)


_BF_ATTRIBUTE_ROLES = {":mod"}
_BF_CORE_ROLES = [":ARG0", ":ARG1", ":ARG2"]
_BF_LOCATIVE_ROLES = {":location": "in"}


def brute_force_rules(graph):
    """Enumerates every (node, edge) rule firing with naive scans."""
    attr_value_vars = set()
    for e in graph.edges:
        if (
            e.role in _BF_ATTRIBUTE_ROLES
            and not isinstance(e.target, Constant)
            and not _bf_is_frame(graph.nodes[e.target])
        ):
            attr_value_vars.add(e.target)

    objects = []
    for var in graph.nodes:
        if not _bf_is_frame(graph.nodes[var]) and var not in attr_value_vars:
            s = _bf_surface(graph, var)
            if s:
                objects.append(s)

    attributes = []
    for e in graph.edges:
        if e.role not in _BF_ATTRIBUTE_ROLES:
            continue
        if not isinstance(e.target, Constant) and _bf_is_frame(graph.nodes[e.target]):
            continue
        obj = _bf_surface(graph, e.source)
        attr = _bf_surface(graph, e.target)
        if obj and attr:
            attributes.append((obj, attr))

    relations = []
    for var in graph.nodes:
        if not _bf_is_frame(graph.nodes[var]):
            continue
        lemma = _bf_norm(graph.nodes[var][:-3])
        outgoing = [e for e in graph.edges if e.source == var and not isinstance(e.target, Constant)]
        core = []
        for role in _BF_CORE_ROLES:
            for e in outgoing:
                if e.role == role:
                    core.append(e)
        loc = [e for e in outgoing if e.role in _BF_LOCATIVE_ROLES]
        if not core:
            continue
        if len(core) >= 2 or loc:
            obj_edge = core[1] if len(core) >= 2 else loc[0]
            subj = _bf_surface(graph, core[0].target)
            obj = _bf_surface(graph, obj_edge.target)
            if subj and obj:
                if obj_edge.role in _BF_LOCATIVE_ROLES:
                    pred = f"{lemma} {_BF_LOCATIVE_ROLES[obj_edge.role]}"
                elif obj_edge.role == ":ARG2" and all(e.role != ":ARG0" for e in core):
                    pred = f"{lemma} in"
                else:
                    pred = lemma
                relations.append((subj, pred, obj))
        else:
            child = _bf_surface(graph, core[0].target)
            if child:
                attributes.append((child, lemma))

    return SceneGraph(objects, attributes, relations)


# --- convert_rules -----------------------------------------------------------


def test_rules_fig1():
    sg = convert_rules(parse_penman(FIG1_PENMAN))
    assert sg == SceneGraph(
        objects=["retriever", "snow"],
        attributes=[("retriever", "gold")],
        relations=[("retriever", "stand in", "snow")],
    )


def test_rules_single_object():
    assert convert_rules(parse_penman("(z0 / dog)")) == SceneGraph(objects=["dog"])


def test_rules_single_core_child_becomes_attribute():
    sg = convert_rules(parse_penman("(z0 / stand-01 :ARG1 (z1 / dog))"))
    assert sg == SceneGraph(objects=["dog"], attributes=[("dog", "stand")])


def test_rules_frame_without_core_children_dropped():
    sg = convert_rules(parse_penman("(z0 / run-02)"))
    assert sg == SceneGraph()


def test_rules_location_role():
    sg = convert_rules(parse_penman("(z0 / sit-02 :ARG1 (z1 / cat) :location (z2 / mat))"))
    assert list(sg.relations) == [("cat", "sit in", "mat")]


def test_rules_transitive_frame_plain_predicate():
    sg = convert_rules(parse_penman("(z0 / hold-01 :ARG0 (z1 / person) :ARG1 (z2 / umbrella))"))
    assert list(sg.relations) == [("person", "hold", "umbrella")]


def test_rules_oracle_equivalence():
    rng = random.Random(101)
    for _ in range(200):
        g = random_graph(rng, max_nodes=8)
        assert convert_rules(g) == brute_force_rules(g)


def test_rules_no_invented_objects():
    rng = random.Random(103)
    for _ in range(100):
        g = random_graph(rng, max_nodes=8)
        concept_surfaces = set()
        for concept in g.nodes.values():
            s = _bf_norm(concept[:-3] if _bf_is_frame(concept) else concept)
            if s:
                concept_surfaces.add(s)
        for const in (e.target for e in g.edges if isinstance(e.target, Constant)):
            s = _bf_norm(const.value)
            if s:
                concept_surfaces.add(s)
        for o in convert_rules(g).objects:
            assert o.name in concept_surfaces


def test_rules_determinism():
    rng = random.Random(107)
    for _ in range(20):
        g = random_graph(rng)
        assert convert_rules(g) == convert_rules(g)


# --- external adapter --------------------------------------------------------


def _write_stub(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


@pytest.fixture
def echo_dog(tmp_path):
    return _write_stub(
        tmp_path,
        "echo_dog.py",
        """
        import sys
        for line in sys.stdin:
            print("( dog )", flush=True)
        """,
    )


def test_adapter_roundtrip(echo_dog):
    seq = linearize_dfs(parse_penman("(z0 / dog)"))
    with ExternalAdapter(echo_dog, timeout=10) as adapter:
        assert convert_external(seq, adapter) == SceneGraph(objects=["dog"])
        # second request reuses the same child process
        assert convert_external(seq, adapter) == SceneGraph(objects=["dog"])


def test_adapter_timeout(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "sleepy.py",
        """
        import sys, time
        for line in sys.stdin:
            if "dog" in line:
                time.sleep(0.6)
                print("( reply0 )", flush=True)
            else:
                print("( cat )", flush=True)
        """,
    )
    with ExternalAdapter(cmd, timeout=0.4) as adapter:
        with pytest.raises(AdapterTimeout):
            convert_external(linearize_dfs(parse_penman("(z0 / dog)")), adapter)
        # the late "( reply0 )" must not answer the next request
        adapter.timeout = 10
        cat = linearize_dfs(parse_penman("(z0 / cat)"))
        assert convert_external(cat, adapter) == SceneGraph(objects=["cat"])


def test_adapter_refuses_line_break(echo_dog):
    with ExternalAdapter(echo_dog, timeout=10) as adapter:
        for line in ('(z0 / dog :name "a\nb")', '(z0 / dog :name "a\rb")'):
            with pytest.raises(AdapterError, match="line break"):
                adapter.request(line)
        assert adapter.request("(z0 / dog)\n") == "( dog )"


def test_adapter_crash(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "crash.py",
        """
        import sys
        for line in sys.stdin:
            if "bomb" in line:
                sys.exit(3)
            print("( cat )", flush=True)
        """,
    )
    with ExternalAdapter(cmd, timeout=10) as adapter:
        with pytest.raises(AdapterCrashed, match="status 3"):
            convert_external(linearize_dfs(parse_penman("(z0 / bomb)")), adapter)
        # the exited child is replaced by a fresh one
        cat = linearize_dfs(parse_penman("(z0 / cat)"))
        assert convert_external(cat, adapter) == SceneGraph(objects=["cat"])


def test_adapter_malformed_output(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "bad.py",
        """
        import sys
        for line in sys.stdin:
            print("( a , b , c , d )", flush=True)
        """,
    )
    seq = linearize_dfs(parse_penman("(z0 / dog)"))
    with ExternalAdapter(cmd, timeout=10) as adapter:
        with pytest.raises(MalformedModelOutput) as info:
            convert_external(seq, adapter)
        assert info.value.raw == "( a , b , c , d )"


@pytest.mark.parametrize("bad_reply", [b"( caf\xe9 )", b"( a )\r( b )"], ids=["not-utf8", "lone-cr"])
def test_adapter_malformed_reply_keeps_child_and_alignment(tmp_path, bad_reply):
    cmd = _write_stub(
        tmp_path,
        "bad_bytes.py",
        """
        import sys
        bad = bytes.fromhex(sys.argv[1])
        for n, line in enumerate(sys.stdin.buffer):
            reply = bad if n == 0 else b"( reply%d )" % n
            sys.stdout.buffer.write(reply + (b"\\r\\n" if n == 2 else b"\\n"))
            sys.stdout.buffer.flush()
        """,
    )
    with ExternalAdapter(cmd + [bad_reply.hex()], timeout=10) as adapter:
        with pytest.raises(MalformedModelOutput):
            adapter.request("(z0 / dog)")
        # the same child answers on, one reply per request; a CRLF ending is accepted
        assert adapter.request("(z0 / cat)") == "( reply1 )"
        assert adapter.request("(z0 / cat)") == "( reply2 )"


def test_slow_adapter_never_returns_a_stale_reply(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "slow.py",
        """
        import sys, time
        for line in sys.stdin:
            tag, delay = line.split()
            time.sleep(float(delay))
            print(tag, flush=True)
        """,
    )
    tags = itertools.count()
    outcomes = set()
    with ExternalAdapter(cmd, timeout=0.2) as adapter:

        # 0.15 s answers just inside the timeout, 0.3 s after it
        @settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @given(st.lists(st.sampled_from([0.0, 0.15, 0.3]), min_size=1, max_size=3))
        def every_reply_answers_its_own_request(delays):
            for delay in delays:
                tag = str(next(tags))
                try:
                    reply = adapter.request(f"{tag} {delay}")
                except AdapterTimeout:
                    outcomes.add("timeout")
                    continue
                outcomes.add("reply")
                assert reply == tag

        every_reply_answers_its_own_request()
    assert outcomes == {"reply", "timeout"}


def test_adapter_rejects_bad_timeout():
    with pytest.raises(ValueError):
        ExternalAdapter(["true"], timeout=0)


@pytest.mark.parametrize(
    "timeout",
    [-1.0, float("inf"), float("nan"), threading.TIMEOUT_MAX * 2],
    ids=["negative", "inf", "nan", "above-max"],
)
def test_adapter_timeout_is_above_0_and_at_most_timeout_max(timeout):
    with pytest.raises(ValueError):
        ExternalAdapter(["true"], timeout=timeout)
    ExternalAdapter(["true"], timeout=threading.TIMEOUT_MAX).close()


@pytest.mark.parametrize("missing", [True, False], ids=["not-found", "a-directory"])
def test_adapter_that_cannot_start_is_a_crash(tmp_path, missing):
    command = [str(tmp_path / "missing" if missing else tmp_path)]
    with ExternalAdapter(command, timeout=10) as adapter:
        for _ in range(2):  # each request tries a fresh start
            with pytest.raises(AdapterCrashed, match=r"^cannot start adapter \["):
                adapter.request("(z0 / dog)")


# --- training-pair export ----------------------------------------------------


def _record(region_id, amr, description="Golden retriever standing in the snow"):
    return RegionRecord(
        image_id="img1",
        region_id=region_id,
        description=description,
        scene_graph=SceneGraph(
            objects=["retriever", "snow"],
            attributes=[("retriever", "golden")],
            relations=[("retriever", "standing in", "snow")],
        ),
        amr=amr,
    )


def test_export_single_record():
    pairs, skipped = export_training_pairs([_record("r1", FIG1_PENMAN)], Strategy.DFS)
    assert skipped == 0
    assert len(pairs) == 1
    assert pairs[0].input == FIG1_PENMAN
    assert pairs[0].strategy == "dfs"
    assert pairs[0].target == (
        "( retriever ) ( snow ) ( retriever , golden ) ( retriever , standing in , snow )"
    )


def test_export_empty():
    assert export_training_pairs([], Strategy.BFS) == ([], 0)


def test_export_skips_missing_amr():
    records = [_record("r1", FIG1_PENMAN), _record("r2", None), _record("r3", FIG1_PENMAN)]
    pairs, skipped = export_training_pairs(records, Strategy.DFS)
    assert len(pairs) == 2 and skipped == 1
    assert len(pairs) == len(records) - skipped


def test_export_target_invariant_across_strategies():
    record = _record("r1", FIG1_PENMAN)
    targets = set()
    inputs = set()
    for strategy in Strategy:
        pairs, _ = export_training_pairs([record], strategy)
        targets.add(pairs[0].target)
        inputs.add(pairs[0].input)
    assert len(targets) == 1
    assert len(inputs) == 3


def test_export_filters_ungrounded_tuples():
    record = RegionRecord(
        image_id="img1",
        region_id="r1",
        description="A person holding on umbrella",
        scene_graph=SceneGraph(objects=["person", "umbrella", "bus"], attributes=[("bus", "red")]),
        amr="(z0 / hold-01 :ARG0 (z1 / person) :ARG1 (z2 / umbrella))",
    )
    pairs, _ = export_training_pairs([record], Strategy.DFS)
    assert pairs[0].target == "( person ) ( umbrella )"
    pairs_raw, _ = export_training_pairs([record], Strategy.DFS, apply_filter=False)
    assert "bus" in pairs_raw[0].target
