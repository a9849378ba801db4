import itertools
import os
import random
import re
import signal
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg import convert
from amrsg.amr import parse_penman
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
from helpers import FIG1_PENMAN, random_graph, with_shuffled_nodes


# --- independent rule interpreter (oracle) ----------------------------------


def _bf_norm(term):
    words = re.sub("[(),]", " ", term).lower().split()
    i = 0
    while i < len(words) and words[i] in ("a", "an", "the"):
        i += 1
    return " ".join(words[i:]) or None


def _bf_is_frame(label):
    return re.search(r"-[0-9][0-9]$", label) is not None


def _bf_unquote(text):
    return text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text


def _bf_label(label):
    """A concept's raw surface: a frame's lemma, or a quoted concept's text."""
    return label[:-3] if _bf_is_frame(label) else _bf_unquote(label)


def _bf_surface(graph, target):
    if target not in graph.nodes:  # a constant
        return _bf_norm(_bf_unquote(target))
    return _bf_norm(_bf_label(graph.nodes[target]))


_BF_ATTRIBUTE_ROLES = {":mod"}
_BF_CORE_ROLES = [":ARG0", ":ARG1", ":ARG2"]
_BF_LOCATIVE_ROLES = {":location": "in"}


def brute_force_rules(graph):
    """Enumerates every (node, edge) rule firing with naive scans."""
    attr_value_vars = set()
    for e in graph.edges:
        if (
            e.role in _BF_ATTRIBUTE_ROLES
            and e.target in graph.nodes
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
        if e.target in graph.nodes and _bf_is_frame(graph.nodes[e.target]):
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
        outgoing = [e for e in graph.edges if e.source == var and e.target in graph.nodes]
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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_rules_on_nodes_given_in_any_order_match_the_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=8)
    shuffled = with_shuffled_nodes(rng, g)
    assert convert_rules(shuffled) == brute_force_rules(shuffled) == convert_rules(g)


def test_rules_no_invented_objects():
    rng = random.Random(103)
    for _ in range(100):
        g = random_graph(rng, max_nodes=8)
        concept_surfaces = set()
        for concept in g.nodes.values():
            s = _bf_norm(_bf_label(concept))
            if s:
                concept_surfaces.add(s)
        for const in (e.target for e in g.edges if e.target not in g.nodes):
            s = _bf_norm(_bf_unquote(const))
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


def test_adapter_close_reaps_a_child_that_ignores_eof(tmp_path, monkeypatch):
    cmd = _write_stub(
        tmp_path,
        "sleeper.py",
        """
        import sys, time
        sys.stdin.readline()
        print("( dog )", flush=True)
        time.sleep(60)
        """,
    )
    monkeypatch.setattr(convert, "CLOSE_GRACE_S", 0.2)
    adapter = ExternalAdapter(cmd, timeout=10)
    assert adapter.request("(z0 / dog)") == "( dog )"
    proc = adapter._proc
    start = time.monotonic()
    adapter.close()
    assert time.monotonic() - start < 5
    # reaped: no "subprocess is still running" ResourceWarning when it is collected
    assert proc.returncode == -signal.SIGKILL


def test_adapter_reply_written_in_pieces_comes_back_whole(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "pieces.py",
        """
        import sys, time
        for line in sys.stdin:
            for piece in ("( d", "o", "g )\\n"):
                sys.stdout.write(piece)
                sys.stdout.flush()
                time.sleep(0.05)
        """,
    )
    with ExternalAdapter(cmd, timeout=10) as adapter:
        assert adapter.request("(z0 / dog)") == "( dog )"
        assert adapter.request("(z0 / dog)") == "( dog )"


def test_adapter_reply_of_a_mebibyte_comes_back_whole(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "big.py",
        """
        import sys
        for line in sys.stdin:
            print("( " + "a" * (1 << 20) + " )", flush=True)
        """,
    )
    with ExternalAdapter(cmd, timeout=10) as adapter:
        for _ in range(2):
            assert adapter.request("(z0 / dog)") == "( " + "a" * (1 << 20) + " )"


def test_adapter_timeout_covers_the_whole_reply(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "drip.py",
        """
        import sys, time
        for line in sys.stdin:
            for char in "( dog )\\n":
                sys.stdout.write(char)
                sys.stdout.flush()
                time.sleep(0.1)
        """,
    )
    with ExternalAdapter(cmd, timeout=0.3) as adapter:
        with pytest.raises(AdapterTimeout):
            adapter.request("(z0 / dog)")
        # the killed child's partial reply does not prefix the next one
        adapter.timeout = 10
        assert adapter.request("(z0 / dog)") == "( dog )"


def test_adapter_timeout_holds_while_output_keeps_coming(tmp_path, monkeypatch):
    # Reads are slowed so that bytes without a newline are waiting at every
    # poll, as from a child that floods its output: the deadline must still end
    # the request, not the end of the flood.
    cmd = _write_stub(
        tmp_path,
        "flood.py",
        """
        import sys, time
        sys.stdin.readline()
        for _ in range(600):  # 3 s of output
            sys.stdout.write("a" * 64)
            sys.stdout.flush()
            time.sleep(0.005)
        """,
    )

    class SlowReads:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def read(fd, size):
            chunk = os.read(fd, size)
            time.sleep(0.02)  # the child writes meanwhile
            return chunk

    monkeypatch.setattr(convert, "os", SlowReads())
    with ExternalAdapter(cmd, timeout=0.3) as adapter:
        start = time.monotonic()
        with pytest.raises(AdapterTimeout):
            adapter.request("(z0 / dog)")
        assert time.monotonic() - start < 1.5


def test_adapter_reply_longer_than_the_cap_kills_the_child(tmp_path, monkeypatch):
    cmd = _write_stub(
        tmp_path,
        "endless.py",
        """
        import sys
        for line in sys.stdin:
            if "flood" in line:
                while True:
                    sys.stdout.write("a" * 4096)
                    sys.stdout.flush()
            print("( dog )", flush=True)
        """,
    )
    monkeypatch.setattr(convert, "MAX_REPLY_BYTES", 1 << 16)
    with ExternalAdapter(cmd, timeout=10) as adapter:
        assert adapter.request("(z0 / dog)") == "( dog )"
        start = time.monotonic()
        with pytest.raises(MalformedModelOutput, match=f"longer than {1 << 16} bytes") as info:
            adapter.request("(z0 / flood)")
        assert time.monotonic() - start < 5
        assert info.value.raw is None
        assert len(adapter._buffer) == 0  # the partial reply is freed, not kept until the next start
        # a fresh child answers the next request
        assert adapter.request("(z0 / dog)") == "( dog )"


def test_adapter_reply_of_exactly_the_cap_comes_back(tmp_path, monkeypatch):
    cmd = _write_stub(
        tmp_path,
        "exact.py",
        """
        import sys
        for line in sys.stdin:
            size = int(line)
            sys.stdout.write("a" * size + "\\n")
            sys.stdout.flush()
        """,
    )
    monkeypatch.setattr(convert, "MAX_REPLY_BYTES", 1 << 16)
    with ExternalAdapter(cmd, timeout=10) as adapter:
        assert adapter.request(str(1 << 16)) == "a" * (1 << 16)
        with pytest.raises(MalformedModelOutput):
            adapter.request(str((1 << 16) + 1))
        assert adapter.request("3") == "aaa"


@pytest.fixture
def cat(tmp_path):
    """A child that echoes its input as it reads it, before the line ends."""
    return _write_stub(
        tmp_path,
        "cat.py",
        """
        import os
        while chunk := os.read(0, 65536):
            os.write(1, chunk)
        """,
    )


def test_adapter_request_larger_than_the_pipes_reaches_a_streaming_child(cat):
    line = "(z0 / " + "d" * (1 << 20) + ")"
    with ExternalAdapter(cat, timeout=10) as adapter:
        for _ in range(2):
            assert adapter.request(line) == line
        assert adapter.request("(z0 / dog)") == "(z0 / dog)"


def test_adapter_timeout_covers_writing_the_request(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "deaf.py",
        """
        import time
        time.sleep(60)
        """,
    )
    with ExternalAdapter(cmd, timeout=0.3) as adapter:
        start = time.monotonic()
        with pytest.raises(AdapterTimeout):
            adapter.request("(z0 / " + "d" * (1 << 20) + ")")
        assert time.monotonic() - start < 1.5


def test_adapter_request_with_the_longest_timeout_gets_its_reply(echo_dog):
    with ExternalAdapter(echo_dog, timeout=threading.TIMEOUT_MAX) as adapter:
        assert adapter.request("(z0 / dog)") == "( dog )"


def test_adapter_starts_no_thread(echo_dog):
    before = threading.active_count()
    with ExternalAdapter(echo_dog, timeout=10) as adapter:
        for _ in range(3):
            assert adapter.request("(z0 / dog)") == "( dog )"
            assert threading.active_count() == before
    assert threading.active_count() == before


def test_adapter_unterminated_last_line_is_a_reply(tmp_path):
    cmd = _write_stub(
        tmp_path,
        "last_words.py",
        """
        import sys
        sys.stdin.readline()
        sys.stdout.write("( dog )")
        """,
    )
    with ExternalAdapter(cmd, timeout=10) as adapter:
        assert adapter.request("(z0 / dog)") == "( dog )"
        # the child has exited; whether its input is already closed is a race
        with pytest.raises(AdapterCrashed):
            adapter.request("(z0 / dog)")
        assert adapter.request("(z0 / dog)") == "( dog )"


def test_adapter_that_closes_its_output_and_keeps_running_times_out(tmp_path):
    # The first child closes its stdout and sleeps: the wait for its exit
    # status is bounded by the request's deadline too.
    cmd = _write_stub(
        tmp_path,
        "mute.py",
        """
        import os, sys, time
        marker = sys.argv[1]
        if not os.path.exists(marker):
            open(marker, "w").close()
            os.close(1)
            time.sleep(30)
        for line in sys.stdin:
            print("( dog )", flush=True)
        """,
    )
    with ExternalAdapter(cmd + [str(tmp_path / "started")], timeout=0.5) as adapter:
        start = time.monotonic()
        with pytest.raises(AdapterTimeout):
            adapter.request("(z0 / dog)")
        assert time.monotonic() - start < 1
        assert adapter.request("(z0 / dog)") == "( dog )"


# (how the child fails, the request line, the timeout, the error and its message)
CHILD_FAILURES = [
    ("silent", "(z0 / dog)", 0.5, AdapterTimeout, "no response within 0.5s"),
    ("overlong", "(z0 / dog)", 10, MalformedModelOutput, "longer than 1024 bytes"),
    ("exit", "(z0 / dog)", 10, AdapterCrashed, "exited with status 3"),
    ("closed-input", "(z0 / " + "d" * (1 << 20) + ")", 10, AdapterCrashed, "closed its input"),
    ("closed-output", "(z0 / dog)", 0.5, AdapterTimeout, "no response within 0.5s"),
]


@pytest.mark.parametrize(
    "mode, line, timeout, error, message", CHILD_FAILURES, ids=[row[0] for row in CHILD_FAILURES]
)
def test_every_failed_exchange_reaps_the_child(tmp_path, monkeypatch, mode, line, timeout, error, message):
    cmd = _write_stub(
        tmp_path,
        "failing.py",
        """
        import os, sys, time
        mode = sys.argv[1]
        if mode == "closed-input":
            os.close(0)
        elif mode == "closed-output":
            os.close(1)
        else:
            sys.stdin.readline()
            if mode == "exit":
                sys.exit(3)
            if mode == "overlong":
                sys.stdout.write("a" * 4096)
                sys.stdout.flush()
        time.sleep(30)
        """,
    )
    monkeypatch.setattr(convert, "MAX_REPLY_BYTES", 1024)
    with ExternalAdapter(cmd + [mode], timeout=timeout) as adapter:
        adapter._start()
        proc = adapter._proc
        with pytest.raises(error, match=message):
            adapter.request(line)
        assert adapter._proc is None
        assert proc.returncode is not None


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
