"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import random
import time

import pytest
from click.testing import CliRunner

from amrsg.amr import parse_penman, serialize_penman
from amrsg.cli import cli
from amrsg.convert import ExternalAdapter, convert_external, convert_rules
from amrsg.corpus import RegionRecord
from amrsg.evaluate import f_score, match_tuples
from amrsg.linearize import (
    Strategy,
    linearize,
    linearize_bfs,
    linearize_dfs,
    linearize_inorder,
)
from amrsg.retrieval import RetrievalIndex, aggregate_metrics, rank
from amrsg.scenegraph import ObjectTuple, SceneGraph
from helpers import (
    FIG1_PENMAN,
    brute_force_ranking,
    multiset_intersection_size,
    random_graph,
    random_scene_graph,
    random_tuple_multiset,
    write_records,
)
from test_convert import brute_force_rules

DFS_TEXT = "(z0 / stand-01 :ARG1 (z1 / retriever :mod (z2 / gold)) :ARG2 (z3 / snow))"
BFS_TEXT = "(z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)"
INORDER_TEXT = "(z2 / gold) :mod (z1 / retriever) :ARG1 (z0 / stand-01) :ARG2 (z3 / snow)"


def _passed(n, label):
    print(f"[acceptance] criterion {n}: PASS ({label})")


def test_criterion_1_linearization_byte_exactness():
    graph = parse_penman(FIG1_PENMAN)  # warm up caches/imports
    start = time.perf_counter()
    graph = parse_penman(FIG1_PENMAN)
    dfs = linearize_dfs(graph).text
    bfs = linearize_bfs(graph).text
    inorder = linearize_inorder(graph).text
    elapsed = time.perf_counter() - start
    assert dfs == DFS_TEXT
    assert bfs == BFS_TEXT
    assert inorder == INORDER_TEXT
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _passed(1, f"three exact strings in {elapsed * 1e6:.0f} us")


def test_criterion_2_tokenization_exactness():
    graph = parse_penman(FIG1_PENMAN)
    assert linearize_dfs(graph).tokens == (
        "(z0/stand-01",
        ":ARG1",
        "(z1/retriever",
        ":mod",
        "(z2/gold))",
        ":ARG2",
        "(z3/snow))",
    )
    assert linearize_bfs(graph).tokens == (
        "(z0/stand-01)",
        ":ARG1",
        "(z1/retriever)",
        ":ARG2",
        "(z3/snow)",
        ":mod",
        "(z2/gold)",
    )
    _passed(2, "DFS and BFS token lists element-for-element")


def test_criterion_3_penman_roundtrip_property():
    rng = random.Random(2023)
    start = time.perf_counter()
    failures = 0
    for _ in range(500):
        g = random_graph(rng, max_nodes=12, max_reentrancies=2)
        if parse_penman(serialize_penman(g)) != g:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _passed(3, f"500 round trips, 0 failures, {elapsed:.2f} s")


def test_criterion_4_matching_oracle_equivalence():
    rng = random.Random(404)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        g = random_tuple_multiset(rng)
        r = random_tuple_multiset(rng)
        if len(match_tuples(g, r)) != multiset_intersection_size(g, r):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _passed(4, f"1000 multiset pairs, 0 mismatches, {elapsed:.2f} s")


def test_criterion_5_fscore_properties():
    rng = random.Random(505)
    for _ in range(1000):
        g, r = random_scene_graph(rng), random_scene_graph(rng)
        fwd, rev = f_score(g, r), f_score(r, g)
        assert f_score(g, g).f1 == 1.0
        assert fwd.f1 == pytest.approx(rev.f1)
        assert 0.0 <= fwd.precision <= 1.0 and 0.0 <= fwd.recall <= 1.0 and 0.0 <= fwd.f1 <= 1.0
        # monotonicity: adding a missed correct tuple, then a wrong tuple
        g_counts = list(g.objects)
        extra = [o for o in r.objects if g_counts.count(o) < list(r.objects).count(o)]
        if extra:
            g_plus = SceneGraph(list(g.objects) + [extra[0]], g.attributes, g.relations)
            assert f_score(g_plus, r).f1 >= fwd.f1 - 1e-12
        g_wrong = SceneGraph(list(g.objects) + [ObjectTuple("nonexistent")], g.attributes, g.relations)
        assert f_score(g_wrong, r).f1 <= fwd.f1 + 1e-12
    hand = f_score(
        SceneGraph(objects=["dog", "cat"]),
        SceneGraph(objects=["dog", "cat", "bird", "fish"]),
    )
    assert hand.f1 == 2 * 1.0 * 0.5 / 1.5
    _passed(5, "identity, symmetry, bounds, monotonicity on 1000 pairs; hand case 2/3")


def test_criterion_6_rule_converter_oracle():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(500):
        g = random_graph(rng, max_nodes=8)
        if convert_rules(g) != brute_force_rules(g):
            mismatches += 1
    assert mismatches == 0
    _passed(6, "500 random graphs, 0 mismatches against brute-force interpreter")


def test_criterion_7_retrieval_sanity():
    rng = random.Random(707)
    start = time.perf_counter()
    # 100 images x 5 regions, each region carrying image-unique objects plus
    # planted overlap drawn from a small shared vocabulary
    shared = [f"shared{k}" for k in range(12)]
    images = []
    for i in range(100):
        regions = []
        for j in range(5):
            objects = [f"uniq{i}_{j}_{t}" for t in range(2)]
            objects += rng.sample(shared, rng.randint(0, 3))
            regions.append(SceneGraph(objects=objects))
        images.append((f"img{i:03d}", regions))
    index = RetrievalIndex(images)

    results = []
    for i in range(100):
        query = images[i][1][0]  # the image's own first region graph
        results.append(rank(query, index, f"img{i:03d}", query_id=f"q{i}"))
    metrics = aggregate_metrics(results, ks=[5, 10])
    assert metrics["median_rank"] == 1
    assert metrics["recall_at"][5] == 1.0

    # planted-overlap queries checked against a brute-force full sort
    for _ in range(20):
        query = SceneGraph(objects=rng.sample(shared, rng.randint(1, 4)))
        gold = f"img{rng.randrange(100):03d}"
        result = rank(query, index, gold)
        oracle = brute_force_ranking(query, index)
        assert list(result.ranking) == oracle
        assert result.gold_rank == [img for img, _ in oracle].index(gold) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _passed(7, f"self-retrieval R@5=100%, median 1; oracle-equal rankings, {elapsed:.2f} s")


def test_criterion_8_filter_reproduction():
    from amrsg.corpus import filter_ungrounded

    record = RegionRecord(
        image_id="1",
        region_id="r1",
        description="A person holding on umbrella",
        scene_graph=SceneGraph(
            objects=["person", "umbrella", "bus"],
            attributes=[("bus", "red")],
        ),
    )
    filtered = filter_ungrounded(record).scene_graph
    assert {o.name for o in filtered.objects} == {"person", "umbrella"}
    assert filtered.attributes == ()
    assert filtered.relations == ()
    _passed(8, "bus and its red attribute removed; person and umbrella retained")


def test_criterion_9_external_adapter_stub_end_to_end(tmp_path):
    # The published corpus-level scores (scene-graph F-score 0.6128 and the
    # absolute Recall@k / median-rank retrieval numbers) need a fine-tuned
    # seq2seq model plus the full Visual Genome subset and are NOT reproduced
    # here; criteria 1-8 stand in as property-based acceptance. The external
    # model path itself is exercised end to end with a deterministic stub.
    import sys
    import textwrap

    stub = tmp_path / "stub_model.py"
    stub.write_text(
        textwrap.dedent(
            """
            import sys
            for line in sys.stdin:
                n = line.count("/")
                print(" ".join(f"( item{i} )" for i in range(n)), flush=True)
            """
        )
    )
    graph = parse_penman(FIG1_PENMAN)
    with ExternalAdapter([sys.executable, str(stub)], timeout=10) as adapter:
        for strategy in Strategy:
            sg = convert_external(linearize(graph, strategy), adapter)
            assert {o.name for o in sg.objects} == {"item0", "item1", "item2", "item3"}
    _passed(9, "table numbers declared non-reproducible; stub adapter path exercised")


def test_criterion_10_end_to_end_smoke(tmp_path):
    rng = random.Random(1010)
    concepts = ["dog", "cat", "snow", "tree", "person", "umbrella", "car", "house"]
    records = []
    penman_blocks = []
    for i in range(20):
        a, b = rng.sample(concepts, 2)
        amr = f"(z0 / stand-01 :ARG1 (z1 / {a}) :ARG2 (z2 / {b}))"
        # ground truth contains the relation the rules derive, so per-record
        # F1 is strictly positive by construction
        sg = SceneGraph(objects=[a, b], relations=[(a, "stand in", b)])
        records.append(
            RegionRecord(
                image_id=f"img{i}",
                region_id=f"r{i:02d}",
                description=f"a {a} standing in the {b}",
                scene_graph=sg,
            )
        )
        penman_blocks.append(f"# ::id r{i:02d}\n{amr}")

    penman_path = tmp_path / "graphs.penman"
    penman_path.write_text("\n\n".join(penman_blocks) + "\n")
    ref_path = tmp_path / "reference.jsonl"
    write_records(records, ref_path)

    runner = CliRunner()
    lin = runner.invoke(cli, ["linearize", str(penman_path), "--strategy", "dfs"])
    assert lin.exit_code == 0
    assert len(lin.stdout.strip().splitlines()) == 20

    gen_path = tmp_path / "generated.jsonl"
    conv = runner.invoke(
        cli,
        ["convert", str(penman_path), "--engine", "rules", "--emit", "jsonl", "--out", str(gen_path)],
    )
    assert conv.exit_code == 0

    ev = runner.invoke(cli, ["eval", str(gen_path), str(ref_path)])
    assert ev.exit_code == 0
    summary = json.loads(ev.stdout.strip().splitlines()[-1])
    assert summary["region_count"] == 20
    assert summary["mean_f1"] > 0.0
    _passed(10, f"20-record pipeline exit 0, mean F1 {summary['mean_f1']:.4f} > 0")
