import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.evaluate import EmptyCorpus, evaluate_corpus, f_score, match_tuples
from amrsg.scenegraph import AttributeTuple, ObjectTuple, RelationTuple, SceneGraph, to_tuples
from helpers import (
    multiset_intersection_size,
    random_scene_graph,
    random_tuple_multiset,
    reference_match_tuples,
)


def test_match_identity():
    dog = ObjectTuple("dog")
    assert match_tuples([dog], [dog]) == [(0, 0)]
    # the k-th occurrence in g pairs with the k-th occurrence in r
    assert match_tuples([dog, dog], [dog, dog]) == [(0, 0), (1, 1)]


_A, _B, _C = ObjectTuple("a"), ObjectTuple("b"), AttributeTuple("a", "red")


@pytest.mark.parametrize(
    "g, r, pairs",
    [
        ([_A, _B, _A], [_A, _A, _B], [(0, 0), (1, 2), (2, 1)]),
        ([_B, _A, _A, _B], [_A, _B, _A, _B], [(0, 1), (1, 0), (2, 2), (3, 3)]),
        ([_A, _A, _A], [_B, _A, _C, _A], [(0, 1), (1, 3)]),
        ([_C, _A, _C, _B], [_A, _C, _B, _A, _C], [(0, 1), (1, 0), (2, 4), (3, 2)]),
        ([_B, _B], [_A, _A], []),
    ],
)
def test_match_pairs_kth_occurrence_with_kth(g, r, pairs):
    assert match_tuples(g, r) == pairs == reference_match_tuples(g, r)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0))
def test_match_equals_reference_pair_for_pair(seed):
    rng = random.Random(seed)
    g, r = random_tuple_multiset(rng), random_tuple_multiset(rng)
    assert match_tuples(g, r) == reference_match_tuples(g, r)


def test_match_one_to_one_enforced():
    # two generated copies may not both claim the single reference tuple
    matches = match_tuples([ObjectTuple("dog"), ObjectTuple("dog")], [ObjectTuple("dog")])
    assert len(matches) == 1


def test_match_cross_arity_never_compatible():
    g = [ObjectTuple("dog")]
    r = [RelationTuple("dog", "on", "mat")]
    assert match_tuples(g, r) == []


def test_match_oracle_equivalence():
    rng = random.Random(2)
    for _ in range(50):
        g = random_tuple_multiset(rng)
        r = random_tuple_multiset(rng)
        matches = match_tuples(g, r)
        assert len(matches) == multiset_intersection_size(g, r)


def test_match_is_one_to_one_and_deterministic():
    rng = random.Random(43)
    for _ in range(50):
        g = random_tuple_multiset(rng)
        r = random_tuple_multiset(rng)
        matches = match_tuples(g, r)
        assert len({i for i, _ in matches}) == len(matches)
        assert len({j for _, j in matches}) == len(matches)
        assert matches == match_tuples(g, r)


def test_fscore_identity():
    sg = SceneGraph(objects=["dog"], relations=[("dog", "on", "mat")])
    rep = f_score(sg, sg)
    assert rep.f1 == 1.0 and rep.precision == 1.0 and rep.recall == 1.0
    # many equal tuples: matching must not recurse once per tuple
    for n in (1_000, 10_000):
        sg = SceneGraph(objects=["dog"] * n)
        assert f_score(sg, sg).f1 == 1.0


def test_fscore_half_recall():
    # 2 generated tuples both correct, 4 reference tuples
    g = SceneGraph(objects=["dog", "cat"])
    r = SceneGraph(objects=["dog", "cat", "bird", "fish"])
    rep = f_score(g, r)
    assert rep.precision == 1.0
    assert rep.recall == 0.5
    assert rep.f1 == pytest.approx(2 / 3)
    # brute force over all one-to-one matchings confirms 2 is the maximum
    gt, rt = to_tuples(g), to_tuples(r)
    best = 0
    from itertools import permutations

    for perm in permutations(range(len(rt)), len(gt)):
        best = max(best, sum(1 for i, j in enumerate(perm) if gt[i] == rt[j]))
    assert len(rep.matches) == best == 2


def test_fscore_disjoint():
    assert f_score(SceneGraph(objects=["dog"]), SceneGraph(objects=["cat"])).f1 == 0.0


def test_fscore_empty_conventions():
    empty, nonempty = SceneGraph(), SceneGraph(objects=["dog"])
    both = f_score(empty, empty)
    assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)
    assert f_score(empty, nonempty).f1 == 0.0
    assert f_score(nonempty, empty).f1 == 0.0


def test_fscore_symmetry_and_bounds():
    rng = random.Random(47)
    for _ in range(200):
        g, r = random_scene_graph(rng), random_scene_graph(rng)
        a, b = f_score(g, r), f_score(r, g)
        assert a.f1 == pytest.approx(b.f1)
        assert a.precision == pytest.approx(b.recall)
        for v in (a.precision, a.recall, a.f1):
            assert 0.0 <= v <= 1.0


def test_fscore_monotonicity():
    rng = random.Random(53)
    for _ in range(100):
        r = random_scene_graph(rng)
        g = random_scene_graph(rng)
        base = f_score(g, r).f1
        # adding a tuple the reference has but g currently misses
        missing = multiset_intersection_size(to_tuples(g), to_tuples(r)) < len(to_tuples(r))
        if missing and r.objects:
            counts_g = [o for o in g.objects]
            extra_objs = [o for o in r.objects if counts_g.count(o) < list(r.objects).count(o)]
            if extra_objs:
                g2 = SceneGraph(list(g.objects) + [extra_objs[0]], g.attributes, g.relations)
                assert f_score(g2, r).f1 >= base - 1e-12
        # adding a tuple the reference does not contain at all
        g3 = SceneGraph(list(g.objects) + [ObjectTuple("xyzzy")], g.attributes, g.relations)
        assert f_score(g3, r).f1 <= base + 1e-12


def test_evaluate_corpus_mean():
    sg = SceneGraph(objects=["dog"])
    other = SceneGraph(objects=["cat"])
    report = evaluate_corpus([("r1", sg, sg), ("r2", sg, other)])
    assert report.mean_f1 == 0.5
    assert report.region_count == 2
    assert [rid for rid, _ in report.per_region] == ["r1", "r2"]


def test_evaluate_corpus_single():
    sg = SceneGraph(objects=["dog"])
    assert evaluate_corpus([("only", sg, sg)]).mean_f1 == 1.0


def test_evaluate_corpus_recomputation_oracle():
    rng = random.Random(59)
    pairs = [(f"r{i:03d}", random_scene_graph(rng), random_scene_graph(rng)) for i in range(100)]
    report = evaluate_corpus(pairs)
    expected = sum(f_score(g, r).f1 for _, g, r in pairs) / len(pairs)
    assert report.mean_f1 == pytest.approx(expected)


def test_evaluate_corpus_empty():
    with pytest.raises(EmptyCorpus):
        evaluate_corpus([])
