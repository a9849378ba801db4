import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrsg.evaluate import f_score
from amrsg.retrieval import (
    EmptyResults,
    RankedResult,
    RetrievalIndex,
    UnknownGoldImage,
    aggregate_metrics,
    load_index,
    metrics_from_ranks,
    rank,
    save_index,
)
from amrsg.scenegraph import AttributeTuple, ObjectTuple, RelationTuple, SceneGraph
from helpers import brute_force_ranking, random_scene_graph, score_image


def _sg(*names):
    return SceneGraph(objects=list(names))


def test_index_validation():
    with pytest.raises(ValueError):
        RetrievalIndex([("img1", [_sg("a")]), ("img1", [_sg("b")])])
    with pytest.raises(ValueError):
        RetrievalIndex([("img1", [])])


def test_score_image_exact_region_match():
    query = _sg("dog", "snow")
    assert score_image(query, [_sg("cat"), query, _sg("tree")]) == 1.0


def test_score_image_disjoint():
    assert score_image(_sg("dog"), [_sg("cat"), _sg("tree")]) == 0.0


def test_score_image_takes_max_over_regions():
    # one region overlapping at F1 2/3, another at 0.5
    query = _sg("dog", "cat")
    region_a = _sg("dog")  # P=1, R=1/2 -> F1=2/3
    region_b = _sg("dog", "cat", "bird", "fish")  # 2 of (2,4) -> F1 = 2/3? no: P=1,R=.5
    region_c = _sg("dog", "bird", "fish", "x", "y", "z")  # F1 = 2*…
    assert f_score(query, region_a).f1 == pytest.approx(2 / 3)
    assert f_score(query, region_c).f1 == pytest.approx(0.25)
    assert score_image(query, [region_c, region_a]) == pytest.approx(2 / 3)
    # exhaustive per-region oracle
    assert score_image(query, [region_a, region_b, region_c]) == pytest.approx(
        max(f_score(query, r).f1 for r in (region_a, region_b, region_c))
    )


def test_rank_gold_first_when_only_match():
    index = RetrievalIndex(
        [
            ("img1", [_sg("tree")]),
            ("img2", [_sg("dog", "snow")]),
            ("img3", [_sg("cat")]),
        ]
    )
    result = rank(_sg("dog", "snow"), index, "img2", query_id="q1")
    assert result.gold_rank == 1
    assert result.ranking[0][0] == "img2"


def test_rank_tie_break_by_image_id():
    index = RetrievalIndex([("b", [_sg("x")]), ("a", [_sg("y")]), ("c", [_sg("z")])])
    result = rank(_sg("nothing"), index, "b")
    assert [img for img, _ in result.ranking] == ["a", "b", "c"]
    assert result.gold_rank == 2


def test_rank_unknown_gold():
    index = RetrievalIndex([("img1", [_sg("a")])])
    with pytest.raises(UnknownGoldImage):
        rank(_sg("a"), index, "nope")


def test_rank_scores_non_increasing():
    rng = random.Random(61)
    index = RetrievalIndex(
        [(f"img{i:02d}", [random_scene_graph(rng) for _ in range(3)]) for i in range(20)]
    )
    result = rank(random_scene_graph(rng), index, "img00")
    scores = [s for _, s in result.ranking]
    assert scores == sorted(scores, reverse=True)


def test_rank_matches_brute_force_oracle():
    rng = random.Random(67)
    index = RetrievalIndex(
        [(f"img{i:03d}", [random_scene_graph(rng) for _ in range(4)]) for i in range(50)]
    )
    for _ in range(10):
        query = random_scene_graph(rng)
        gold = f"img{rng.randrange(50):03d}"
        result = rank(query, index, gold)
        oracle = brute_force_ranking(query, index)
        assert list(result.ranking) == oracle
        assert result.gold_rank == [img for img, _ in oracle].index(gold) + 1


# A vocabulary this small repeats tuples within a graph, so the min-count cap
# of the overlap is exercised on both sides; an empty list is an empty graph.
_TUPLE = st.sampled_from(
    [
        ObjectTuple("dog"),
        ObjectTuple("cat"),
        AttributeTuple("dog", "red"),
        AttributeTuple("cat", "red"),
        RelationTuple("dog", "on", "cat"),
    ]
)
_GRAPH = st.lists(_TUPLE, max_size=5).map(
    lambda ts: SceneGraph(
        [t for t in ts if len(t) == 1], [t for t in ts if len(t) == 2], [t for t in ts if len(t) == 3]
    )
)


@st.composite
def _index(draw) -> RetrievalIndex:
    """Random images plus copies of some of them, so that scores tie, under
    shuffled ids, so that the id tie-break decides between the copies."""
    images = draw(st.lists(st.lists(_GRAPH, min_size=1, max_size=3), min_size=1, max_size=6))
    images += [images[i] for i in draw(st.lists(st.integers(0, len(images) - 1), max_size=3))]
    ids = draw(st.permutations([f"img{i}" for i in range(len(images))]))
    return RetrievalIndex(list(zip(ids, images)))


@settings(max_examples=300, deadline=None)
@given(_index(), _GRAPH, st.data())
def test_rank_equals_the_brute_force_oracle(index, query, data):
    gold = data.draw(st.sampled_from(index.image_ids()))
    result = rank(query, index, gold)
    oracle = brute_force_ranking(query, index)
    assert list(result.ranking) == oracle
    assert result.gold_rank == [img for img, _ in oracle].index(gold) + 1


def test_empty_query_scores_images_with_an_empty_region():
    index = RetrievalIndex([("b", [_sg("x"), SceneGraph()]), ("a", [_sg("y")]), ("c", [SceneGraph()])])
    assert rank(SceneGraph(), index, "a").ranking == (("b", 1.0), ("c", 1.0), ("a", 0.0))


@pytest.mark.parametrize(
    "query, gold, gold_rank",
    [
        (_sg("dog"), "a", 3),  # scored 0: after both scored images, first by id
        (_sg("dog"), "c", 4),
        (_sg("dog"), "d", 2),
        (SceneGraph(), "a", 3),  # an empty query scores only images with an empty region
        (SceneGraph(), "b", 1),
        (SceneGraph(), "c", 2),
        (SceneGraph(), "d", 4),
    ],
)
def test_gold_rank_of_a_zero_score_or_empty_query_gold(query, gold, gold_rank):
    index = RetrievalIndex(
        [("b", [_sg("dog"), SceneGraph()]), ("a", [_sg("cat")]), ("d", [_sg("dog", "x")]), ("c", [SceneGraph()])]
    )
    result = rank(query, index, gold)
    assert result.gold_rank == gold_rank
    assert result.ranking[gold_rank - 1][0] == gold


def test_rankings_share_the_index_zero_score_pairs_and_nothing_else():
    rng = random.Random(83)
    words = [f"w{i}" for i in range(20)]
    index = RetrievalIndex(
        [(f"img{i:02d}", [_sg(*rng.sample(words, 2)) for _ in range(2)]) for i in range(30)]
    )
    own_pair = {pair[0]: pair for pair in index._zero_pairs}
    rankings = [rank(_sg(*rng.sample(words, 2)), index, "img00").ranking for _ in range(2)]
    for ranking in rankings:
        zeros = [pair for pair in ranking if pair[1] == 0.0]
        assert zeros and all(pair is own_pair[pair[0]] for pair in zeros)
    scored = [{id(pair) for pair in ranking if pair[1] > 0.0} for ranking in rankings]
    assert scored[0] and scored[1]
    assert not scored[0] & scored[1]
    assert not (scored[0] | scored[1]) & {id(pair) for pair in index._zero_pairs}


def test_repeated_query_tuple_counts_up_to_the_region_count():
    # ("dog", "dog") overlaps ("dog") once (P = 1/2, R = 1) and
    # ("dog", "dog", "cat") twice (P = 1, R = 2/3)
    index = RetrievalIndex([("a", [_sg("dog")]), ("b", [_sg("dog", "dog", "cat")])])
    result = rank(_sg("dog", "dog"), index, "a")
    assert [image_id for image_id, _ in result.ranking] == ["b", "a"]
    assert [score for _, score in result.ranking] == pytest.approx([0.8, 2 / 3])
    assert result.gold_rank == 2


def test_aggregate_all_rank_one():
    results = [RankedResult(f"q{i}", (), "g", 1) for i in range(7)]
    metrics = aggregate_metrics(results, ks=[5, 10])
    assert metrics["recall_at"] == {5: 1.0, 10: 1.0}
    assert metrics["median_rank"] == 1


def test_aggregate_mixed_ranks():
    ranks = [1, 6, 11, 2]
    results = [RankedResult(f"q{i}", (), "g", r) for i, r in enumerate(ranks)]
    metrics = aggregate_metrics(results, ks=[5, 10])
    assert metrics["recall_at"][5] == 0.5
    assert metrics["recall_at"][10] == 0.75
    assert metrics["median_rank"] == 2


def test_aggregate_median_independent_oracle():
    rng = random.Random(71)
    for _ in range(50):
        ranks = [rng.randint(1, 100) for _ in range(rng.randint(1, 30))]
        results = [RankedResult(f"q{i}", (), "g", r) for i, r in enumerate(ranks)]
        metrics = aggregate_metrics(results, ks=[5])
        ordered = sorted(ranks)
        n = len(ordered)
        expected = ordered[n // 2] if n % 2 == 1 else ordered[n // 2 - 1]
        assert metrics["median_rank"] == expected
        assert metrics["recall_at"][5] == sum(1 for r in ranks if r <= 5) / n


def test_recall_monotone_and_total():
    rng = random.Random(73)
    ranks = [rng.randint(1, 40) for _ in range(25)]
    results = [RankedResult(f"q{i}", (), "g", r) for i, r in enumerate(ranks)]
    metrics = aggregate_metrics(results, ks=list(range(1, 41)))
    values = [metrics["recall_at"][k] for k in range(1, 41)]
    assert values == sorted(values)
    assert metrics["recall_at"][40] == 1.0


def test_aggregate_empty():
    with pytest.raises(EmptyResults, match="no ranked results to aggregate"):
        aggregate_metrics([], ks=[5])
    with pytest.raises(EmptyResults, match="no ranked results to aggregate"):
        metrics_from_ranks([], ks=[5])


def test_aggregate_metrics_is_metrics_from_ranks_of_the_gold_ranks():
    rng = random.Random(89)
    for _ in range(20):
        ranks = [rng.randint(1, 60) for _ in range(rng.randint(1, 25))]
        results = [RankedResult(f"q{i}", (), "g", r) for i, r in enumerate(ranks)]
        ks = sorted(rng.sample(range(1, 61), 3))
        assert aggregate_metrics(results, ks) == metrics_from_ranks([r.gold_rank for r in results], ks)


def test_index_file_roundtrip(tmp_path):
    rng = random.Random(79)
    index = RetrievalIndex(
        [(f"img{i}", [random_scene_graph(rng) for _ in range(2)]) for i in range(5)]
    )
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.image_ids() == index.image_ids()
    for (_, regions_a), (_, regions_b) in zip(index.images, loaded.images):
        assert list(regions_a) == list(regions_b)


def test_self_retrieval_on_synthetic_corpus():
    # unique-overlap construction: each image's regions mention objects no
    # other image has, so self-queries must always rank their image first
    index = RetrievalIndex(
        [
            (f"img{i:02d}", [_sg(f"obj{i}_{j}", f"extra{i}") for j in range(5)])
            for i in range(20)
        ]
    )
    for i in range(20):
        query = _sg(f"obj{i}_0", f"extra{i}")
        assert rank(query, index, f"img{i:02d}").gold_rank == 1
