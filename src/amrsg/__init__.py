"""AMR graph parsing, linearization, scene-graph conversion and evaluation."""

__version__ = "0.1.0"

from .amr import AmrEdge, AmrGraph, parse_penman, serialize_penman
from .convert import ExternalAdapter, convert_external, convert_rules
from .evaluate import CorpusReport, EvalReport, evaluate_corpus, f_score, match_tuples
from .linearize import (
    LinearizedSequence,
    Strategy,
    linearize,
    linearize_bfs,
    linearize_dfs,
    linearize_inorder,
)
from .retrieval import RetrievalIndex, aggregate_metrics, rank
from .scenegraph import (
    AttributeTuple,
    ObjectTuple,
    RelationTuple,
    SceneGraph,
    normalize,
    parse_sg_text,
    serialize_sg,
    to_tuples,
)

__all__ = [
    "AmrEdge",
    "AmrGraph",
    "AttributeTuple",
    "CorpusReport",
    "EvalReport",
    "ExternalAdapter",
    "LinearizedSequence",
    "ObjectTuple",
    "RelationTuple",
    "RetrievalIndex",
    "SceneGraph",
    "Strategy",
    "aggregate_metrics",
    "convert_external",
    "convert_rules",
    "evaluate_corpus",
    "f_score",
    "linearize",
    "linearize_bfs",
    "linearize_dfs",
    "linearize_inorder",
    "match_tuples",
    "normalize",
    "parse_penman",
    "parse_sg_text",
    "rank",
    "serialize_penman",
    "serialize_sg",
    "to_tuples",
]
