"""The benchmark's three workloads.

Each workload generates its inputs from the seed, sets up through amrsg's
own loaders, runs one operation at a time (closed loop, one item in flight)
and checks every output against the oracles in ``oracles.py``. The harness in
``run.py`` times ``setup``, ``op`` and ``end_pass``; checks run outside the
timed region.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from amrsg.amr import PenmanError, load_penman_file, parse_penman, serialize_penman
from amrsg.convert import (
    AdapterCrashed,
    AdapterTimeout,
    ExternalAdapter,
    MalformedModelOutput,
    convert_external,
    convert_rules,
)
from amrsg.corpus import filter_ungrounded, load_records
from amrsg.evaluate import evaluate_corpus, f_score
from amrsg.linearize import Strategy, linearize
from amrsg.retrieval import aggregate_metrics, load_index, rank
from amrsg.scenegraph import parse_sg_text, serialize_sg, sg_from_json

import gen
import oracles
import stub_model

# Sizes per scale. "full" is what the benchmark measures; "tiny" is for the
# smoke test, which checks that the benchmark runs, not how fast.
SCALES = {
    "full": {"records": 500, "images": 50, "regions": 2, "queries": 200, "graphs": 2000, "setups": 15},
    "tiny": {"records": 60, "images": 30, "regions": 3, "queries": 20, "graphs": 40, "setups": 2},
}

LINEARIZERS = (
    ("linearize.dfs", Strategy.DFS),
    ("linearize.bfs", Strategy.BFS),
    ("linearize.inorder", Strategy.IN_ORDER),
)

ADAPTER_ERRORS = {
    AdapterTimeout: "convert.external.timeouts",
    AdapterCrashed: "convert.external.crashes",
    MalformedModelOutput: "convert.external.malformed",
}


class Workload:
    """Interface the harness drives. ``size`` inputs make one pass; the
    first ``warmup`` operations are checked but not timed."""

    name = ""
    size = 1
    warmup = 1

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> bool:
        return True

    def teardown(self) -> None:
        pass

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> bool:
        raise NotImplementedError

    def end_pass(self):
        return None

    def check_pass(self, out) -> bool:
        return True

    def run_counts(self) -> dict[str, float]:
        """Per-layer counts taken over the whole run rather than the traced
        phase: counts that describe the input, and failures by kind."""
        return {}


class CorpusPipeline(Workload):
    """Region records through filter, parse, three linearizations, rule
    conversion, the wire-grammar round trip and F1; evaluate_corpus ends
    each pass."""

    name = "corpus_pipeline"

    def __init__(self, seed: int, scale: dict, workdir: Path, tracer):
        self.tracer = tracer
        self.input = gen.corpus_input(seed, scale["records"])
        self.path = workdir / "corpus.jsonl"
        self.path.write_text("\n".join(self.input.lines) + "\n", encoding="utf-8")
        self.size = scale["records"]
        self.warmup = self.size
        self.pairs: list = []
        self.expected_f1: dict[str, float] = {}
        self.rejected: set[int] = set()

    def setup(self) -> None:
        self.loaded = self.tracer.call("corpus.load_records", load_records, self.path)
        self.records = self.loaded.records

    def teardown(self) -> None:
        self.loaded = self.records = None

    def check_setup(self) -> bool:
        return (
            self.loaded.skipped == self.input.bad_json_lines
            and [r.region_id for r in self.records] == list(self.input.canonical)
        )

    def op(self, k: int):
        call = self.tracer.call
        record = self.records[k]
        filtered = call("corpus.filter_ungrounded", filter_ungrounded, record)
        try:
            graph = call("amr.parse_penman", parse_penman, record.amr)
        except PenmanError as err:
            return err
        seqs = [call(name, linearize, graph, strategy) for name, strategy in LINEARIZERS]
        tokens = [seq.tokens for seq in seqs]  # model-input preparation keeps the tokens
        sg = call("convert.rules", convert_rules, graph)
        parsed = call("scenegraph.parse_sg_text", parse_sg_text, call("scenegraph.serialize_sg", serialize_sg, sg))
        report = call("evaluate.f_score", f_score, parsed, filtered.scene_graph)
        self.pairs.append((record.region_id, parsed, filtered.scene_graph))
        return graph, seqs, tokens, sg, parsed, report, filtered

    def check(self, k: int, out) -> bool:
        region_id = self.records[k].region_id
        if self.input.malformed_amr[region_id]:
            if isinstance(out, PenmanError):
                self.rejected.add(k)
                return True
            return False
        if isinstance(out, BaseException):
            return False
        graph, seqs, tokens, sg, parsed, report, filtered = out
        canonical = self.input.canonical[region_id]
        self.tracer.count("linearize.tokens", len(tokens[0]))
        self.tracer.count("convert.rules.tuples", len(sg.objects) + len(sg.attributes) + len(sg.relations))
        expected = oracles.f1(oracles.sg_counter(parsed), oracles.sg_counter(filtered.scene_graph))
        self.expected_f1[region_id] = expected
        return (
            serialize_penman(graph) == canonical
            and seqs[0].text == canonical
            and len(graph.nodes) == self.input.node_counts[region_id]
            and len(graph.edges) == self.input.edge_counts[region_id]
            and oracles.sg_counter(parsed) == oracles.sg_counter(sg)
            and report.f1 == expected
        )

    def end_pass(self):
        pairs, self.pairs = self.pairs, []
        if not pairs:
            return None
        return pairs, self.tracer.call("evaluate.evaluate_corpus", evaluate_corpus, pairs)

    def check_pass(self, out) -> bool:
        if out is None:
            return True
        pairs, report = out
        expected = oracles.mean_f1({region_id: self.expected_f1[region_id] for region_id, _, _ in pairs})
        return report.region_count == len(pairs) and report.mean_f1 == expected

    def run_counts(self) -> dict[str, float]:
        good = [rid for rid, bad in self.input.malformed_amr.items() if not bad]
        return {
            "amr.nodes_per_graph": sum(self.input.node_counts[r] for r in good) / len(good),
            "amr.edges_per_graph": sum(self.input.edge_counts[r] for r in good) / len(good),
            "amr.rejected": len(self.rejected),
            "corpus.records_skipped": self.loaded.skipped,
        }


class Retrieval(Workload):
    """Rank every query against the whole index; aggregate_metrics ends each
    pass over the queries."""

    name = "retrieval"
    warmup = 10
    top_k = 10
    ks = (1, 5, 10)

    def __init__(self, seed: int, scale: dict, workdir: Path, tracer):
        self.tracer = tracer
        data = gen.retrieval_input(seed, scale["images"], scale["regions"], scale["queries"])
        self.path = workdir / "index.jsonl"
        self.path.write_text("\n".join(data.index_lines) + "\n", encoding="utf-8")
        self.queries = [(qid, sg_from_json(gen.sg_json(sg)), gold) for qid, sg, gold in data.queries]
        self.query_counters = [Counter(gen.sg_tuples(sg)) for _, sg, _ in data.queries]
        self.oracle = oracles.BruteForceRanking(
            [(image_id, [Counter(gen.sg_tuples(r)) for r in regions]) for image_id, regions in data.regions]
        )
        self.expected: dict[int, tuple[list, int, int]] = {}  # k -> (ranking, gold rank, hits)
        self.size = len(self.queries)
        self.results: list = []
        self.expected_ranks: list[int] = []

    def setup(self) -> None:
        self.index = self.tracer.call("retrieval.load_index", load_index, self.path)

    def teardown(self) -> None:
        self.index = None

    def check_setup(self) -> bool:
        return sorted(self.index.image_ids()) == sorted(i for i, _ in self.oracle.images)

    def op(self, k: int):
        query_id, sg, gold = self.queries[k]
        result = self.tracer.call("retrieval.rank", rank, sg, self.index, gold, query_id)
        self.results.append(result)
        return result

    def _expected(self, k: int) -> tuple[list, int, int]:
        if k not in self.expected:
            ranking, hits = self.oracle.rank(self.query_counters[k])
            gold = self.queries[k][2]
            gold_rank = next(i + 1 for i, (image_id, _) in enumerate(ranking) if image_id == gold)
            self.expected[k] = (ranking[: self.top_k], gold_rank, hits)
        return self.expected[k]

    def check(self, k: int, out) -> bool:
        if isinstance(out, BaseException):
            return False
        top, gold_rank, hits = self._expected(k)
        self.expected_ranks.append(gold_rank)
        self.tracer.count("retrieval.region_hits", hits)
        self.tracer.count("retrieval.regions_in_index", self.oracle.region_count)
        return out.gold_rank == gold_rank and list(out.ranking[: self.top_k]) == top

    def end_pass(self):
        results, self.results = self.results, []
        if not results:
            return None
        return self.tracer.call("retrieval.aggregate_metrics", aggregate_metrics, results, self.ks)

    def check_pass(self, out) -> bool:
        ranks, self.expected_ranks = self.expected_ranks, []
        if out is None:
            return not ranks
        return out == oracles.recall_and_median(ranks, self.ks)


class AdapterConvert(Workload):
    """DFS text of each graph through convert_external on one long-lived
    ExternalAdapter whose child is stub_model.py."""

    name = "adapter_convert"
    timeout_s = 10.0

    def __init__(self, seed: int, scale: dict, workdir: Path, tracer):
        self.tracer = tracer
        self.input = gen.adapter_input(seed, scale["graphs"])
        self.path = workdir / "graphs.amr"
        self.path.write_text(self.input.penman, encoding="utf-8")
        self.expected = [Counter(stub_model.reply_tuples(text)) for text in self.input.canonical]
        self.command = [sys.executable, str(Path(stub_model.__file__).resolve())]
        self.size = scale["graphs"]
        self.warmup = self.size
        self.adapter: ExternalAdapter | None = None
        self.errors = Counter({counter: 0 for counter in ADAPTER_ERRORS.values()})

    def setup(self) -> None:
        self.graphs = load_penman_file(self.path)
        self.adapter = ExternalAdapter(self.command, timeout=self.timeout_s)
        self.first = self.tracer.call(
            "convert.external", convert_external, linearize(self.graphs[0], Strategy.DFS), self.adapter
        )

    def check_setup(self) -> bool:
        return (
            [g.metadata.get("id") for g in self.graphs] == [f"g{i}" for i in range(self.size)]
            and oracles.sg_counter(self.first) == self.expected[0]
        )

    def teardown(self) -> None:
        if self.adapter is not None:
            self.adapter.close()
        self.adapter = self.graphs = None

    def op(self, k: int):
        seq = self.tracer.call("linearize.dfs", linearize, self.graphs[k], Strategy.DFS)
        return seq, self.tracer.call("convert.external", convert_external, seq, self.adapter)

    def check(self, k: int, out) -> bool:
        if isinstance(out, BaseException):
            for kind, counter in ADAPTER_ERRORS.items():
                if isinstance(out, kind):
                    self.errors[counter] += 1
            return False
        seq, sg = out
        self.tracer.count("linearize.tokens", len(seq.tokens))
        return seq.text == self.input.canonical[k] and oracles.sg_counter(sg) == self.expected[k]

    def run_counts(self) -> dict[str, float]:
        n = len(self.input.node_counts)
        return {
            "amr.nodes_per_graph": sum(self.input.node_counts) / n,
            "amr.edges_per_graph": sum(self.input.edge_counts) / n,
            **self.errors,
        }


WORKLOADS = {w.name: w for w in (CorpusPipeline, Retrieval, AdapterConvert)}
