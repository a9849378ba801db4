"""Time each stage of the corpus pipeline, graph by graph.

Usage, from the root of a checkout:

    python3 scripts/corpus_stages.py                    # seed 1, 500 records, best of 9
    python3 scripts/corpus_stages.py --seed 2 --records 1000 --runs 5
    python3 scripts/corpus_stages.py --baseline ../other-checkout

The records come from the benchmark's generator (``bench/gen.corpus_input``);
nothing is written. Each record goes through the stages of the
``corpus_pipeline`` workload in order: ``filter_ungrounded``, ``parse_penman``,
the DFS, BFS and in-order linearizations with their tokens (which the
workload reads, and which are built on demand), ``convert_rules``, ``serialize_sg``,
``parse_sg_text`` and ``f_score``. Every stage keeps its best time per graph
over ``--runs`` passes. Records whose AMR does not parse are left out of the
table. Two columns follow: the median graph (the median of each stage's
times, and of the totals), and the slowest 10% of graphs by total time (the
mean of each stage over them). The passes run with the garbage collector
off (``gc.collect()``, then ``gc.disable()``, enabled again afterwards):
otherwise each collection is charged to whichever stage happens to trigger
it, and a stage that allocates less moves time into the others. It is a
measurement, not a test: nothing runs it automatically.

With ``--baseline <checkout>``, the ``amrsg`` of ``<checkout>/src`` is loaded
too, under the module name ``amrsg_baseline``, and each of the ``--runs``
rounds times one pass of each in the same process, the two alternating which
goes first. The machine's speed drifts between runs, so this A/B in one
process is the fair comparison of two versions. Each side keeps its own best
time per graph and stage; the table gives both sides' median graph, the
median over graphs of the per-graph ratio (this checkout / baseline), and
that ratio for the means of the slowest 10% of graphs (by the baseline's
totals).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402

STAGES = [
    "filter_ungrounded",
    "parse_penman",
    "linearize dfs",
    "linearize bfs",
    "linearize inorder",
    "convert_rules",
    "serialize_sg",
    "parse_sg_text",
    "f_score",
]


def load_amrsg(name: str, src: Path | None = None) -> SimpleNamespace:
    """The functions the scripts call, from the ``amrsg`` package imported as
    ``name``; with ``src``, from ``src/amrsg`` under that module name."""
    if src is not None:
        spec = importlib.util.spec_from_file_location(
            name, src / "amrsg" / "__init__.py", submodule_search_locations=[str(src / "amrsg")]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    amr, convert, corpus, evaluate, linearize, retrieval, scenegraph = (
        importlib.import_module(f"{name}.{module}")
        for module in ("amr", "convert", "corpus", "evaluate", "linearize", "retrieval", "scenegraph")
    )
    return SimpleNamespace(
        PenmanError=amr.PenmanError,
        parse_penman=amr.parse_penman,
        convert_rules=convert.convert_rules,
        ExternalAdapter=convert.ExternalAdapter,
        filter_ungrounded=corpus.filter_ungrounded,
        record_from_json=corpus.record_from_json,
        f_score=evaluate.f_score,
        linearize=linearize.linearize,
        Strategy=linearize.Strategy,
        RetrievalIndex=retrieval.RetrievalIndex,
        rank=retrieval.rank,
        parse_sg_text=scenegraph.parse_sg_text,
        serialize_sg=scenegraph.serialize_sg,
        sg_from_json=scenegraph.sg_from_json,
    )


def load_baseline(parser: argparse.ArgumentParser, checkout: Path) -> SimpleNamespace:
    """``load_amrsg`` of ``checkout``'s ``src/amrsg`` as ``amrsg_baseline``;
    a usage error if there is none."""
    src = checkout.resolve() / "src"
    if not (src / "amrsg" / "__init__.py").is_file():
        parser.error(f"no amrsg package under {src}")
    return load_amrsg("amrsg_baseline", src)


def run_once(lib: SimpleNamespace, record) -> list[float]:
    """One record through every stage of ``lib``; the seconds each stage took."""
    clock = time.perf_counter
    Strategy, linearize = lib.Strategy, lib.linearize
    t0 = clock()
    filtered = lib.filter_ungrounded(record)
    t1 = clock()
    graph = lib.parse_penman(record.amr)
    t2 = clock()
    linearize(graph, Strategy.DFS).tokens
    t3 = clock()
    linearize(graph, Strategy.BFS).tokens
    t4 = clock()
    linearize(graph, Strategy.IN_ORDER).tokens
    t5 = clock()
    sg = lib.convert_rules(graph)
    t6 = clock()
    text = lib.serialize_sg(sg)
    t7 = clock()
    parsed = lib.parse_sg_text(text)
    t8 = clock()
    lib.f_score(parsed, filtered.scene_graph)
    t9 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t8 - t7, t9 - t8]


def load_records(lib: SimpleNamespace, lines: list[str]) -> tuple[list, int]:
    """The records of ``lines`` whose AMR parses, and how many did not parse."""
    records, rejected = [], 0
    for line in lines:
        try:
            record = lib.record_from_json(json.loads(line))
        except (KeyError, ValueError):  # the generator's deliberately broken lines
            continue
        try:
            lib.parse_penman(record.amr)
        except lib.PenmanError:
            rejected += 1
            continue
        records.append(record)
    return records, rejected


def time_pass(lib: SimpleNamespace, records: list, best: list[list[float]]) -> None:
    """One pass over ``records``; each graph keeps its best time per stage in ``best``."""
    for times, record in zip(best, records):
        times[:] = map(min, times, run_once(lib, record))


def slowest_tenth(best: list[list[float]]) -> list[int]:
    totals = [sum(times) for times in best]
    return sorted(range(len(best)), key=totals.__getitem__)[-max(1, len(best) // 10) :]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--records", type=int, default=500, help="records generated (default 500)")
    parser.add_argument("--runs", type=int, default=9, help="passes; each graph keeps its best (default 9)")
    parser.add_argument(
        "--baseline", type=Path, metavar="CHECKOUT",
        help="also time the amrsg of CHECKOUT/src, alternating passes, and print ratios",
    )
    args = parser.parse_args()
    if args.records < 1 or args.runs < 1:
        parser.error("--records and --runs must be at least 1")

    lines = gen.corpus_input(args.seed, args.records).lines
    libs = [load_amrsg("amrsg")]
    if args.baseline is not None:
        libs.append(load_baseline(parser, args.baseline))
    loaded = [load_records(lib, lines) for lib in libs]
    records, rejected = loaded[0]
    if any([r.region_id for r in other] != [r.region_id for r in records] for other, _ in loaded):
        parser.error("the baseline accepts a different set of records")

    bests = [[[float("inf")] * len(STAGES) for _ in records] for _ in libs]
    gc.collect()
    gc.disable()
    try:
        for run in range(args.runs):
            order = range(len(libs)) if run % 2 == 0 else reversed(range(len(libs)))
            for side in order:
                time_pass(libs[side], loaded[side][0], bests[side])
    finally:
        gc.enable()

    print(
        f"Python {sys.version.split()[0]}, seed {args.seed}, {len(records)} graphs "
        f"({rejected} rejected records left out), best of {args.runs} runs per graph"
    )
    if args.baseline is None:
        print_table(STAGES, bests[0])
    else:
        print(f"baseline: {args.baseline}")
        print_ratios(STAGES, *bests)
    return 0


def print_table(stages: list[str], best: list[list[float]]) -> None:
    totals = [sum(times) for times in best]
    slowest = slowest_tenth(best)
    print(f"{'stage':<20} {'median graph us':>16} {'slowest 10% us':>16}")
    for s, stage in enumerate(stages):
        median = statistics.median(times[s] for times in best)
        tail = statistics.mean(best[k][s] for k in slowest)
        print(f"{stage:<20} {median * 1e6:>16.1f} {tail * 1e6:>16.1f}")
    total_median = statistics.median(totals)
    total_tail = statistics.mean(totals[k] for k in slowest)
    print(f"{'total':<20} {total_median * 1e6:>16.1f} {total_tail * 1e6:>16.1f}")


def print_ratios(stages: list[str], best: list[list[float]], base: list[list[float]]) -> None:
    slowest = slowest_tenth(base)
    print(
        f"{'stage':<20} {'median graph us':>16} {'baseline us':>12}"
        f" {'median ratio':>13} {'slowest 10% ratio':>18}"
    )
    columns = [[times[s] for times in best] for s in range(len(stages))]
    base_columns = [[times[s] for times in base] for s in range(len(stages))]
    columns.append([sum(times) for times in best])
    base_columns.append([sum(times) for times in base])
    for stage, ours, theirs in zip(stages + ["total"], columns, base_columns):
        ratio = statistics.median(a / b for a, b in zip(ours, theirs))
        tail = sum(ours[k] for k in slowest) / sum(theirs[k] for k in slowest)
        print(
            f"{stage:<20} {statistics.median(ours) * 1e6:>16.1f}"
            f" {statistics.median(theirs) * 1e6:>12.1f} {ratio:>13.3f} {tail:>18.3f}"
        )


if __name__ == "__main__":
    sys.exit(main())
