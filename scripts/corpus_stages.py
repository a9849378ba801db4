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
``parse_sg_text`` and ``f_score``. Last, ``sg_from_json`` reads the record's
scene-graph JSON, decoded once before the timed passes: the reader that the
workload's setup and ``load_index`` go through. Records whose AMR does not
parse are left out of the table, and a baseline that accepts a different set
of records is refused. It is a measurement, not a test.

This module also holds what the measurement scripts share: ``load_amrsg``
and ``load_sides``, which load this checkout's ``amrsg`` and, with
``--baseline <checkout>``, the one of ``<checkout>/src`` as
``amrsg_baseline``; ``best_of``, the one timing loop (see README.md,
"Measuring"); and the options and table of this script and
``adapter_roundtrip.py``.
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
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

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
    "sg_from_json",
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


def load_sides(parser: argparse.ArgumentParser, baseline: Path | None) -> list[SimpleNamespace]:
    """The sides to time: this checkout's ``amrsg``, then with ``baseline``
    the ``load_amrsg`` of its ``src/amrsg`` as ``amrsg_baseline`` (a usage
    error if there is none)."""
    sides = [load_amrsg("amrsg")]
    if baseline is not None:
        src = baseline.resolve() / "src"
        if not (src / "amrsg" / "__init__.py").is_file():
            parser.error(f"no amrsg package under {src}")
        sides.append(load_amrsg("amrsg_baseline", src))
    return sides


def best_of(passes: list[Callable[[], list[list[float]]]], runs: int) -> list[list[list[float]]]:
    """Each side's best seconds per item and stage over ``runs`` rounds.

    A pass times one side over every item and returns the seconds of each
    stage per item. Each round calls every pass once, the sides alternating
    which goes first, since the machine's speed drifts. The rounds run with
    the garbage collector off, so that no stage is charged for a collection
    that another stage's allocations set off."""
    bests: list = [None] * len(passes)
    gc.collect()
    gc.disable()
    try:
        for run in range(runs):
            for side in range(len(passes)) if run % 2 == 0 else reversed(range(len(passes))):
                took = passes[side]()
                bests[side] = took if run == 0 else [list(map(min, a, b)) for a, b in zip(bests[side], took)]
    finally:
        gc.enable()
    return bests


def parse_args(doc: str, items: str, default: int) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """The options of this script and ``adapter_roundtrip.py``: ``--seed``,
    ``--<items>`` (how many graphs to generate), ``--runs`` and ``--baseline``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument(
        f"--{items}", type=int, default=default, help=f"{items} generated (default {default})"
    )
    parser.add_argument("--runs", type=int, default=9, help="passes; each graph keeps its best (default 9)")
    parser.add_argument(
        "--baseline", type=Path, metavar="CHECKOUT",
        help="also time the amrsg of CHECKOUT/src, alternating passes, and print ratios",
    )
    args = parser.parse_args()
    if getattr(args, items) < 1 or args.runs < 1:
        parser.error(f"--{items} and --runs must be at least 1")
    return parser, args


def _run_pass(lib: SimpleNamespace, records: list[tuple]) -> list[list[float]]:
    """Every (record, scene-graph JSON) through every stage of ``lib``; the
    seconds each stage took."""
    clock = time.perf_counter
    Strategy, linearize = lib.Strategy, lib.linearize
    took = []
    for record, sg_json in records:
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
        lib.sg_from_json(sg_json)
        t10 = clock()
        took.append([t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t8 - t7, t9 - t8, t10 - t9])
    return took


def _load_records(lib: SimpleNamespace, lines: list[str]) -> tuple[list[tuple], int]:
    """(record, its scene-graph JSON) for each record of ``lines`` whose AMR
    parses, and how many did not parse."""
    records, rejected = [], 0
    for line in lines:
        try:
            data = json.loads(line)
            record = lib.record_from_json(data)
        except (KeyError, ValueError):  # the generator's deliberately broken lines
            continue
        try:
            lib.parse_penman(record.amr)
        except lib.PenmanError:
            rejected += 1
            continue
        records.append((record, data["scene_graph"]))
    return records, rejected


def main() -> int:
    parser, args = parse_args(__doc__, "records", 500)
    libs = load_sides(parser, args.baseline)
    lines = gen.corpus_input(args.seed, args.records).lines
    loaded = [_load_records(lib, lines) for lib in libs]
    records, rejected = loaded[0]
    if any([r.region_id for r, _ in other] != [r.region_id for r, _ in records] for other, _ in loaded):
        parser.error("the baseline accepts a different set of records")
    bests = best_of([partial(_run_pass, lib, side) for lib, (side, _) in zip(libs, loaded)], args.runs)
    print_table(args, STAGES, bests, f", {rejected} rejected records left out")
    return 0


def print_table(args: argparse.Namespace, stages: list[str], bests: list, note: str) -> None:
    """A header ending in ``note``, then per stage and for the total: the
    median graph and the mean of the slowest 10% of graphs by total time.
    One side's table is in µs; with a baseline, it gives both sides' median
    graph in µs, the median over graphs of the per-graph ratio (this
    checkout / baseline), and that ratio for the means of the slowest 10% of
    graphs (by the baseline's totals)."""
    print(
        f"Python {sys.version.split()[0]}, seed {args.seed}, {len(bests[0])} graphs, "
        f"best of {args.runs} runs per graph{note}"
    )
    columns = [[*zip(*best), list(map(sum, best))] for best in bests]  # per side: each stage, then the total
    totals = columns[-1][-1]  # the baseline's, if there is one
    slowest = sorted(range(len(totals)), key=totals.__getitem__)[-max(1, len(totals) // 10) :]
    if args.baseline is None:
        print(f"{'stage':<20} {'median graph us':>16} {'slowest 10% us':>16}")
        for stage, ours in zip(stages + ["total"], columns[0]):
            tail = statistics.mean(ours[k] for k in slowest)
            print(f"{stage:<20} {statistics.median(ours) * 1e6:>16.1f} {tail * 1e6:>16.1f}")
        return
    print(f"baseline: {args.baseline}")
    print(
        f"{'stage':<20} {'median graph us':>16} {'baseline us':>12}"
        f" {'median ratio':>13} {'slowest 10% ratio':>18}"
    )
    for stage, ours, theirs in zip(stages + ["total"], *columns):
        ratio = statistics.median(a / b for a, b in zip(ours, theirs))
        tail = sum(ours[k] for k in slowest) / sum(theirs[k] for k in slowest)
        print(
            f"{stage:<20} {statistics.median(ours) * 1e6:>16.1f}"
            f" {statistics.median(theirs) * 1e6:>12.1f} {ratio:>13.3f} {tail:>18.3f}"
        )


if __name__ == "__main__":
    sys.exit(main())
