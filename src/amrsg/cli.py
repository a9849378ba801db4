"""Batch command-line interface.

Subcommands: linearize, convert, eval, retrieve, export, stats, vg-convert.
Exit codes: 0 success, 1 configuration or fatal error, 2 partial failure
(some inputs processed, some failed; failures go to stderr).
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from collections import Counter
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

import click

from . import __version__
from .amr import AmrGraph, iter_penman_blocks, parse_penman
from .convert import (
    AdapterError,
    ExternalAdapter,
    convert_external,
    convert_rules,
    export_training_pairs,
)
from .corpus import (
    convert_vg_regions,
    corpus_stats,
    filter_ungrounded,
    json_id,
    read_jsonl,
    record_from_json,
    record_to_json,
    region_graph_from_json,
)
from .evaluate import evaluate_corpus
from .linearize import Strategy, linearize
from .retrieval import (
    RetrievalIndex,
    UnknownGoldImage,
    aggregate_metrics,
    load_index,
    rank,
)
from .scenegraph import GRAMMAR_VERSION, json_typed, serialize_sg, sg_to_json

ADAPTER_ENV_VAR = "AMRSG_ADAPTER"

_STRATEGIES = {s.value: s for s in Strategy}

T = TypeVar("T")


def _fail(*messages: str) -> NoReturn:
    """Print each message as ``error: <message>`` and exit 1."""
    for message in messages:
        click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(load: Callable[[str], T], path: str, what: str = "read") -> T:
    """``load(path)``, or exit 1 with ``error: cannot <what> <path>: <reason>``."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as err:
        _fail(f"cannot {what} {path}: {err}")


def _open_out(path: str):
    """``path`` ('-' is stdout) open for writing, or exit 1 as ``_load`` does."""
    return _load(partial(click.open_file, mode="w", encoding="utf-8"), path, "write")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_json(path: str, shape: type):
    """The JSON document in ``path``; ValueError unless its top level is a ``shape``."""
    return json_typed(json.loads(_read_text(path)), shape, "top level")


def _read_gold(path: str) -> dict[str, str]:
    gold = _read_json(path, dict)
    return {region_id: json_id(gold, region_id) for region_id in gold}


def _read_lines(path: str, parse: Callable[[dict], T]) -> tuple[list[T], int]:
    """``parse`` of each line of a JSONL file plus the number of lines skipped,
    each reported on stderr as ``warning: <path>:<line>: <reason>``. A command
    that skipped a line exits 2."""
    items, errors = _load(partial(read_jsonl, parse=parse), path)
    for lineno, message in errors:
        click.echo(f"warning: {path}:{lineno}: {message}", err=True)
    return items, len(errors)


def _write_each_graph(
    input_path: str, out: str, render: Callable[[AmrGraph, int], str]
) -> NoReturn:
    """Write ``render(graph, i)`` as one line for each graph ``i`` of a PENMAN
    file, then exit. A graph that does not parse, or that ``render`` rejects, is
    reported on stderr as ``error: graph <i>: <reason>`` and the exit code is 2."""
    blocks = iter_penman_blocks(_load(_read_text, input_path))
    failures = 0
    with _open_out(out) as fh:
        for i, (meta, text) in enumerate(blocks):
            try:
                line = render(parse_penman(text, meta), i)
                if "\n" in line or "\r" in line:
                    raise ValueError("the output line would contain a line break")
            except (ValueError, AdapterError) as err:  # PenmanError is a ValueError
                click.echo(f"error: graph {i}: {err}", err=True)
                failures += 1
                continue
            fh.write(line + "\n")
    sys.exit(2 if failures else 0)


@click.group()
@click.version_option(
    __version__,
    "--version",
    message=f"amrsg %(version)s (scene-graph grammar v{GRAMMAR_VERSION})",
    help="Print toolkit and format-grammar versions.",
)
def cli():
    """AMR parsing, linearization, scene-graph conversion and evaluation."""


@cli.command("linearize")
@click.argument("input_path")
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default="dfs")
@click.option("--emit", type=click.Choice(["text", "tokens"]), default="text")
@click.option("--out", default="-", help="Output path ('-' for stdout).")
def cmd_linearize(input_path, strategy, emit, out):
    """Write one linearization per graph in a PENMAN file."""

    def render(graph: AmrGraph, i: int) -> str:
        seq = linearize(graph, _STRATEGIES[strategy])
        if emit == "text":
            return seq.text
        if any("\t" in token for token in seq.tokens):
            raise ValueError("a token contains a tab")
        return "\t".join(seq.tokens)

    _write_each_graph(input_path, out, render)


@cli.command("convert")
@click.argument("input_path")
@click.option("--engine", type=click.Choice(["rules", "external"]), default="rules")
@click.option("--adapter", default=None, help=f"Adapter command (or ${ADAPTER_ENV_VAR}).")
@click.option("--timeout", type=float, default=30.0, help="Adapter timeout in seconds.")
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default="dfs")
@click.option("--emit", type=click.Choice(["text", "jsonl"]), default="text")
@click.option("--out", default="-", help="Output path ('-' for stdout).")
def cmd_convert(input_path, engine, adapter, timeout, strategy, emit, out):
    """Convert each PENMAN graph into a scene-graph target string.

    With --emit jsonl, each line carries the region id (from ::id metadata,
    falling back to the block index) and the scene graph as JSON.
    """
    adapter_proc = None
    if engine == "external":
        command = adapter or os.environ.get(ADAPTER_ENV_VAR)
        if not command:
            _fail(f"--engine external requires --adapter or ${ADAPTER_ENV_VAR}")
        try:
            argv = shlex.split(command)
        except ValueError as err:
            _fail(f"bad --adapter value {command!r}: {err}")
        try:
            adapter_proc = ExternalAdapter(argv, timeout=timeout)
        except ValueError as err:
            _fail(f"bad --timeout value {timeout!r}: {err}")

    def render(graph: AmrGraph, i: int) -> str:
        if adapter_proc is None:
            sg = convert_rules(graph)
        else:
            sg = convert_external(linearize(graph, _STRATEGIES[strategy]), adapter_proc)
        if emit == "text":
            return serialize_sg(sg)
        region_id = graph.metadata.get("id", str(i))
        return json.dumps({"region_id": region_id, "scene_graph": sg_to_json(sg)})

    try:
        _write_each_graph(input_path, out, render)
    finally:
        if adapter_proc is not None:
            adapter_proc.close()


@cli.command("eval")
@click.argument("generated_path")
@click.argument("reference_path")
@click.option("--per-region", is_flag=True, help="Emit one JSON line per region.")
@click.option("--out", default="-", help="Output path ('-' for stdout).")
def cmd_eval(generated_path, reference_path, per_region, out):
    """SPICE-style corpus evaluation of generated vs. reference scene graphs."""
    corpora, errors, skipped = [], [], 0
    for path in (generated_path, reference_path):
        graphs, skipped_here = _read_lines(path, region_graph_from_json)
        skipped += skipped_here
        counts = Counter(region_id for region_id, _, _ in graphs)
        duplicates = sorted(rid for rid, n in counts.items() if n > 1)
        if duplicates:
            errors.append(f"duplicate region ids in {path}: {', '.join(duplicates)}")
        corpora.append({region_id: sg for region_id, _, sg in graphs})
    if errors:
        _fail(*errors)
    generated, reference = corpora
    only_gen = sorted(set(generated) - set(reference))
    only_ref = sorted(set(reference) - set(generated))
    if only_gen:
        errors.append(f"region ids only in generated: {', '.join(only_gen)}")
    if only_ref:
        errors.append(f"region ids only in reference: {', '.join(only_ref)}")
    if errors:
        _fail(*errors)
    if not generated:
        _fail("empty corpus")
    report = evaluate_corpus(
        [(rid, generated[rid], reference[rid]) for rid in sorted(generated)]
    )
    with _open_out(out) as fh:
        if per_region:
            for region_id, rep in report.per_region:
                fh.write(json.dumps({"region_id": region_id, **asdict(rep)}) + "\n")
        fh.write(
            json.dumps({"mean_f1": report.mean_f1, "region_count": report.region_count}) + "\n"
        )
    sys.exit(2 if skipped else 0)


@cli.command("retrieve")
@click.option("--index", "index_path", required=True, help="Index JSONL file.")
@click.option("--queries", "queries_path", required=True, help="Query corpus JSONL.")
@click.option("--gold", "gold_path", default=None, help="JSON map region_id -> image_id.")
@click.option("--k", "ks", default="5,10", help="Comma-separated recall cutoffs.")
@click.option("--out", default="-", help="Output path ('-' for stdout).")
def cmd_retrieve(index_path, queries_path, gold_path, ks, out):
    """Rank images for every query region and report Recall@k / median rank.

    Malformed query lines are skipped with a warning; the run then exits 2.
    """
    try:
        cutoffs = [int(k) for k in ks.split(",") if k.strip()]
    except ValueError:
        _fail(f"bad --k value {ks!r}")
    index = _load(load_index, index_path, "load index")
    gold_map = _load(_read_gold, gold_path, "load gold mapping") if gold_path else None
    queries, skipped = _read_lines(queries_path, region_graph_from_json)
    if not queries:
        _fail("empty query set")
    results = []
    for region_id, image_id, sg in queries:
        gold = gold_map.get(region_id) if gold_map else image_id
        if not gold:
            _fail(f"no gold image id for query {region_id}")
        try:
            results.append(rank(sg, index, gold, query_id=region_id))
        except UnknownGoldImage as err:
            _fail(f"query {region_id}: {err}")
    metrics = aggregate_metrics(results, cutoffs)
    with _open_out(out) as fh:
        fh.write(
            json.dumps(
                {
                    "recall_at": {str(k): v for k, v in metrics["recall_at"].items()},
                    "median_rank": metrics["median_rank"],
                }
            )
            + "\n"
        )
    sys.exit(2 if skipped else 0)


@cli.command("export")
@click.argument("corpus_path")
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default="dfs")
@click.option("--no-filter", is_flag=True, help="Skip the ungrounded-tuple filter.")
@click.option("--out", default="-", help="Output path ('-' for stdout).")
def cmd_export(corpus_path, strategy, no_filter, out):
    """Export training pairs (linearized AMR -> target string) as JSONL."""
    records, skipped = _read_lines(corpus_path, record_from_json)
    pairs, no_pair = export_training_pairs(
        records, _STRATEGIES[strategy], apply_filter=not no_filter
    )
    with _open_out(out) as fh:
        for pair in pairs:
            fh.write(json.dumps(asdict(pair)) + "\n")
    click.echo(f"exported {len(pairs)} pairs, skipped {no_pair}", err=True)
    sys.exit(2 if skipped else 0)


@cli.command("stats")
@click.argument("corpus_path")
@click.option("--filtered", is_flag=True, help="Apply the ungrounded filter first.")
def cmd_stats(corpus_path, filtered):
    """Print corpus statistics as JSON."""
    records, skipped = _read_lines(corpus_path, record_from_json)
    if filtered:
        records = [filter_ungrounded(r) for r in records]
    stats = corpus_stats(records)
    click.echo(json.dumps({**asdict(stats), "skipped_lines": skipped}))
    sys.exit(2 if skipped else 0)


@cli.command("vg-convert")
@click.argument("vg_path")
@click.option("--out", default="-", help="Output corpus path ('-' for stdout).")
def cmd_vg_convert(vg_path, out):
    """Convert Visual Genome region-graph JSON into the corpus JSONL format."""
    records = _load(lambda path: convert_vg_regions(_read_json(path, list)), vg_path)
    with _open_out(out) as fh:
        for record in records:
            fh.write(json.dumps(record_to_json(record)) + "\n")
    click.echo(f"converted {len(records)} regions", err=True)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as err:
        err.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
