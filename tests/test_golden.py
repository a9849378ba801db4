"""Golden-output check of the CLI on the fixed corpus in ``tests/golden/``.

Each case runs one CLI command from inside that directory, so paths in
diagnostics stay relative, and compares exit code, stdout and stderr byte for
byte with the files under ``tests/golden/expected/``. Those files hold the
output of the CLI as it was before tuple matching became multiset pairing,
with these deliberate changes since:

- the ``matches`` field of ``eval --per-region``: this test lets the pairs
  differ, but not their number;
- the ``"Rex \"the\" (dog)"`` line of ``linearize_dfs_tokens.stdout`` and
  ``linearize_inorder_tokens.stdout`` was updated, and only that line: the
  quoted constant is now one token, where the old re-scanning tokenizer
  split it at its spaces;
- ``retrieve_bad_index.stderr`` names the line of the first bad index line
  (``line 1: 'regions'``), since the index is read by the same JSONL reader
  as the other inputs;
- every command reports a skipped JSONL line as ``warning: <path>:<line>:
  <reason>`` and exits 2: ``eval``, ``eval_per_region``, ``export``,
  ``export_bfs_no_filter``, ``stats`` and ``stats_filtered`` exit 2 where they
  exited 0; ``export`` and ``export_bfs_no_filter`` name the file where they
  said ``line N``; ``stats`` and ``stats_filtered`` print the two warnings
  they left out;
- a missing key reads ``missing key 'x'`` in every loader: ``'scene_graph'``
  in ``eval``, ``eval_per_region`` and ``eval_misaligned``,
  ``"missing key 'scene_graph'"`` in ``export`` and ``export_bfs_no_filter``,
  and ``line 1: 'regions'`` in ``retrieve_bad_index``.
"""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from amrsg.cli import cli

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

# (case name, CLI arguments, exit code)
CASES = [
    ("linearize_dfs", ["linearize", "graphs.penman"], 2),
    ("linearize_bfs", ["linearize", "graphs.penman", "--strategy", "bfs"], 2),
    ("linearize_inorder", ["linearize", "graphs.penman", "--strategy", "inorder"], 2),
    ("linearize_dfs_tokens", ["linearize", "graphs.penman", "--emit", "tokens"], 2),
    (
        "linearize_bfs_tokens",
        ["linearize", "graphs.penman", "--strategy", "bfs", "--emit", "tokens"],
        2,
    ),
    (
        "linearize_inorder_tokens",
        ["linearize", "graphs.penman", "--strategy", "inorder", "--emit", "tokens"],
        2,
    ),
    ("convert_text", ["convert", "graphs.penman"], 2),
    ("convert_jsonl", ["convert", "graphs.penman", "--emit", "jsonl"], 2),
    ("eval", ["eval", "generated.jsonl", "corpus.jsonl"], 2),
    ("eval_per_region", ["eval", "generated.jsonl", "corpus.jsonl", "--per-region"], 2),
    ("retrieve", ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl", "--k", "1,2,5"], 0),
    (
        "retrieve_gold",
        ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl", "--gold", "gold.json"],
        0,
    ),
    ("export", ["export", "corpus.jsonl"], 2),
    ("export_bfs_no_filter", ["export", "corpus.jsonl", "--strategy", "bfs", "--no-filter"], 2),
    ("stats", ["stats", "corpus.jsonl"], 2),
    ("stats_filtered", ["stats", "corpus.jsonl", "--filtered"], 2),
    ("vg_convert", ["vg-convert", "vg.json"], 0),
    # fatal errors: message text and exit code
    ("linearize_missing", ["linearize", "missing.penman"], 1),
    ("convert_no_adapter", ["convert", "graphs.penman", "--engine", "external"], 1),
    ("eval_missing", ["eval", "missing.jsonl", "corpus.jsonl"], 1),
    ("eval_misaligned", ["eval", "queries.jsonl", "corpus.jsonl"], 1),
    ("retrieve_bad_k", ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl", "--k", "x"], 1),
    ("retrieve_bad_index", ["retrieve", "--index", "corpus.jsonl", "--queries", "queries.jsonl"], 1),
    (
        "retrieve_missing_gold",
        ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl", "--gold", "missing.json"],
        1,
    ),
    ("retrieve_missing_queries", ["retrieve", "--index", "index.jsonl", "--queries", "missing.jsonl"], 1),
    (
        "retrieve_unknown_gold",
        ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl", "--gold", "gold_partial.json"],
        1,
    ),
    ("export_missing", ["export", "missing.jsonl"], 1),
    ("stats_missing", ["stats", "missing.jsonl"], 1),
    ("vg_convert_missing", ["vg-convert", "missing.json"], 1),
    ("vg_convert_bad_json", ["vg-convert", "corpus.jsonl"], 1),
]

_MATCHES_RE = re.compile(r'"matches": (\[[^"]*\]), ')


def run_case(args: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; (exit code, stdout, stderr)."""
    runner = CliRunner()
    result = runner.invoke(cli, args, catch_exceptions=False)
    return result.exit_code, result.stdout, result.stderr


def _without_matches(text: str) -> tuple[str, list[int]]:
    """Text with each ``matches`` list blanked, plus the length of each list."""
    counts = [len(json.loads(m)) for m in _MATCHES_RE.findall(text)]
    return _MATCHES_RE.sub('"matches": [], ', text), counts


@pytest.mark.parametrize("name,args,exit_code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, args, exit_code, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("AMRSG_ADAPTER", raising=False)
    code, stdout, stderr = run_case(args)
    expected_stdout = (EXPECTED / f"{name}.stdout").read_text(encoding="utf-8")
    expected_stderr = (EXPECTED / f"{name}.stderr").read_text(encoding="utf-8")
    assert "Traceback" not in stderr
    assert code == exit_code
    assert stderr == expected_stderr
    if name == "eval_per_region":
        stdout, counts = _without_matches(stdout)
        expected_stdout, expected_counts = _without_matches(expected_stdout)
        assert counts == expected_counts and len(counts) == 6
    assert stdout == expected_stdout
