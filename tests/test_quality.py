"""The rule baseline's F1 on the golden corpus, pinned through the CLI path a
user runs: ``convert --emit jsonl`` on the corpus's AMRs, then ``eval
--per-region`` against the corpus's references.

A change to ``convert_rules`` that moves these numbers updates them on purpose
and logs the old and new values in CHANGES.md.
"""

import json
from pathlib import Path

from click.testing import CliRunner

from amrsg.cli import cli
from amrsg.corpus import read_jsonl, record_from_json, record_to_json

CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"

# ``eval --per-region`` of the four records that convert; 4_0's AMR is cut off
EXPECTED = """\
{"region_id": "1_0", "precision": 0.5, "recall": 0.5, "f1": 0.5, "matches": [[0, 0], [1, 1]], "g_size": 4, "r_size": 4}
{"region_id": "1_1", "precision": 0.25, "recall": 0.5, "f1": 0.3333333333333333, "matches": [[0, 0]], "g_size": 4, "r_size": 2}
{"region_id": "2_0", "precision": 0.75, "recall": 0.5, "f1": 0.6, "matches": [[1, 0], [2, 1], [3, 2]], "g_size": 4, "r_size": 6}
{"region_id": "2_1", "precision": 0.0, "recall": 0.0, "f1": 0.0, "matches": [], "g_size": 3, "r_size": 3}
{"mean_f1": 0.3583333333333333, "region_count": 4}
"""


def _invoke(args):
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    return result.exit_code, result.stdout, result.stderr


def test_rule_baseline_f1_on_the_golden_corpus(tmp_path):
    records, _ = read_jsonl(CORPUS, record_from_json)
    penman = tmp_path / "corpus.penman"
    penman.write_text(
        "\n\n".join(f"# ::id {r.region_id}\n{r.amr}" for r in records if r.amr) + "\n",
        encoding="utf-8",
    )
    generated = tmp_path / "generated.jsonl"
    code, _, stderr = _invoke(["convert", str(penman), "--emit", "jsonl", "--out", str(generated)])
    assert code == 2
    assert stderr.startswith("error: graph 4: ")
    converted = [json.loads(line)["region_id"] for line in generated.read_text().splitlines()]
    assert converted == ["1_0", "1_1", "2_0", "2_1"]

    reference = tmp_path / "reference.jsonl"
    reference.write_text(
        "".join(json.dumps(record_to_json(r)) + "\n" for r in records if r.region_id in converted),
        encoding="utf-8",
    )
    code, stdout, stderr = _invoke(["eval", str(generated), str(reference), "--per-region"])
    assert (code, stderr) == (0, "")
    assert stdout == EXPECTED
