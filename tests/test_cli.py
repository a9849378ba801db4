import json
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from amrsg.cli import cli
from amrsg.corpus import RegionRecord, save_records
from amrsg.retrieval import RetrievalIndex, save_index
from amrsg.scenegraph import SceneGraph
from helpers import FIG1_PENMAN

BFS_TEXT = "(z0 / stand-01) :ARG1 (z1 / retriever) :ARG2 (z3 / snow) :mod (z2 / gold)"


@pytest.fixture
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in CliRunner.__init__.__code__.co_varnames else CliRunner()


def _invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False, standalone_mode=True)


def _penman_file(tmp_path, blocks, name="graphs.penman"):
    path = tmp_path / name
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return str(path)


def test_version(runner):
    result = _invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert "amrsg 0.1.0" in result.stdout
    assert "grammar v1" in result.stdout


def test_linearize_bfs_matches_reference_string(runner, tmp_path):
    path = _penman_file(tmp_path, [f"# ::id r1\n{FIG1_PENMAN}"])
    result = _invoke(runner, ["linearize", path, "--strategy", "bfs"])
    assert result.exit_code == 0
    assert result.stdout.strip().splitlines() == [BFS_TEXT]


def test_linearize_tokens_emission(runner, tmp_path):
    path = _penman_file(tmp_path, ["(z0 / dog)"])
    result = _invoke(runner, ["linearize", path, "--strategy", "dfs", "--emit", "tokens"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "(z0/dog)"


def test_linearize_tokens_of_atom_with_quote(runner, tmp_path):
    path = _penman_file(tmp_path, ['(z0 / dog :mod a"b)'])
    result = _invoke(runner, ["linearize", path, "--emit", "tokens"])
    assert result.exit_code == 0
    assert result.stdout == '(z0/dog\t:mod\ta"b)\n'


@pytest.mark.parametrize(
    "emit,constant",
    [("text", '"a\n b"'), ("text", '"a\r b"'), ("tokens", '"a\n b"'), ("tokens", '"a\tb"')],
    ids=["text-newline", "text-carriage-return", "tokens-newline", "tokens-tab"],
)
def test_linearize_refuses_graph_that_would_split_its_line(runner, tmp_path, emit, constant):
    path = tmp_path / "graphs.penman"
    path.write_bytes(f"(z0 / dog :name {constant})\n\n(z0 / cat)\n\n(z0 / tree)\n".encode())
    result = _invoke(runner, ["linearize", str(path), "--emit", emit])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: graph 0: ")
    assert result.stdout == ("(z0 / cat)\n(z0 / tree)\n" if emit == "text" else "(z0/cat)\n(z0/tree)\n")


def test_linearize_empty_file(runner, tmp_path):
    path = tmp_path / "empty.penman"
    path.write_text("")
    result = _invoke(runner, ["linearize", str(path)])
    assert result.exit_code == 0
    assert result.stdout == ""


def test_linearize_partial_failure(runner, tmp_path):
    path = _penman_file(tmp_path, ["(z0 / dog)", "(z1 / cat", "(z2 / tree)"])
    result = _invoke(runner, ["linearize", path])
    assert result.exit_code == 2
    assert len(result.stdout.strip().splitlines()) == 2


def test_linearize_unreadable_input(runner):
    result = _invoke(runner, ["linearize", "/nonexistent.penman"])
    assert result.exit_code == 1


def test_convert_rules(runner, tmp_path):
    path = _penman_file(tmp_path, [FIG1_PENMAN])
    result = _invoke(runner, ["convert", path, "--engine", "rules"])
    assert result.exit_code == 0
    assert result.stdout.strip() == (
        "( retriever ) ( snow ) ( retriever , gold ) ( retriever , stand in , snow )"
    )


def test_convert_keeps_wire_delimiters_out_of_fields(runner, tmp_path):
    path = _penman_file(tmp_path, ['(z0 / dog :mod "big, red")', '(z0 / dog :mod "x )")'])
    result = _invoke(runner, ["convert", path])
    assert result.exit_code == 0
    assert result.stdout == "( dog ) ( dog , big red )\n( dog ) ( dog , x )\n"


def test_convert_external_requires_adapter(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("AMRSG_ADAPTER", raising=False)
    path = _penman_file(tmp_path, [FIG1_PENMAN])
    result = _invoke(runner, ["convert", path, "--engine", "external"])
    assert result.exit_code == 1


def test_convert_external_with_stub(runner, tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        textwrap.dedent(
            """
            import sys
            for line in sys.stdin:
                print("( dog )", flush=True)
            """
        )
    )
    path = _penman_file(tmp_path, [FIG1_PENMAN])
    result = _invoke(
        runner,
        ["convert", path, "--engine", "external", "--adapter", f"{sys.executable} {stub}"],
    )
    assert result.exit_code == 0
    assert result.stdout.strip() == "( dog )"


def test_convert_external_refuses_request_with_line_break(runner, tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import re, sys\n"
        "for line in sys.stdin:\n"
        "    print(' '.join(f'( {c} )' for c in re.findall(r'/ (\\w+)', line)), flush=True)\n"
    )
    path = _penman_file(tmp_path, ['(z0 / dog :name "a\n b")', "(z0 / cat)", "(z0 / tree)"])
    result = _invoke(
        runner, ["convert", path, "--engine", "external", "--adapter", f"{sys.executable} {stub}"]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: graph 0: ")
    assert "line break" in result.stderr
    assert result.stdout == "( cat )\n( tree )\n"


def test_convert_external_restarts_an_exited_adapter(runner, tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import re, sys\n"
        "for line in sys.stdin:\n"
        "    concept = re.search(r'/ (\\w+)', line).group(1)\n"
        "    if concept == 'bomb':\n"
        "        sys.exit(3)\n"
        "    print(f'( {concept} )', flush=True)\n"
    )
    path = _penman_file(tmp_path, ["(z0 / dog)", "(z0 / bomb)", "(z0 / cat)", "(z0 / tree)"])
    result = _invoke(
        runner, ["convert", path, "--engine", "external", "--adapter", f"{sys.executable} {stub}"]
    )
    assert result.exit_code == 2
    assert result.stdout == "( dog )\n( cat )\n( tree )\n"
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: graph 1: ")
    assert "exited with status 3" in result.stderr


@pytest.mark.parametrize(
    "options,message,exit_code",
    [
        (["--adapter", "cat", "--timeout", "-1"], "error: bad --timeout value -1.0: ", 1),
        (["--adapter", "cat", "--timeout", "0"], "error: bad --timeout value 0.0: ", 1),
        (["--adapter", "cat", "--timeout", "inf"], "error: bad --timeout value inf: ", 1),
        (["--adapter", "cat", "--timeout", "nan"], "error: bad --timeout value nan: ", 1),
        (["--adapter", '"unclosed'], "error: bad --adapter value '\"unclosed': No closing quotation", 1),
        (["--adapter", "MISSING"], "error: graph 0: cannot start adapter ", 2),
        (["--adapter", "DIRECTORY"], "error: graph 0: cannot start adapter ", 2),
    ],
    ids=["timeout-negative", "timeout-0", "timeout-inf", "timeout-nan", "unclosed-quote"]
    + ["not-found", "directory"],
)
def test_adapter_that_cannot_run_is_a_diagnostic(runner, tmp_path, options, message, exit_code):
    path = _penman_file(tmp_path, ["(z0 / dog)"])
    paths = {"MISSING": str(tmp_path / "missing"), "DIRECTORY": str(tmp_path)}
    result = _invoke(runner, ["convert", path, "--engine", "external", *[paths.get(o, o) for o in options]])
    assert result.exit_code == exit_code
    assert result.stderr.startswith(message)
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize("command", [["linearize"], ["convert"]])
def test_too_deep_graph_is_an_error_and_later_graphs_survive(runner, tmp_path, command):
    deep = " :ARG0 ".join(f"(z{i} / n" for i in range(1000)) + ")" * 1000
    path = _penman_file(tmp_path, [deep, "(z0 / cat)"])
    result = runner.invoke(cli, command + [path])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: graph 0: nesting deeper than ")
    assert "Traceback" not in result.stderr
    assert "cat" in result.stdout
    assert len(result.stdout.splitlines()) == 1


def test_convert_adapter_from_env(runner, tmp_path, monkeypatch):
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\nfor line in sys.stdin:\n    print('( cat )', flush=True)\n")
    monkeypatch.setenv("AMRSG_ADAPTER", f"{sys.executable} {stub}")
    path = _penman_file(tmp_path, ["(z0 / dog)"])
    result = _invoke(runner, ["convert", path, "--engine", "external"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "( cat )"


def test_convert_jsonl_emission_uses_metadata_ids(runner, tmp_path):
    path = _penman_file(tmp_path, [f"# ::id region7\n{FIG1_PENMAN}"])
    result = _invoke(runner, ["convert", path, "--emit", "jsonl"])
    assert result.exit_code == 0
    data = json.loads(result.stdout.strip())
    assert data["region_id"] == "region7"
    assert ["retriever"] in data["scene_graph"]["objects"]


def _eval_corpus_file(tmp_path, name, graphs):
    path = tmp_path / name
    from amrsg.scenegraph import sg_to_json

    with open(path, "w") as fh:
        for region_id, sg in graphs.items():
            fh.write(json.dumps({"region_id": region_id, "scene_graph": sg_to_json(sg)}) + "\n")
    return str(path)


def test_eval_identical_files(runner, tmp_path):
    sg = SceneGraph(objects=["dog"])
    gen = _eval_corpus_file(tmp_path, "gen.jsonl", {"r1": sg, "r2": sg})
    ref = _eval_corpus_file(tmp_path, "ref.jsonl", {"r1": sg, "r2": sg})
    result = _invoke(runner, ["eval", gen, ref])
    assert result.exit_code == 0
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["mean_f1"] == 1.0
    assert summary["region_count"] == 2


def test_eval_disjoint(runner, tmp_path):
    gen = _eval_corpus_file(tmp_path, "gen.jsonl", {"r1": SceneGraph(objects=["dog"])})
    ref = _eval_corpus_file(tmp_path, "ref.jsonl", {"r1": SceneGraph(objects=["cat"])})
    result = _invoke(runner, ["eval", gen, ref])
    assert json.loads(result.stdout.strip().splitlines()[-1])["mean_f1"] == 0.0


def test_eval_mixed_matches_hand_computed_mean(runner, tmp_path):
    gen = _eval_corpus_file(
        tmp_path,
        "gen.jsonl",
        {"r1": SceneGraph(objects=["dog"]), "r2": SceneGraph(objects=["dog", "cat"])},
    )
    ref = _eval_corpus_file(
        tmp_path,
        "ref.jsonl",
        {"r1": SceneGraph(objects=["dog"]), "r2": SceneGraph(objects=["dog", "cat", "bird", "fish"])},
    )
    result = _invoke(runner, ["eval", gen, ref, "--per-region"])
    lines = [json.loads(l) for l in result.stdout.strip().splitlines()]
    assert lines[0]["f1"] == 1.0
    assert lines[1]["f1"] == pytest.approx(2 / 3)
    assert lines[-1]["mean_f1"] == pytest.approx((1.0 + 2 / 3) / 2)


def test_eval_id_misalignment(runner, tmp_path):
    gen = _eval_corpus_file(tmp_path, "gen.jsonl", {"r1": SceneGraph(objects=["dog"])})
    ref = _eval_corpus_file(tmp_path, "ref.jsonl", {"r2": SceneGraph(objects=["dog"])})
    result = _invoke(runner, ["eval", gen, ref])
    assert result.exit_code == 1


@pytest.mark.parametrize("duplicated", ["gen", "ref"])
def test_eval_duplicate_region_ids(runner, tmp_path, duplicated):
    dog, cat = SceneGraph(objects=["dog"]), SceneGraph(objects=["cat"])
    gen = _eval_corpus_file(tmp_path, "gen.jsonl", {"r1": dog, "r2": dog})
    ref = _eval_corpus_file(tmp_path, "ref.jsonl", {"r1": dog, "r2": cat})
    path = gen if duplicated == "gen" else ref
    with open(path, "a") as fh:
        fh.write(json.dumps({"region_id": "r1", "scene_graph": {"objects": [["cat"]]}}) + "\n")
    result = _invoke(runner, ["eval", gen, ref])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"error: duplicate region ids in {path}: r1\n" in result.stderr


def test_retrieve_self_retrieval(runner, tmp_path):
    regions = {
        f"img{i}": [SceneGraph(objects=[f"obj{i}_{j}"]) for j in range(3)] for i in range(6)
    }
    index_path = tmp_path / "index.jsonl"
    save_index(RetrievalIndex(list(regions.items())), index_path)
    queries_path = tmp_path / "queries.jsonl"
    from amrsg.scenegraph import sg_to_json

    with open(queries_path, "w") as fh:
        for i in range(6):
            fh.write(
                json.dumps(
                    {
                        "region_id": f"q{i}",
                        "image_id": f"img{i}",
                        "scene_graph": sg_to_json(regions[f"img{i}"][0]),
                    }
                )
                + "\n"
            )
    result = _invoke(runner, ["retrieve", "--index", str(index_path), "--queries", str(queries_path)])
    assert result.exit_code == 0
    metrics = json.loads(result.stdout.strip())
    assert metrics["recall_at"]["5"] == 1.0
    assert metrics["median_rank"] == 1


def test_retrieve_unknown_gold(runner, tmp_path):
    index_path = tmp_path / "index.jsonl"
    save_index(RetrievalIndex([("img1", [SceneGraph(objects=["a"])])]), index_path)
    queries_path = tmp_path / "queries.jsonl"
    from amrsg.scenegraph import sg_to_json

    queries_path.write_text(
        json.dumps(
            {"region_id": "q1", "image_id": "ghost", "scene_graph": sg_to_json(SceneGraph())}
        )
        + "\n"
    )
    result = _invoke(runner, ["retrieve", "--index", str(index_path), "--queries", str(queries_path)])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "bad_line",
    [
        "{not json",
        json.dumps({"region_id": "q9", "image_id": "img1"}),
        json.dumps({"region_id": "q9", "image_id": "img1", "scene_graph": []}),
    ],
    ids=["bad-json", "missing-scene-graph", "scene-graph-not-object"],
)
def test_retrieve_skips_malformed_query_line(runner, tmp_path, bad_line):
    from amrsg.scenegraph import sg_to_json

    index_path = tmp_path / "index.jsonl"
    save_index(
        RetrievalIndex([("img1", [SceneGraph(objects=["a"])]), ("img2", [SceneGraph(objects=["b"])])]),
        index_path,
    )
    good = [
        json.dumps({"region_id": f"q{i}", "image_id": f"img{i}", "scene_graph": sg_to_json(sg)})
        for i, sg in ((1, SceneGraph(objects=["a"])), (2, SceneGraph(objects=["a"])))
    ]
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text("\n".join([good[0], bad_line, good[1]]) + "\n")
    args = ["retrieve", "--index", str(index_path), "--queries", str(queries_path), "--k", "1"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"warning: {queries_path}:2: ")
    # both other queries are ranked: q1's gold image comes first, q2's second
    assert json.loads(result.stdout) == {"recall_at": {"1": 0.5}, "median_rank": 1}


_DOG = {"object_id": 1, "name": "dog"}


def _vg_region(**fields) -> str:
    """A Visual Genome file: one image with one region ``{"phrase": "a dog", **fields}``."""
    return json.dumps([{"image_id": 1, "regions": [{"phrase": "a dog", **fields}]}])


def _index(region: dict | None = None, **fields) -> str:
    """A one-line index: image ``img1`` with one region graph, then ``fields``."""
    return json.dumps({"image_id": "img1", "regions": [region or {}], **fields}) + "\n"


_BAD_INDEX = ["retrieve", "--index", "BAD", "--queries", "QUERIES"]


def _record_line(**fields) -> str:
    """A one-line corpus: region ``r1`` of image ``img1``, then ``fields``."""
    line = {"image_id": "img1", "region_id": "r1", "description": "a dog", "scene_graph": {}}
    return json.dumps({**line, **fields}) + "\n"


def _run_on_bad_file(runner, tmp_path, content, args):
    """``args`` run with BAD holding ``content``, INDEX a one-image index and
    QUERIES one query of that image; returns the result and BAD's path."""
    paths = {name: tmp_path / name.lower() for name in ("BAD", "INDEX", "QUERIES")}
    paths["BAD"].write_text(content)
    save_index(RetrievalIndex([("img1", [SceneGraph(objects=["a"])])]), paths["INDEX"])
    query = {"region_id": "q1", "image_id": "img1", "scene_graph": {}}
    paths["QUERIES"].write_text(json.dumps(query) + "\n")
    return _invoke(runner, [str(paths[a]) if a in paths else a for a in args]), paths["BAD"]


@pytest.mark.parametrize(
    "content,args",
    [
        ("[1]\n", _BAD_INDEX),
        ('["q1", "img1"]', ["retrieve", "--index", "INDEX", "--queries", "QUERIES", "--gold", "BAD"]),
        ('{"image_id": 1, "regions": 5}\n', _BAD_INDEX),
        ('{"image_id": 7, "regions": []}', ["vg-convert", "BAD"]),
        ("[1]", ["vg-convert", "BAD"]),
        ('[{"image_id": 1, "regions": [5]}]', ["vg-convert", "BAD"]),
        ('[{"image_id": 1, "regions": [{"phrase": "a dog", "objects": [5]}]}]', ["vg-convert", "BAD"]),
        (_vg_region(phrase=5), ["vg-convert", "BAD"]),
        (_vg_region(objects=[{"object_id": [1], "name": "dog"}]), ["vg-convert", "BAD"]),
        (
            _vg_region(objects=[_DOG], relationships=[{"subject_id": [1], "object_id": 1}]),
            ["vg-convert", "BAD"],
        ),
        (
            _vg_region(objects=[_DOG], relationships=[{"subject_id": 1, "predicate": 7}]),
            ["vg-convert", "BAD"],
        ),
        (_vg_region(objects=[{"names": "dog"}]), ["vg-convert", "BAD"]),
        (_vg_region(objects=[{"name": {"x": 1}}]), ["vg-convert", "BAD"]),
        (_vg_region(objects=[{"name": "dog", "attributes": [{"x": 1}, ["big"]]}]), ["vg-convert", "BAD"]),
        (_index({"attributes": [["dog", "big", "x"]]}), _BAD_INDEX),
        (_index({"attributes": 5}), _BAD_INDEX),
        (_index({"relations": [5]}), _BAD_INDEX),
        (_index({"objects": [[]]}), _BAD_INDEX),
        (_index({"objects": [["dog", "cat"]]}), _BAD_INDEX),
        (_index({"objects": "dog"}), _BAD_INDEX),
        (_index({"objects": ["dog"]}), _BAD_INDEX),
        (_index(image_id=None), _BAD_INDEX),
        (_index(image_id=""), _BAD_INDEX),
        (_index(image_id=1.5), _BAD_INDEX),
        (_index(image_id=True), _BAD_INDEX),
        ('{"q1": null}', ["retrieve", "--index", "INDEX", "--queries", "QUERIES", "--gold", "BAD"]),
        ('{"q1": 7.0}', ["retrieve", "--index", "INDEX", "--queries", "QUERIES", "--gold", "BAD"]),
        (_record_line(amr=5), ["export", "BAD"]),
        (_record_line(amr=["(z0 / dog)"]), ["export", "BAD"]),
    ],
    ids=[
        "index-line-is-list",
        "gold-is-list",
        "index-regions-is-number",
        "vg-is-object",
        "vg-image-is-number",
        "vg-region-is-number",
        "vg-object-is-number",
        "vg-phrase-is-number",
        "vg-object-id-is-list",
        "vg-subject-id-is-list",
        "vg-predicate-is-number",
        "vg-names-is-string",
        "vg-name-is-object",
        "vg-attribute-is-object",
        "index-attribute-has-3-fields",
        "index-attributes-is-number",
        "index-relation-is-number",
        "index-object-has-0-fields",
        "index-object-has-2-fields",
        "index-objects-is-string",
        "index-object-is-bare-string",
        "index-image-id-is-null",
        "index-image-id-is-empty",
        "index-image-id-is-float",
        "index-image-id-is-boolean",
        "gold-image-id-is-null",
        "gold-image-id-is-float",
        "record-amr-is-number",
        "record-amr-is-list",
    ],
)
def test_wrong_shape_json_is_an_error(runner, tmp_path, content, args):
    result, bad = _run_on_bad_file(runner, tmp_path, content, args)
    if args[0] == "export":  # a bad corpus line is skipped, not fatal
        assert result.exit_code == 2
        assert result.stderr.startswith(f"warning: {bad}:1: amr is a JSON ")
    else:
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot ")
    assert str(bad) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "content,args,message",
    [
        (_record_line(description=5), ["stats", "BAD"], "BAD:1: description is a JSON number, not a string"),
        ("[1]\n", ["stats", "BAD"], "BAD:1: line is a JSON array, not an object"),
        (_record_line(amr=["x"]), ["export", "BAD"], "BAD:1: amr is a JSON array, not a string or null"),
        (
            json.dumps({"region_id": "q1", "scene_graph": "dog"}) + "\n",
            ["eval", "BAD", "BAD"],
            "BAD:1: scene graph is a JSON string, not an object",
        ),
        (_index(regions=5), _BAD_INDEX, "BAD: line 1: regions is a JSON number, not an array"),
        (
            '["q1", "img1"]',
            ["retrieve", "--index", "INDEX", "--queries", "QUERIES", "--gold", "BAD"],
            "BAD: top level is a JSON array, not an object",
        ),
        ("{}", ["vg-convert", "BAD"], "BAD: top level is a JSON object, not an array"),
        ("[null]", ["vg-convert", "BAD"], "BAD: image 0 is a JSON null, not an object"),
        ('[{"regions": 5}]', ["vg-convert", "BAD"], "BAD: image 0: regions is a JSON number, not an array"),
        (
            _vg_region(objects=[True]),
            ["vg-convert", "BAD"],
            "BAD: image 0: objects[0] is a JSON boolean, not an object",
        ),
        (
            _vg_region(objects=[{"name": "dog", "attributes": ["big", 1.5]}]),
            ["vg-convert", "BAD"],
            "BAD: image 0: attributes[1] is a JSON number, not a string or null",
        ),
        (
            _vg_region(objects=[{"names": "dog"}]),
            ["vg-convert", "BAD"],
            "BAD: image 0: names is a JSON string, not an array or null",
        ),
    ],
    ids=[
        "record-description",
        "record-line",
        "record-amr",
        "eval-scene-graph",
        "index-regions",
        "gold-top-level",
        "vg-top-level",
        "vg-image",
        "vg-regions",
        "vg-object",
        "vg-attribute",
        "vg-names",
    ],
)
def test_a_wrong_json_type_has_one_message_form(runner, tmp_path, content, args, message):
    result, bad = _run_on_bad_file(runner, tmp_path, content, args)
    assert result.exit_code in (1, 2)
    assert message.replace("BAD", str(bad)) in result.stderr
    assert "Traceback" not in result.stderr


def _vg_dog_on_mat() -> list:
    objects = [{"object_id": 1, "name": "dog"}, {"object_id": 2, "name": "mat"}]
    relationship = {"subject_id": 1, "object_id": 2, "predicate": "on"}
    region = {"region_id": 5, "phrase": "a dog on a mat", "objects": objects, "relationships": [relationship]}
    return [{"image_id": 1, "regions": [region]}]


_RELATIONSHIP = ("regions", 0, "relationships", 0)


@pytest.mark.parametrize(
    "where,key",
    [
        ((), "image_id"),
        (("regions", 0), "region_id"),
        (("regions", 0, "objects", 0), "object_id"),
        (_RELATIONSHIP, "subject_id"),
        (_RELATIONSHIP, "object_id"),
    ],
    ids=["image", "region", "object", "subject", "relationship-object"],
)
def test_vg_convert_boolean_id_is_an_error(runner, tmp_path, where, key):
    vg = _vg_dog_on_mat()
    item = vg[0]
    for step in where:
        item = item[step]
    item[key] = True
    path = tmp_path / "vg.json"
    path.write_text(json.dumps(vg))
    result = _invoke(runner, ["vg-convert", str(path)])
    assert result.exit_code == 1
    reason = f"{key} is true, not a non-empty string or an integer"
    assert result.stderr == f"error: cannot read {path}: image 0: {reason}\n"
    assert result.stdout == ""


def test_vg_convert_empty_region_id_gets_one_that_stats_reads(runner, tmp_path):
    vg = _vg_dog_on_mat()
    vg[0]["regions"][0]["region_id"] = ""
    vg_path, out_path = tmp_path / "vg.json", tmp_path / "corpus.jsonl"
    vg_path.write_text(json.dumps(vg))
    assert _invoke(runner, ["vg-convert", str(vg_path), "--out", str(out_path)]).exit_code == 0
    assert json.loads(out_path.read_text())["region_id"] == "1_0"
    result = _invoke(runner, ["stats", str(out_path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["skipped_lines"] == 0


@pytest.mark.parametrize("bad_id", [None, "", 1.5, True, [1]], ids=["null", "empty", "float", "boolean", "array"])
@pytest.mark.parametrize(
    "key,args",
    [
        ("region_id", ["eval", "BAD", "BAD"]),
        ("region_id", ["retrieve", "--index", "INDEX", "--queries", "BAD"]),
        ("image_id", ["retrieve", "--index", "INDEX", "--queries", "BAD"]),
    ],
    ids=["eval-region-id", "query-region-id", "query-image-id"],
)
def test_bad_id_is_a_diagnostic(runner, tmp_path, key, args, bad_id):
    paths = {"BAD": tmp_path / "bad.jsonl", "INDEX": tmp_path / "index.jsonl"}
    line = {"region_id": "q1", "image_id": "img1", "scene_graph": {"objects": [["a"]]}, key: bad_id}
    paths["BAD"].write_text(json.dumps(line) + "\n")
    save_index(RetrievalIndex([("img1", [SceneGraph(objects=["a"])])]), paths["INDEX"])
    result = _invoke(runner, [str(paths.get(a, a)) for a in args])
    assert result.exit_code in (1, 2)
    assert result.stderr.startswith(("warning: ", "error: "))
    assert "Traceback" not in result.stderr


_NAMES = ["dog", "cat", "tree"]
_REGIONS = [
    json.dumps(
        {
            "image_id": f"img{i}",
            "region_id": f"r{i}",
            "description": f"a {name}",
            "scene_graph": {"objects": [[name]]},
            "amr": f"(z0 / {name})",
        }
    )
    for i, name in enumerate(_NAMES)
]


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "LINES", "CLEAN"],
        ["retrieve", "--index", "INDEX", "--queries", "LINES"],
        ["export", "LINES"],
        ["stats", "LINES"],
    ],
    ids=lambda args: args[0],
)
def test_a_skipped_line_is_one_warning_and_exit_2(runner, tmp_path, args):
    paths = {name: tmp_path / f"{name.lower()}.jsonl" for name in ("LINES", "CLEAN", "INDEX")}
    bad = json.dumps({"image_id": "img9", "region_id": "r9", "description": "a dog"})
    paths["LINES"].write_text("\n".join([_REGIONS[0], bad, *_REGIONS[1:]]) + "\n")
    paths["CLEAN"].write_text("\n".join(_REGIONS) + "\n")
    save_index(
        RetrievalIndex([(f"img{i}", [SceneGraph(objects=[name])]) for i, name in enumerate(_NAMES)]),
        paths["INDEX"],
    )
    clean = _invoke(runner, [str(paths.get("CLEAN" if a == "LINES" else a, a)) for a in args])
    result = _invoke(runner, [str(paths.get(a, a)) for a in args])
    assert clean.exit_code == 0
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"warning: {paths['LINES']}:2: ")
    # stats counts the line it skipped; everything else reads as if it were not there
    assert result.stdout == clean.stdout.replace('"skipped_lines": 0', '"skipped_lines": 1')


def test_retrieve_empty_queries(runner, tmp_path):
    index_path = tmp_path / "index.jsonl"
    save_index(RetrievalIndex([("img1", [SceneGraph(objects=["a"])])]), index_path)
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text("")
    result = _invoke(runner, ["retrieve", "--index", str(index_path), "--queries", str(queries_path)])
    assert result.exit_code == 1


def _corpus(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    save_records(records, path)
    return str(path)


def test_export_single_record(runner, tmp_path):
    record = RegionRecord(
        image_id="1",
        region_id="r1",
        description="Golden retriever standing in the snow",
        scene_graph=SceneGraph(objects=["retriever", "snow"]),
        amr=FIG1_PENMAN,
    )
    path = _corpus(tmp_path, [record])
    result = _invoke(runner, ["export", path, "--strategy", "dfs"])
    assert result.exit_code == 0
    pair = json.loads(result.stdout.strip().splitlines()[0])
    assert pair["input"] == FIG1_PENMAN
    assert pair["region_id"] == "r1"
    assert pair["strategy"] == "dfs"


def test_export_no_amr(runner, tmp_path):
    records = [
        RegionRecord("1", f"r{i}", "a dog", SceneGraph(objects=["dog"])) for i in range(3)
    ]
    path = _corpus(tmp_path, records)
    result = _invoke(runner, ["export", path])
    assert result.exit_code == 0
    payload = [l for l in result.stdout.strip().splitlines() if l.startswith("{")]
    assert payload == []


def test_export_missing_corpus(runner):
    result = _invoke(runner, ["export", "/nonexistent.jsonl"])
    assert result.exit_code == 1


def test_stats(runner, tmp_path):
    records = [
        RegionRecord(str(i), f"{i}_{j}", "a dog", SceneGraph(objects=["dog"]))
        for i in range(2)
        for j in range(3)
    ]
    path = _corpus(tmp_path, records)
    result = _invoke(runner, ["stats", path])
    assert result.exit_code == 0
    stats = json.loads(result.stdout.strip())
    assert stats["image_count"] == 2
    assert stats["region_count"] == 6
    assert stats["mean_regions_per_image"] == 3.0


def test_vg_convert(runner, tmp_path):
    vg = [
        {
            "image_id": 7,
            "regions": [
                {
                    "region_id": 70,
                    "phrase": "a red bus",
                    "objects": [{"object_id": 1, "name": "bus", "attributes": ["red"]}],
                    "relationships": [],
                }
            ],
        }
    ]
    vg_path = tmp_path / "vg.json"
    vg_path.write_text(json.dumps(vg))
    out_path = tmp_path / "corpus.jsonl"
    result = _invoke(runner, ["vg-convert", str(vg_path), "--out", str(out_path)])
    assert result.exit_code == 0
    line = json.loads(out_path.read_text().strip())
    assert line["image_id"] == "7"
    assert ["bus", "red"] in line["scene_graph"]["attributes"]


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "args",
    [
        ["linearize", "graphs.penman"],
        ["convert", "graphs.penman"],
        ["eval", "generated.jsonl", "corpus.jsonl"],
        ["retrieve", "--index", "index.jsonl", "--queries", "queries.jsonl"],
        ["export", "corpus.jsonl"],
        ["vg-convert", "vg.json"],
    ],
    ids=lambda args: args[0],
)
def test_unwritable_out_is_an_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(_GOLDEN)
    out = tmp_path / "missing" / "out.txt"
    result = _invoke(runner, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.splitlines()[-1].startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in result.stderr
