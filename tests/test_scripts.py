import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("baseline", [[], ["--baseline", str(ROOT)]], ids=["plain", "baseline"])
def test_retrieval_scale_runs_and_finds_the_rankings_identical(baseline):
    command = [sys.executable, str(ROOT / "scripts" / "retrieval_scale.py"), "20", "--queries", "3", *baseline]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "rankings identical" in done.stdout, done.stdout
    # the MB that one round's results hold, for each side
    [line] = [line for line in done.stdout.splitlines() if line.lstrip().startswith("20 images x 5:")]
    held = re.findall(r"results +(\d+\.\d{3}) MB", line)
    assert len(held) == 1 + bool(baseline) and all(float(mb) > 0 for mb in held), line


@pytest.mark.parametrize("baseline", [[], ["--baseline", str(ROOT)]], ids=["plain", "baseline"])
@pytest.mark.parametrize(
    "script, size",
    [("corpus_stages.py", ["--records", "20"]), ("adapter_roundtrip.py", ["--graphs", "10"])],
    ids=["corpus_stages", "adapter_roundtrip"],
)
def test_stage_script_runs_and_prints_a_total_row(script, size, baseline):
    command = [sys.executable, str(ROOT / "scripts" / script), *size, "--runs", "2", *baseline]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(line.split()[:1] == ["total"] for line in done.stdout.splitlines()), done.stdout


GRAPH_MEMORY = [sys.executable, str(ROOT / "scripts" / "graph_memory.py"), "--records", "50", "--graphs", "50"]


def test_graph_memory_runs_and_prints_retained_and_peak():
    done = subprocess.run([*GRAPH_MEMORY, "--top", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.startswith("retained ") and " peak " in line for line in lines) == 2, done.stdout
    # the tuples and fields of 50 records' scene graphs, one object per distinct value
    for what in ("tuples", "fields"):
        [stored] = [line for line in lines if line.startswith(f"stored scene-graph {what}: ")]
        references, objects, values = re.fullmatch(
            rf"stored scene-graph {what}: ([\d,]+) references, ([\d,]+) objects, ([\d,]+) distinct values", stored
        ).groups()
        assert int(references.replace(",", "")) > int(objects.replace(",", "")) == int(values.replace(",", ""))
    # the bytes the 50 graphs retain per edge
    [per_edge] = [line for line in lines if line.endswith(" bytes retained per edge")]
    edges, per_edge_bytes = re.fullmatch(r"([\d,]+) edges, ([\d,]+) bytes retained per edge", per_edge).groups()
    assert int(edges.replace(",", "")) > 50 and int(per_edge_bytes.replace(",", "")) > 0
    # the bytes a graph holds in each part, strings left out; every graph has an id
    [parts] = [line for line in lines if line.startswith("bytes held per graph: ")]
    sizes = re.fullmatch(
        r"bytes held per graph: node fields ([\d,]+), edge fields ([\d,]+), metadata ([\d,]+), graph object ([\d,]+)",
        parts,
    ).groups()
    assert all(int(size.replace(",", "")) > 0 for size in sizes), parts


def test_graph_memory_exits_quietly_when_its_reader_leaves_early():
    child = subprocess.Popen(GRAPH_MEMORY, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()  # before the first line is written
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert stderr == ""
