"""Smoke check of the benchmark at tiny sizes.

Every workload, untraced and traced, must emit exactly the metrics that
BENCHMARK.json names, with their units, and no operation may fail. With a
library function swapped for a subtly wrong one, the checks must fail.
Without the program's sources next to it, the benchmark must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
META = json.loads((ROOT / "bench" / "meta.json").read_text(encoding="utf-8"))


# Runs the benchmark with one function that the workloads call replaced by
# a faulty version: argv[1] names the fault, the rest are run.py's arguments.
FAULTY_RUN = """
import dataclasses, math, sys
sys.path.insert(0, "bench")
import run
run.import_amrsg()
import workloads

exact_f_score, exact_rank = workloads.f_score, workloads.rank

def f1_one_ulp_high(*args, **kwargs):
    report = exact_f_score(*args, **kwargs)
    return dataclasses.replace(report, f1=math.nextafter(report.f1, 2.0))

def ties_by_descending_id(query, index, gold, query_id=""):
    result = exact_rank(query, index, gold, query_id)
    ranking = sorted(result.ranking, key=lambda item: item[0], reverse=True)
    ranking.sort(key=lambda item: -item[1])
    gold_rank = next(i + 1 for i, (image_id, _) in enumerate(ranking) if image_id == gold)
    return dataclasses.replace(result, ranking=tuple(ranking), gold_rank=gold_rank)

if sys.argv[1] == "f1_one_ulp_high":
    workloads.f_score = f1_one_ulp_high
else:
    workloads.rank = ties_by_descending_id
sys.exit(run.main(sys.argv[2:]))
"""


def bench_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *bench_args(workload, trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload,fault", [("corpus_pipeline", "f1_one_ulp_high"), ("retrieval", "ties_by_descending_id")]
)
def test_a_wrong_result_fails_its_check(workload, fault):
    proc = subprocess.run(
        [sys.executable, "-c", FAULTY_RUN, fault, *bench_args(workload, 0)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] > 0 and result["correct"] is False


def test_every_per_layer_metric_names_its_target():
    assert sorted(META["per_layer_targets"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "corpus_pipeline", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
