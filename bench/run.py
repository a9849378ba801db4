"""amrsg benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus_pipeline --seed 1 --seconds 20 --trace 0

Workloads are ``corpus_pipeline``, ``retrieval`` and ``adapter_convert`` (see
README.md in this directory). The program is imported from ``src/`` of the
same checkout; nothing is installed. With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it records spans and reports the
per-layer metrics instead. The metric names and units are those of
BENCHMARK.json. The last line of stdout is the JSON result; the lines before
it repeat the metrics for people. Inputs live in a temporary directory under
``.bench_out/``; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# How each workload names its operation, so that the generic end-to-end
# metrics can be read as the pipeline-specific quantities they measure.
OP_NAMES = {
    "corpus_pipeline": "graphs",
    "retrieval": "queries",
    "adapter_convert": "requests",
}


class Phase:
    """Timings and check results of one stretch of operations.

    ``best[k]`` is the fastest time of input k over its repetitions; the
    latency quantiles come from these. ``passes`` holds every complete pass
    as the times of its operations, in input order, and of its end-of-pass
    call.
    """

    def __init__(self):
        self.best: dict[int, float] = {}
        self.passes: list[tuple[list[float], float]] = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0

    def pass_seconds(self) -> float:
        """The median complete pass's time, at the machine's fast speed.

        The 2-vCPU virtual machine this benchmark was built on runs the same
        loop at speeds up to 1.8 times apart, changing within a second, so
        raw pass times follow the machine more than the program. Each pass's
        time is divided by its slowdown: the median, over its operations, of
        each operation's time over that input's fastest time. A change of
        machine speed scales most of a pass's operations alike and cancels.
        A cost that hits only some operations, such as a garbage collection
        or a queue stall, moves the median little and stays in the time.
        """
        normalized = []
        for times, end in self.passes:
            slowdown = statistics.median(t / self.best[k] for k, t in enumerate(times))
            normalized.append((sum(times) + end) / slowdown)
        return statistics.median(normalized)


def run_phase(wl, tracer, start: int, seconds: float | None = None, ops: int | None = None,
              between_passes=None) -> Phase:
    """Run operations start, start+1, ... until ``seconds`` of wall time pass
    or ``ops`` operations are done. Each operation and each end of pass is
    timed on its own; its check runs outside the timed interval.
    ``between_passes``, if given, is called after each end of pass."""
    phase = Phase()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    pass_times: list[float] = []
    i = start
    while (ops is None or phase.ops < ops) and (deadline is None or time.perf_counter() < deadline):
        k = i % wl.size
        tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = wl.op(k)
        except Exception as err:  # an unexpected failure is a result to check
            out = err
        busy = time.perf_counter() - t0
        phase.best[k] = min(busy, phase.best.get(k, busy))
        pass_times.append(busy)
        phase.attempted += 1
        tracing, tracer.enabled = tracer.enabled, False  # checks record no spans
        phase.failed += not wl.check(k, out)
        tracer.enabled = tracing
        i += 1
        phase.ops += 1
        if k == wl.size - 1:
            busy = end_pass(wl, phase)
            if len(pass_times) == wl.size:
                phase.passes.append((pass_times, busy))
            pass_times = []
            if between_passes is not None:
                between_passes()
    # the phase boundary ends the pass, so every phase starts with a fresh one
    if i % wl.size:
        end_pass(wl, phase)
    return phase


def end_pass(wl, phase: Phase) -> float:
    t0 = time.perf_counter()
    try:
        out = wl.end_pass()
    except Exception as err:
        out = err
    busy = time.perf_counter() - t0
    phase.attempted += 1
    phase.failed += isinstance(out, Exception) or not wl.check_pass(out)
    return busy


class Setups:
    """Timed set-ups, spread over the timed phase.

    The first set-up runs before any operation. The others replace it at
    pass boundaries, one per ``seconds / count`` of the timed phase, so that
    the set-up times sample the whole run rather than one instant of it.
    """

    def __init__(self, wl, count: int, seconds: float):
        self.wl = wl
        self.count = count
        self.interval = seconds / count
        self.times: list[float] = []
        self.failed = 0
        self.next_at = float("inf")

    def run(self) -> None:
        if self.times:
            self.wl.teardown()
        gc.collect()  # start each set-up from the same heap state
        t0 = time.perf_counter()
        self.wl.setup()
        self.times.append(time.perf_counter() - t0)
        self.failed += not self.wl.check_setup()

    def start_clock(self) -> None:
        self.next_at = time.perf_counter() + self.interval

    def between_passes(self) -> None:
        if len(self.times) < self.count and time.perf_counter() >= self.next_at:
            self.run()
            self.next_at += self.interval


def memory_pass(wl, tracer) -> tuple[float, Phase]:
    """Peak bytes that Python allocates during one set-up and one pass of
    operations, counted by tracemalloc. Memory held before it starts (the
    inputs, the oracles, the interpreter) is not counted. Slow, so it runs
    apart from the timed phases."""
    wl.teardown()
    gc.collect()
    tracemalloc.start()
    try:
        wl.setup()
        setup_ok = wl.check_setup()
        phase = run_phase(wl, tracer, 0, ops=wl.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    phase.attempted += 1
    phase.failed += not setup_ok
    return peak, phase


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, seconds: float, setups: int, tracer) -> tuple[dict, int, int]:
    setup = Setups(wl, setups, seconds)
    setup.run()
    warm = run_phase(wl, tracer, 0, ops=wl.warmup)
    setup.start_clock()
    timed = run_phase(wl, tracer, wl.warmup, seconds=seconds, between_passes=setup.between_passes)
    if not timed.passes:
        raise SystemExit("error: the timed phase completed no pass; give it more --seconds")
    peak, mem = memory_pass(wl, tracer)
    best = list(timed.best.values())
    metrics = {
        "setup_s": min(setup.times),
        "throughput_per_s": wl.size / timed.pass_seconds(),
        "latency_ms_p50": statistics.median(best) * 1e3,
        "latency_ms_p95": quantile(best, 95) * 1e3,
        "peak_alloc_mb": peak / 2**20,
    }
    phases = (warm, timed, mem)
    attempted = len(setup.times) + sum(p.attempted for p in phases)
    failed = setup.failed + sum(p.failed for p in phases)
    return metrics, attempted, failed


def per_layer(wl, seconds: float, trace_path: Path) -> tuple[dict, int, int]:
    """One traced set-up, then untraced and traced phases over the same
    operations; per-layer metrics come from the traced phase, and the time
    ratio of the two phases is the tracing overhead."""
    setup_tracer = Tracer()
    wl.tracer = setup_tracer
    setup_tracer.enabled = True
    with setup_tracer.wrap_internal_calls():
        setup = Setups(wl, 1, seconds)
        setup.run()
    setup_tracer.enabled = False

    quiet = Tracer()
    wl.tracer = quiet
    warm = run_phase(wl, quiet, 0, ops=wl.warmup)
    plain = run_phase(wl, quiet, wl.warmup, seconds=seconds / 2)

    tracer = Tracer()
    wl.tracer = tracer
    tracer.enabled = True
    with tracer.wrap_internal_calls():
        traced = run_phase(wl, tracer, wl.warmup, ops=plain.ops)
    tracer.enabled = False
    wl.tracer = quiet

    setup_tracer.write(trace_path.with_suffix(".setup.tsv"))
    tracer.write(trace_path.with_suffix(".run.tsv"))

    metrics = layer_metrics(wl, setup_tracer, tracer, traced.ops)
    # both phases ran the same inputs equally often: compare their fastest times
    metrics["trace.overhead_ratio"] = sum(traced.best.values()) / sum(plain.best.values())
    attempted = 1 + warm.attempted + plain.attempted + traced.attempted
    failed = setup.failed + warm.failed + plain.failed + traced.failed
    return metrics, attempted, failed


def layer_metrics(wl, setup, run, ops: int) -> dict:
    """Per-layer metrics. Per-call times are inclusive span durations; the
    ``<layer>.self_us_per_op`` metrics are each layer's self time. A layer
    the workload does not exercise reads 0."""

    def us(name: str) -> float:
        # calls made during the timed operations, else during set-up
        tracer = run if run.calls.get(name) else setup
        return tracer.mean_s(name) * 1e6

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def per_call(count_name: str, call_name: str) -> float:
        calls = run.calls.get(call_name, 0)
        return run.counts.get(count_name, 0) / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    samples = run.samples
    layer_self = run.layer_self_s()
    metrics = {
        "amr.parse_penman.us": us("amr.parse_penman"),
        "amr.serialize_penman.us": us("amr.serialize_penman"),
        "amr.nodes_per_graph": 0,
        "amr.edges_per_graph": 0,
        "amr.rejected": 0,
        "linearize.dfs.us": us("linearize.dfs"),
        "linearize.bfs.us": us("linearize.bfs"),
        "linearize.inorder.us": us("linearize.inorder"),
        "linearize.tokenize.us": us("linearize.tokenize"),
        "linearize.tokens_per_graph": per_call("linearize.tokens", "linearize.dfs"),
        "convert.rules.us": us("convert.rules"),
        "convert.rules.tuples_per_graph": per_call("convert.rules.tuples", "convert.rules"),
        "convert.external.us.p50": statistics.median(samples) * 1e6 if samples else 0.0,
        "convert.external.us.p99": quantile(samples, 99) * 1e6 if len(samples) > 1 else 0.0,
        "convert.external.timeouts": 0,
        "convert.external.crashes": 0,
        "convert.external.malformed": 0,
        "scenegraph.serialize_sg.us": us("scenegraph.serialize_sg"),
        "scenegraph.parse_sg_text.us": us("scenegraph.parse_sg_text"),
        "scenegraph.sg_from_json.us": us("scenegraph.sg_from_json"),
        "evaluate.f_score.us": us("evaluate.f_score"),
        "evaluate.f_score.calls_per_op": per_op(run.calls.get("evaluate.f_score", 0)),
        "evaluate.pairs_compared_per_op": per_op(run.counts.get("evaluate.pairs_compared", 0)),
        "evaluate.match_yield": ratio(
            run.counts.get("evaluate.tuples_matched", 0), run.counts.get("evaluate.pairs_compared", 0)
        ),
        "evaluate.evaluate_corpus.ms": us("evaluate.evaluate_corpus") / 1e3,
        "retrieval.rank.ms": us("retrieval.rank") / 1e3,
        "retrieval.regions_scored_per_query": ratio(
            run.calls.get("evaluate.f_score", 0), run.calls.get("retrieval.rank", 0)
        ),
        "retrieval.region_hit_ratio": ratio(
            run.counts.get("retrieval.region_hits", 0), run.counts.get("retrieval.regions_in_index", 0)
        ),
        "retrieval.load_index.s": us("retrieval.load_index") / 1e6,
        "retrieval.index_build.s": us("retrieval.index_build") / 1e6,
        "retrieval.aggregate_metrics.ms": us("retrieval.aggregate_metrics") / 1e3,
        "corpus.load_records.s": us("corpus.load_records") / 1e6,
        "corpus.filter_ungrounded.us": us("corpus.filter_ungrounded"),
        "corpus.records_skipped": 0,
    }
    for layer in ("amr", "linearize", "convert", "scenegraph", "evaluate", "retrieval", "corpus"):
        metrics[f"{layer}.self_us_per_op"] = per_op(layer_self.get(layer, 0.0)) * 1e6
    metrics.update(wl.run_counts())
    return metrics


def parse_args(argv):
    from workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full", help="input sizes; tiny is for the smoke test")
    return parser.parse_args(argv)


def import_amrsg() -> None:
    """Put this checkout's src/ first on the path and make sure that is the
    amrsg that gets imported."""
    if not (SRC / "amrsg" / "__init__.py").is_file():
        raise SystemExit(f"error: no amrsg sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import amrsg

    if Path(amrsg.__file__).resolve().parent != (SRC / "amrsg").resolve():
        raise SystemExit(f"error: imported amrsg from {amrsg.__file__}, not from {SRC}")


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the adapter child on one CPU.

    The workloads are closed loops, so a second CPU adds no parallelism. On
    the 2-vCPU virtual machine this benchmark was built on, waking the
    adapter child on the other vCPU cost more than the adapter's own work
    and varied from run to run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    import_amrsg()
    args = parse_args(argv)
    pin_to_one_cpu()
    from workloads import SCALES, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    scale = SCALES[args.scale]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        tracer = Tracer()
        wl = WORKLOADS[args.workload](args.seed, scale, Path(workdir), tracer)
        try:
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-seed{args.seed}"
                metrics, attempted, failed = per_layer(wl, args.seconds, trace_path)
            else:
                metrics, attempted, failed = end_to_end(wl, args.seconds, scale["setups"], tracer)
        finally:
            wl.teardown()

    op = OP_NAMES[args.workload]
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
    print(f"operation: one of {op}; failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for m in wanted:
        print(f"  {m['name']:36s} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
