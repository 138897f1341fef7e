"""pathlab benchmark: one workload, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload solve_sparse --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): solve_sparse, trace_render, sweep_small. Each
is a closed loop: one caller, and the next operation starts when the
previous one has finished. Every operation checks its outputs against the
oracles; a failed check counts against ``fail_ratio`` and is reported on
stderr.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is the separate
traced run that reports the per-layer metrics. It runs the count window
(operations 0..window-1) with tracemalloc around the labeling runs (for
``labeling.peak_alloc_mb``), then runs each window operation untraced and
again with spans around every public call; it keeps running traced
operations until ``--seconds`` have passed. Window operations also replay ``run_classic`` through the round
API (``labeling.relax_s``, ``select_s``, ``record_s``). Spans and a summary
are written to ``perfbench/.out/``, replacing the workload's last ones.

``--smoke`` shrinks every workload so that a run takes about a second; the
benchmark's tests use it.

The program is imported from ``src/`` next to this directory, and nowhere
else: without it the benchmark exits with code 2 and prints no result. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import AllocPeaks, Tracer, bench_calls_through, make_lib
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed, OpResult

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
RECORD = HERE / "workloads.json"

SETUP_REPEATS = 5
# op_s_tail needs at least 20 operations, so a run never stops earlier.
MIN_OPS = 20
MiB = 2**20


class ProgramMissing(Exception):
    pass


def load_pathlab():
    """Import pathlab afresh from this checkout's src/, dropping any earlier import."""
    if not (SRC / "pathlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no pathlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pathlab" or m.startswith("pathlab.")]:
        del sys.modules[name]
    pathlab = importlib.import_module("pathlab")
    importlib.import_module("pathlab.render")
    if Path(pathlab.__file__).resolve().parent != SRC / "pathlab":
        raise ProgramMissing(f"pathlab imported from {pathlab.__file__}, not {SRC}")
    return pathlab


def set_up(name: str, seed: int, smoke: bool):
    """Import pathlab and build the workload's inputs, several times.

    Returns the last workload and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pathlab = load_pathlab()
        workload = WORKLOADS[name](pathlab, seed, smoke)
        times.append(time.perf_counter() - start)
    return pathlab, workload, statistics.median(times)


def pinned_digest(name: str) -> str:
    try:
        return json.loads(RECORD.read_text())["workloads"][name]["digest_sha256"]
    except (OSError, ValueError, KeyError) as exc:
        return f"(none pinned: {exc!r})"


class Tally:
    """Operations attempted and failed, and the seconds each passing one took."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []

    def attempt(self, workload, i: int, fn) -> OpResult | None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # every failure is counted and reported, then the loop goes on
            self.failed += 1
            print(f"FAILED {workload.name} op {i}: {exc!r}", file=sys.stderr)
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None
        self.samples.append(time.perf_counter() - start)
        return result


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = max(q for q in range(50, 100) if n * (100 - q) >= 1000)
    return p, sorted(samples)[(p * n + 99) // 100 - 1]


def measure_end_to_end(workload, lib, seconds: float, setup_s: float):
    tally = Tally()
    workload.reset()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        tally.attempt(workload, i, lambda: workload.op(i, lib))
        i += 1
    wall = time.perf_counter() - start
    passed = len(tally.samples)
    metrics = {
        "ops_per_s": (passed / wall, "1/s"),
        "op_s_p50": (statistics.median(tally.samples) if passed else float("nan"), "s"),
    }
    notes = {"op_s_p50": f"median of {passed}"}
    t = tail(tally.samples)
    if t is not None:
        metrics["op_s_tail"] = (t[1], "s")
        notes["op_s_tail"] = f"p{t[0]} of {passed}"
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["setup_s"] = (setup_s, "s")
    notes["setup_s"] = f"median of {SETUP_REPEATS}"
    return tally, metrics, notes


def replay_classic(pathlab, lib, result: OpResult) -> None:
    """Drive run_classic's loop through the public round API and compare."""
    g, source, trace = result.classic
    if trace is None:
        trace = pathlab.run_classic(g, source)
    labels = lib.init_labels(g, source)
    frontier = frozenset({source})
    # Kept, as run_classic keeps them, so that memory and garbage-collection
    # costs match.
    snapshots = []
    while not labels.all_permanent():
        labels, changed = lib.relax_step(g, labels, frontier)
        newly = lib.select_permanent(labels, pathlab.Strategy.SINGLE_MIN, changed)
        if not newly:
            break
        snapshots.append(lib.copy_labels(labels))
        frontier = newly
    if labels != trace.final_labels or len(snapshots) != trace.rounds_count:
        raise CheckFailed(
            f"round-API replay gave {len(snapshots)} rounds, run_classic {trace.rounds_count},"
            f" final labels equal: {labels == trace.final_labels}"
        )


def measure_layers(pathlab, workload, seconds: float, seed: int):
    tally = Tally()
    window = workload.window
    start = time.perf_counter()
    deadline = start + seconds

    # The tracemalloc pass goes first and also warms the process up.
    peaks = AllocPeaks()
    alloc_lib = make_lib(pathlab, peaks.wrap)
    workload.reset()
    with bench_calls_through(pathlab, alloc_lib):
        for i in range(window):
            tally.attempt(workload, i, lambda: workload.op(i, alloc_lib))

    # Window operations run twice, untraced then traced, back to back, so that
    # trace.overhead_ratio compares the same work under the same machine load.
    # The untraced copy has a workload of its own, for its own stream state.
    plain = make_lib(pathlab)
    untraced = type(workload)(pathlab, workload.seed, workload.smoke)
    untraced.pinned_digest = workload.pinned_digest
    tracer = Tracer(pathlab)
    traced = make_lib(pathlab, tracer.wrap)
    workload.reset()

    def traced_op(i):
        with tracer.span("op", op_id=i), bench_calls_through(pathlab, traced):
            result = workload.op(i, traced)
        tracer.counts[i]["bench.stablebatch_unsound"] += result.unsound
        if i < window:
            with tracer.span("split", op_id=i):
                replay_classic(pathlab, traced, result)
        return result

    untraced_s = 0.0
    i = 0
    while i < window or time.perf_counter() < deadline:
        if i < window:
            op_start = time.perf_counter()
            tally.attempt(untraced, i, lambda: untraced.op(i, plain))
            untraced_s += time.perf_counter() - op_start
        tally.attempt(workload, i, lambda: traced_op(i))
        i += 1

    s = tracer.summarize(window)
    ops, busy = s["ops"], s["busy"]
    counts = Counter()
    window_counts = Counter()
    for op, c in tracer.counts.items():
        counts.update(c)
        if op < window:
            window_counts.update(c)

    def per_op(*names):
        return sum(busy.get(n, 0.0) for n in names) / ops

    def mean(key):
        return window_counts[key] / window

    def rate(amount, seconds_):
        return amount / seconds_ if seconds_ else 0.0

    labeling = ("labeling.classic", "labeling.tiebatch", "labeling.stablebatch")
    metrics = {
        "graph.parse_s": (per_op("graph.parse"), "s"),
        "graph.parse_mb_per_s": (rate(counts["graph.parse_bytes"], busy["graph.parse"]) / 1e6, "MB/s"),
        "labeling.classic_s": (per_op("labeling.classic"), "s"),
        "labeling.tiebatch_s": (per_op("labeling.tiebatch"), "s"),
        "labeling.stablebatch_s": (per_op("labeling.stablebatch"), "s"),
        "labeling.rounds.classic": (mean("labeling.rounds.classic"), "count"),
        "labeling.rounds.tiebatch": (mean("labeling.rounds.tiebatch"), "count"),
        "labeling.rounds.stablebatch": (mean("labeling.rounds.stablebatch"), "count"),
        "labeling.frontier_edges": (mean("labeling.frontier_edges"), "count"),
        "labeling.edges_per_s": (
            rate(window_counts["labeling.frontier_edges"], sum(s["busy_window"][n] for n in labeling)),
            "edges/s",
        ),
        "labeling.snapshot_cells": (mean("labeling.snapshot_cells"), "count"),
        "labeling.peak_alloc_mb": (max(peaks.peaks, default=0) / MiB, "MiB"),
        "labeling.relax_s": (rate(s["split"]["labeling.relax"], s["splits"]), "s"),
        "labeling.select_s": (rate(s["split"]["labeling.select"], s["splits"]), "s"),
        "labeling.record_s": (rate(s["split"]["labeling.record"], s["splits"]), "s"),
        "oracle.bellman_ford_s": (per_op("oracle.bellman_ford"), "s"),
        "oracle.enumeration_s": (per_op("oracle.enumeration"), "s"),
        "oracle.enumeration_calls": (mean("oracle.enumeration_calls"), "count"),
        "tree.build_s": (per_op("tree.build"), "s"),
        "tree.extract_s": (per_op("tree.extract"), "s"),
        "render.text_s": (per_op("render.text"), "s"),
        "render.json_s": (per_op("render.json"), "s"),
        "render.from_json_s": (per_op("render.from_json"), "s"),
        "render.bytes_out": (mean("render.bytes_out"), "B"),
        "render.mb_per_s": (
            rate(counts["render.bytes_out"], busy["render.text"] + busy["render.json"]) / 1e6,
            "MB/s",
        ),
        "bench.generate_s": (per_op("bench.generate"), "s"),
        "bench.compare_s": (per_op("bench.compare"), "s"),
        "bench.report_s": (per_op("bench.report"), "s"),
        "bench.stablebatch_unsound": (mean("bench.stablebatch_unsound"), "count"),
        "trace.overhead_ratio": (rate(untraced_s, s["op_wall_window"]), "ratio"),
        "harness.self_s": (s["self_by_layer"]["harness"] / ops, "s"),
    }

    accounted = sum(s["self_by_layer"].values())
    shares = {layer: t / s["op_wall"] for layer, t in sorted(s["self_by_layer"].items())}
    print(f"traced operations: {ops} (window {window}); round-API replays: {s['splits']}")
    print(f"self time by layer, per operation (sums to {accounted / ops:.6f} s of {s['op_wall'] / ops:.6f} s wall):")
    for layer, t in sorted(s["self_by_layer"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {t / ops:12.6f} s  {shares[layer]:7.2%}")

    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans_{workload.name}.jsonl.gz", "wt", compresslevel=1) as f:
        f.write(json.dumps({"seed": seed, "fields": Tracer.FIELDS}) + "\n")
        tracer.write_jsonl(f)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "window": window,
        "traced_ops": ops,
        "layer_share": shares,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / f"summary_{workload.name}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return tally, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    try:
        pathlab, workload, setup_s = set_up(args.workload, args.seed, args.smoke)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed == DEFAULT_SEED and not args.smoke:
        workload.pinned_digest = pinned_digest(workload.name)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    if args.trace:
        tally, metrics, notes = measure_layers(pathlab, workload, args.seconds, args.seed)
    else:
        tally, metrics, notes = measure_end_to_end(workload, make_lib(pathlab), args.seconds, setup_s)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<28} {value:.6g} {unit}{note}")
    print(f"fail_ratio: {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} failed)")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
