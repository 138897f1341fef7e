"""The benchmark's three workloads: seeded inputs, one operation, its checks.

A workload is built from the imported ``pathlab`` package and a seed. Its
inputs are plain text or ``GraphSpec`` parameters made by this module's own
generators, so the program only ever receives the generated inputs.

``op(i, lib)`` performs operation ``i`` through ``lib``, a namespace of
pathlab's public functions (plain, or wrapped in spans by ``spans.py``),
checks every output and returns an :class:`OpResult`. A failed check raises
:class:`CheckFailed`; the caller counts it against ``fail_ratio``.

Operation ``i`` is a pure function of (seed, i) except on ``sweep_small``,
whose report batches span consecutive operations; ``reset()`` starts a new
stream at operation 0.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

STRATEGY_NAMES = ("classic", "tiebatch", "stablebatch")


class CheckFailed(Exception):
    """An output of the program disagreed with an oracle or a pinned digest."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def seeded_rng(seed: int, *parts) -> random.Random:
    """A random stream that depends only on the seed and the parts given."""
    key = ":".join(str(p) for p in (seed,) + parts).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def tied_weight_share(weights: list) -> float:
    """Share of edges whose weight equals the weight of another edge."""
    values = [Fraction(w) for w in weights]
    counts: dict[Fraction, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(1 for v in values if counts[v] > 1) / len(values) if values else 0.0


@dataclass
class OpResult:
    # (graph, source, classic trace or None): what the traced run replays
    # through the round API.
    classic: tuple
    # 1 when stablebatch disagreed with the oracle: a finding, not a failure.
    unsound: int


class Workload:
    name = ""
    why = ""
    operation = ""
    # Count metrics are per-operation means over operations 0..window-1, so
    # they repeat exactly at one seed however long the run is.
    window = 1

    def __init__(self, pathlab, seed: int, smoke: bool = False):
        self.pl = pathlab
        self.seed = seed
        self.smoke = smoke
        # sha256 the default seed's first output must have; None skips it.
        self.pinned_digest: str | None = None
        self.observed_digest: str | None = None

    def reset(self) -> None:
        """Start the operation stream again at operation 0."""

    def op(self, i: int, lib) -> OpResult:
        raise NotImplementedError

    def input_properties(self) -> dict:
        raise NotImplementedError

    def _check_digest(self, material: str) -> None:
        self.observed_digest = hashlib.sha256(material.encode()).hexdigest()
        if self.pinned_digest is not None:
            check(
                self.observed_digest == self.pinned_digest,
                f"{self.name}: output digest {self.observed_digest}"
                f" differs from the pinned {self.pinned_digest}",
            )

    def _check_distances(self, name: str, distances, oracle) -> None:
        check(
            tuple(distances) == tuple(oracle),
            f"{self.name}: {name} distances differ from bellman_ford",
        )


def sparse_edge_text(rng: random.Random, n: int, out_degree: int, decimal_share: float) -> str:
    """Edge list with exactly ``out_degree`` distinct out-edges per vertex.

    Weights are integers 1..9 (ties are common), except a ``decimal_share``
    of them which carry two decimal places.
    """
    lines = [f"{n} {n * out_degree}"]
    for u in range(1, n + 1):
        for t in rng.sample(range(1, n), out_degree):
            v = t if t < u else t + 1
            whole = rng.randint(1, 9)
            if rng.random() < decimal_share:
                lines.append(f"{u} {v} {whole}.{rng.randint(1, 99):02d}")
            else:
                lines.append(f"{u} {v} {whole}")
    return "\n".join(lines) + "\n"


def matrix_text(rng: random.Random, n: int, density: float, tie_bias: float) -> str:
    """Matrix text drawn like ``GraphSpec`` draws: weight 1 with probability
    ``tie_bias``, else uniform on 1..9."""
    lines = [str(n)]
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append("0")
            elif rng.random() < density:
                row.append("1" if rng.random() < tie_bias else str(rng.randint(1, 9)))
            else:
                row.append("INF")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


class SolveSparse(Workload):
    name = "solve_sparse"
    why = (
        "labeling dominates, then graph parsing: the sparse size at which"
        " the trace-as-deltas and fast-engine items act"
    )
    operation = (
        "parse_edge_list, the three strategies, a bellman_ford check,"
        " build_tree_matrix and extract_path to seeded targets, for one seeded"
        " source (what `pathlab compare` plus `pathlab path` do); no rendering"
    )
    window = 2

    def __init__(self, pathlab, seed, smoke=False):
        super().__init__(pathlab, seed, smoke)
        self.n = 60 if smoke else 500
        self.targets = 5 if smoke else 10
        if smoke:
            self.window = 1
        rng = seeded_rng(seed, self.name, "graph")
        self.text = sparse_edge_text(rng, self.n, out_degree=5, decimal_share=0.2)

    def op(self, i, lib):
        S = self.pl.Strategy
        rng = seeded_rng(self.seed, self.name, "op", i)
        source = rng.randint(1, self.n)
        targets = rng.sample(range(1, self.n + 1), self.targets)
        g = lib.parse_edge_list(self.text)
        classic = lib.run_classic(g, source)
        tiebatch = lib.run_modified(g, source, strategy=S.TIE_BATCH)
        stable = lib.run_modified(g, source, strategy=S.STABLE_BATCH)
        oracle = lib.bellman_ford(g, source).distances
        self._check_distances("classic", classic.final_distances, oracle)
        self._check_distances("tiebatch", tiebatch.final_distances, oracle)
        tree = lib.build_tree_matrix(g, classic)
        routes = [lib.extract_path(tree, t) for t in targets]
        for t, route in zip(targets, routes):
            check(
                route.total == oracle[t - 1],
                f"{self.name}: route to {t} totals {route.total}, distance is {oracle[t - 1]}",
            )
        if i == 0:
            self._check_digest("".join(f"route: {r}\n" for r in routes))
        return OpResult((g, source, classic), int(stable.final_distances != oracle))

    def input_properties(self):
        body = self.text.splitlines()[1:]
        return {
            "n": self.n,
            "m": len(body),
            "tied_weight_share": tied_weight_share([line.split()[2] for line in body]),
        }


class TraceRender(Workload):
    name = "trace_render"
    why = (
        "render dominates, in both directions of one format: shows whether a"
        " change that speeds up solve_sparse slows trace output"
    )
    operation = (
        "parse_matrix_text, then for each strategy the run, render_trace_text,"
        " trace_to_json and trace_from_json compared to the original (what"
        " `pathlab trace` in both formats does), with one bellman_ford check"
    )
    window = 4

    def __init__(self, pathlab, seed, smoke=False):
        super().__init__(pathlab, seed, smoke)
        self.n = 30 if smoke else 150
        pool = 2 if smoke else 8
        if smoke:
            self.window = 1
        self.texts = [
            matrix_text(seeded_rng(seed, self.name, "graph", k), self.n, 0.05, 0.9)
            for k in range(pool)
        ]

    def op(self, i, lib):
        S = self.pl.Strategy
        source = seeded_rng(self.seed, self.name, "op", i).randint(1, self.n)
        g = lib.parse_matrix_text(self.texts[i % len(self.texts)])
        oracle = lib.bellman_ford(g, source).distances
        traces = [
            lib.run_classic(g, source),
            lib.run_modified(g, source, strategy=S.TIE_BATCH),
            lib.run_modified(g, source, strategy=S.STABLE_BATCH),
        ]
        outputs = []
        for name, trace in zip(STRATEGY_NAMES, traces):
            text = lib.render_trace_text(trace)
            structured = lib.trace_to_json(trace)
            check(
                lib.trace_from_json(structured) == trace,
                f"{self.name}: {name} trace does not survive a JSON round trip",
            )
            outputs += [text, structured]
        self._check_distances("classic", traces[0].final_distances, oracle)
        self._check_distances("tiebatch", traces[1].final_distances, oracle)
        if i == 0:
            self._check_digest("".join(outputs))
        return OpResult((g, source, traces[0]), int(traces[2].final_distances != oracle))

    def input_properties(self):
        ms, shares = [], []
        for text in self.texts:
            tokens = text.split()[1:]
            weights = [t for k, t in enumerate(tokens) if t != "INF" and k % (self.n + 1) != 0]
            ms.append(len(weights))
            shares.append(tied_weight_share(weights))
        return {
            "n": self.n,
            "m": sum(ms) / len(ms),
            "tied_weight_share": sum(shares) / len(shares),
            "graphs": len(self.texts),
        }


class SweepSmall(Workload):
    name = "sweep_small"
    why = (
        "acceptance-style sweep of tiny graphs: per-call overhead and Weight"
        " arithmetic dominate, so per-run set-up costs show here"
    )
    operation = (
        "generate_graph for one spec and index, compare, then"
        " enumerate_min_path to every target; each spec's batch of records is"
        " serialized with report_to_json and report_to_csv by its last operation"
    )

    DENSITIES = (0.3, 0.7, 1.0)
    TIE_BIASES = (0.0, 0.9, 1.0)

    def __init__(self, pathlab, seed, smoke=False):
        super().__init__(pathlab, seed, smoke)
        self.ns = range(2, 5) if smoke else range(2, 11)
        self.per_spec = 2 if smoke else 12
        self.shapes = [(n, d, t) for d in self.DENSITIES for t in self.TIE_BIASES for n in self.ns]
        self.window = len(self.shapes) * self.per_spec
        self.batch: list = []

    def reset(self):
        self.batch = []

    def spec(self, sweep: int, spec_index: int):
        n, density, tie_bias = self.shapes[spec_index]
        spec_seed = seeded_rng(self.seed, self.name, "spec", sweep, spec_index).getrandbits(63)
        return self.pl.GraphSpec(n, density, 1, 9, tie_bias, spec_seed)

    def op(self, i, lib):
        S = self.pl.Strategy
        sweep, k = divmod(i, self.window)
        spec_index, graph_index = divmod(k, self.per_spec)
        if graph_index == 0:
            self.batch = []
        spec = self.spec(sweep, spec_index)
        g = lib.generate_graph(spec, graph_index)
        record = lib.compare(g, 1, None, spec_index, graph_index)
        oracle = record.oracle_distances
        self._check_distances("classic", record.result(S.SINGLE_MIN).final_distances, oracle)
        self._check_distances("tiebatch", record.result(S.TIE_BATCH).final_distances, oracle)
        for t in g.vertices():
            total, route = lib.enumerate_min_path(g, 1, t)
            check(total == oracle[t - 1], f"{self.name}: enumeration total to {t} differs from bellman_ford")
            check(
                route.total == oracle[t - 1] if route is not None else total.is_infinite,
                f"{self.name}: route to {t} does not total its distance",
            )
        self.batch.append(record)
        if graph_index == self.per_spec - 1:
            self._report(lib, spec, i == self.per_spec - 1)
        return OpResult((g, 1, None), int(record.stable_batch_unsound))

    def _report(self, lib, spec, first: bool) -> None:
        records = tuple(self.batch)
        aggregates, unsound = lib.compute_aggregates(records)
        report = self.pl.RunReport(
            specs=(spec,),
            graphs_per_spec=len(records),
            source=1,
            target=None,
            records=records,
            aggregates=aggregates,
            stable_batch_unsound_count=unsound,
        )
        structured = lib.report_to_json(report)
        table = lib.report_to_csv(report)
        check(
            table.count("\n") == 1 + len(STRATEGY_NAMES) * len(records),
            f"{self.name}: CSV report has the wrong number of rows",
        )
        if first:
            self._check_digest(structured + table)

    def input_properties(self):
        ms, shares = [], []
        for spec_index in range(len(self.shapes)):
            spec = self.spec(0, spec_index)
            for graph_index in range(self.per_spec):
                weights = [w.fraction for _, _, w in self.pl.generate_graph(spec, graph_index).edges()]
                ms.append(len(weights))
                shares.append(tied_weight_share(weights))
        return {
            "n": f"{self.ns[0]}..{self.ns[-1]}",
            "m": sum(ms) / len(ms),
            "tied_weight_share": sum(shares) / len(shares),
            "graphs": len(ms),
        }


WORKLOADS = {w.name: w for w in (SolveSparse, TraceRender, SweepSmall)}
