"""Seeded random-graph generation and head-to-head strategy comparison.

Tie density is the controlled variable: batching only changes behavior when
temporary labels tie, so ``tie_bias`` sweeps from independent uniform weights
(0.0) to all-equal weights (1.0). Every run is checked against the
Bellman-Ford oracle, and STABLE_BATCH disagreements are flagged rather than
raised - unsoundness findings are data here.

Reports are fully deterministic given the specs and seeds: records are
ordered by (spec, index) and wall-clock timings are kept out of serialized
output unless explicitly requested.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .graph import MAX_EDGES, MAX_VERTICES, Graph
from .labeling import Strategy, run_classic, run_modified
from .oracle import bellman_ford
from .weights import Weight

STRATEGY_ORDER = (Strategy.SINGLE_MIN, Strategy.TIE_BATCH, Strategy.STABLE_BATCH)

CSV_HEADER = "spec_index,graph_index,strategy,rounds,rounds_incl_source,agrees_oracle,unsound"


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of one random-graph family."""

    n: int
    density: float
    weight_lo: int
    weight_hi: int
    tie_bias: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_VERTICES:
            raise ValueError(f"n must be <= {MAX_VERTICES}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.n * (self.n - 1) * self.density > MAX_EDGES:
            raise ValueError(f"n * (n - 1) * density must be <= {MAX_EDGES} expected edges")
        if self.weight_lo < 1:
            raise ValueError("weight_lo must be >= 1")
        if self.weight_hi < self.weight_lo:
            raise ValueError("weight_hi must be >= weight_lo")
        if not 0.0 <= self.tie_bias <= 1.0:
            raise ValueError("tie_bias must be in [0, 1]")


def _derived_seed(seed: int, index: int) -> int:
    # sha256 keeps the stream independent of Python's hash randomization and
    # identical across platforms.
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_graph(spec: GraphSpec, index: int) -> Graph:
    """Deterministic function of (spec, index); always a valid graph."""
    rng = random.Random(_derived_seed(spec.seed, index))
    adjacency = []
    for i in range(spec.n):
        out = []
        for j in range(spec.n):
            if i != j and rng.random() < spec.density:
                if rng.random() < spec.tie_bias:
                    w = spec.weight_lo
                else:
                    w = rng.randint(spec.weight_lo, spec.weight_hi)
                out.append((j + 1, Weight.finite(w)))
        adjacency.append(tuple(out))
    return Graph(spec.n, tuple(adjacency))


@dataclass(frozen=True)
class StrategyResult:
    strategy: Strategy
    final_distances: tuple[Weight, ...]
    rounds_count: int
    elapsed_seconds: float
    agrees_oracle: bool

    @property
    def rounds_count_incl_source(self) -> int:
        return self.rounds_count + 1


@dataclass(frozen=True)
class ComparisonRecord:
    """One graph, all three strategies, oracle-checked."""

    spec_index: int | None
    graph_index: int | None
    source: int
    target: int | None
    oracle_distances: tuple[Weight, ...]
    results: tuple[StrategyResult, ...]
    stable_batch_unsound: bool

    def result(self, strategy: Strategy) -> StrategyResult:
        for r in self.results:
            if r.strategy is strategy:
                return r
        raise KeyError(strategy)


def _timed_run(g: Graph, source: int, target: int | None, strategy: Strategy):
    start = time.perf_counter()
    if strategy is Strategy.SINGLE_MIN:
        trace = run_classic(g, source, target)
    else:
        trace = run_modified(g, source, target, strategy=strategy)
    return trace, time.perf_counter() - start


def compare(
    g: Graph,
    source: int,
    target: int | None = None,
    spec_index: int | None = None,
    graph_index: int | None = None,
) -> ComparisonRecord:
    """Run every strategy to full settlement and check each against the oracle."""
    oracle = bellman_ford(g, source)
    results = []
    for strategy in STRATEGY_ORDER:
        trace, elapsed = _timed_run(g, source, target, strategy)
        distances = trace.final_distances
        results.append(
            StrategyResult(
                strategy=strategy,
                final_distances=distances,
                rounds_count=trace.rounds_count,
                elapsed_seconds=elapsed,
                agrees_oracle=distances == oracle.distances,
            )
        )
    results = tuple(results)
    return ComparisonRecord(
        spec_index=spec_index,
        graph_index=graph_index,
        source=source,
        target=target,
        oracle_distances=oracle.distances,
        results=results,
        stable_batch_unsound=not results[-1].agrees_oracle,
    )


@dataclass(frozen=True)
class StrategyAggregate:
    mean_rounds: Fraction
    min_rounds: int
    max_rounds: int
    agreement_rate: Fraction


@dataclass(frozen=True)
class RunReport:
    specs: tuple[GraphSpec, ...]
    graphs_per_spec: int
    source: int
    target: int | None
    records: tuple[ComparisonRecord, ...]
    aggregates: dict[Strategy, StrategyAggregate]
    stable_batch_unsound_count: int


def compute_aggregates(
    records: tuple[ComparisonRecord, ...],
) -> tuple[dict[Strategy, StrategyAggregate], int]:
    """Aggregate per strategy; recomputable from records by construction."""
    if not records:
        return {}, 0
    aggregates = {}
    for strategy in STRATEGY_ORDER:
        rounds = [r.result(strategy).rounds_count for r in records]
        agreeing = sum(1 for r in records if r.result(strategy).agrees_oracle)
        aggregates[strategy] = StrategyAggregate(
            mean_rounds=Fraction(sum(rounds), len(rounds)),
            min_rounds=min(rounds),
            max_rounds=max(rounds),
            agreement_rate=Fraction(agreeing, len(records)),
        )
    unsound = sum(1 for r in records if r.stable_batch_unsound)
    return aggregates, unsound


def run_suite(
    specs: list[GraphSpec] | tuple[GraphSpec, ...],
    graphs_per_spec: int,
    source: int = 1,
    target: int | None = None,
) -> RunReport:
    """Generate, compare, and aggregate; deterministic given specs and seeds."""
    if graphs_per_spec < 0:
        raise ValueError("graphs_per_spec must be >= 0")
    records = []
    for spec_index, spec in enumerate(specs):
        for graph_index in range(graphs_per_spec):
            g = generate_graph(spec, graph_index)
            records.append(compare(g, source, target, spec_index, graph_index))
    records = tuple(records)
    aggregates, unsound = compute_aggregates(records)
    return RunReport(
        specs=tuple(specs),
        graphs_per_spec=graphs_per_spec,
        source=source,
        target=target,
        records=records,
        aggregates=aggregates,
        stable_batch_unsound_count=unsound,
    )


def report_to_csv(report: RunReport) -> str:
    """Flat tabular format, one row per (record, strategy).

    ``agrees_oracle`` is the strategy's exact distance agreement with the
    Bellman-Ford oracle; ``unsound`` is its negation (true only ever for
    stablebatch rows, where it equals the record's stable_batch_unsound flag).
    """
    lines = [CSV_HEADER]
    for record in report.records:
        for result in record.results:
            lines.append(
                ",".join(
                    [
                        _index_str(record.spec_index),
                        _index_str(record.graph_index),
                        result.strategy.value,
                        str(result.rounds_count),
                        str(result.rounds_count_incl_source),
                        _bool_str(result.agrees_oracle),
                        _bool_str(not result.agrees_oracle),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def report_to_json(report: RunReport, include_timings: bool = False) -> str:
    """Hierarchical format with full per-record content.

    Wall-clock timings are omitted by default so that repeated runs with the
    same seeds serialize byte-identically.
    """
    def result_dict(result: StrategyResult) -> dict:
        d = {
            "distances": [str(w) for w in result.final_distances],
            "rounds": result.rounds_count,
            "rounds_incl_source": result.rounds_count_incl_source,
            "agrees_oracle": result.agrees_oracle,
        }
        if include_timings:
            d["elapsed_seconds"] = result.elapsed_seconds
        return d

    payload = {
        "config": {
            "specs": [asdict(s) for s in report.specs],
            "graphs_per_spec": report.graphs_per_spec,
            "source": report.source,
            "target": report.target,
        },
        "records": [
            {
                "spec_index": r.spec_index,
                "graph_index": r.graph_index,
                "source": r.source,
                "target": r.target,
                "oracle_distances": [str(w) for w in r.oracle_distances],
                "strategies": {
                    res.strategy.value: result_dict(res) for res in r.results
                },
                "stable_batch_unsound": r.stable_batch_unsound,
            }
            for r in report.records
        ],
        "aggregates": {
            strategy.value: {
                "mean_rounds": str(agg.mean_rounds),
                "min_rounds": agg.min_rounds,
                "max_rounds": agg.max_rounds,
                "agreement_rate": str(agg.agreement_rate),
            }
            for strategy, agg in report.aggregates.items()
        },
        "stable_batch_unsound_count": report.stable_batch_unsound_count,
    }
    return json.dumps(payload, indent=2) + "\n"


def _index_str(value: int | None) -> str:
    return "" if value is None else str(value)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"
