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
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .graph import MAX_EDGES, MAX_VERTICES, Graph
from .labeling import RunTrace, Strategy, run_classic, run_modified
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
    # One Weight per distinct value, as the parsers keep one per token.
    weight_of: dict[int, Weight] = {}
    adjacency = []
    for i in range(spec.n):
        out = []
        for j in range(spec.n):
            if i != j and rng.random() < spec.density:
                if rng.random() < spec.tie_bias:
                    w = spec.weight_lo
                else:
                    w = rng.randint(spec.weight_lo, spec.weight_hi)
                weight = weight_of.get(w)
                if weight is None:
                    weight = weight_of[w] = Weight.finite(w)
                out.append((j + 1, weight))
        adjacency.append(tuple(out))
    return Graph(spec.n, tuple(adjacency))


@dataclass(frozen=True)
class StrategyResult:
    strategy: Strategy
    final_distances: tuple[Weight, ...]
    rounds_count: int
    # A wall-clock reading, so two runs of the same comparison still compare
    # equal; report_to_json(include_timings=True) serializes it.
    elapsed_seconds: float = field(compare=False)
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


def run_strategy(
    g: Graph,
    source: int,
    strategy: Strategy,
    target: int | None = None,
    stop_at_target: bool = False,
) -> RunTrace:
    """One labeling run with ``strategy``, for :func:`compare` and the CLI.

    It looks ``run_classic`` and ``run_modified`` up in this module at call
    time and passes the strategy by keyword, so a caller that replaces them
    here (as the benchmark's tracer does) sees every run.
    """
    if strategy is Strategy.SINGLE_MIN:
        return run_classic(g, source, target, stop_at_target)
    return run_modified(g, source, target, stop_at_target, strategy=strategy)


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
        start = time.perf_counter()
        trace = run_strategy(g, source, strategy, target)
        elapsed = time.perf_counter() - start
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
) -> RunReport:
    """Generate, compare, and aggregate; deterministic given specs and seeds."""
    if graphs_per_spec < 0:
        raise ValueError("graphs_per_spec must be >= 0")
    records = []
    for spec_index, spec in enumerate(specs):
        for graph_index in range(graphs_per_spec):
            g = generate_graph(spec, graph_index)
            records.append(compare(g, source, spec_index=spec_index, graph_index=graph_index))
    records = tuple(records)
    aggregates, unsound = compute_aggregates(records)
    return RunReport(
        specs=tuple(specs),
        graphs_per_spec=graphs_per_spec,
        source=source,
        target=None,
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
    """The report as ``json.dumps(document, indent=2) + "\\n"``.

    The document has the keys written below, in that order: the config, with
    each spec as its fields; one object per record, with each strategy's
    result under its value; the aggregates per strategy; and the unsound
    count. Weights and fractions are exact strings. Wall-clock timings are
    omitted by default so that repeated runs with the same seeds serialize
    byte-identically.
    """
    specs = [
        "      "
        + _json_block(
            [f'        "{f.name}": {json.dumps(getattr(s, f.name))}' for f in fields(s)], 3, "{}"
        )
        for s in report.specs
    ]
    records = [_json_record(record, include_timings) for record in report.records]
    aggregates = [
        f'    "{strategy.value}": {{\n'
        f'      "mean_rounds": "{agg.mean_rounds}",\n'
        f'      "min_rounds": {agg.min_rounds},\n'
        f'      "max_rounds": {agg.max_rounds},\n'
        f'      "agreement_rate": "{agg.agreement_rate}"\n'
        "    }"
        for strategy, agg in report.aggregates.items()
    ]
    return (
        "{\n"
        '  "config": {\n'
        f'    "specs": {_json_block(specs, 2)},\n'
        f'    "graphs_per_spec": {report.graphs_per_spec},\n'
        f'    "source": {report.source},\n'
        f'    "target": {json.dumps(report.target)}\n'
        "  },\n"
        f'  "records": {_json_block(records, 1)},\n'
        f'  "aggregates": {_json_block(aggregates, 1, "{}")},\n'
        f'  "stable_batch_unsound_count": {report.stable_batch_unsound_count}\n'
        "}\n"
    )


def _json_record(record: ComparisonRecord, include_timings: bool) -> str:
    # One element of the document's "records" array, nested two levels deep.
    # No string in it needs escaping: str(Weight) and the strategy values are
    # ASCII digits, letters and "./-".
    results = [
        f'        "{result.strategy.value}": {{\n'
        f'          "distances": {_json_strings(result.final_distances, 5)},\n'
        f'          "rounds": {result.rounds_count},\n'
        f'          "rounds_incl_source": {result.rounds_count_incl_source},\n'
        f'          "agrees_oracle": {_bool_str(result.agrees_oracle)}'
        + (
            f',\n          "elapsed_seconds": {json.dumps(result.elapsed_seconds)}'
            if include_timings
            else ""
        )
        + "\n        }"
        for result in record.results
    ]
    return (
        "    {\n"
        f'      "spec_index": {json.dumps(record.spec_index)},\n'
        f'      "graph_index": {json.dumps(record.graph_index)},\n'
        f'      "source": {record.source},\n'
        f'      "target": {json.dumps(record.target)},\n'
        f'      "oracle_distances": {_json_strings(record.oracle_distances, 3)},\n'
        f'      "strategies": {_json_block(results, 3, "{}")},\n'
        f'      "stable_batch_unsound": {_bool_str(record.stable_batch_unsound)}\n'
        "    }"
    )


def _json_strings(weights: tuple[Weight, ...], depth: int) -> str:
    pad = "  " * (depth + 1)
    return _json_block([f'{pad}"{w}"' for w in weights], depth)


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array, or with ``brackets="{}"`` an object, in indent-2 layout,
    for a value nested ``depth`` levels deep. Each item is already encoded,
    with its key for an object, and indented to ``depth + 1``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + "\n" + "  " * depth + brackets[1]


def _index_str(value: int | None) -> str:
    return "" if value is None else str(value)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"
