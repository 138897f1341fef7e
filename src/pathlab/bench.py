"""Seeded random-graph generation and head-to-head strategy comparison.

Tie density is the controlled variable: batching only changes behavior when
temporary labels tie, so ``tie_bias`` sweeps from independent uniform weights
(0.0) to all-equal weights (1.0). Every run is checked against the
Bellman-Ford oracle, and STABLE_BATCH disagreements are flagged rather than
raised - unsoundness findings are data here.

Reports are exact data: records are ordered by (spec, index) and hold no
timings, so equal specs and seeds give equal reports. :mod:`pathlab.render`
writes a report as CSV or JSON.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import MAX_EDGES, MAX_VERTICES, Graph
from .labeling import RunTrace, Strategy, run_classic, run_modified
from .oracle import bellman_ford
from .weights import Weight

STRATEGY_ORDER = (Strategy.SINGLE_MIN, Strategy.TIE_BATCH, Strategy.STABLE_BATCH)


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
        if not type(self.n) is type(self.weight_lo) is type(self.weight_hi) is int:
            raise ValueError("n, weight_lo and weight_hi must be ints")
        if {type(self.density), type(self.tie_bias)} - {int, float} or type(self.seed) is not int:
            raise ValueError("density and tie_bias must be ints or floats, and seed an int")
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


def _check_spec(spec: GraphSpec) -> None:
    if not isinstance(spec, GraphSpec):
        raise ValueError(f"spec must be a GraphSpec, got {spec!r}")


def generate_graph(spec: GraphSpec, index: int) -> Graph:
    """Deterministic function of (spec, index); always a valid graph."""
    _check_spec(spec)
    if type(index) is not int:
        raise ValueError(f"index must be an int, got {index!r}")
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

    @property
    def stable_batch_unsound(self) -> bool:
        return not self.result(Strategy.STABLE_BATCH).agrees_oracle

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
        trace = run_strategy(g, source, strategy, target)
        distances = trace.final_distances
        results.append(
            StrategyResult(
                strategy=strategy,
                final_distances=distances,
                rounds_count=trace.rounds_count,
                agrees_oracle=distances == oracle.distances,
            )
        )
    return ComparisonRecord(
        spec_index=spec_index,
        graph_index=graph_index,
        source=source,
        target=target,
        oracle_distances=oracle.distances,
        results=tuple(results),
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
    if not isinstance(specs, (list, tuple)):
        raise ValueError(f"specs must be a list or tuple of GraphSpec, got {specs!r}")
    for spec in specs:
        _check_spec(spec)
    if type(graphs_per_spec) is not int:
        raise ValueError(f"graphs_per_spec must be an int, got {graphs_per_spec!r}")
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
