from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pathlab
import pathlab.render
from pathlab import (
    INFINITY,
    Graph,
    GraphSpec,
    RunReport,
    Strategy,
    VertexOutOfRange,
    Weight,
    compare,
    compute_aggregates,
    generate_graph,
    parse_matrix_text,
    report_to_csv,
    report_to_json,
    run_suite,
)
from pathlab.bench import CSV_HEADER, _derived_seed
from pathlab.graph import MAX_EDGES, MAX_VERTICES

from .strategies import matrix_adjacency, reference_report_json, validate


def single_record_report(record) -> RunReport:
    aggregates, unsound = compute_aggregates((record,))
    return RunReport(
        specs=(),
        graphs_per_spec=0,
        source=record.source,
        target=record.target,
        records=(record,),
        aggregates=aggregates,
        stable_batch_unsound_count=unsound,
    )


def spec(**overrides) -> GraphSpec:
    base = dict(n=8, density=1.0, weight_lo=1, weight_hi=9, tie_bias=0.0, seed=42)
    base.update(overrides)
    return GraphSpec(**base)


class TestGraphSpec:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            spec(density=1.5)
        with pytest.raises(ValueError):
            spec(weight_lo=0)
        with pytest.raises(ValueError):
            spec(weight_hi=0)
        with pytest.raises(ValueError):
            spec(tie_bias=-0.1)
        with pytest.raises(ValueError):
            spec(n=0)
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            spec(n=MAX_VERTICES + 1, density=0.0)
        assert spec(n=MAX_VERTICES, density=0.1).n == MAX_VERTICES
        # the expected edge count n * (n - 1) * density has its own budget
        with pytest.raises(ValueError, match=str(MAX_EDGES)):
            spec(n=MAX_VERTICES, density=1.0)
        complete = max(n for n in range(1, MAX_VERTICES) if n * (n - 1) <= MAX_EDGES)
        assert spec(n=complete, density=1.0).n == complete
        with pytest.raises(ValueError, match=str(MAX_EDGES)):
            spec(n=complete + 1, density=1.0)


class TestGenerateGraph:
    def test_complete_digraph_passes_validation(self):
        g = generate_graph(spec(), 0)
        assert validate(g.weights) == []
        assert sum(1 for _ in g.edges()) == 8 * 7

    def test_full_tie_bias_forces_minimum_weight(self):
        g = generate_graph(spec(tie_bias=1.0), 3)
        assert all(w == Weight.finite(1) for _, _, w in g.edges())

    def test_equal_weights_are_one_object(self):
        # as in a parsed graph, so each distinct weight is scaled once
        g = generate_graph(spec(), 0)
        first: dict[Weight, Weight] = {}
        assert all(first.setdefault(w, w) is w for _, _, w in g.edges())
        assert len(first) < sum(1 for _ in g.edges())

    def test_deterministic(self):
        assert generate_graph(spec(), 5) == generate_graph(spec(), 5)

    def test_indices_differ(self):
        assert generate_graph(spec(), 0) != generate_graph(spec(), 1)

    def test_density_zero_is_edgeless(self):
        g = generate_graph(spec(density=0.0), 0)
        assert list(g.edges()) == []

    @pytest.mark.parametrize("density, tie_bias", [(0.3, 0.0), (0.7, 0.9), (1.0, 1.0)])
    def test_random_draws_are_those_of_the_matrix_generator(self, density, tie_bias):
        # the generator draws its random numbers cell by cell, row-major, and
        # none on the diagonal: the order of the matrix it used to build
        s = spec(n=7, density=density, tie_bias=tie_bias, seed=11)
        for index in range(5):
            rng = random.Random(_derived_seed(s.seed, index))
            rows = []
            for i in range(s.n):
                row = []
                for j in range(s.n):
                    if i == j:
                        row.append(Weight.zero())
                    elif rng.random() < s.density:
                        w = s.weight_lo if rng.random() < s.tie_bias else rng.randint(1, 9)
                        row.append(Weight.finite(w))
                    else:
                        row.append(INFINITY)
                rows.append(row)
            assert generate_graph(s, index) == Graph(s.n, matrix_adjacency(rows))

    def test_weights_stay_in_domain(self):
        g = generate_graph(spec(density=0.5, weight_lo=3, weight_hi=5, seed=9), 1)
        assert all(3 <= w.fraction <= 5 for _, _, w in g.edges())


class TestCompare:
    def test_eight_city(self, paper8):
        record = compare(paper8, 1, 8)
        assert record.result(Strategy.SINGLE_MIN).rounds_count_incl_source == 8
        assert record.result(Strategy.STABLE_BATCH).rounds_count == 5
        assert record.result(Strategy.SINGLE_MIN).agrees_oracle
        assert record.result(Strategy.TIE_BATCH).agrees_oracle
        assert not record.stable_batch_unsound
        assert record.oracle_distances == (0, 1, 2, 4, 3, 6, 10, 8)

    def test_counterexample_flags_unsound(self, counterexample4):
        record = compare(counterexample4, 1)
        assert record.stable_batch_unsound
        assert not record.result(Strategy.STABLE_BATCH).agrees_oracle
        assert record.result(Strategy.SINGLE_MIN).agrees_oracle
        assert record.result(Strategy.TIE_BATCH).agrees_oracle

    def test_equal_comparisons_compare_equal(self, paper8):
        # elapsed_seconds is a wall-clock reading and takes no part in equality
        first, second = compare(paper8, 1), compare(paper8, 1)
        assert first == second
        assert [r.elapsed_seconds for r in first.results] != [0.0] * 3

    def test_single_vertex(self):
        record = compare(parse_matrix_text("1\n0"), 1)
        for strategy in Strategy:
            assert record.result(strategy).rounds_count == 0
            assert record.result(strategy).agrees_oracle


class TestRunSuite:
    def test_empty_specs(self):
        report = run_suite([], 5)
        assert report.records == ()
        assert report.aggregates == {}
        assert report.stable_batch_unsound_count == 0

    def test_zero_graphs(self):
        report = run_suite([spec()], 0)
        assert report.records == ()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            run_suite([spec()], -1)

    def test_component_errors_propagate(self):
        with pytest.raises(VertexOutOfRange):
            run_suite([spec(n=3)], 1, source=4)

    def test_hundred_graph_sweep(self):
        report = run_suite([spec(density=0.5, tie_bias=0.9, seed=7)], 100)
        assert len(report.records) == 100
        single = report.aggregates[Strategy.SINGLE_MIN]
        tie = report.aggregates[Strategy.TIE_BATCH]
        assert single.agreement_rate == Fraction(1)
        assert tie.agreement_rate == Fraction(1)
        assert tie.mean_rounds <= single.mean_rounds

    def test_records_ordered_by_spec_then_index(self):
        report = run_suite([spec(seed=1), spec(seed=2)], 3)
        assert [(r.spec_index, r.graph_index) for r in report.records] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_aggregates_recompute_exactly(self):
        report = run_suite([spec(density=0.4, seed=11)], 20)
        aggregates, unsound = compute_aggregates(report.records)
        assert aggregates == report.aggregates
        assert unsound == report.stable_batch_unsound_count

    def test_serialization_is_byte_identical_across_runs(self):
        specs = [spec(density=0.6, tie_bias=0.5, seed=3)]
        first = run_suite(specs, 25)
        second = run_suite(specs, 25)
        assert first == second
        assert report_to_csv(first) == report_to_csv(second)
        assert report_to_json(first) == report_to_json(second)


class TestReportFormats:
    def test_csv_header_and_shape(self):
        report = run_suite([spec(seed=5)], 2)
        lines = report_to_csv(report).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == "singlemin"
        assert first[5] in ("true", "false")

    def test_csv_unsound_column_matches_record_flag(self, counterexample4):
        record = compare(counterexample4, 1, spec_index=0, graph_index=0)
        report = single_record_report(record)
        rows = [line.split(",") for line in report_to_csv(report).splitlines()[1:]]
        by_strategy = {row[2]: row for row in rows}
        assert by_strategy["stablebatch"][6] == "true"
        assert by_strategy["singlemin"][6] == "false"

    def test_json_excludes_timings_by_default(self):
        report = run_suite([spec(seed=8)], 1)
        assert "elapsed" not in report_to_json(report)
        assert "elapsed_seconds" in report_to_json(report, include_timings=True)

    def test_json_contains_exact_distances(self, paper8):
        record = compare(paper8, 1, spec_index=0, graph_index=0)
        text = report_to_json(single_record_report(record))
        assert '"0",' in text and '"10",' in text


# Suites whose reports pin report_to_json's bytes to the json.dumps reference:
# the empty cases, and spec fields whose JSON text depends on their type.
REPORT_SUITES = [
    pytest.param([], 3, id="empty_specs"),
    pytest.param([spec()], 0, id="zero_graphs"),
    pytest.param(
        [spec(density=0.1), spec(density=1 / 3, tie_bias=0.5), spec(density=1e-05, seed=7)],
        2,
        id="float_densities",
    ),
    pytest.param([spec(n=3, density=1, tie_bias=1)], 2, id="int_density_and_bias"),
]


class TestReportBytes:
    @pytest.mark.parametrize("specs, graphs", REPORT_SUITES)
    @pytest.mark.parametrize("include_timings", [False, True])
    def test_suite_reports_match_json_dumps(self, specs, graphs, include_timings):
        report = run_suite(specs, graphs)
        assert report_to_json(report, include_timings) == reference_report_json(
            report, include_timings
        )

    def test_single_record_with_target_and_no_indices(self, paper8):
        # what a compare of one graph gives: a target, and no spec or graph index
        report = single_record_report(compare(paper8, 1, target=8))
        for include_timings in (False, True):
            assert report_to_json(report, include_timings) == reference_report_json(
                report, include_timings
            )

    def test_infinite_distances_and_unsound_records(self, counterexample4):
        g = Graph.from_edges(3, [(1, 2, 4)])
        records = (compare(counterexample4, 1, None, 0, 0), compare(g, 1, None, 0, 1))
        aggregates, unsound = compute_aggregates(records)
        report = RunReport((spec(),), 2, 1, None, records, aggregates, unsound)
        assert '"INF"' in report_to_json(report)
        assert report_to_json(report) == reference_report_json(report)


def _perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_finds_every_name_it_calls():
    # perfbench/spans.py looks pathlab's functions up by name, and points
    # pathlab.bench's own references at wrappers; a renamed or deleted one
    # breaks the benchmark while every other test passes
    spans = _perfbench_spans()
    lib = spans.make_lib(pathlab)
    for name in spans.BENCH_INTERNALS:
        assert callable(getattr(pathlab.bench, name)), name
        assert callable(getattr(lib, name)), name


def test_benchmark_sees_every_run_inside_compare(paper8):
    # the traced benchmark replaces pathlab.bench's run and oracle functions
    # with wrappers; compare must call them through the module, at call time,
    # for each run to show up as a child of the bench.compare span
    spans = _perfbench_spans()
    tracer = spans.Tracer(pathlab)
    lib = spans.make_lib(pathlab, tracer.wrap)
    with tracer.span("op", op_id=0), spans.bench_calls_through(pathlab, lib):
        lib.compare(paper8, 1)
    names = [span[2] for span in tracer.spans]
    compare_id = names.index("bench.compare")
    children = {span[2] for span in tracer.spans if span[1] == compare_id}
    assert {
        "labeling.classic",
        "labeling.tiebatch",
        "labeling.stablebatch",
        "oracle.bellman_ford",
    } <= children
