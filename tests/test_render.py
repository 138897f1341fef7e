from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import (
    Graph,
    LabelState,
    MalformedInput,
    RunTrace,
    Strategy,
    Weight,
    compare,
    run_classic,
    run_modified,
)
from pathlab.render import (
    mean_str,
    render_comparison_text,
    render_trace_text,
    render_tree_matrix,
    trace_from_json,
    trace_to_json,
    two_decimals,
)
from pathlab.tree import build_tree_matrix, extract_path

from .strategies import exact_weights, graphs

GOLDEN_FINAL_TABLE = [
    "   1 | [0.00, -] | permanent",
    "   2 | [1.00, 1] | permanent",
    "   3 | [2.00, 2] | permanent",
    "   4 | [4.00, 3] | permanent",
    "   5 | [3.00, 2] | permanent",
    "   6 | [6.00, 3] | permanent",
    "   7 | [10.00, 5] | permanent",
    "   8 | [8.00, 6] | permanent",
]


def test_two_decimal_labels():
    assert two_decimals(Weight.finite(4)) == "4.00"
    assert two_decimals(Weight.finite("2.5")) == "2.50"
    assert two_decimals(Weight.finite(10)) == "10.00"


def test_trace_text_final_block_matches_golden_rows(paper8_tora):
    text = render_trace_text(run_classic(paper8_tora, 1))
    blocks = text.strip().split("\n\n")
    final_rows = blocks[-2].splitlines()[2:]
    assert final_rows == GOLDEN_FINAL_TABLE
    assert blocks[-1] == "rounds: 7 (including source initialization: 8)"


def test_trace_text_first_round_shows_unlabeled_vertices_blank(paper8_tora):
    text = render_trace_text(run_classic(paper8_tora, 1))
    first_block = text.split("\n\n")[0].splitlines()
    assert first_block[0] == "Round 1  frontier={1}  newly permanent={2}"
    assert "   3 | [3.00, 1] | temporary" in first_block
    assert "   4 |" in first_block
    assert not any(row.startswith("   4 | [") for row in first_block)


def test_trace_text_has_one_block_per_round(paper8):
    trace = run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)
    text = render_trace_text(trace)
    assert text.count("Round ") == 5


def test_structured_trace_round_trips_every_field(paper8):
    trace = run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)
    recovered = trace_from_json(trace_to_json(trace))
    assert recovered.algorithm == trace.algorithm
    assert recovered.strategy == trace.strategy
    assert recovered.source == trace.source
    assert recovered.target == trace.target
    assert recovered.final_distances == trace.final_distances
    assert recovered.rounds_count == trace.rounds_count
    assert recovered.rounds_count_incl_source == trace.rounds_count_incl_source
    assert recovered.terminated_early == trace.terminated_early
    assert recovered.final_labels == trace.final_labels
    assert len(recovered.rounds) == len(trace.rounds)
    for got, expected in zip(recovered.rounds, trace.rounds):
        assert got.round_index == expected.round_index
        assert got.frontier == expected.frontier
        assert got.newly_permanent == expected.newly_permanent
        assert got.label_snapshot == expected.label_snapshot


def test_tree_matrix_rendering(paper8_tora):
    tree = build_tree_matrix(paper8_tora, run_classic(paper8_tora, 1))
    lines = render_tree_matrix(tree).splitlines()
    assert lines[0] == "8"
    assert lines[1] == "0 1 0 0 0 0 0 0"
    assert lines[2] == "0 0 1 0 2 0 0 0"
    assert lines[3] == "0 0 0 2 0 4 0 0"
    assert lines[6] == "0 0 0 0 0 0 0 2"


def test_route_rendering(paper8_tora):
    tree = build_tree_matrix(paper8_tora, run_classic(paper8_tora, 1))
    assert str(extract_path(tree, 8)) == "1-2-3-6-8 (8)"


def test_comparison_rendering(counterexample4):
    text = render_comparison_text(compare(counterexample4, 1))
    assert "stable_batch_unsound: true" in text
    assert "oracle (bellman-ford): 0 1 3 2" in text
    assert "singlemin" in text and "tiebatch" in text and "stablebatch" in text


def test_mean_str_is_fixed_width_decimal():
    assert mean_str(Fraction(13, 4)) == "3.250000"
    assert mean_str(Fraction(1)) == "1.000000"
    assert mean_str(Fraction(997, 10)) == "99.700000"


# Reference serializers: the straightforward per-cell definitions the memoized
# ones in pathlab.render must match byte for byte.


def _reference_labels_to_list(labels: LabelState) -> list[dict]:
    return [
        {
            "vertex": v,
            "value": str(labels.value(v)),
            "predecessors": sorted(labels.predecessors(v)),
            "status": labels.status(v).value,
            "settled_round": labels.settled_round(v),
        }
        for v in labels.vertices()
    ]


def reference_trace_to_dict(trace: RunTrace) -> dict:
    return {
        "algorithm": trace.algorithm,
        "strategy": trace.strategy.value,
        "source": trace.source,
        "target": trace.target,
        "rounds": [
            {
                "round_index": record.round_index,
                "frontier": sorted(record.frontier),
                "newly_permanent": sorted(record.newly_permanent),
                "labels": _reference_labels_to_list(record.label_snapshot),
            }
            for record in trace.rounds
        ],
        "final_labels": _reference_labels_to_list(trace.final_labels),
        "final_distances": [str(w) for w in trace.final_distances],
        "rounds_count": trace.rounds_count,
        "rounds_count_incl_source": trace.rounds_count_incl_source,
        "terminated_early": trace.terminated_early,
    }


def reference_trace_json(trace: RunTrace) -> str:
    return json.dumps(reference_trace_to_dict(trace), indent=2) + "\n"


def _reference_display_predecessor(labels: LabelState, source: int, v: int) -> str:
    if v == source:
        return "-"
    preds = labels.predecessors(v)
    return str(min(preds)) if preds else "-"


def _reference_vertex_set(vertices: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _reference_label_rows(labels: LabelState, source: int) -> list[str]:
    rows = ["node | label | status"]
    for v in labels.vertices():
        value = labels.value(v)
        if value.is_infinite:
            rows.append(f"{v:4d} |")
        else:
            label = f"[{two_decimals(value)}, {_reference_display_predecessor(labels, source, v)}]"
            rows.append(f"{v:4d} | {label} | {labels.status(v).value}")
    return rows


def reference_render_trace_text(trace: RunTrace) -> str:
    blocks = []
    for record in trace.rounds:
        lines = [
            f"Round {record.round_index}"
            f"  frontier={_reference_vertex_set(record.frontier)}"
            f"  newly permanent={_reference_vertex_set(record.newly_permanent)}"
        ]
        lines.extend(_reference_label_rows(record.label_snapshot, trace.source))
        blocks.append("\n".join(lines))
    summary = (
        f"rounds: {trace.rounds_count}"
        f" (including source initialization: {trace.rounds_count_incl_source})"
    )
    return "\n\n".join(blocks + [summary]) + "\n"


def run_strategy(g, strategy, source=1, target=None, stop_at_target=False) -> RunTrace:
    if strategy is Strategy.SINGLE_MIN:
        return run_classic(g, source, target, stop_at_target)
    return run_modified(g, source, target, stop_at_target, strategy)


def assert_matches_reference_and_round_trips(trace: RunTrace) -> None:
    structured = trace_to_json(trace)
    assert structured == reference_trace_json(trace)
    assert render_trace_text(trace) == reference_render_trace_text(trace)
    recovered = trace_from_json(structured)
    assert recovered == trace
    assert trace_to_json(recovered) == structured
    assert render_trace_text(recovered) == render_trace_text(trace)


@settings(max_examples=150, deadline=None)
@given(
    graphs(max_n=7, weights=exact_weights),
    st.sampled_from(list(Strategy)),
    st.booleans(),
    st.data(),
)
def test_serializers_match_reference(g, strategy, stop_at_target, data):
    source = data.draw(st.integers(min_value=1, max_value=g.n))
    target = data.draw(st.integers(min_value=1, max_value=g.n))
    assert_matches_reference_and_round_trips(
        run_strategy(g, strategy, source, target, stop_at_target)
    )


THIRD = Weight(Fraction(1, 3))

EDGE_CASES = {
    # no round at all: "rounds": [] and a text trace of the summary alone
    "single_vertex": Graph.from_edges(1, []),
    # vertices 3 and 4 stay at INFINITY in every snapshot
    "unreachable": Graph.from_edges(4, [(1, 2, 2), (3, 4, 1)]),
    # an a/b weight string, and a two-decimal rendering that rounds
    "third": Graph.from_edges(3, [(1, 2, THIRD), (2, 3, THIRD), (1, 3, Weight.finite(1))]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_edge_cases_match_reference(name, strategy):
    assert_matches_reference_and_round_trips(run_strategy(EDGE_CASES[name], strategy))


def test_single_vertex_trace_has_no_rounds():
    trace = run_classic(EDGE_CASES["single_vertex"], 1)
    assert json.loads(trace_to_json(trace))["rounds"] == []
    assert '  "rounds": [],\n' in trace_to_json(trace)
    assert render_trace_text(trace) == "rounds: 0 (including source initialization: 1)\n"


def test_unreachable_rows_stay_blank_and_infinite():
    trace = run_classic(EDGE_CASES["unreachable"], 1)
    assert render_trace_text(trace).splitlines()[-4:-2] == ["   3 |", "   4 |"]
    final = json.loads(trace_to_json(trace))["final_labels"]
    assert [row["value"] for row in final] == ["0", "2", "INF", "INF"]


def test_third_weight_is_exact_in_json_and_rounded_in_text():
    trace = run_classic(EDGE_CASES["third"], 1)
    assert json.loads(trace_to_json(trace))["final_distances"] == ["0", "1/3", "2/3"]
    assert "   3 | [0.67, 2] | permanent" in render_trace_text(trace)
    assert trace_from_json(trace_to_json(trace)).final_distances[2] == Weight(Fraction(2, 3))


def test_loaded_predecessor_sets_are_frozensets(paper8):
    recovered = trace_from_json(trace_to_json(run_classic(paper8, 1)))
    for labels in [recovered.final_labels] + [r.label_snapshot for r in recovered.rounds]:
        assert all(type(labels.predecessors(v)) is frozenset for v in labels.vertices())
        assert all(type(p) is frozenset for p in labels.columns()[1])


def _paper8_document(paper8) -> dict:
    return json.loads(trace_to_json(run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)))


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _with_rows(doc: dict, change) -> dict:
    return {**doc, "final_labels": [change(row) for row in doc["final_labels"]]}


MALFORMED_DOCUMENTS = {
    "missing_top_key": lambda doc: _without(doc, "rounds"),
    "missing_row_key": lambda doc: _with_rows(doc, lambda row: _without(row, "status")),
    "unknown_algorithm": lambda doc: {**doc, "algorithm": "astar"},
    "unknown_strategy": lambda doc: {**doc, "strategy": "greedy"},
    "unknown_status": lambda doc: _with_rows(doc, lambda row: {**row, "status": "done"}),
    "bool_source": lambda doc: {**doc, "source": True},
    "source_out_of_range": lambda doc: {**doc, "source": 9},
    "string_rounds": lambda doc: {**doc, "rounds": "none"},
    "string_predecessors": lambda doc: _with_rows(doc, lambda row: {**row, "predecessors": "12"}),
    "predecessor_out_of_range": lambda doc: _with_rows(doc, lambda row: {**row, "predecessors": [0]}),
    "numeric_value": lambda doc: _with_rows(doc, lambda row: {**row, "value": 3}),
    "exponent_value": lambda doc: _with_rows(doc, lambda row: {**row, "value": "1e5"}),
    "zero_denominator": lambda doc: _with_rows(doc, lambda row: {**row, "value": "1/0"}),
    "string_settled_round": lambda doc: _with_rows(doc, lambda row: {**row, "settled_round": "1"}),
    "vertices_out_of_order": lambda doc: {**doc, "final_labels": doc["final_labels"][::-1]},
    "short_round_labels": lambda doc: {
        **doc,
        "rounds": [{**doc["rounds"][0], "labels": doc["rounds"][0]["labels"][:-1]}],
    },
    "short_final_distances": lambda doc: {**doc, "final_distances": doc["final_distances"][:-1]},
    "empty_final_labels": lambda doc: {**doc, "final_labels": [], "rounds": []},
    "float_rounds_count": lambda doc: {**doc, "rounds_count": 5.0},
    "int_terminated_early": lambda doc: {**doc, "terminated_early": 0},
    "list_document": lambda doc: [doc],
    # documents that contradict themselves: a field that restates another
    "wrong_rounds_count": lambda doc: {**doc, "rounds_count": 999},
    "wrong_rounds_count_incl_source": lambda doc: {**doc, "rounds_count_incl_source": 5},
    "algorithm_of_another_strategy": lambda doc: {**doc, "algorithm": "classic"},
    "final_distances_disagree": lambda doc: {
        **doc,
        "final_distances": doc["final_distances"][:-1] + ["9"],
    },
    "permanent_without_settled_round": lambda doc: _with_rows(
        doc, lambda row: {**row, "settled_round": None}
    ),
    # round records that contradict their position or the final labels
    "round_index_not_position": lambda doc: _with_round(doc, 0, round_index=42),
    "newly_permanent_not_final_round": lambda doc: _with_round(doc, 1, newly_permanent=[7]),
    "frontier_not_previous_batch": lambda doc: _with_round(doc, 2, frontier=[8]),
    "first_frontier_not_source": lambda doc: _with_round(doc, 0, frontier=[2]),
    "settled_round_not_listed": lambda doc: _with_rows(
        doc, lambda row: {**row, "settled_round": 99} if row["settled_round"] else row
    ),
}

ROUND_CONTRADICTIONS = [
    "round_index_not_position",
    "newly_permanent_not_final_round",
    "frontier_not_previous_batch",
]


def _with_round(doc: dict, index: int, **fields) -> dict:
    rounds = list(doc["rounds"])
    rounds[index] = {**rounds[index], **fields}
    return {**doc, "rounds": rounds}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_trace_document_is_malformed_input(paper8, name):
    text = json.dumps(MALFORMED_DOCUMENTS[name](_paper8_document(paper8)))
    with pytest.raises(MalformedInput):
        trace_from_json(text)


@pytest.mark.parametrize("name", ROUND_CONTRADICTIONS)
def test_contradictory_round_of_a_classic_trace_is_malformed_input(paper8, name):
    doc = json.loads(trace_to_json(run_classic(paper8, 1)))
    with pytest.raises(MalformedInput, match="round"):
        trace_from_json(json.dumps(MALFORMED_DOCUMENTS[name](doc)))


def test_source_not_settled_in_round_zero_is_malformed_input():
    # with no rounds, only the round-0 batch ties the labels to the source
    doc = json.loads(trace_to_json(run_classic(Graph.from_edges(2, []), 1)))
    assert doc["rounds"] == []
    doc["final_labels"][0].update(status="temporary", settled_round=None)
    with pytest.raises(MalformedInput, match="round 0"):
        trace_from_json(json.dumps(doc))


def test_label_list_length_mismatch_is_reported(paper8):
    text = json.dumps(MALFORMED_DOCUMENTS["short_round_labels"](_paper8_document(paper8)))
    with pytest.raises(MalformedInput, match="has 7 rows, expected 8"):
        trace_from_json(text)


@pytest.mark.parametrize(
    "text",
    ["", "{}", "[]", "null", "5", '"trace"', "{", pytest.param("[" * 100_000, id="deep")],
)
def test_non_trace_text_is_malformed_input(text):
    with pytest.raises(MalformedInput):
        trace_from_json(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (path, key) at which a value sits in a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_edit_of_a_trace_loads_or_is_malformed_input(tie4, data):
    doc = json.loads(trace_to_json(run_modified(tie4, 1, strategy=Strategy.TIE_BATCH)))
    path, key = data.draw(st.sampled_from(list(_slots(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if data.draw(st.booleans()) and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    try:
        trace = trace_from_json(json.dumps(doc))
    except MalformedInput:
        return
    assert isinstance(trace, RunTrace)
