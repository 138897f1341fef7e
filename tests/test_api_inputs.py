"""Every public entry point refuses a bad vertex id, vertex count, edge item,
weight, edge count, adjacency or collection argument with a PathlabError, and
GraphSpec, generate_graph and run_suite refuse an argument of the wrong type
with a ValueError."""

from __future__ import annotations

import re

import pytest

import pathlab.graph
from pathlab import (
    Graph,
    GraphTooLarge,
    MalformedInput,
    Strategy,
    VertexOutOfRange,
    bellman_ford,
    build_tree_matrix,
    enumerate_min_path,
    extract_path,
    generate_graph,
    init_labels,
    parse_edge_list,
    relax_step,
    run_classic,
    run_modified,
    run_suite,
)
from pathlab.bench import GraphSpec

N = 3
GRAPH = Graph.from_edges(N, [(1, 2, 1), (2, 3, 1)])
TREE = build_tree_matrix(GRAPH, run_classic(GRAPH, 1))

# An int in 1..N is the only vertex id: a bool is no int, and a float, str or
# None is refused even when it equals or names an id in range.
BAD_VERTICES = [True, 1.0, 2.5, "1", None, 0, N + 1]

# Each entry point that takes a vertex id, called with the id ``v``.
ENTRY_POINTS = {
    "Graph.weight_u": lambda v: GRAPH.weight(v, 2),
    "Graph.weight_v": lambda v: GRAPH.weight(2, v),
    "from_edges_u": lambda v: Graph.from_edges(N, [(v, 2, 1)]),
    "from_edges_v": lambda v: Graph.from_edges(N, [(2, v, 1)]),
    "init_labels": lambda v: init_labels(GRAPH, v),
    "relax_step_frontier": lambda v: relax_step(GRAPH, init_labels(GRAPH, 1), frozenset({v})),
    "run_classic_source": lambda v: run_classic(GRAPH, v),
    "run_classic_target": lambda v: run_classic(GRAPH, 1, v),
    "run_modified_source": lambda v: run_modified(GRAPH, v, strategy=Strategy.STABLE_BATCH),
    "run_modified_target": lambda v: run_modified(GRAPH, 1, v),
    "bellman_ford": lambda v: bellman_ford(GRAPH, v),
    "enumerate_min_path_source": lambda v: enumerate_min_path(GRAPH, v, 3),
    "enumerate_min_path_target": lambda v: enumerate_min_path(GRAPH, 1, v),
    "extract_path": lambda v: extract_path(TREE, v),
}


# A run's target of None means a run to full settlement.
OPTIONAL = {"run_classic_target", "run_modified_target"}


@pytest.mark.parametrize(
    "call, v",
    [
        pytest.param(call, v, id=f"{name}-{v!r}")
        for name, call in ENTRY_POINTS.items()
        for v in BAD_VERTICES
        if not (v is None and name in OPTIONAL)
    ],
)
def test_a_vertex_id_that_is_no_int_in_range_is_refused(call, v):
    with pytest.raises(VertexOutOfRange):
        call(v)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_accepts_an_int_in_range(call):
    call(1)


@pytest.mark.parametrize("n", [0, 2.5, "3", True], ids=repr)
def test_a_vertex_count_that_is_no_int_of_at_least_one_is_refused(n):
    with pytest.raises(MalformedInput, match="^vertex count must be >= 1, got "):
        Graph.from_edges(n, [])


@pytest.mark.parametrize("item", [(1, 2), (1, 2, 1, 1), None, 1], ids=repr)
def test_an_edge_item_that_is_no_triple_is_refused_by_name(item):
    message = re.escape(f"edge {item!r} is not a (u, v, weight) triple")
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        Graph.from_edges(N, [(1, 2, 1), item])


@pytest.mark.parametrize("field", ["n", "weight_lo", "weight_hi"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=repr)
def test_graph_spec_refuses_a_size_that_is_no_int(field, value):
    fields = dict(n=4, density=0.5, weight_lo=1, weight_hi=9, tie_bias=0.0, seed=1)
    with pytest.raises(ValueError, match="^n, weight_lo and weight_hi must be ints$"):
        GraphSpec(**{**fields, field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=f"{field}-{value!r}")
        for field, values in {
            "density": ["0.5", True, None],
            "tie_bias": ["0", False, None],
            "seed": [1.5, 1.0, None, True, "1"],
        }.items()
        for value in values
    ],
)
def test_graph_spec_refuses_a_density_tie_bias_or_seed_of_another_type(field, value):
    fields = dict(n=4, density=0.5, weight_lo=1, weight_hi=9, tie_bias=0.0, seed=1)
    message = "^density and tie_bias must be ints or floats, and seed an int$"
    with pytest.raises(ValueError, match=message):
        GraphSpec(**{**fields, field: value})


def test_graph_spec_takes_an_int_or_float_density_and_tie_bias():
    assert GraphSpec(4, 1, 1, 9, 0, 1) == GraphSpec(4, 1.0, 1, 9, 0.0, 1)


@pytest.mark.parametrize("edges", [None, 5], ids=repr)
def test_edges_that_are_not_iterable_are_refused_by_name(edges):
    with pytest.raises(MalformedInput, match=f"^edges must be an iterable of triples, got {edges!r}$"):
        Graph.from_edges(2, edges)


@pytest.mark.parametrize("frontier", [None, 5], ids=repr)
def test_a_frontier_that_is_not_a_set_is_refused_by_name(frontier):
    message = f"^frontier must be a set of vertex ids, got {frontier!r}$"
    with pytest.raises(MalformedInput, match=message):
        relax_step(GRAPH, init_labels(GRAPH, 1), frontier)


@pytest.mark.parametrize(
    "n, adjacency, message",
    [
        (True, ((),), "vertex count must be >= 1, got True"),
        (1.0, ((),), "vertex count must be >= 1, got 1.0"),
        (0, (), "vertex count must be >= 1, got 0"),
        (2, ((),), "adjacency must be a tuple of 2 rows"),
        (2, None, "adjacency must be a tuple of 2 rows"),
        (1, [()], "adjacency must be a tuple of 1 rows"),
    ],
    ids=repr,
)
def test_the_trusted_constructor_refuses_a_bad_count_or_shape(n, adjacency, message):
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        Graph(n, adjacency)


@pytest.mark.parametrize("w", [True, False], ids=repr)
def test_a_bool_weight_is_refused_by_name(w):
    with pytest.raises(MalformedInput, match=f"^edge \\(1,2\\) has unreadable weight {w}$"):
        Graph.from_edges(N, [(1, 2, w)])


def test_from_edges_refuses_an_edge_past_the_budget_as_the_header_check_does(monkeypatch):
    monkeypatch.setattr(pathlab.graph, "MAX_EDGES", 10)
    edges = [(u, v, 1) for u in range(1, 6) for v in range(1, 6) if u != v]  # 20 edges
    assert len(list(Graph.from_edges(5, edges[:10]).edges())) == 10
    message = "^11 edges exceed the limit of 10$"
    with pytest.raises(GraphTooLarge, match=message):
        Graph.from_edges(5, iter(edges))
    with pytest.raises(GraphTooLarge, match=message):
        parse_edge_list("5 11\n" + "".join(f"{u} {v} 1\n" for u, v, _ in edges[:11]))


SPEC = GraphSpec(4, 0.5, 1, 9, 0.0, 1)


@pytest.mark.parametrize("index", [1.0, True, "1", None], ids=repr)
def test_generate_graph_refuses_an_index_that_is_no_int(index):
    with pytest.raises(ValueError, match=f"^index must be an int, got {re.escape(repr(index))}$"):
        generate_graph(SPEC, index)


@pytest.mark.parametrize("count", [True, 1.5, 1.0, "1"], ids=repr)
def test_run_suite_refuses_a_graph_count_that_is_no_int(count):
    message = f"^graphs_per_spec must be an int, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        run_suite([SPEC], count)
