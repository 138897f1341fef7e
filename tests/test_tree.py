from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab import (
    Graph,
    GraphTooLarge,
    INFINITY,
    MalformedInput,
    Strategy,
    TreeMatrix,
    VertexOutOfRange,
    Weight,
    build_tree_matrix,
    extract_path,
    parse_matrix_text,
    run_classic,
    run_modified,
)
from pathlab.graph import MAX_VERTICES
from pathlab.bench import run_strategy
from pathlab.render import render_tree_matrix, trace_from_json, trace_to_json

from .strategies import column_scan_parent, graphs, reference_tree_entries


@pytest.fixture()
def tora_tree(paper8_tora):
    trace = run_classic(paper8_tora, 1)
    return build_tree_matrix(paper8_tora, trace), trace


class TestBuildTreeMatrix:
    def test_tora_nonzero_entries(self, tora_tree):
        tree, _ = tora_tree
        assert tree.parents == (None, 1, 2, 3, 2, 3, 5, 6)
        assert tree.parent_weights == (None, *map(Weight.finite, (1, 1, 2, 2, 4, 7, 2)))

    def test_single_vertex_tree_is_all_zero(self):
        g = parse_matrix_text("1\n0")
        tree = build_tree_matrix(g, run_classic(g, 1))
        assert (tree.parents, tree.parent_weights) == ((None,), (None,))
        assert render_tree_matrix(tree) == "1\n0\n"

    def test_lowest_id_parent_when_routes_tie(self, paper8):
        # on the symmetric-weight variant both 1 and 2 reach vertex 3 at
        # distance 2, so the lowest-id rule moves the link to (1, 3)
        trace = run_classic(paper8, 1)
        assert trace.final_labels.predecessors(3) == {1, 2}
        tree = build_tree_matrix(paper8, trace)
        assert tree.parents[3 - 1] == 1
        assert tree.parent_weights[3 - 1] == 2

    def test_each_settled_vertex_has_unique_parent(self, tora_tree):
        tree, trace = tora_tree
        for v in range(2, 9):
            assert tree.parents[v - 1] in range(1, 9)
            assert tree.parent_weights[v - 1] > Weight.zero()

    def test_tree_edges_are_consistent_with_distances(self, tora_tree, paper8_tora):
        tree, trace = tora_tree
        for v, (u, w) in enumerate(zip(tree.parents, tree.parent_weights), start=1):
            if u is None:
                assert v == 1 and w is None
                continue
            assert w == paper8_tora.weight(u, v)
            assert trace.final_distances[u - 1] + w == trace.final_distances[v - 1]

    def test_unsettled_vertices_get_no_parent(self):
        g = Graph.from_edges(3, [(1, 2, 1)])
        tree = build_tree_matrix(g, run_classic(g, 1))
        assert tree.parents[3 - 1] is None

    def test_works_for_batched_runs(self, paper8):
        trace = run_modified(paper8, 1, strategy=Strategy.STABLE_BATCH)
        tree = build_tree_matrix(paper8, trace)
        route = extract_path(tree, 8)
        assert route.total == 8


class TestExtractPath:
    def test_route_to_eight(self, tora_tree):
        tree, _ = tora_tree
        route = extract_path(tree, 8)
        assert route.vertices == (1, 2, 3, 6, 8)
        assert route.total == 8
        assert str(route) == "1-2-3-6-8 (8)"

    def test_source_itself(self, tora_tree):
        tree, _ = tora_tree
        route = extract_path(tree, 1)
        assert route.vertices == (1,)
        assert route.total == 0

    def test_unreachable_target(self):
        g = Graph.from_edges(2, [])
        tree = build_tree_matrix(g, run_classic(g, 1))
        route = extract_path(tree, 2)
        assert route.vertices == ()
        assert route.total == INFINITY
        assert str(route) == "no path (INF)"

    def test_out_of_range(self, tora_tree):
        tree, _ = tora_tree
        with pytest.raises(VertexOutOfRange):
            extract_path(tree, 9)

    def test_path_totals_match_final_distances(self, paper8, tora_tree):
        tree, trace = tora_tree
        for v in range(1, 9):
            assert extract_path(tree, v).total == trace.final_distances[v - 1]


@given(graphs(), st.sampled_from(list(Strategy)), st.data())
def test_parent_links_match_the_column_scan(g, strategy, data):
    source = data.draw(st.integers(1, g.n))
    trace = run_strategy(g, source, strategy)
    tree = build_tree_matrix(g, trace)
    entries = reference_tree_entries(g, trace)
    assert [tree.parents[v - 1] for v in g.vertices()] == [
        column_scan_parent(entries, v) for v in g.vertices()
    ]
    rows = [" ".join(str(w) for w in row) for row in entries]
    assert render_tree_matrix(tree) == "\n".join([str(g.n)] + rows) + "\n"


def test_trees_above_the_dense_cap_route_but_do_not_render():
    n = MAX_VERTICES + 1
    g = Graph.from_edges(n, [(1, n, 2), (n, 2, 3)])
    tree = build_tree_matrix(g, run_classic(g, 1))
    assert extract_path(tree, 2).vertices == (1, n, 2)
    assert extract_path(tree, 2).total == 5
    parents = {v: (u, w) for v, (u, w) in enumerate(zip(tree.parents, tree.parent_weights), 1)
               if u is not None or w is not None}
    assert parents == {n: (1, Weight.finite(2)), 2: (n, Weight.finite(3))}
    with pytest.raises(GraphTooLarge, match=f"limit of {MAX_VERTICES}$"):
        render_tree_matrix(tree)


@pytest.mark.parametrize("n", [3, 9])
def test_a_trace_of_another_vertex_count_is_malformed_input(paper8, n):
    trace = run_classic(paper8, 1)
    with pytest.raises(MalformedInput, match=f"^the trace has 8 vertices, the graph {n}$"):
        build_tree_matrix(Graph.from_edges(n, [(1, 2, 1)]), trace)


def test_a_trace_of_another_graph_is_malformed_input(paper8):
    # paper8's trace fits a path graph's vertex count, but its parent links
    # are not the path's edges: a route over them would total INF
    trace = trace_from_json(trace_to_json(run_classic(paper8, 1)))
    path_graph = Graph.from_edges(8, [(v, v + 1, 1) for v in range(1, 8)])
    with pytest.raises(MalformedInput, match="^vertex 3's parent 1 has no edge to it in the graph$"):
        build_tree_matrix(path_graph, trace)


def test_parent_links_that_loop_are_malformed_input():
    w = Weight.finite(1)
    with pytest.raises(MalformedInput, match="^parent links do not form a tree$"):
        extract_path(TreeMatrix(3, 1, (None, 3, 2), (None, w, w)), 2)
