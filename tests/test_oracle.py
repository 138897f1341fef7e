from __future__ import annotations

import pytest
from hypothesis import given

from pathlab import (
    Graph,
    GraphTooLarge,
    INFINITY,
    VertexOutOfRange,
    bellman_ford,
    enumerate_min_path,
    parse_matrix_text,
)
from pathlab.render import render_oracle_text

from .strategies import graphs


class TestBellmanFord:
    def test_eight_city_distances(self, paper8):
        result = bellman_ford(paper8, 1)
        assert result.distances == (0, 1, 2, 4, 3, 6, 10, 8)
        assert render_oracle_text(result).startswith("method: bellman-ford\n")

    def test_single_vertex(self):
        g = parse_matrix_text("1\n0")
        assert bellman_ford(g, 1).distances == (0,)

    def test_counterexample_distance_to_three(self, counterexample4):
        # cross-checked below against exhaustive enumeration
        assert bellman_ford(counterexample4, 1).distances[2] == 3

    def test_unreachable_is_infinite(self):
        g = Graph.from_edges(3, [(1, 2, 4)])
        assert bellman_ford(g, 1).distances == (0, 4, INFINITY)

    def test_source_out_of_range(self, paper8):
        with pytest.raises(VertexOutOfRange):
            bellman_ford(paper8, 9)


class TestEnumeration:
    def test_eight_city_route(self, paper8):
        total, route = enumerate_min_path(paper8, 1, 8)
        assert total == 8
        assert route is not None
        assert route.vertices[0] == 1 and route.vertices[-1] == 8
        resummed = sum(
            (paper8.weight(u, v) for u, v in zip(route.vertices, route.vertices[1:])),
            start=0,
        )
        assert resummed == total == route.total

    def test_no_path(self):
        g = Graph.from_edges(2, [])
        total, route = enumerate_min_path(g, 1, 2)
        assert total == INFINITY
        assert route is None

    def test_counterexample_witness(self, counterexample4):
        total, route = enumerate_min_path(counterexample4, 1, 3)
        assert total == 3
        assert route.vertices == (1, 2, 4, 3)
        assert bellman_ford(counterexample4, 1).distances[2] == total

    def test_source_equals_target(self, paper8):
        total, route = enumerate_min_path(paper8, 3, 3)
        assert total == 0
        assert route.vertices == (3,)

    def test_size_guard(self):
        g = Graph.from_edges(13, [])
        with pytest.raises(GraphTooLarge):
            enumerate_min_path(g, 1, 2)

    def test_vertex_range(self, paper8):
        with pytest.raises(VertexOutOfRange):
            enumerate_min_path(paper8, 1, 9)


@given(graphs())
def test_oracles_agree_on_random_graphs(g):
    result = bellman_ford(g, 1)
    for target in g.vertices():
        total, route = enumerate_min_path(g, 1, target)
        assert total == result.distances[target - 1]
        if route is None:
            assert total == INFINITY
        else:
            assert route.total == total
