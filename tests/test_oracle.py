from __future__ import annotations

import pytest
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

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

from .strategies import (
    exact_weights,
    graphs,
    recursive_min_path,
    tied_weights,
    weight_sweep_bellman_ford,
)


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


@given(
    st.one_of(
        graphs(max_n=7),
        graphs(max_n=7, weights=exact_weights),
        graphs(max_n=7, weights=tied_weights),
    )
)
def test_enumeration_equals_the_recursive_weight_search(g):
    # same total and same witness, for every (source, target) pair
    for source in g.vertices():
        for target in g.vertices():
            total, route = enumerate_min_path(g, source, target)
            expected_total, expected_route = recursive_min_path(g, source, target)
            assert total == expected_total
            if expected_route is None:
                assert route is None
            else:
                assert route.vertices == expected_route.vertices
                assert route.total == total


@given(graphs(max_n=8, weights=exact_weights), st.data())
def test_bellman_ford_equals_the_weight_sweep(g, data):
    source = data.draw(st.integers(1, g.n))
    assert bellman_ford(g, source).distances == weight_sweep_bellman_ford(g, source)


def test_bellman_ford_is_exact_across_denominators():
    # the integer sweep scales by lcm(10**29, 3, 7): every sum stays exact
    tiny, third, seventh = Fraction(1, 10**29), Fraction(1, 3), Fraction(1, 7)
    g = Graph.from_edges(4, [(1, 2, tiny), (2, 3, third), (3, 4, seventh), (1, 4, 1)])
    distances = bellman_ford(g, 1).distances
    assert distances == weight_sweep_bellman_ford(g, 1)
    assert distances[3].fraction == tiny + third + seventh


def test_enumeration_is_exact_across_denominators():
    # the path 1-2-3-4 sums to just under 1/2, below the direct edge 1 -> 4
    tiny, third, seventh = Fraction(1, 10**29), Fraction(1, 3), Fraction(1, 7)
    g = Graph.from_edges(4, [(1, 2, tiny), (2, 3, third), (3, 4, seventh), (1, 4, 1)])
    total, route = enumerate_min_path(g, 1, 4)
    assert total.fraction == tiny + third + seventh
    assert route.vertices == (1, 2, 3, 4)
