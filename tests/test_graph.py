from __future__ import annotations

import gc
import re
import time
import tracemalloc
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab import (
    DiagonalNonZero,
    DuplicateEdge,
    Graph,
    GraphSpec,
    GraphTooLarge,
    INFINITY,
    MalformedInput,
    NegativeOrZeroWeight,
    PathlabError,
    SelfLoop,
    VertexOutOfRange,
    Weight,
    build_tree_matrix,
    extract_path,
    generate_graph,
    parse_edge_list,
    parse_matrix_text,
    run_classic,
    to_matrix_text,
)
from pathlab import graph
from pathlab.graph import MAX_EDGES, MAX_SPARSE_VERTICES, MAX_VERTICES

from .conftest import fixture_path
from .strategies import exact_weights, graphs, matrices, matrix_adjacency, validate


# Tokens that Fraction accepts, or that are not numbers at all, but that the
# file grammar [+-]?[0-9]+(\\.[0-9]+)? of at most 30 digits rejects.
NON_DECIMAL_TOKENS = [
    "1e5000",
    "1E2",
    "1/3",
    "1_000",
    "\u0661",  # ARABIC-INDIC DIGIT ONE
    "\uff11",  # FULLWIDTH DIGIT ONE
    ".5",
    "1.",
    "0x10",
    "nan",
    "+-1",
    "1.2.3",
    pytest.param("1" * 31, id="31_digits"),
    pytest.param("0." + "1" * 30, id="31_digits_with_point"),
]

# Edge-list files that break the format, and the exact message of each.
EDGE_LIST_ERRORS = [
    pytest.param("2 x\n", "header must be two integers, got '2 x'", id="non_integer_header"),
    pytest.param("0 0\n", "vertex count must be >= 1, got 0", id="no_vertices"),
    pytest.param("2 -1\n", "edge count must be >= 0, got -1", id="negative_edge_count"),
    pytest.param("2 1\n1 a 3\n", "non-integer vertex in edge line '1 a 3'", id="non_integer_vertex"),
    pytest.param("2 1\n1 2 INF\n", "edge line '1 2 INF': weight must be finite", id="inf_weight"),
    # counts and endpoints that int() accepts but the ASCII grammar
    # [+-]?[0-9]+ does not
    pytest.param("1_0 1\n1 2 5\n", "header must be two integers, got '1_0 1'", id="underscore_count"),
    pytest.param(
        "2 1\n1 \u0662 5\n",
        "non-integer vertex in edge line '1 \u0662 5'",
        id="arabic_indic_endpoint",
    ),
    pytest.param(
        "3 2\n1 2 5\n2 3_0 1\n",
        "non-integer vertex in edge line '2 3_0 1'",
        id="underscore_in_a_later_endpoint",
    ),
    pytest.param(
        "2 1\n1 0_2 5\n",
        "non-integer vertex in edge line '1 0_2 5'",
        id="underscore_in_an_endpoint_in_range",
    ),
]

# Matrix vertex counts that int() accepts but the ASCII grammar does not.
NON_ASCII_COUNTS = ["\u0662", "\uff12", "0_2"]


class TestParseMatrix:
    def test_eight_city_fixture(self, paper8):
        assert paper8.n == 8
        assert paper8.weight(1, 2) == 1
        assert paper8.weight(1, 3) == 2
        assert paper8.weight(2, 4) == 5
        assert paper8.weight(6, 8) == 2
        assert paper8.weight(1, 4) == INFINITY
        assert paper8.weight(4, 4) == 0

    def test_single_vertex(self):
        g = parse_matrix_text("1\n0\n")
        assert g.n == 1
        assert list(g.edges()) == []

    def test_diagonal_must_be_zero(self):
        with pytest.raises(DiagonalNonZero):
            parse_matrix_text("2\n5 1\n1 0\n")

    def test_off_diagonal_must_be_positive(self):
        with pytest.raises(NegativeOrZeroWeight):
            parse_matrix_text("2\n0 -1\n1 0\n")
        with pytest.raises(NegativeOrZeroWeight):
            parse_matrix_text("2\n0 0\n1 0\n")

    def test_wrong_token_count(self):
        with pytest.raises(MalformedInput, match="expected 4"):
            parse_matrix_text("2\n0 1 2\n")

    def test_non_numeric_token(self):
        with pytest.raises(MalformedInput, match="'x'"):
            parse_matrix_text("2\n0 x\n1 0\n")

    def test_empty_input(self):
        with pytest.raises(MalformedInput):
            parse_matrix_text("# only a comment\n")
        with pytest.raises(MalformedInput):
            parse_matrix_text("0\n")

    def test_comments_and_case_insensitive_inf(self):
        g = parse_matrix_text("# header\n2\n# middle\n0 inf\nInF 0\n")
        assert g.weight(1, 2) == INFINITY
        assert g.weight(2, 1) == INFINITY

    def test_decimal_weights(self):
        g = parse_matrix_text("2\n0 2.5\nINF 0\n")
        assert g.weight(1, 2) == Weight.finite("2.5")

    @pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
    def test_only_bounded_decimal_literals(self, token):
        with pytest.raises(MalformedInput, match="decimal literal"):
            parse_matrix_text(f"2\n0 {token}\n1 0\n")

    @pytest.mark.parametrize("count", NON_ASCII_COUNTS)
    def test_vertex_count_is_an_ascii_integer(self, count):
        message = f"vertex count is not an integer: {count!r}"
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            parse_matrix_text(f"{count}\n0 1\n1 0\n")

    def test_longest_decimal_literals(self):
        g = parse_matrix_text(f"2\n0 {'9' * 30}\n0.{'0' * 28}1 0\n")
        assert g.weight(1, 2) == Weight.finite(10**30 - 1)
        assert g.weight(2, 1) == Weight.finite(Fraction(1, 10**29))

    def test_equal_tokens_share_one_weight(self):
        g = parse_matrix_text("3\n0 2.5 2.5\n2.5 0 INF\nINF INF 0\n")
        assert g.weight(1, 2) is g.weight(1, 3) is g.weight(2, 1)


class TestParseEdgeList:
    def test_counterexample_fixture(self, counterexample4):
        assert counterexample4.n == 4
        assert counterexample4.weight(1, 2) == 1
        assert counterexample4.weight(1, 3) == 5
        assert counterexample4.weight(2, 4) == 1
        assert counterexample4.weight(4, 3) == 1
        assert counterexample4.weight(2, 3) == INFINITY

    def test_edgeless(self):
        g = parse_edge_list("2 0\n")
        assert g.weight(1, 2) == INFINITY
        assert g.weight(2, 1) == INFINITY

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_edge_list("2 2\n1 2 3\n1 2 4\n")

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_edge_list("2 1\n1 1 3\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_edge_list("2 1\n1 3 1\n")

    def test_non_positive_weight(self):
        with pytest.raises(NegativeOrZeroWeight):
            parse_edge_list("2 1\n1 2 0\n")
        with pytest.raises(NegativeOrZeroWeight):
            parse_edge_list("2 1\n1 2 -4\n")

    def test_malformed_lines(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("2\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("2 1\n1 2\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("2 2\n1 2 3\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("2 1\n1 2 3\n2 1 4\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("2 1\n1 2 x\n")

    @pytest.mark.parametrize("token", NON_DECIMAL_TOKENS)
    def test_only_bounded_decimal_literals(self, token):
        with pytest.raises(MalformedInput, match="decimal literal"):
            parse_edge_list(f"2 1\n1 2 {token}\n")

    def test_signed_decimal_weights(self):
        assert parse_edge_list("2 1\n1 2 +2.50\n").weight(1, 2) == Weight.finite("2.5")
        with pytest.raises(NegativeOrZeroWeight):
            parse_edge_list("2 1\n1 2 -0.5\n")

    def test_infinite_edge_weight_is_rejected(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("2 1\n1 2 INF\n")

    def test_comments_may_hold_any_text(self):
        # only content lines are held to the ASCII integer grammar
        g = parse_edge_list("# caf\u00e9_graph \u0662\n2 1\n1 2 5\n")
        assert g.weight(1, 2) == 5

    @pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS)
    def test_format_errors_name_their_fault(self, text, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    @given(graphs())
    def test_parsed_edge_lists_validate_ok(self, g):
        # the parser checks each edge through Graph.from_edges; validate is
        # the reference checker
        edges = list(g.edges())
        text = f"{g.n} {len(edges)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)
        parsed = parse_edge_list(text)
        assert parsed == g
        assert validate(parsed.weights) == []


# Tokens put in place of one token of an edge line. Each breaks the line, in
# its syntax or as an edge, or leaves it well formed, and the bulk parse must
# judge it as the per-line parse does. "" drops the token, "1 2" adds one, and
# "#" in front turns the line into a comment.
TOKEN_MUTANTS = [
    "0", "-1", "+0", "00", "6", "99", "0_1", "\u0661", "x", "|", "1.5", "2.",
    "INF", "inf", "-2.5", "0.0", "1e2", "1/3", "9" * 31, "", "1 2", "#", "1\u00a02",
]


@st.composite
def edge_list_texts(draw) -> tuple[Graph, list[str]]:
    """A drawn graph and the lines of an edge list of it: its edges shuffled,
    endpoints with a "+" or leading zeros, weights with a "+" or a leading
    zero, tabs and runs of spaces between tokens, and comment, blank and
    indented lines anywhere."""
    g = draw(graphs(max_n=5))
    edges = draw(st.permutations(list(g.edges())))
    filler = st.sampled_from(["", "   ", "# a comment", "  # indented 1 2 3", "#1 2 3"])

    def vertex(v: int) -> str:
        return draw(st.sampled_from([f"{v}", f"+{v}", f"0{v}", f"00{v}"]))

    lines = draw(st.lists(filler, max_size=2)) + [f"{g.n} {len(edges)}"]
    for u, v, w in edges:
        weight = draw(st.sampled_from([f"{w}", f"+{w}", f"0{w}"]))
        space = draw(st.sampled_from([" ", "  ", "\t"]))
        lines += draw(st.lists(filler, max_size=1)) + [space.join([vertex(u), vertex(v), weight])]
    return g, lines


def _outcome(text: str):
    try:
        return parse_edge_list(text)
    except PathlabError as exc:
        return type(exc), str(exc)


def _per_line_outcome(text: str):
    with patch.object(graph, "_bulk_graph", return_value=None):
        return _outcome(text)


@given(edge_list_texts(), st.sampled_from(["\n", "\r\n"]))
def test_the_bulk_parse_equals_the_per_line_parse(drawn, newline):
    g, lines = drawn
    text = newline.join(lines) + newline
    parsed = parse_edge_list(text)
    assert parsed == _per_line_outcome(text) == g
    body = [line.strip() for line in lines if line.strip() and not line.strip().startswith("#")]
    assert graph._bulk_graph(g.n, body[1:]) == g
    # one Weight per distinct token, and one int per vertex id
    tokens = {line.split()[2] for line in body[1:]}
    assert len({id(w) for out in parsed.adjacency for _, w in out}) == len(tokens)
    heads = [v for out in parsed.adjacency for v, _ in out]
    assert len({id(v) for v in heads}) == len(set(heads))


@given(edge_list_texts(), st.data())
def test_the_bulk_parse_judges_a_mutated_token_as_the_per_line_parse(drawn, data):
    # Each token in turn is replaced, by a mutant or by a vertex id, which
    # can repeat an edge or make a self loop. Then each line's last token
    # moves to the next edge line, which keeps the body's token count, and
    # last, the body ends in one token too many.
    g, lines = drawn
    replacement = st.one_of(st.sampled_from(TOKEN_MUTANTS), st.integers(1, g.n).map(str))
    edge_lines = [i for i, line in enumerate(lines) if line.strip() and "#" not in line][1:]
    for i in edge_lines:
        for position in range(3):
            tokens = lines[i].split()
            tokens[position] = data.draw(replacement)
            text = "\n".join([*lines[:i], " ".join(tokens), *lines[i + 1 :]]) + "\n"
            assert _outcome(text) == _per_line_outcome(text)
    for i, j in zip(edge_lines, edge_lines[1:]):
        shifted = lines.copy()
        shifted[i], last = lines[i].rsplit(maxsplit=1)
        shifted[j] = f"{last} {lines[j]}"
        text = "\n".join(shifted) + "\n"
        assert _outcome(text) == _per_line_outcome(text)
    text = "\n".join(lines) + " 1\n"
    assert _outcome(text) == _per_line_outcome(text)


class TestValidate:
    def test_fixture_is_ok(self, paper8):
        assert validate(paper8.weights) == []

    def test_reports_negative_weight_position(self):
        with pytest.raises(NegativeOrZeroWeight) as info:
            parse_matrix_text("3\n0 1 INF\nINF 0 -1\nINF INF 0\n")
        assert str(info.value) == "NegativeOrZeroWeight at (2,3): -1"

    def test_reports_diagonal_position(self):
        with pytest.raises(DiagonalNonZero) as info:
            parse_matrix_text("3\n0 INF INF\nINF 0 INF\nINF INF 2\n")
        assert str(info.value) == "DiagonalNonZero at (3,3): 2"

    def test_reports_first_violation_in_row_major_order(self):
        # (1,1) comes before (1,2); in the next matrix (1,3) comes before
        # (2,2), though a column-major or diagonal-first scan would meet
        # (2,2) first
        with pytest.raises(DiagonalNonZero, match=r"^DiagonalNonZero at \(1,1\): 1$"):
            parse_matrix_text("2\n1 -2\nINF 0\n")
        with pytest.raises(NegativeOrZeroWeight, match=r"at \(1,3\): -1$"):
            parse_matrix_text("3\n0 1 -1\n1 5 1\n1 1 0\n")

    @given(st.data())
    def test_parser_agrees_with_the_reference_checker(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        tokens = st.sampled_from(["0", "-0", "0.0", "-1", "-2.5", "1", "2.5", "INF", "inf"])
        rows = [[data.draw(tokens) for _ in range(n)] for _ in range(n)]
        text = f"{n}\n" + "".join(" ".join(row) + "\n" for row in rows)
        unchecked = tuple(tuple(map(Weight.from_token, row)) for row in rows)
        violations = validate(unchecked)
        if not violations:
            assert parse_matrix_text(text) == Graph(n, matrix_adjacency(unchecked))
            return
        with pytest.raises(violations[0].kind) as info:
            parse_matrix_text(text)
        assert str(info.value) == str(violations[0])


class TestFromEdges:
    @pytest.mark.parametrize(
        "weight, error",
        [
            (-1, NegativeOrZeroWeight),
            (0, NegativeOrZeroWeight),
            (Weight.finite("-0.5"), NegativeOrZeroWeight),
            (Weight.zero(), NegativeOrZeroWeight),
            (INFINITY, MalformedInput),
            (Weight(None), MalformedInput),
        ],
        ids=["int -1", "int 0", "-0.5", "zero", "INFINITY", "another INF"],
    )
    def test_rejects_non_positive_and_infinite_weights(self, weight, error):
        with pytest.raises(error):
            Graph.from_edges(3, [(1, 2, weight)])

    @pytest.mark.parametrize("weight", [INFINITY, Weight(None)], ids=["INFINITY", "another INF"])
    def test_infinite_weight_error_names_the_edge(self, weight):
        with pytest.raises(MalformedInput, match=r"^edge \(1,2\) has weight INF$"):
            Graph.from_edges(3, [(1, 2, weight)])

    @pytest.mark.parametrize(
        "weight",
        ["abc", float("inf"), float("nan"), None, "1e5000000", "1/3", " 2 "],
        ids=["letters", "float inf", "float nan", "None", "huge exponent", "fraction bar", "spaces"],
    )
    def test_an_unreadable_weight_is_malformed_input_naming_the_edge(self, weight):
        # a str reads by the graph-file grammar, so an exponent is refused
        # before any integer is built
        started = time.perf_counter()
        message = re.escape(f"edge (1,2) has unreadable weight {weight!r}")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            Graph.from_edges(3, [(1, 2, weight)])
        assert time.perf_counter() - started < 0.1

    def test_negative_weight_error_names_the_edge(self):
        with pytest.raises(NegativeOrZeroWeight, match=r"^edge \(1,2\) has non-positive weight -1$"):
            Graph.from_edges(3, [(1, 2, -1)])

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_vertex_is_malformed_input(self, n):
        with pytest.raises(MalformedInput, match=f"^vertex count must be >= 1, got {n}$"):
            Graph.from_edges(n, [])
        with pytest.raises(MalformedInput, match=f"^vertex count must be >= 1, got {n}$"):
            Graph(n, ())

    @pytest.mark.parametrize(
        "edges, error",
        [
            ([(1, 3, 1)], VertexOutOfRange),
            ([(0, 1, 1)], VertexOutOfRange),
            ([(2, 2, 1)], SelfLoop),
            ([(1, 2, 1), (1, 2, 2)], DuplicateEdge),
        ],
    )
    def test_raises_the_edge_list_errors(self, edges, error):
        with pytest.raises(error):
            Graph.from_edges(2, edges)

    def test_first_bad_edge_decides(self):
        # the self loop comes first, though the later edge is out of range
        with pytest.raises(SelfLoop):
            Graph.from_edges(2, [(1, 2, 1), (2, 2, 1), (1, 5, -1)])

    def test_accepts_plain_numbers(self):
        g = Graph.from_edges(2, [(1, 2, 3), (2, 1, Fraction(1, 2))])
        assert g.weight(1, 2) == 3 and g.weight(2, 1) == Fraction(1, 2)
        assert validate(g.weights) == []


class TestVertexLimit:
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_edge_list, f"{MAX_SPARSE_VERTICES + 1} 0\n"),
            (parse_edge_list, f"2 {MAX_EDGES + 1}\n"),
            (parse_matrix_text, "100000\n"),
            (parse_matrix_text, f"{MAX_VERTICES + 1}\n0\n"),
        ],
    )
    def test_header_above_the_limit_fails_fast(self, parse, text):
        start = time.perf_counter()
        with pytest.raises(GraphTooLarge, match=r"^\d+ (vertices|edges) exceed the limit of \d+$"):
            parse(text)
        assert time.perf_counter() - start < 0.5

    def test_from_edges_checks_the_limit(self):
        # edge lists have their own vertex budget, far above the dense cap
        with pytest.raises(GraphTooLarge, match=f"limit of {MAX_SPARSE_VERTICES}$"):
            Graph.from_edges(MAX_SPARSE_VERTICES + 1, [])

    def test_limit_is_inclusive(self):
        # n = MAX_VERTICES passes the limit and fails later, at the entry
        # count, without building the matrix; m = MAX_EDGES fails at the
        # line count
        with pytest.raises(MalformedInput, match=f"expected {MAX_VERTICES ** 2} matrix entries"):
            parse_matrix_text(f"{MAX_VERTICES}\n0\n")
        with pytest.raises(MalformedInput, match=f"expected {MAX_EDGES} edge lines"):
            parse_edge_list(f"2 {MAX_EDGES}\n")

    def test_edge_lists_above_the_dense_cap_parse(self):
        g = parse_edge_list(f"{MAX_VERTICES + 1} 1\n{MAX_VERTICES + 1} 1 2.5\n")
        assert g.weight(MAX_VERTICES + 1, 1) == Weight.finite("2.5")
        assert g.weight(1, MAX_VERTICES + 1) == INFINITY
        assert list(g.edges()) == [(MAX_VERTICES + 1, 1, Weight.finite("2.5"))]

    def test_the_dense_view_checks_the_cap(self):
        g = Graph.from_edges(MAX_VERTICES + 1, [])
        with pytest.raises(GraphTooLarge, match=f"limit of {MAX_VERTICES}$"):
            g.weights
        with pytest.raises(GraphTooLarge):
            to_matrix_text(g)


class TestSerialization:
    def test_round_trip_fixture(self, paper8):
        assert parse_matrix_text(to_matrix_text(paper8)) == paper8

    def test_fixture_file_text_is_equivalent(self, paper8):
        reparsed = parse_matrix_text(fixture_path("paper8.mat").read_text())
        assert reparsed == paper8

    @given(graphs())
    def test_round_trip_random(self, g):
        assert parse_matrix_text(to_matrix_text(g)) == g

    @given(graphs(max_n=8, weights=exact_weights))
    def test_matrix_text_is_the_dense_view_and_caches_nothing(self, g):
        before = dict(vars(g))
        text = to_matrix_text(g)
        assert vars(g) == before
        rows = [" ".join(map(str, row)) for row in g.weights]
        assert text == "\n".join([str(g.n)] + rows) + "\n"

    @given(graphs())
    def test_serialized_graphs_validate_ok(self, g):
        assert validate(parse_matrix_text(to_matrix_text(g)).weights) == []


def test_graph_shape_is_checked():
    with pytest.raises(MalformedInput):
        Graph(0, ())
    with pytest.raises(MalformedInput):
        Graph(2, ((),))


def test_weight_accessor_checks_range(paper8):
    with pytest.raises(VertexOutOfRange):
        paper8.weight(0, 1)
    with pytest.raises(VertexOutOfRange):
        paper8.weight(1, 9)


@given(graphs())
def test_adjacency_lists_the_finite_off_diagonal_entries(g):
    attributes = dict(vars(g))
    expected = [
        [(v, w) for v, w in enumerate(row, start=1) if u != v and w.is_finite]
        for u, row in enumerate(g.weights, start=1)
    ]
    assert [list(out) for out in g.adjacency] == expected
    assert list(g.edges()) == [(u, v, w) for u in g.vertices() for v, w in expected[u - 1]]
    assert vars(g) == attributes  # reading the matrix keeps nothing


@given(graphs(max_n=8, weights=exact_weights))
def test_scaled_weights_are_the_weights_times_the_lcm(g):
    scale, scaled = g.scaled_weights
    assert scale == lcm(*(w.fraction.denominator for _, _, w in g.edges()))
    assert set(scaled) == {id(w) for _, _, w in g.edges()}
    for _, _, w in g.edges():
        assert type(scaled[id(w)]) is int
        assert Fraction(scaled[id(w)], scale) == w.fraction


def test_a_graph_keeps_no_copy_of_its_edges_after_a_run():
    # 300 dense vertices, about 90,000 edges sharing nine Weights
    g = generate_graph(GraphSpec(300, 1.0, 1, 9, 0.0, 1), 0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_classic(g, 1)
        extract_path(build_tree_matrix(g, trace), 300)
        del trace
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


@given(matrices(), st.data())
def test_every_constructor_gives_the_adjacency_of_the_matrix(matrix, data):
    n, rows = matrix
    expected = matrix_adjacency(rows)
    g = Graph(n, matrix_adjacency(rows))
    assert g.adjacency == expected
    assert g.weights == rows
    assert [[g.weight(u, v) for v in g.vertices()] for u in g.vertices()] == list(map(list, rows))
    assert Graph(n, matrix_adjacency(g.weights)) == g
    assert hash(Graph(n, matrix_adjacency(g.weights))) == hash(g)
    assert parse_matrix_text(to_matrix_text(g)).adjacency == expected
    # from_edges takes the edges in any order
    edges = data.draw(st.permutations(list(g.edges())))
    assert Graph.from_edges(n, edges).adjacency == expected

