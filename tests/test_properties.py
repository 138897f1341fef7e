from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlab import (
    Graph,
    GraphSpec,
    Strategy,
    bellman_ford,
    build_tree_matrix,
    extract_path,
    generate_graph,
    init_labels,
    relax_step,
    run_classic,
    run_modified,
    select_permanent,
)
from pathlab.bench import run_strategy
from pathlab.render import trace_from_json, trace_to_json

from .strategies import exact_weights, graphs, tied_weights

ALL_RUNS = [
    lambda g: run_classic(g, 1),
    lambda g: run_modified(g, 1, strategy=Strategy.TIE_BATCH),
    lambda g: run_modified(g, 1, strategy=Strategy.STABLE_BATCH),
]


@given(graphs())
def test_settled_labels_are_final(g):
    for run in ALL_RUNS:
        trace = run(g)
        fixed = {}
        for record in trace.rounds:
            snapshot = record.label_snapshot
            for v, (value, preds) in fixed.items():
                assert snapshot.value(v) == value
                assert snapshot.predecessors(v) == preds
                assert snapshot.is_permanent(v)
            for v in record.newly_permanent:
                fixed[v] = (snapshot.value(v), snapshot.predecessors(v))


@given(graphs())
def test_labels_never_increase(g):
    for run in ALL_RUNS:
        trace = run(g)
        previous = None
        for record in trace.rounds:
            current = record.label_snapshot.distances()
            if previous is not None:
                assert all(new <= old for new, old in zip(current, previous))
            previous = current


@given(graphs())
def test_sound_strategies_match_bellman_ford(g):
    oracle = bellman_ford(g, 1).distances
    assert run_classic(g, 1).final_distances == oracle
    assert run_modified(g, 1, strategy=Strategy.TIE_BATCH).final_distances == oracle


@given(graphs())
def test_tie_batch_never_needs_more_rounds(g):
    single = run_classic(g, 1)
    tie = run_modified(g, 1, strategy=Strategy.TIE_BATCH)
    assert tie.rounds_count <= single.rounds_count
    every_round_singleton = all(len(r.newly_permanent) == 1 for r in tie.rounds)
    assert (tie.rounds_count == single.rounds_count) == every_round_singleton


@given(graphs())
def test_round_bound(g):
    for strategy, trace in [
        (Strategy.SINGLE_MIN, run_classic(g, 1)),
        (Strategy.TIE_BATCH, run_modified(g, 1, strategy=Strategy.TIE_BATCH)),
    ]:
        assert trace.rounds_count <= g.n - 1


@given(graphs(), st.permutations(range(4)))
def test_relax_result_ignores_frontier_iteration_order(g, order):
    # settle a few vertices, then relax from the same frontier presented as
    # differently ordered collections
    trace = run_modified(g, 1, strategy=Strategy.TIE_BATCH)
    if not trace.rounds:
        return
    frontier = sorted(trace.rounds[0].newly_permanent | {1})
    labels = trace.rounds[0].label_snapshot
    reordered = [frontier[i % len(frontier)] for i in order] + frontier
    first = relax_step(g, labels, frozenset(frontier))
    second = relax_step(g, labels, frozenset(reordered))
    assert first[0] == second[0]
    assert first[1] == second[1]


@given(graphs())
def test_full_runs_are_deterministic(g):
    for run in ALL_RUNS:
        first, second = run(g), run(g)
        assert first.final_labels == second.final_labels
        assert first.final_distances == second.final_distances
        assert [r.newly_permanent for r in first.rounds] == [
            r.newly_permanent for r in second.rounds
        ]


@given(graphs())
def test_tree_paths_reproduce_distances(g):
    trace = run_classic(g, 1)
    tree = build_tree_matrix(g, trace)
    for v in g.vertices():
        route = extract_path(tree, v)
        if trace.final_labels.is_permanent(v):
            assert route.total == trace.final_distances[v - 1]
            if v != 1:
                assert route.vertices[0] == 1 and route.vertices[-1] == v
        else:
            assert route.vertices == ()


@given(graphs())
def test_tree_edges_are_consistent(g):
    trace = run_classic(g, 1)
    tree = build_tree_matrix(g, trace)
    for v, (u, w) in enumerate(zip(tree.parents, tree.parent_weights), start=1):
        if u is None:
            assert w is None
            continue
        assert g.weight(u, v) == w
        assert trace.final_distances[u - 1] + w == trace.final_distances[v - 1]


@given(graphs())
@settings(max_examples=50)
def test_select_permanent_settles_a_minimum_vertex(g):
    state, changed = relax_step(g, init_labels(g, 1), {1})
    finite = [
        state.value(v)
        for v in state.vertices()
        if not state.is_permanent(v) and state.value(v).is_finite
    ]
    settled = select_permanent(state, Strategy.SINGLE_MIN, changed)
    if finite:
        (v,) = settled
        assert state.value(v) == min(finite)
    else:
        assert settled == frozenset()


def replay_rounds(g, source, target, stop_at_target, strategy):
    """A run driven through the round API: (frontier, snapshot, newly) per
    round, the final labels, and whether it stopped at the target."""
    labels = init_labels(g, source)
    frontier = frozenset({source})
    rounds = []
    while not labels.all_permanent():
        if stop_at_target and target is not None and labels.is_permanent(target):
            return rounds, labels, True
        # relax_step returns a fresh state, so each recorded one stays as is
        labels, changed = relax_step(g, labels, frontier)
        newly = select_permanent(labels, strategy, changed)
        if not newly:
            break
        rounds.append((frontier, labels, newly))
        frontier = newly
    return rounds, labels, False


# Decimal weights, rationals whose denominators 3 and 7 make the engine's
# scale something other than a power of ten, and weights 1 and 2, whose
# equal-value paths within one round fill predecessor sets and tie classes.
@given(
    graphs(max_n=8)
    | graphs(max_n=8, weights=exact_weights)
    | graphs(max_n=8, weights=tied_weights),
    st.data(),
)
@settings(max_examples=150)
def test_runs_equal_a_round_api_replay(g, data):
    source = data.draw(st.integers(1, g.n))
    target = data.draw(st.none() | st.integers(1, g.n))
    stop_at_target = data.draw(st.booleans())
    strategy = data.draw(st.sampled_from(Strategy))
    trace = run_strategy(g, source, strategy, target, stop_at_target)
    rounds, labels, terminated_early = replay_rounds(
        g, source, target, stop_at_target, strategy
    )
    assert [r.round_index for r in trace.rounds] == list(range(1, len(rounds) + 1))
    assert [(r.frontier, r.label_snapshot, r.newly_permanent) for r in trace.rounds] == rounds
    assert trace.final_labels == labels
    assert trace.final_distances == labels.distances()
    assert trace.terminated_early == terminated_early


@pytest.mark.parametrize("strategy", [Strategy.TIE_BATCH, Strategy.STABLE_BATCH])
@given(graphs(min_n=6, max_n=8, weights=tied_weights))
@settings(max_examples=80)
def test_batched_runs_with_ties_equal_a_round_api_replay(strategy, g):
    # Batches of several frontier vertices, at least six vertices and
    # weights 1 and 2: paths through two members of one batch often reach a
    # vertex at one value, so relax_step takes its equal-candidate branch.
    trace = run_strategy(g, 1, strategy)
    rounds, labels, _ = replay_rounds(g, 1, None, False, strategy)
    assert [(r.frontier, r.label_snapshot, r.newly_permanent) for r in trace.rounds] == rounds
    assert trace.final_labels == labels


def _changed_rows(before, after) -> list:
    """``(vertex, row)`` for every vertex whose row differs, by ascending vertex."""
    return [
        (v, new)
        for v, (old, new) in enumerate(zip(before.rows(), after.rows()), start=1)
        if old != new
    ]


@pytest.mark.parametrize("stop_at_target", [False, True])
@pytest.mark.parametrize("strategy", list(Strategy))
@given(
    graphs(max_n=8)
    | graphs(max_n=8, weights=exact_weights)
    | graphs(max_n=8, weights=tied_weights),
    st.data(),
)
@settings(max_examples=40)
def test_changes_are_the_rows_that_differ_from_the_round_before(strategy, stop_at_target, g, data):
    source = data.draw(st.integers(1, g.n))
    target = data.draw(st.none() | st.integers(1, g.n))
    trace = run_strategy(g, source, strategy, target, stop_at_target)
    rounds, _, _ = replay_rounds(g, source, target, stop_at_target, strategy)
    for recorded in (trace, trace_from_json(trace_to_json(trace))):
        before = init_labels(g, source)
        latest = {}
        for record, (_, after, _) in zip(recorded.rounds, rounds, strict=True):
            assert list(record.changes) == _changed_rows(before, after)
            latest.update(record.changes)
            before = after
        # each change carries the row object that later rounds keep
        final = recorded.final_labels.rows()
        assert all(final[v - 1] is row for v, row in latest.items())


@pytest.mark.parametrize("stop_at_target", [False, True])
@pytest.mark.parametrize("strategy", list(Strategy))
@given(
    graphs(max_n=8)
    | graphs(max_n=8, weights=exact_weights)
    | graphs(max_n=8, weights=tied_weights),
    st.data(),
)
@settings(max_examples=40)
def test_rounds_built_on_first_read_are_the_run_records(strategy, stop_at_target, g, data):
    source = data.draw(st.integers(1, g.n))
    target = data.draw(st.none() | st.integers(1, g.n))
    trace = run_strategy(g, source, strategy, target, stop_at_target)
    fresh = run_strategy(g, source, strategy, target, stop_at_target)
    count = trace.rounds_count
    # a round trip in which the writer is the first to read the rounds, and
    # the comparison the first to read ``trace``'s
    assert trace_from_json(trace_to_json(fresh)) == trace
    assert len(trace.rounds) == count
    records = list(trace.rounds)
    assert all(a is b for a, b in zip(records, trace.rounds, strict=True))
    for record in records:
        vertices = [v for v, _ in record.changes]
        assert vertices == sorted(set(vertices))
        snapshot = record.label_snapshot
        rounds = enumerate(map(snapshot.settled_round, snapshot.vertices()), start=1)
        assert record.newly_permanent == {v for v, k in rounds if k == record.round_index}
    loaded = trace_from_json(trace_to_json(trace))
    assert loaded == trace and trace == loaded
    assert repr(loaded) == repr(trace)


@pytest.mark.parametrize("strategy", list(Strategy))
@given(graphs(max_n=8) | graphs(max_n=8, weights=exact_weights), st.data())
def test_a_run_records_at_most_one_change_per_settle_and_per_edge(strategy, g, data):
    # Each vertex settles once and each edge is relaxed once, in the round
    # after its tail settles, so a trace is bounded by the input, not by
    # n times the rounds.
    source = data.draw(st.integers(1, g.n))
    trace = run_strategy(g, source, strategy)
    changes = sum(len(record.changes) for record in trace.rounds)
    assert changes <= (g.n - 1) + len(list(g.edges()))


def test_runs_are_exact_across_denominators():
    # The engine scales by lcm(10**29, 3, 7). Vertices 3, 5 and 6 are each
    # reached by paths whose totals are equal only when summed exactly.
    tiny, third, seventh = Fraction(1, 10**29), Fraction(1, 3), Fraction(1, 7)
    g = Graph.from_edges(6, [
        (1, 2, tiny), (2, 3, third), (1, 3, third + tiny),
        (3, 4, seventh),
        (4, 5, seventh), (1, 5, third + 2 * seventh + tiny),
        (1, 6, third + 2 * seventh + 2 * tiny), (2, 6, third + 2 * seventh + tiny), (5, 6, tiny),
    ])
    oracle = bellman_ford(g, 1).distances
    assert oracle[3].fraction == tiny + third + seventh
    for strategy in Strategy:
        trace = run_strategy(g, 1, strategy)
        rounds, labels, _ = replay_rounds(g, 1, None, False, strategy)
        assert [(r.frontier, r.label_snapshot, r.newly_permanent) for r in trace.rounds] == rounds
        assert trace.final_labels == labels
        assert trace.final_distances == oracle
    classic = run_classic(g, 1).final_labels
    assert [classic.predecessors(v) for v in (3, 5, 6)] == [{1, 2}, {1, 4}, {1, 2, 5}]


def test_sound_strategies_match_bellman_ford_on_a_sparse_300_vertex_graph():
    g = generate_graph(GraphSpec(300, 5 / 300, 1, 9, 0.5, seed=300), 0)
    oracle = bellman_ford(g, 1).distances
    assert sum(w.is_finite for w in oracle) > 250
    assert run_classic(g, 1).final_distances == oracle
    assert run_modified(g, 1, strategy=Strategy.TIE_BATCH).final_distances == oracle
