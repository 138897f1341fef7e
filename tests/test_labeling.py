from __future__ import annotations

import operator
import tracemalloc

import pytest

from pathlab import (
    FrontierNotPermanent,
    Graph,
    GraphTooLarge,
    INFINITY,
    LabelState,
    Strategy,
    VertexOutOfRange,
    Weight,
    bellman_ford,
    enumerate_min_path,
    init_labels,
    parse_edge_list,
    parse_matrix_text,
    relax_step,
    run_classic,
    run_modified,
    select_permanent,
)
from pathlab import render
from pathlab.bench import run_strategy
from pathlab.graph import MAX_VERTICES

from .test_scale import sparse_edge_list


def single_vertex():
    return parse_matrix_text("1\n0")


class TestInitLabels:
    def test_eight_city(self, paper8):
        labels = init_labels(paper8, 1)
        assert labels.value(1) == 0
        assert labels.is_permanent(1)
        assert labels.settled_round(1) == 0
        assert labels.predecessors(1) == frozenset()
        for v in range(2, 9):
            assert labels.value(v) == INFINITY
            assert not labels.is_permanent(v)
            assert labels.settled_round(v) is None

    def test_single_vertex(self):
        labels = init_labels(single_vertex(), 1)
        assert labels.value(1) == 0
        assert labels.all_permanent()

    def test_out_of_range(self, paper8):
        with pytest.raises(VertexOutOfRange):
            init_labels(paper8, 9)


class TestRelaxStep:
    def test_from_source(self, paper8):
        labels = init_labels(paper8, 1)
        after, changed = relax_step(paper8, labels, {1})
        assert after.value(2) == 1 and after.predecessors(2) == {1}
        assert after.value(3) == 2 and after.predecessors(3) == {1}
        assert changed == {2, 3}
        assert after.value(4) == INFINITY
        # input state untouched
        assert labels.value(2) == INFINITY

    def test_empty_frontier(self, paper8):
        labels = init_labels(paper8, 1)
        after, changed = relax_step(paper8, labels, frozenset())
        assert changed == frozenset()
        assert after == labels

    def test_batched_frontier_on_tie_fixture(self, tie4):
        # expected value cross-checked against exhaustive enumeration below
        labels = init_labels(tie4, 1)
        labels, changed = relax_step(tie4, labels, {1})
        assert select_permanent(labels, Strategy.TIE_BATCH, changed) == {2, 3}
        after, changed = relax_step(tie4, labels, {2, 3})
        assert after.value(4) == 2
        assert after.predecessors(4) == {2}
        assert changed == {4}
        oracle_total, _ = enumerate_min_path(tie4, 1, 4)
        assert oracle_total == after.value(4)

    def test_two_frontier_vertices_tie_at_one_value(self):
        # 2 and 3 reach 4 at the same value within one frontier: both are
        # minimizers, the case the batched strategies settle together
        g = Graph.from_edges(4, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)])
        labels, changed = relax_step(g, init_labels(g, 1), {1})
        assert select_permanent(labels, Strategy.TIE_BATCH, changed) == {2, 3}
        after, changed = relax_step(g, labels, {2, 3})
        assert after.value(4) == 2
        assert after.predecessors(4) == {2, 3}
        assert changed == {4}
        traces = [run_strategy(g, 1, strategy) for strategy in Strategy]
        assert [trace.rounds_count for trace in traces] == [3, 2, 2]
        assert [trace.final_labels.predecessors(4) for trace in traces] == [{2, 3}] * 3

    def test_equal_value_path_extends_predecessors_without_change(self, paper8):
        # vertex 5 reaches 3 both via 2 and, one round later, via 3
        trace = run_classic(paper8, 1)
        snapshot2 = trace.rounds[1].label_snapshot
        assert snapshot2.value(5) == 3 and snapshot2.predecessors(5) == {2}
        after, changed = relax_step(paper8, snapshot2, {3})
        assert after.value(5) == 3
        assert after.predecessors(5) == {2, 3}
        assert 5 not in changed

    def test_frontier_must_be_permanent(self, paper8):
        labels = init_labels(paper8, 1)
        with pytest.raises(FrontierNotPermanent):
            relax_step(paper8, labels, {2})

    def test_frontier_vertex_range(self, paper8):
        labels = init_labels(paper8, 1)
        with pytest.raises(VertexOutOfRange):
            relax_step(paper8, labels, {9})


class TestLabelState:
    def test_copy_shares_rows_and_keeps_them_when_the_original_settles(self, paper8):
        labels, changed = relax_step(paper8, init_labels(paper8, 1), {1})
        before = labels.rows()
        copy = labels.copy()
        assert copy == labels
        assert all(map(operator.is_, copy.rows(), before))
        assert select_permanent(labels, Strategy.SINGLE_MIN, changed) == {2}
        assert labels.is_permanent(2) and not copy.is_permanent(2)
        assert all(map(operator.is_, copy.rows(), before))

    def test_repr_lists_each_row(self):
        labels = labels_with_temporaries(3, {2: 4})
        assert repr(labels) == (
            "<LabelState 1:[0,[],permanent], 2:[4,[1],temporary], 3:[INF,[],temporary]>"
        )


def labels_with_temporaries(n: int, values: dict[int, int]) -> LabelState:
    """Source 1 permanent; the given vertices temporary at finite values."""
    rows = list(LabelState.initial(n, 1).rows())
    for v, value in values.items():
        rows[v - 1] = (Weight.finite(value), frozenset({1}), None)
    return LabelState(rows)


class TestSelectPermanent:
    def test_single_min_takes_lowest_id_at_minimum(self):
        labels = labels_with_temporaries(7, {4: 4, 6: 6, 7: 10})
        settled = select_permanent(labels, Strategy.SINGLE_MIN, frozenset())
        assert settled == {4}
        assert labels.is_permanent(4)
        assert labels.settled_round(4) == 1

    def test_tie_batch_takes_all_at_minimum(self):
        labels = labels_with_temporaries(3, {2: 1, 3: 1})
        assert select_permanent(labels, Strategy.TIE_BATCH, frozenset()) == {2, 3}

    def test_stable_batch_adds_unimproved_finite_labels(self):
        labels = labels_with_temporaries(7, {4: 4, 6: 6, 7: 10})
        settled = select_permanent(labels, Strategy.STABLE_BATCH, frozenset({7}))
        assert settled == {4, 6}
        assert not labels.is_permanent(7)

    def test_exhaustion_returns_empty(self):
        labels = LabelState.initial(3, 1)
        assert select_permanent(labels, Strategy.SINGLE_MIN, frozenset()) == frozenset()

    def test_tie_break_is_lowest_id(self):
        labels = labels_with_temporaries(5, {3: 2, 5: 2, 4: 9})
        assert select_permanent(labels, Strategy.SINGLE_MIN, frozenset()) == {3}

    def test_round_index_continues_from_a_rebuilt_state(self):
        # a state built directly, as trace_from_json builds one, already has
        # vertices settled in rounds 0..2
        labels = LabelState(
            [
                (Weight.finite(0), frozenset(), 0),
                (Weight.finite(1), frozenset({1}), 2),
                (Weight.finite(2), frozenset({2}), 1),
                (Weight.finite(5), frozenset({3}), None),
            ]
        )
        assert labels.is_permanent(3)
        assert not labels.is_permanent(4)
        assert select_permanent(labels, Strategy.SINGLE_MIN, frozenset()) == {4}
        assert labels.settled_round(4) == 3

    def test_selects_on_a_round_snapshot(self, paper8):
        # each access gives a fresh state, so selecting on one settles the
        # next round's batch in that state alone
        trace = run_classic(paper8, 1)
        snapshot = trace.rounds[1].label_snapshot
        settled = select_permanent(snapshot, Strategy.SINGLE_MIN, frozenset())
        assert settled == trace.rounds[2].newly_permanent == {5}
        assert snapshot.settled_round(5) == 3
        assert not trace.rounds[1].label_snapshot.is_permanent(5)
        assert trace == run_classic(paper8, 1)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_round_snapshot_is_a_plain_label_state(self, paper8, strategy):
        trace = run_strategy(paper8, 1, strategy)
        for record in trace.rounds:
            snapshot = record.label_snapshot
            assert type(snapshot) is LabelState
            assert snapshot is not record.label_snapshot
            assert snapshot == record.label_snapshot


class TestRunClassic:
    def test_tora_golden_final_labels(self, paper8_tora):
        trace = run_classic(paper8_tora, 1)
        expected = {
            1: (0, None),
            2: (1, 1),
            3: (2, 2),
            4: (4, 3),
            5: (3, 2),
            6: (6, 3),
            7: (10, 5),
            8: (8, 6),
        }
        labels = trace.final_labels
        for v, (value, pred) in expected.items():
            assert labels.value(v) == value
            if pred is None:
                assert labels.predecessors(v) == frozenset()
            else:
                assert min(labels.predecessors(v)) == pred
        assert trace.rounds_count_incl_source == 8
        assert trace.rounds_count == 7
        assert not trace.terminated_early

    def test_tora_settle_order(self, paper8_tora):
        trace = run_classic(paper8_tora, 1)
        order = [next(iter(r.newly_permanent)) for r in trace.rounds]
        assert order == [2, 3, 5, 4, 6, 8, 7]

    def test_single_vertex(self):
        trace = run_classic(single_vertex(), 1)
        assert trace.rounds_count == 0
        assert trace.final_distances == (0,)

    def test_unreachable_target_terminates_cleanly(self):
        g = Graph.from_edges(2, [])
        trace = run_classic(g, 1, target=2, stop_at_target=True)
        assert trace.final_distances == (0, INFINITY)
        assert trace.rounds_count == 0
        assert not trace.terminated_early

    def test_stop_at_target_halts_early(self, paper8):
        trace = run_classic(paper8, 1, target=5, stop_at_target=True)
        assert trace.final_distances[4] == 3
        assert trace.terminated_early
        assert trace.rounds_count < run_classic(paper8, 1).rounds_count

    def test_out_of_range(self, paper8):
        with pytest.raises(VertexOutOfRange):
            run_classic(paper8, 1, target=9)


class TestRunModified:
    def test_stable_batch_reproduces_five_round_schedule(self, paper8):
        trace = run_modified(paper8, 1, 8, strategy=Strategy.STABLE_BATCH)
        assert [set(r.newly_permanent) for r in trace.rounds] == [
            {2},
            {3},
            {5},
            {4, 6},
            {7, 8},
        ]
        assert trace.rounds_count == 5
        assert trace.final_distances == (0, 1, 2, 4, 3, 6, 10, 8)

    def test_tie_batch_on_eight_city(self, paper8):
        trace = run_modified(paper8, 1, 8, strategy=Strategy.TIE_BATCH)
        assert trace.final_distances == bellman_ford(paper8, 1).distances
        assert trace.rounds_count == 7

    def test_tie_batch_saves_a_round_on_tie_fixture(self, tie4):
        tie = run_modified(tie4, 1, strategy=Strategy.TIE_BATCH)
        classic = run_classic(tie4, 1)
        assert [set(r.newly_permanent) for r in tie.rounds] == [{2, 3}, {4}]
        assert tie.rounds_count == 2
        assert classic.rounds_count == 3
        assert tie.final_distances == classic.final_distances

    def test_rejects_single_min(self, paper8):
        with pytest.raises(ValueError):
            run_modified(paper8, 1, strategy=Strategy.SINGLE_MIN)


class TestTraceInvariants:
    def test_round_accounting(self, paper8):
        for trace in (
            run_classic(paper8, 1),
            run_modified(paper8, 1, strategy=Strategy.TIE_BATCH),
            run_modified(paper8, 1, strategy=Strategy.STABLE_BATCH),
        ):
            settled = set().union(*(r.newly_permanent for r in trace.rounds)) | {1}
            assert settled == set(filter(trace.final_labels.is_permanent, paper8.vertices()))
            assert all(r.newly_permanent for r in trace.rounds)
            assert sum(len(r.newly_permanent) for r in trace.rounds) == len(settled) - 1
            assert trace.rounds_count_incl_source == trace.rounds_count + 1

    def test_derived_fields(self, paper8):
        traces = [
            run_classic(paper8, 1, 5, stop_at_target=True),
            run_modified(paper8, 1, 5, True, Strategy.TIE_BATCH),
            run_modified(paper8, 1, 5, True, Strategy.STABLE_BATCH),
        ]
        assert [trace.algorithm for trace in traces] == ["classic", "modified", "modified"]
        for trace in traces:
            assert trace.rounds_count == len(trace.rounds)
            assert trace.final_distances == trace.final_labels.distances()
            labels = trace.final_labels
            for v in labels.vertices():
                assert labels.is_permanent(v) is (labels.settled_round(v) is not None)

    def test_frontier_chains_from_previous_round(self, paper8):
        trace = run_modified(paper8, 1, strategy=Strategy.TIE_BATCH)
        assert trace.rounds[0].frontier == {1}
        for previous, current in zip(trace.rounds, trace.rounds[1:]):
            assert current.frontier == previous.newly_permanent

    def test_equal_value_extension_leaves_earlier_snapshots_alone(self, paper8):
        # vertex 5 gets value 3 via 2 in round 2, and an equal-value path via
        # 3 (settled in round 2) extends its predecessors in round 3
        trace = run_classic(paper8, 1)
        before, after = trace.rounds[1].label_snapshot, trace.rounds[2].label_snapshot
        assert trace.rounds[2].frontier == {3}
        assert before.predecessors(5) == {2}
        assert after.predecessors(5) == {2, 3}
        assert type(before.predecessors(5)) is frozenset
        # a state rebuilt from equal rows in new tuples is equal
        rebuilt = LabelState([(value, preds, r) for value, preds, r in before.rows()])
        assert rebuilt == before
        assert rebuilt.rows()[4] is not before.rows()[4]

    def test_rerun_is_identical(self, paper8_tora):
        first = run_classic(paper8_tora, 1)
        second = run_classic(paper8_tora, 1)
        assert first.final_labels == second.final_labels
        assert [r.newly_permanent for r in first.rounds] == [
            r.newly_permanent for r in second.rounds
        ]


class TestSnapshotBudget:
    def chain(self, n: int) -> Graph:
        # every distance distinct, so even TIE_BATCH takes n - 1 rounds
        return Graph.from_edges(n, [(v, v + 1, 1) for v in range(1, n)])

    def test_every_run_within_the_dense_cap_fits(self):
        assert (MAX_VERTICES - 1) * MAX_VERTICES <= render.MAX_SNAPSHOT_CELLS

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_outgrowing_trace_is_not_rendered(self, monkeypatch, strategy):
        monkeypatch.setattr(render, "MAX_SNAPSHOT_CELLS", 20)
        # 4 rounds of 5 cells fit; the fourth round of 6 cells does not
        fits = run_strategy(self.chain(5), 1, strategy)
        assert fits.rounds_count == 4
        render.render_trace_text(fits)
        render.trace_to_json(fits)
        outgrows = run_strategy(self.chain(6), 1, strategy)
        assert outgrows.rounds_count == 5
        for renderer in (render.render_trace_text, render.trace_to_json):
            with pytest.raises(GraphTooLarge) as raised:
                renderer(outgrows)
            assert str(raised.value) == "24 snapshot label cells exceed the limit of 20"


class TestRowSharing:
    @pytest.mark.parametrize("n, mib", [(1000, 2), (4000, 8)])
    def test_classic_trace_memory_grows_with_the_changes(self, n, mib):
        # a round records only the rows it changed; full snapshots of about
        # n rounds of n references would take 8 MB at n = 1000, 128 MB at 4000
        g = parse_edge_list(sparse_edge_list(n, 5, seed=3))
        tracemalloc.start()
        try:
            trace = run_classic(g, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.rounds_count > 0.9 * n
        assert peak < mib * 2**20

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_equal_values_in_a_run_are_one_weight(self, strategy):
        # weights 1..9 out of 3 per vertex: many vertices share a distance
        g = parse_edge_list(sparse_edge_list(60, 3, seed=5))
        trace = run_strategy(g, 1, strategy)
        first: dict[Weight, Weight] = {}
        finite = 0
        for labels in [r.label_snapshot for r in trace.rounds] + [trace.final_labels]:
            for value in labels.distances():
                if value.is_finite:
                    finite += 1
                    assert first.setdefault(value, value) is value
        assert len(first) < sum(w.is_finite for w in trace.final_distances) < finite

    @pytest.mark.parametrize("graph", ["paper8", "tie4", "sparse"])
    def test_a_snapshot_keeps_the_row_of_every_unchanged_label(self, request, graph):
        if graph == "sparse":
            g = parse_edge_list(sparse_edge_list(60, 3, seed=5))
        else:
            g = request.getfixturevalue(graph)
        trace = run_classic(g, 1)
        snapshots = [r.label_snapshot for r in trace.rounds] + [trace.final_labels]
        for before, after in zip(snapshots, snapshots[1:]):
            for old, new in zip(before.rows(), after.rows()):
                # an improvement, an extension or a settle writes a new row
                assert (old is new) is (old == new)
