"""Label-setting machinery: relaxation, permanent selection, full traced runs.

A run alternates two moves until nothing settles: relax every temporary label
from the current frontier, then promote a batch of temporary labels to
permanent. The three selection strategies differ only in the batch:

* ``SINGLE_MIN``  - settle the lowest-id vertex holding the minimum temporary
  label (classic Dijkstra labeling; the id rule makes traces deterministic).
* ``TIE_BATCH``   - settle every vertex tied at the minimum.
* ``STABLE_BATCH`` - settle the minimum batch plus every finite temporary
  label the preceding relaxation failed to improve. Experimental: it can
  settle labels that are not yet optimal, so callers must oracle-check it
  (see the counterexample fixture).

The run engine relaxes only the out-edges of the frontier, each weight read
from the graph's ``Graph.scaled_weights``: the weight times ``scale``, the lcm
of the weight denominators, as an exact ``int``. It keeps each finite label as
such an integer, relaxes with ``int`` additions and selects in one loop over
a lazy-deletion heap of ints ``scaled value * (n + 1) + vertex id``, which
order as ``(value, vertex)`` pairs would. The loop drops the entries left
behind by a later improvement or a settle, and stops after the first current
entry, the lowest id at the minimum, or when batching after the last entry
tied with it: a tie batch is the run of entries sharing the top value (a Dial
bucket). STABLE_BATCH also keeps the set of finite temporary labels. The rows
hold ``Weight``s, one per distinct distance per run, so equal values in a
trace are one object.

Every round is recorded so runs can be replayed, rendered, and
regression-tested against golden traces. A label state is one list of rows,
one immutable ``(value, predecessors, settled round)`` tuple per vertex: a
cell of the paper's iteration table. A vertex is permanent exactly when its
settling round is set, so its status and the next round's index are derived,
not stored. A change replaces the vertex's row, never mutates it, so a round
is recorded as its changes: the ``(vertex, row)`` pairs of the vertices it
improved, extended or settled, each a new row that differs from the one
before. The engine only logs the rows it writes; a trace's ``rounds`` builds
its records from the log on first read. A run costs O(n + m log m) for
relaxation and selection and O(writes) for the log, all that a caller pays
who never reads a record; the records hold O(n + changes) rows: the initial
labels, shared by every round, and one pair per change. A round's
``label_snapshot`` is replayed on access from the initial labels through the
changes so far, in O(n + changes).

:func:`relax_step` and :func:`select_permanent` perform one relax and one
select move over a whole ``LabelState``; they are the straightforward
reference the engine is tested against.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter

from .errors import FrontierNotPermanent, MalformedInput
from .graph import Graph, check_vertex
from .weights import INFINITY, Weight

# A label cell: value, predecessors, settling round (None while temporary).
_Row = tuple[Weight, frozenset[int], int | None]


class Strategy(enum.Enum):
    SINGLE_MIN = "singlemin"
    TIE_BATCH = "tiebatch"
    STABLE_BATCH = "stablebatch"


class LabelState:
    """Per-vertex rows ``(value, predecessors, settled round)``, vertex v at
    v - 1.

    A vertex is permanent exactly when its settling round is not None.
    Predecessors hold *all* minimizers seen so far: a strict improvement
    replaces the set, an equal-value alternative extends it. A row is an
    immutable tuple of a ``Weight``, a ``frozenset`` and a round, and a change
    replaces it, so :meth:`copy` is one list copy that shares the rows.
    Confined to a single run; use :meth:`copy` for snapshots. States compare
    equal when their rows do.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[_Row]):
        self._rows = rows

    @classmethod
    def initial(cls, n: int, source: int) -> "LabelState":
        rows = [(INFINITY, frozenset(), None)] * n
        rows[source - 1] = (Weight.zero(), frozenset(), 0)
        return cls(rows)

    @property
    def n(self) -> int:
        return len(self._rows)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def value(self, v: int) -> Weight:
        return self._rows[v - 1][0]

    def predecessors(self, v: int) -> frozenset[int]:
        return self._rows[v - 1][1]

    def is_permanent(self, v: int) -> bool:
        return self._rows[v - 1][2] is not None

    def settled_round(self, v: int) -> int | None:
        return self._rows[v - 1][2]

    def all_permanent(self) -> bool:
        return None not in map(itemgetter(2), self._rows)

    def distances(self) -> tuple[Weight, ...]:
        # From a list, tuple() allocates the exact size. From an iterator
        # without a length it allocates 10 slots and shrinks them, and the
        # shrunken tuples fill the free lists of the smaller sizes, which
        # only a full collection empties: about 1 MiB on a sweep of small
        # graphs.
        return tuple([row[0] for row in self._rows])

    def rows(self) -> tuple[_Row, ...]:
        """The rows themselves, which copies and a trace's rounds share."""
        return tuple(self._rows)

    def copy(self) -> "LabelState":
        return LabelState(list(self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelState):
            return NotImplemented
        return self.rows() == other.rows()

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{v}:[{value},{sorted(preds)},{'temporary' if settled is None else 'permanent'}]"
            for v, (value, preds, settled) in enumerate(self._rows, start=1)
        )
        return f"<LabelState {rows}>"


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One relax-then-select repetition and the label rows it changed.

    ``changes`` holds ``(vertex, row)`` for every vertex whose row differs
    from the one before the round (the initial labels before round 1), by
    ascending vertex, with the new row. Records compare by their four public
    fields; the previous record, or the run's initial labels for round 1, is
    kept only to rebuild :attr:`label_snapshot` as a plain ``LabelState``.
    """

    round_index: int
    frontier: frozenset[int]
    changes: tuple[tuple[int, _Row], ...]
    newly_permanent: frozenset[int]
    _previous: RoundRecord | LabelState = field(compare=False, repr=False)

    @property
    def label_snapshot(self) -> LabelState:
        """The labels after this round, a fresh state on each access: the
        run's initial rows with the changes of every round up to this one
        applied in order, O(n + changes). Walks the records back
        iteratively, so a run of any length replays without recursion."""
        history = []
        record = self
        while isinstance(record, RoundRecord):
            history.append(record.changes)
            record = record._previous
        rows = list(record.rows())
        for changes in reversed(history):
            for v, row in changes:
                rows[v - 1] = row
        return LabelState(rows)


class _RoundLog(Sequence):
    """A run's rounds as the engine logs them: each row written, ``vertex,
    row`` in turn, and the log's length at each round's end. Reads as the
    tuple of :class:`RoundRecord` it stands for, built on the first read of a
    record and kept; ``len`` builds nothing. A round's changes are each
    vertex's last row in it, its batch the rows it settled, and its frontier
    the batch before (the source for round 1)."""

    __slots__ = ("_log", "_ends", "_initial", "_source", "_records")

    def __init__(self, log: list, ends: list[int], initial: LabelState, source: int):
        self._log, self._ends, self._initial, self._source = log, ends, initial, source
        self._records: tuple[RoundRecord, ...] | None = None

    def __getitem__(self, index):
        if self._records is None:
            log, records, start = self._log, [], 0
            record, frontier = self._initial, frozenset((self._source,))
            for k, end in enumerate(self._ends, start=1):
                last = dict(zip(log[start:end:2], log[start + 1 : end : 2]))
                changes = tuple(sorted(last.items()))  # distinct vertices: no row compared
                newly = frozenset([v for v, row in changes if row[2] is not None])
                record = RoundRecord(k, frontier, changes, newly, record)
                records.append(record)
                frontier, start = newly, end
            self._records, self._log = tuple(records), None
        return self._records[index]

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        return self[:] == tuple(other) if isinstance(other, (tuple, _RoundLog)) else NotImplemented

    def __repr__(self) -> str:
        return repr(self[:])


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one labeling run.

    The algorithm, the round counts and the final distances are derived from
    the stored fields; ``rounds`` holds :class:`RoundRecord`s, for a run built
    on first read. ``rounds_count`` counts relax+select repetitions after
    source initialization; ``rounds_count_incl_source`` adds one for the
    initialization step, matching tools that display it as a first iteration.
    """

    strategy: Strategy
    source: int
    target: int | None
    rounds: Sequence[RoundRecord]
    final_labels: LabelState
    terminated_early: bool

    @property
    def algorithm(self) -> str:
        """``"classic"`` for SINGLE_MIN, ``"modified"`` for a batching strategy."""
        return "classic" if self.strategy is Strategy.SINGLE_MIN else "modified"

    @property
    def rounds_count(self) -> int:
        return len(self.rounds)

    @property
    def rounds_count_incl_source(self) -> int:
        return len(self.rounds) + 1

    @property
    def final_distances(self) -> tuple[Weight, ...]:
        return self.final_labels.distances()


def init_labels(g: Graph, source: int) -> LabelState:
    """Source permanent at zero, every other vertex temporary at INFINITY."""
    check_vertex(g.n, source)
    return LabelState.initial(g.n, source)


def relax_step(
    g: Graph, labels: LabelState, frontier: frozenset[int] | set[int]
) -> tuple[LabelState, frozenset[int]]:
    """Relax every temporary label from the frontier.

    Returns a fresh LabelState (the input is untouched) and the set of
    vertices whose value strictly decreased. An equal-value path through a
    new frontier vertex extends the predecessor set without counting as a
    change. The result does not depend on frontier iteration order: every
    temporary vertex takes the minimum over the whole frontier at once.
    Raises MalformedInput when the frontier is not a set, or the labels are
    not a LabelState of the graph's n vertices.
    """
    if not isinstance(frontier, (set, frozenset)):
        raise MalformedInput(f"frontier must be a set of vertex ids, got {frontier!r}")
    if not isinstance(labels, LabelState):
        raise MalformedInput(f"labels must be a LabelState, got {labels!r}")
    if labels.n != g.n:
        raise MalformedInput(f"the labels have {labels.n} vertices, the graph {g.n}")
    for i in frontier:
        if not labels.is_permanent(check_vertex(g.n, i)):
            raise FrontierNotPermanent(f"frontier vertex {i} is not permanent")
    rows = list(labels.rows())
    changed: set[int] = set()
    frontier_sorted = sorted(frontier)
    for j in g.vertices():
        value, preds, settled = rows[j - 1]
        if settled is not None:
            continue
        best: Weight | None = None
        minimizers: set[int] = set()
        for i in frontier_sorted:
            w = g.weight(i, j)
            if w.is_infinite:
                continue
            candidate = labels.value(i) + w
            if best is None or candidate < best:
                best = candidate
                minimizers = {i}
            elif candidate == best:
                minimizers.add(i)
        if best is None:
            continue
        if best < value:
            rows[j - 1] = (best, frozenset(minimizers), None)
            changed.add(j)
        elif best == value:
            rows[j - 1] = (value, preds | minimizers, None)
    return LabelState(rows), frozenset(changed)


def select_permanent(
    labels: LabelState, strategy: Strategy, changed: frozenset[int] | set[int]
) -> frozenset[int]:
    """Promote a batch of temporary labels to permanent, in place.

    Let m be the minimum finite temporary value. SINGLE_MIN settles the
    lowest-id vertex at m, TIE_BATCH every vertex at m, STABLE_BATCH every
    vertex at m plus each finite temporary vertex absent from ``changed``.
    Returns the settled set; empty (and no mutation) when no temporary label
    is finite, which signals exhaustion to the caller. The batch's round is
    one past the highest settling round so far. Raises MalformedInput unless
    ``labels`` is a LabelState.
    """
    if not isinstance(labels, LabelState):
        raise MalformedInput(f"labels must be a LabelState, got {labels!r}")
    rows = labels.rows()
    finite = [
        (w, v) for v, (w, _, r) in enumerate(rows, start=1) if r is None and w.is_finite
    ]
    if not finite:
        return frozenset()
    minimum = min(w for w, _ in finite)
    at_minimum = {v for w, v in finite if w == minimum}
    if strategy is Strategy.SINGLE_MIN:
        chosen = {min(at_minimum)}
    elif strategy is Strategy.TIE_BATCH:
        chosen = at_minimum
    elif strategy is Strategy.STABLE_BATCH:
        chosen = at_minimum | {v for _, v in finite if v not in changed}
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown strategy {strategy!r}")
    round_index = max((r for _, _, r in rows if r is not None), default=-1) + 1
    for v in chosen:
        value, preds, _ = rows[v - 1]
        labels._rows[v - 1] = (value, preds, round_index)
    return frozenset(chosen)


def run_classic(
    g: Graph,
    source: int,
    target: int | None = None,
    stop_at_target: bool = False,
) -> RunTrace:
    """Classic single-settle labeling run with a full per-round trace."""
    return _run(g, source, target, stop_at_target, Strategy.SINGLE_MIN)


def run_modified(
    g: Graph,
    source: int,
    target: int | None = None,
    stop_at_target: bool = False,
    strategy: Strategy = Strategy.TIE_BATCH,
) -> RunTrace:
    """Batched labeling run (TIE_BATCH or STABLE_BATCH) with a full trace."""
    if strategy not in (Strategy.TIE_BATCH, Strategy.STABLE_BATCH):
        raise ValueError(f"run_modified requires a batching strategy, got {strategy}")
    return _run(g, source, target, stop_at_target, strategy)


def _run(
    g: Graph,
    source: int,
    target: int | None,
    stop_at_target: bool,
    strategy: Strategy,
) -> RunTrace:
    check_vertex(g.n, source)
    if target is not None:
        check_vertex(g.n, target)
    initial = LabelState.initial(g.n, source)
    rows = list(initial.rows())
    scale, scaled = g.scaled_weights
    # Each finite label times ``scale`` (None for INFINITY): the operands of
    # relaxation; a heap entry is ``value * width + v``. ``weight_of`` maps
    # each scaled value to the one Weight the rows hold for it in this run.
    exact: list[int | None] = [None] * g.n
    exact[source - 1] = 0
    weight_of: dict[int, Weight] = {}
    width = g.n + 1
    heap: list[int] = []
    finite_temporary: set[int] = set()
    batching = strategy is not Strategy.SINGLE_MIN
    unsettled = g.n - 1
    # each row written, ``vertex, row`` in turn, and each round's end in it
    log, ends = [], []
    write = log.append
    frontier = {source}
    terminated_early = False
    while unsettled:
        if stop_at_target and target is not None and rows[target - 1][2] is not None:
            terminated_early = True
            break
        changed = set()  # the improved vertices
        for u in frontier:
            base = exact[u - 1]
            # one predecessor set per frontier vertex, shared by its rows
            only_u = frozenset((u,))
            for v, w in g.adjacency[u - 1]:
                row = rows[v - 1]
                if row[2] is not None:
                    continue
                candidate = base + scaled[id(w)]
                old = exact[v - 1]
                if old is None or candidate < old:
                    if old is None:
                        finite_temporary.add(v)
                    exact[v - 1] = candidate
                    value = weight_of.get(candidate)
                    if value is None:
                        value = weight_of[candidate] = Weight(Fraction(candidate, scale))
                    rows[v - 1] = row = (value, only_u, None)
                    heappush(heap, candidate * width + v)
                    changed.add(v)
                    write(v)
                    write(row)
                elif candidate == old:
                    rows[v - 1] = row = (row[0], row[1] | only_u, None)
                    write(v)
                    write(row)
        # Select the first current entry (its vertex temporary at the entry's
        # value), and when batching every one tied with it, below ``bound``,
        # dropping the rest. None is current when no temporary label is
        # finite: the run ends.
        newly = set()
        while heap and (not newly or batching and heap[0] < bound):
            minimum, v = divmod(heappop(heap), width)
            if rows[v - 1][2] is None and exact[v - 1] == minimum:
                newly.add(v)
                bound = (minimum + 1) * width
        if not newly:
            break
        if strategy is Strategy.STABLE_BATCH:
            newly |= finite_temporary - changed
        round_index = len(ends) + 1
        for v in newly:
            value, preds, _ = rows[v - 1]
            rows[v - 1] = row = (value, preds, round_index)
            write(v)
            write(row)
        ends.append(len(log))
        finite_temporary -= newly
        unsettled -= len(newly)
        frontier = newly
    return RunTrace(
        strategy=strategy,
        source=source,
        target=target,
        rounds=_RoundLog(log, ends, initial, source),
        final_labels=LabelState(rows),
        terminated_early=terminated_early,
    )
