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

The run engine relaxes only the out-edges of the frontier, read from the
graph's stored ``Graph.adjacency``, and selects from a lazy-deletion heap keyed
``(exact value, vertex id)``: the heap top is the lowest id at the minimum, a
tie batch is the run of entries sharing the top value (a Dial bucket), and
entries left behind by a later improvement or a settle are skipped when they
surface. STABLE_BATCH also keeps the set of finite temporary labels.

Every round is recorded with a label snapshot so runs can be replayed,
rendered, and regression-tested against golden traces. A label state stores
three lists: values, predecessor sets and settling rounds; a vertex is
permanent exactly when its settling round is set, so its status is derived,
not stored. Predecessor sets are immutable ``frozenset``s that a change
replaces rather than mutates, so a snapshot is three list copies that share
the sets and weights with the live state. A run costs O(n + m log m) for
relaxation and selection, plus O(n) list copying per round for the
snapshots, which is O(n²) over the up to n - 1 rounds of SINGLE_MIN; a run
raises GraphTooLarge rather than let them pass ``MAX_SNAPSHOT_CELLS``.

:func:`relax_step` and :func:`select_permanent` perform one relax and one
select move over a whole ``LabelState``; they are the straightforward
reference the engine is tested against.
"""

from __future__ import annotations

import enum
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .errors import FrontierNotPermanent, VertexOutOfRange
from .graph import MAX_VERTICES, Graph, check_size, check_vertex
from .weights import INFINITY, Weight

# Most label cells (n per round) a run's snapshots may hold, about 24 bytes
# each: every run on a graph within the dense cap fits, and a larger edge list
# gets GraphTooLarge once its trace would outgrow them.
MAX_SNAPSHOT_CELLS = MAX_VERTICES**2


class Status(enum.Enum):
    TEMPORARY = "temporary"
    PERMANENT = "permanent"


class Strategy(enum.Enum):
    SINGLE_MIN = "singlemin"
    TIE_BATCH = "tiebatch"
    STABLE_BATCH = "stablebatch"


class LabelState:
    """Per-vertex label value, predecessor set, and settling round.

    A vertex is permanent exactly when its settling round is not None;
    :meth:`status` derives the :class:`Status` from that. Predecessors hold
    *all* minimizers seen so far: a strict improvement replaces the set, an
    equal-value alternative extends it. Sets are never mutated in place, only
    replaced, so :meth:`copy` is three list copies whose snapshots share the
    sets. Confined to a single run; use :meth:`copy` for snapshots.
    """

    __slots__ = ("_values", "_preds", "_settled", "_last_round")

    def __init__(
        self,
        values: list[Weight],
        preds: list[frozenset[int]],
        settled: list[int | None],
    ):
        self._values = values
        self._preds = preds
        self._settled = settled
        # Highest settling round so far (-1 before the source is settled);
        # derived from ``settled``, so it takes no part in equality.
        self._last_round = max((r for r in settled if r is not None), default=-1)

    @classmethod
    def initial(cls, n: int, source: int) -> "LabelState":
        values = [INFINITY] * n
        preds = [frozenset()] * n
        settled: list[int | None] = [None] * n
        values[source - 1] = Weight.zero()
        settled[source - 1] = 0
        return cls(values, preds, settled)

    @property
    def n(self) -> int:
        return len(self._values)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def value(self, v: int) -> Weight:
        return self._values[v - 1]

    def predecessors(self, v: int) -> frozenset[int]:
        return frozenset(self._preds[v - 1])

    def status(self, v: int) -> Status:
        return Status.TEMPORARY if self._settled[v - 1] is None else Status.PERMANENT

    def is_permanent(self, v: int) -> bool:
        return self._settled[v - 1] is not None

    def settled_round(self, v: int) -> int | None:
        return self._settled[v - 1]

    def all_permanent(self) -> bool:
        return None not in self._settled

    def permanent_vertices(self) -> frozenset[int]:
        return frozenset(v for v in self.vertices() if self.is_permanent(v))

    def distances(self) -> tuple[Weight, ...]:
        return tuple(self._values)

    def columns(
        self,
    ) -> tuple[tuple[Weight, ...], tuple[frozenset[int], ...], tuple[int | None, ...]]:
        """Values, predecessor sets and settled rounds, vertex v at v - 1.

        The elements are the stored objects themselves, which snapshots share
        with the state they were copied from.
        """
        return tuple(self._values), tuple(self._preds), tuple(self._settled)

    def copy(self) -> "LabelState":
        # Skips __init__, whose O(n) scan for the last round is already known.
        new = LabelState.__new__(LabelState)
        new._values = list(self._values)
        new._preds = list(self._preds)
        new._settled = list(self._settled)
        new._last_round = self._last_round
        return new

    def improve(self, v: int, value: Weight, preds: AbstractSet[int]) -> None:
        """Strict improvement: new value, predecessor set replaced."""
        if self.is_permanent(v):
            raise ValueError(f"vertex {v} is already permanent")
        self._values[v - 1] = value
        self._preds[v - 1] = frozenset(preds)

    def add_predecessors(self, v: int, preds: AbstractSet[int]) -> None:
        """Equal-value alternatives: extend the predecessor set only."""
        if self.is_permanent(v):
            raise ValueError(f"vertex {v} is already permanent")
        self._preds[v - 1] = frozenset(self._preds[v - 1]).union(preds)

    def settle(self, v: int, round_index: int) -> None:
        if self.is_permanent(v):
            raise ValueError(f"vertex {v} is already permanent")
        self._settled[v - 1] = round_index
        self._last_round = max(self._last_round, round_index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelState):
            return NotImplemented
        return (
            self._values == other._values
            and self._preds == other._preds
            and self._settled == other._settled
        )

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{v}:[{self.value(v)},{sorted(self._preds[v - 1])},{self.status(v).value}]"
            for v in self.vertices()
        )
        return f"<LabelState {rows}>"


@dataclass(frozen=True)
class RoundRecord:
    """One relax-then-select repetition, with the post-selection snapshot."""

    round_index: int
    frontier: frozenset[int]
    label_snapshot: LabelState
    newly_permanent: frozenset[int]


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one labeling run.

    The algorithm, the round counts and the final distances are derived from
    the stored fields. ``rounds_count`` counts relax+select repetitions after
    source initialization; ``rounds_count_incl_source`` adds one for the
    initialization step, matching tools that display it as a first iteration.
    """

    strategy: Strategy
    source: int
    target: int | None
    rounds: tuple[RoundRecord, ...]
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
    check_vertex(g, source)
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
    """
    for i in frontier:
        if not g.contains_vertex(i):
            raise VertexOutOfRange(f"frontier vertex {i} outside 1..{g.n}")
        if not labels.is_permanent(i):
            raise FrontierNotPermanent(f"frontier vertex {i} is not permanent")
    new = labels.copy()
    changed: set[int] = set()
    frontier_sorted = sorted(frontier)
    for j in g.vertices():
        if new.is_permanent(j):
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
        old = new.value(j)
        if best < old:
            new.improve(j, best, minimizers)
            changed.add(j)
        elif best == old:
            new.add_predecessors(j, minimizers)
    return new, frozenset(changed)


def select_permanent(
    labels: LabelState, strategy: Strategy, changed: frozenset[int] | set[int]
) -> frozenset[int]:
    """Promote a batch of temporary labels to permanent, in place.

    Let m be the minimum finite temporary value. SINGLE_MIN settles the
    lowest-id vertex at m, TIE_BATCH every vertex at m, STABLE_BATCH every
    vertex at m plus each finite temporary vertex absent from ``changed``.
    Returns the settled set; empty (and no mutation) when no temporary label
    is finite, which signals exhaustion to the caller.
    """
    finite = [
        (labels.value(v), v)
        for v in labels.vertices()
        if not labels.is_permanent(v) and labels.value(v).is_finite
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
    round_index = labels._last_round + 1
    for v in sorted(chosen):
        labels.settle(v, round_index)
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
    check_vertex(g, source)
    if target is not None:
        check_vertex(g, target)
    labels = init_labels(g, source)
    # The engine writes the live state's lists directly; the round API
    # functions above do the same moves one LabelState method at a time.
    values, preds, settled = labels._values, labels._preds, labels._settled
    adjacency = g.adjacency
    # The Fraction inside each finite label (None for INFINITY): heap keys and
    # the operands of relaxation.
    exact: list[Fraction | None] = [None] * g.n
    exact[source - 1] = Fraction(0)
    heap: list[tuple[Fraction, int]] = []
    finite_temporary: set[int] = set()
    unsettled = g.n - 1
    rounds: list[RoundRecord] = []
    frontier: frozenset[int] = frozenset({source})
    terminated_early = False
    while unsettled:
        if stop_at_target and target is not None and labels.is_permanent(target):
            terminated_early = True
            break
        changed = set()
        for u in frontier:
            base = exact[u - 1]
            for v, w in adjacency[u - 1]:
                if settled[v - 1] is not None:
                    continue
                candidate = base + w.fraction
                old = exact[v - 1]
                if old is None or candidate < old:
                    if old is None:
                        finite_temporary.add(v)
                    exact[v - 1] = candidate
                    values[v - 1] = Weight(candidate)
                    preds[v - 1] = frozenset((u,))
                    heappush(heap, (candidate, v))
                    changed.add(v)
                elif candidate == old:
                    preds[v - 1] = preds[v - 1] | {u}
        newly = _pop_minimum(heap, exact, settled, strategy is not Strategy.SINGLE_MIN)
        if not newly:
            break
        if strategy is Strategy.STABLE_BATCH:
            newly |= finite_temporary - changed
        round_index = len(rounds) + 1
        check_size(round_index * g.n, MAX_SNAPSHOT_CELLS, "snapshot label cells")
        for v in newly:
            labels.settle(v, round_index)
        finite_temporary -= newly
        unsettled -= len(newly)
        newly = frozenset(newly)
        rounds.append(RoundRecord(round_index, frontier, labels.copy(), newly))
        frontier = newly
    return RunTrace(
        strategy=strategy,
        source=source,
        target=target,
        rounds=tuple(rounds),
        final_labels=labels,
        terminated_early=terminated_early,
    )


def _pop_minimum(
    heap: list[tuple[Fraction, int]],
    exact: list[Fraction | None],
    settled: list[int | None],
    whole_tie_class: bool,
) -> set[int]:
    """Pop the lowest-id temporary vertex at the minimum, or all tied with it.

    An entry is current when its vertex is temporary and still holds the
    entry's value; any other entry was left behind and is dropped. Empty when
    no temporary label is finite.
    """
    minimum = None
    chosen: set[int] = set()
    while heap and (minimum is None or heap[0][0] == minimum):
        value, v = heappop(heap)
        if settled[v - 1] is None and exact[v - 1] == value:
            chosen.add(v)
            minimum = value
            if not whole_tie_class:
                break
    return chosen
