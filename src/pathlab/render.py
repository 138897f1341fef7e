"""Deterministic text and structured renderings of runs, trees, and reports.

The per-round trace table prints one row per vertex as
``node | [value, predecessor] | status`` with values to two decimals, ``-``
for the source predecessor, and blank label/status columns for vertices still
at INFINITY. The structured rendering is JSON in ``json.dumps(..., indent=2)``
layout carrying every round-record field exactly (weights as exact strings),
and round-trips via :func:`trace_from_json`.

Cost model. A trace records each round as its changes: the rows of the
vertices whose labels it changed (see :mod:`pathlab.labeling`).
:func:`render_trace_text` and :func:`trace_to_json` keep one running list of
formatted rows, one per vertex, and re-format only the rows a round changed
before writing the list out. Formatting work is therefore proportional to n
plus the number of label changes, and the remaining work is joins
proportional to the output bytes. :func:`trace_from_json` decodes with the C
JSON parser and, within one call, builds each distinct row and parses each
distinct weight string and vertex list once. It walks the rounds once: each
round's labels become its changes by a C-speed comparison with the round
before, and those changes are checked against the rows the walk holds as
they are read. With the fields the document repeats (algorithm, round
counts, final distances, statuses and the final labels), checked against
the ones they derive from, a load costs O(n + rounds + changes) beyond the
decoding and those comparisons.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, repeat
from operator import is_not, itemgetter, ne
from typing import Callable, Iterator

from .bench import ComparisonRecord, _json_block
from .errors import MalformedInput
from .graph import MAX_VERTICES, check_size
from .labeling import LabelState, RoundRecord, RunTrace, Strategy
from .oracle import OracleResult
from .tree import TreeMatrix
from .weights import Weight

# Most label cells (n per round) a rendered trace may hold: the text and
# structured formats write every label every round, while the run itself
# records only its changes. Every run on a graph within the dense cap fits.
MAX_SNAPSHOT_CELLS = MAX_VERTICES**2


def fixed_decimal(value: Fraction, places: int) -> str:
    """Exact rendering of ``value`` to ``places`` decimals, rounded half to
    even: two for trace labels, six for report summaries."""
    scaled = round(value * 10**places)
    whole, part = divmod(abs(scaled), 10**places)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{part:0{places}d}"


def _formatted_rounds(trace: RunTrace, fmt: Callable[..., str]) -> Iterator[list[str]]:
    """For each round of ``trace``, ``fmt(v, value, predecessors,
    settled_round)`` for every vertex v of its labels.

    Yields one running list, re-formatting only the rows each round changed,
    so a caller must use it before asking for the next round. Raises
    GraphTooLarge, before formatting anything, when n times the rounds
    passes ``MAX_SNAPSHOT_CELLS``; the count reported runs up to the first
    round past the limit.
    """
    n = trace.final_labels.n
    cells = min(len(trace.rounds), MAX_SNAPSHOT_CELLS // n + 1) * n
    check_size(cells, MAX_SNAPSHOT_CELLS, "snapshot label cells")
    initial = LabelState.initial(n, trace.source).rows()
    formatted = [fmt(v, *row) for v, row in enumerate(initial, start=1)]
    for record in trace.rounds:
        for v, row in record.changes:
            formatted[v - 1] = fmt(v, *row)
        yield formatted


def _status_name(settled: int | None) -> str:
    return "temporary" if settled is None else "permanent"


def _vertex_set(vertices: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _text_row(source: int, v: int, value: Weight, preds, settled) -> str:
    if value.is_infinite:
        return f"{v:4d} |"
    predecessor = "-" if v == source or not preds else str(min(preds))
    return f"{v:4d} | [{fixed_decimal(value.fraction, 2)}, {predecessor}] | {_status_name(settled)}"


def render_trace_text(trace: RunTrace) -> str:
    """One block per round, mimicking iteration tables of labeling tools.

    Raises GraphTooLarge when n times the rounds passes
    ``MAX_SNAPSHOT_CELLS``.
    """
    blocks = []
    for record, rows in zip(trace.rounds, _formatted_rounds(trace, partial(_text_row, trace.source))):
        lines = [
            f"Round {record.round_index}"
            f"  frontier={_vertex_set(record.frontier)}"
            f"  newly permanent={_vertex_set(record.newly_permanent)}",
            "node | label | status",
        ]
        lines += rows
        blocks.append("\n".join(lines))
    summary = (
        f"rounds: {trace.rounds_count}"
        f" (including source initialization: {trace.rounds_count_incl_source})"
    )
    return "\n\n".join(blocks + [summary]) + "\n"


def _json_ints(values: frozenset[int], depth: int) -> str:
    pad = "  " * (depth + 1)
    return _json_block([f"{pad}{v}" for v in sorted(values)], depth)


def _json_row(depth: int, v: int, value: Weight, preds, settled) -> str:
    # What json.dumps(row, indent=2) writes for the row dict nested ``depth``
    # levels deep. No string in a row needs escaping: str(Weight) and the
    # status values are ASCII digits, letters and ".-/".
    pad = "  " * depth
    return (
        f"{pad}{{\n"
        f'{pad}  "vertex": {v},\n'
        f'{pad}  "value": "{value}",\n'
        f'{pad}  "predecessors": {_json_ints(preds, depth + 1)},\n'
        f'{pad}  "status": "{_status_name(settled)}",\n'
        f'{pad}  "settled_round": {"null" if settled is None else settled}\n'
        f"{pad}}}"
    )


def trace_to_json(trace: RunTrace) -> str:
    """The trace as ``json.dumps(document, indent=2) + "\\n"``.

    The document has the keys written below, in that order; each label row
    is ``{"vertex", "value", "predecessors", "status", "settled_round"}``
    with the value as ``str(Weight)`` and the predecessors sorted. Raises
    GraphTooLarge when n times the rounds passes ``MAX_SNAPSHOT_CELLS``.
    """
    rounds = [
        "    {\n"
        f'      "round_index": {json.dumps(record.round_index)},\n'
        f'      "frontier": {_json_ints(record.frontier, 3)},\n'
        f'      "newly_permanent": {_json_ints(record.newly_permanent, 3)},\n'
        '      "labels": '
        + _json_block(rows, 3)
        + "\n    }"
        for record, rows in zip(trace.rounds, _formatted_rounds(trace, partial(_json_row, 4)))
    ]
    final_labels = [
        _json_row(2, v, *row) for v, row in enumerate(trace.final_labels.rows(), start=1)
    ]
    final_distances = [f"    {json.dumps(str(w))}" for w in trace.final_distances]
    return (
        "{\n"
        f'  "algorithm": {json.dumps(trace.algorithm)},\n'
        f'  "strategy": {json.dumps(trace.strategy.value)},\n'
        f'  "source": {json.dumps(trace.source)},\n'
        f'  "target": {json.dumps(trace.target)},\n'
        f'  "rounds": {_json_block(rounds, 1)},\n'
        f'  "final_labels": {_json_block(final_labels, 1)},\n'
        f'  "final_distances": {_json_block(final_distances, 1)},\n'
        f'  "rounds_count": {json.dumps(trace.rounds_count)},\n'
        f'  "rounds_count_incl_source": {json.dumps(trace.rounds_count_incl_source)},\n'
        f'  "terminated_early": {json.dumps(trace.terminated_early)}\n'
        "}\n"
    )


_ROW_FIELDS = itemgetter("vertex", "value", "predecessors", "status", "settled_round")

# Whether a status names a permanent label; any other status is unknown.
_STATUS_IS_PERMANENT = {"temporary": False, "permanent": True}


def _typed(value, kind: type):
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _vertex(n: int, value) -> int:
    if not 1 <= _typed(value, int) <= n:
        raise ValueError(f"vertex {value} outside 1..{n}")
    return value


def _vertices(n: int, values: tuple) -> frozenset[int]:
    vertices = frozenset(_vertex(n, v) for v in values)
    if list(values) != sorted(vertices):
        raise ValueError(f"vertex list {list(values)} is not strictly ascending")
    return vertices


def _row(weight: Callable, vertex_set: Callable, value, preds: tuple, settled):
    return weight(_typed(value, str)), vertex_set(preds), settled


class _TraceLoader:
    """Builds one RunTrace from decoded JSON in one walk over its rounds.

    Each distinct row, weight string and vertex list is built once per load,
    and equal ones share one object. Each round is turned into its changes
    from the rows of the round before, as the engine records them, and is
    checked against those rows before the next round is read.
    """

    def __init__(self, n: int, source: int, strategy: Strategy):
        self.n = n
        self.single_min = strategy is Strategy.SINGLE_MIN
        self.weight = cache(Weight.from_str)
        self.vertex_set = cache(partial(_vertices, n))
        self.row = cache(partial(_row, self.weight, self.vertex_set))
        self.vertex_ids = tuple(range(1, n + 1))
        initial = LabelState.initial(n, source)
        self.last_rows = initial.rows()
        self.last: RoundRecord | LabelState = initial
        self.batch = frozenset({source})
        self.rounds_read = 0

    def vertices(self, items: list) -> frozenset[int]:
        # Types are checked before the cache is asked: (True,) and (1.0,)
        # equal (1,), so a hit would skip the check.
        if not set(map(type, _typed(items, list))) <= {int}:
            raise TypeError("vertices must be integers")
        return self.vertex_set(tuple(items))

    def rows(self, items: list) -> list:
        if len(_typed(items, list)) != self.n:
            raise ValueError(f"a label list has {len(items)} rows, expected {self.n}")
        vertex, value, preds, status, settled = zip(*map(_ROW_FIELDS, items))
        if vertex != self.vertex_ids or not set(map(type, vertex)) <= {int}:
            raise ValueError("label rows must list vertices 1..n in order")
        if not {type(p) for p in preds} <= {list}:
            raise TypeError("predecessors must be lists")
        if not set(map(type, chain.from_iterable(preds))) <= {int}:
            raise TypeError("predecessors must be integers")
        if not {type(r) for r in settled} <= {int, type(None)}:
            raise TypeError("settled_round must be an integer or null")
        permanent = list(map(is_not, settled, repeat(None)))
        if list(map(_STATUS_IS_PERMANENT.get, status)) != permanent:
            raise ValueError("a status is unknown or disagrees with its settled_round")
        return list(map(self.row, value, map(tuple, preds), settled))

    def round(self, item: dict) -> RoundRecord:
        """Round k's record. Raises ValueError unless its index is k, it
        relaxes from round k - 1's batch, each row it changes is one a
        relaxation or settle writes given the rows before it, and it settles,
        at round k, exactly its newly_permanent: at least one vertex, and
        one under SINGLE_MIN."""
        k = self.rounds_read = self.rounds_read + 1
        round_index = _typed(item["round_index"], int)
        frontier = self.vertices(item["frontier"])
        rows = self.rows(item["labels"])
        newly_permanent = self.vertices(item["newly_permanent"])
        if round_index != k or frontier != self.batch:
            raise ValueError("a round record disagrees with its position or the final settled rounds")
        last = self.last_rows
        changes = []
        for v in compress(self.vertex_ids, map(ne, rows, last)):
            row = rows[v - 1]
            value, preds, _ = row
            old_value, old_preds, old_settled = last[v - 1]
            if old_settled is not None:
                raise ValueError(f"round {k} changes vertex {v}'s permanent label")
            # Equal value strings load as one Weight, so identity settles
            # most equalities; "1" and "1.0" still need ==.
            if value is not old_value and value < old_value:
                kept = frozenset()
            elif value is old_value or value == old_value:
                kept = old_preds
            else:
                raise ValueError(f"round {k} raises vertex {v}'s value")
            if not (value.is_finite and preds):
                raise ValueError(f"round {k} gives vertex {v} no finite value or no predecessor")
            added = preds - kept
            if not (kept <= preds and added <= frontier):
                raise ValueError(f"round {k} changes vertex {v}'s predecessors outside its frontier")
            if any(not last[u - 1][0] < value for u in added):
                raise ValueError(f"round {k} gives vertex {v} a predecessor not below its value")
            changes.append((v, row))
        settled = [(v, row[2]) for v, row in changes if row[2] is not None]
        if settled != [(v, k) for v in sorted(newly_permanent)]:
            raise ValueError(f"round {k}'s settled rounds disagree with the final ones")
        if not newly_permanent:
            raise ValueError(f"round {k} settles nothing")
        if self.single_min and len(newly_permanent) > 1:
            raise ValueError("a singlemin round settles more than one vertex")
        record = RoundRecord(k, frontier, tuple(changes), newly_permanent, self.last)
        self.last_rows, self.last, self.batch = rows, record, newly_permanent
        return record

    def check_end(self, trace: RunTrace) -> None:
        """Raise ValueError unless only the source settles in round 0, the
        final labels are the last round's, and terminated_early holds exactly
        when the target settles in the last batch with some label left
        temporary, and otherwise no temporary label is finite."""
        final = trace.final_labels.rows()
        if [v for v, (_, _, r) in enumerate(final, start=1) if r == 0] != [trace.source]:
            raise ValueError("only the source settles in round 0")
        if final != tuple(self.last_rows):
            raise ValueError("final_labels are not the labels of the last round")
        temporary = [value for value, _, r in final if r is None]
        if trace.terminated_early and not (temporary and trace.target in self.batch):
            raise ValueError("terminated_early, but the run does not stop when its target settles")
        if not trace.terminated_early and any(value.is_finite for value in temporary):
            raise ValueError("not terminated_early, but a temporary label is finite")


def trace_from_json(text: str) -> RunTrace:
    """Inverse of :func:`trace_to_json`, in one walk over the rounds.

    Raises MalformedInput for any document no run writes: when ``text`` is
    not JSON, lacks a key, holds a value of the wrong type, an unknown
    strategy or status, an out-of-range vertex, a vertex list (a frontier,
    batch or predecessor set) that is not strictly ascending, or label lists
    whose lengths differ; when a round breaks a rule of
    ``_TraceLoader.round``, checked as it is read, so the first faulty round
    is reported; or when a field it derives disagrees with the document: the
    algorithm, either round count, the final distances, a status given its
    settled_round, or the final labels given the last round's. Only the
    source settles in round 0, and ``terminated_early`` must agree with the
    target and the temporary labels. O(n + rounds + changes) beyond the
    decoding and one comparison of each round's labels with the last.
    """
    try:
        data = json.loads(text)
        final_items = data["final_labels"]
        n = len(_typed(final_items, list))
        if n < 1:
            raise ValueError("final_labels is empty")
        target = data["target"]
        final_distances = _typed(data["final_distances"], list)
        if len(final_distances) != n:
            raise ValueError(f"final_distances has {len(final_distances)} entries, expected {n}")
        strategy = Strategy(data["strategy"])
        source = _vertex(n, data["source"])
        load = _TraceLoader(n, source, strategy)
        trace = RunTrace(
            strategy=strategy,
            source=source,
            target=None if target is None else _vertex(n, target),
            rounds=tuple(map(load.round, _typed(data["rounds"], list))),
            final_labels=LabelState(load.rows(final_items)),
            terminated_early=_typed(data["terminated_early"], bool),
        )
        if data["algorithm"] != trace.algorithm:
            raise ValueError(f"algorithm {data['algorithm']!r} is not that of {trace.strategy.value}")
        if _typed(data["rounds_count"], int) != trace.rounds_count:
            raise ValueError(f"rounds_count is not the {trace.rounds_count} rounds listed")
        if _typed(data["rounds_count_incl_source"], int) != trace.rounds_count_incl_source:
            raise ValueError("rounds_count_incl_source is not rounds_count + 1")
        if tuple(map(load.weight, final_distances)) != trace.final_distances:
            raise ValueError("final_distances disagree with the final_labels values")
        load.check_end(trace)
        return trace
    except KeyError as exc:
        raise MalformedInput(f"malformed trace: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"malformed trace: {exc}") from None


def render_tree_matrix(t: TreeMatrix) -> str:
    """Matrix-format rendering: n, then rows of weights with 0 for no link.

    Raises GraphTooLarge above ``MAX_VERTICES``.
    """
    check_size(t.n)
    rows = [["0"] * t.n for _ in range(t.n)]
    for v, (u, w) in enumerate(zip(t.parents, t.parent_weights)):
        if u is not None:
            rows[u - 1][v] = str(w)
    return "\n".join([str(t.n)] + [" ".join(row) for row in rows]) + "\n"


def render_oracle_text(result: OracleResult) -> str:
    lines = ["method: bellman-ford"]
    for v, w in enumerate(result.distances, start=1):
        lines.append(f"{v:4d} | {w}")
    return "\n".join(lines) + "\n"


def render_comparison_text(record: ComparisonRecord) -> str:
    lines = [
        f"source: {record.source}"
        + (f"  target: {record.target}" if record.target is not None else ""),
        "oracle (bellman-ford): " + " ".join(str(w) for w in record.oracle_distances),
        "strategy    | rounds | rounds_incl_source | agrees_oracle",
    ]
    for result in record.results:
        lines.append(
            f"{result.strategy.value:<11} | {result.rounds_count:6d} |"
            f" {result.rounds_count_incl_source:18d} |"
            f" {'true' if result.agrees_oracle else 'false'}"
        )
    lines.append(
        "stable_batch_unsound: "
        + ("true" if record.stable_batch_unsound else "false")
    )
    return "\n".join(lines) + "\n"
