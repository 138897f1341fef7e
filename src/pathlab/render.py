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
distinct weight string and vertex list once; it turns each round's labels
into changes by a C-speed comparison with the round before, and checks every
field the document repeats (algorithm, round counts, final distances,
statuses, each round's changes and the final labels) against the one it is
derived from, in O(changes) beyond the decoding.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, repeat
from operator import is_not, itemgetter, ne
from typing import Callable, Iterator

from .bench import ComparisonRecord
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


def _json_array(items: list[str], depth: int) -> str:
    """A JSON array, in indent-2 layout, for a value nested ``depth`` levels
    deep. Each item is already encoded and indented to ``depth + 1``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + "  " * depth + "]"


def _json_ints(values: frozenset[int], depth: int) -> str:
    pad = "  " * (depth + 1)
    return _json_array([f"{pad}{v}" for v in sorted(values)], depth)


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
        + _json_array(rows, 3)
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
        f'  "rounds": {_json_array(rounds, 1)},\n'
        f'  "final_labels": {_json_array(final_labels, 1)},\n'
        f'  "final_distances": {_json_array(final_distances, 1)},\n'
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
    return frozenset(_vertex(n, v) for v in values)


def _row(weight: Callable, vertex_set: Callable, value, preds: tuple, settled):
    return weight(value), vertex_set(preds), settled


class _TraceLoader:
    """Builds one RunTrace from decoded JSON. Each distinct row, weight
    string and vertex list is built once per load, and equal ones share one
    object. Rounds are loaded in order, each as its changes from the one
    before, as the engine records them."""

    def __init__(self, n: int, source: int):
        self.n = n
        self.weight = cache(Weight.from_str)
        self.vertex_set = cache(partial(_vertices, n))
        self.row = cache(partial(_row, self.weight, self.vertex_set))
        self.vertex_ids = tuple(range(1, n + 1))
        self.initial = LabelState.initial(n, source)
        self.last_rows = self.initial.rows()
        self.last_record: RoundRecord | None = None

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
        if vertex != self.vertex_ids:
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
        round_index = _typed(item["round_index"], int)
        frontier = self.vertices(item["frontier"])
        rows = self.rows(item["labels"])
        changed = compress(self.vertex_ids, map(ne, rows, self.last_rows))
        record = RoundRecord(
            round_index,
            frontier,
            tuple([(v, rows[v - 1]) for v in changed]),
            self.vertices(item["newly_permanent"]),
            self.initial,
            self.last_record,
        )
        self.last_rows, self.last_record = rows, record
        return record


def trace_from_json(text: str) -> RunTrace:
    """Inverse of :func:`trace_to_json`.

    Raises MalformedInput when ``text`` is not JSON, lacks a key, holds a
    value of the wrong type, an unknown strategy or status, an out-of-range
    vertex, or label lists whose lengths differ, or when a field it derives
    disagrees with the document: the algorithm, either round count, the
    final distances, a status given its settled_round, a round record or
    the labels it changes given the final settled rounds, or the final
    labels given the last round's. A round may not change a permanent label
    or raise a value.
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
        load = _TraceLoader(n, source)
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
        _check_rounds(trace)
        return trace
    except KeyError as exc:
        raise MalformedInput(f"malformed trace: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"malformed trace: {exc}") from None


def _check_rounds(trace: RunTrace) -> None:
    """Raise ValueError unless round 0 settles the source alone; round k has
    index k, relaxes from round k - 1's batch and settles, among the labels
    it changes, exactly the vertices whose final settled_round is k; no
    round changes a permanent label or raises a value; and the final labels
    are the initial ones with every round's changes applied. O(n + rounds +
    changes)."""
    final = trace.final_labels
    batches: list[list[int]] = [[] for _ in range(len(trace.rounds) + 1)]
    for v, (_, _, r) in enumerate(final.rows(), start=1):
        if r is not None:
            if not 0 <= r < len(batches):
                raise ValueError(f"vertex {v} settles in round {r}, which is not listed")
            batches[r].append(v)
    if batches[0] != [trace.source]:
        raise ValueError("only the source settles in round 0")
    sets = list(map(frozenset, batches))
    rows = list(LabelState.initial(final.n, trace.source).rows())
    for k, record in enumerate(trace.rounds, start=1):
        if (record.round_index, record.frontier, record.newly_permanent) != (k, sets[k - 1], sets[k]):
            raise ValueError("a round record disagrees with its position or the final settled rounds")
        for v, row in record.changes:
            old = rows[v - 1]
            if old[2] is not None:
                raise ValueError(f"round {k} changes vertex {v}'s permanent label")
            if old[0] < row[0]:
                raise ValueError(f"round {k} raises vertex {v}'s value")
            rows[v - 1] = row
        settled = [(v, row[2]) for v, row in record.changes if row[2] is not None]
        if settled != [(v, k) for v in batches[k]]:
            raise ValueError(f"round {k}'s settled rounds disagree with the final ones")
    if final != LabelState(rows):
        raise ValueError("final_labels are not the labels of the last round")


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
