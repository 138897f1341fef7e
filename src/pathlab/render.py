"""Deterministic text and structured renderings of runs, trees, and reports.

The per-round trace table prints one row per vertex as
``node | [value, predecessor] | status`` with values to two decimals, ``-``
for the source predecessor, and blank label/status columns for vertices still
at INFINITY. The structured rendering is JSON in ``json.dumps(..., indent=2)``
layout carrying every round-record field exactly (weights as exact strings),
and round-trips via :func:`trace_from_json`.

Cost model. A trace holds one label snapshot per round, and snapshots share
their weights and predecessor sets with the run's live state, so a vertex's
row differs from the previous round's only when its label changed.
:func:`render_trace_text` and :func:`trace_to_json` keep a memo, for the
length of one call, from each distinct row to its formatted text. Formatting
work is therefore proportional to the number of distinct rows (about the
number of label changes), and the remaining work is one dict lookup per cell
plus joins proportional to the output bytes. :func:`trace_from_json` decodes
with the C JSON parser and, within one call, parses each distinct weight
string, status and vertex list once, and checks every field the document
repeats (algorithm, round counts, final distances, statuses) against the one
it is derived from.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from operator import is_not, itemgetter
from typing import Callable

from .bench import ComparisonRecord
from .errors import MalformedInput
from .graph import check_size
from .labeling import LabelState, RoundRecord, RunTrace, Status, Strategy
from .oracle import OracleResult
from .tree import TreeMatrix
from .weights import Weight


def two_decimals(w: Weight) -> str:
    """Exact two-decimal rendering of a finite weight (half-even rounding)."""
    scaled = round(w.fraction * 100)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{abs(scaled) // 100}.{abs(scaled) % 100:02d}"


def _formatted_rows(labels: LabelState, memo: dict, fmt: Callable[..., str]) -> list[str]:
    """``fmt(v, value, predecessors, settled_round)`` for every vertex v of
    ``labels``, formatted once per distinct row.

    ``memo`` belongs to one call. Rows are keyed by the identity of their
    weight and predecessor set, and by the settled round, which also fixes
    the status: snapshots share those objects with the live state, and the
    trace keeps every one of them alive for the whole call, so an identity
    names one content. Equal contents held in distinct objects only cost an
    extra format.
    """
    values, preds, settled = labels.columns()
    keys = list(zip(labels.vertices(), map(id, values), map(id, preds), settled))
    out = list(map(memo.get, keys))
    for i in [i for i, text in enumerate(out) if text is None]:
        out[i] = memo[keys[i]] = fmt(i + 1, values[i], preds[i], settled[i])
    return out


def _status_name(settled: int | None) -> str:
    return (Status.TEMPORARY if settled is None else Status.PERMANENT).value


def _vertex_set(vertices: frozenset[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _text_row(source: int, v: int, value: Weight, preds, settled) -> str:
    if value.is_infinite:
        return f"{v:4d} |"
    predecessor = "-" if v == source or not preds else str(min(preds))
    return f"{v:4d} | [{two_decimals(value)}, {predecessor}] | {_status_name(settled)}"


def render_trace_text(trace: RunTrace) -> str:
    """One block per round, mimicking iteration tables of labeling tools."""
    memo: dict = {}
    text_row = partial(_text_row, trace.source)
    blocks = []
    for record in trace.rounds:
        lines = [
            f"Round {record.round_index}"
            f"  frontier={_vertex_set(record.frontier)}"
            f"  newly permanent={_vertex_set(record.newly_permanent)}",
            "node | label | status",
        ]
        lines += _formatted_rows(record.label_snapshot, memo, text_row)
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
    with the value as ``str(Weight)`` and the predecessors sorted.
    """
    round_memo: dict = {}
    round_row = partial(_json_row, 4)
    rounds = [
        "    {\n"
        f'      "round_index": {json.dumps(record.round_index)},\n'
        f'      "frontier": {_json_ints(record.frontier, 3)},\n'
        f'      "newly_permanent": {_json_ints(record.newly_permanent, 3)},\n'
        '      "labels": '
        + _json_array(_formatted_rows(record.label_snapshot, round_memo, round_row), 3)
        + "\n    }"
        for record in trace.rounds
    ]
    final_labels = _formatted_rows(trace.final_labels, {}, partial(_json_row, 2))
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


class _TraceLoader:
    """Builds one RunTrace from decoded JSON. Each distinct weight string,
    status and vertex list is parsed once per load, and equal ones share
    one object, as they do in a trace the engine recorded."""

    def __init__(self, n: int):
        self.n = n
        self.weight = cache(Weight.from_str)
        self.is_permanent = cache(lambda name: Status(name) is Status.PERMANENT)
        self.vertex_set = cache(partial(_vertices, n))
        self.vertex_ids = tuple(range(1, n + 1))

    def vertices(self, items: list) -> frozenset[int]:
        return self.vertex_set(tuple(_typed(items, list)))

    def labels(self, items: list) -> LabelState:
        if len(_typed(items, list)) != self.n:
            raise ValueError(f"a label list has {len(items)} rows, expected {self.n}")
        vertex, value, preds, status, settled = zip(*map(_ROW_FIELDS, items))
        if vertex != self.vertex_ids:
            raise ValueError("label rows must list vertices 1..n in order")
        if not {type(p) for p in preds} <= {list}:
            raise TypeError("predecessors must be lists")
        if not {type(r) for r in settled} <= {int, type(None)}:
            raise TypeError("settled_round must be an integer or null")
        if list(map(self.is_permanent, status)) != list(map(is_not, settled, repeat(None))):
            raise ValueError("a status disagrees with its settled_round")
        return LabelState(
            list(map(self.weight, value)),
            list(map(self.vertex_set, map(tuple, preds))),
            list(settled),
        )

    def round(self, item: dict) -> RoundRecord:
        return RoundRecord(
            round_index=_typed(item["round_index"], int),
            frontier=self.vertices(item["frontier"]),
            label_snapshot=self.labels(item["labels"]),
            newly_permanent=self.vertices(item["newly_permanent"]),
        )


def trace_from_json(text: str) -> RunTrace:
    """Inverse of :func:`trace_to_json`.

    Raises MalformedInput when ``text`` is not JSON, lacks a key, holds a
    value of the wrong type, an unknown strategy or status, an out-of-range
    vertex, or label lists whose lengths differ, or when a field it derives
    disagrees with the document: the algorithm, either round count, the
    final distances, a status given its settled_round, or a round record
    given its position and the final settled rounds.
    """
    try:
        data = json.loads(text)
        final_items = data["final_labels"]
        n = len(_typed(final_items, list))
        if n < 1:
            raise ValueError("final_labels is empty")
        load = _TraceLoader(n)
        target = data["target"]
        final_distances = _typed(data["final_distances"], list)
        if len(final_distances) != n:
            raise ValueError(f"final_distances has {len(final_distances)} entries, expected {n}")
        trace = RunTrace(
            strategy=Strategy(data["strategy"]),
            source=_vertex(n, data["source"]),
            target=None if target is None else _vertex(n, target),
            rounds=tuple(map(load.round, _typed(data["rounds"], list))),
            final_labels=load.labels(final_items),
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
    """Raise ValueError unless round 0 settles the source alone and round k
    has index k, relaxes from round k - 1's batch and settles the vertices
    whose final settled_round is k. O(n + the batch sizes)."""
    batches: list[list[int]] = [[] for _ in range(len(trace.rounds) + 1)]
    for v, r in enumerate(trace.final_labels.columns()[2], start=1):
        if r is not None:
            if not 0 <= r < len(batches):
                raise ValueError(f"vertex {v} settles in round {r}, which is not listed")
            batches[r].append(v)
    if batches[0] != [trace.source]:
        raise ValueError("only the source settles in round 0")
    sets = list(map(frozenset, batches))
    expected = list(zip(range(1, len(sets)), sets, sets[1:]))
    if [(r.round_index, r.frontier, r.newly_permanent) for r in trace.rounds] != expected:
        raise ValueError("a round record disagrees with its position or the final settled rounds")


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


def mean_str(value: Fraction) -> str:
    """Fixed six-decimal rendering of an exact mean, for report summaries."""
    scaled = round(value * 1_000_000)
    return f"{scaled // 1_000_000}.{scaled % 1_000_000:06d}"
