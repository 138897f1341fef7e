"""Deterministic text and structured renderings of graphs, runs, trees, reports.

Every document pathlab writes is written here: traces, bench's reports, and
the matrices of a graph and of a tree, which one writer builds a row at a
time. The JSON writers build ``json.dumps(..., indent=2)`` bytes directly
and encode each kind of value one way: ints by f-string, bools by
``_bool_str``, weight arrays by ``_json_strings`` and known-ASCII strings
quoted as they are; ``json.dumps`` writes only values whose text depends on
their type or that may be None.

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
before adding the list's rows to the document's parts. Formatting work is
therefore proportional to n plus the number of label changes, and the rest
is one join of those parts, proportional to the output bytes.
:func:`trace_from_json` decodes O(n + changes) rows of a document laid out
as :func:`trace_to_json` writes it, and every row of any other layout.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, repeat
from operator import is_not, itemgetter, ne
from typing import Callable, Iterable, Iterator

from .bench import ComparisonRecord, RunReport
from .errors import GraphTooLarge, MalformedInput, VertexOutOfRange
from .graph import MAX_VERTICES, Graph, check_size, check_vertex
from .labeling import LabelState, RoundRecord, RunTrace, Strategy
from .oracle import OracleResult
from .tree import TreeMatrix
from .weights import Weight

# Most label cells (n per round) a rendered trace may hold: the text and
# structured formats write every label every round, while the run itself
# records only its changes. Every run on a graph within the dense cap fits.
MAX_SNAPSHOT_CELLS = MAX_VERTICES**2

CSV_HEADER = "spec_index,graph_index,strategy,rounds,rounds_incl_source,agrees_oracle,unsound"


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
    # Each row starts with the newline that ends the line before it.
    if value.is_infinite:
        return f"\n{v:4d} |"
    predecessor = "-" if v == source or not preds else str(min(preds))
    return f"\n{v:4d} | [{fixed_decimal(value.fraction, 2)}, {predecessor}] | {_status_name(settled)}"


def render_trace_text(trace: RunTrace) -> str:
    """One block per round, mimicking iteration tables of labeling tools.

    Raises GraphTooLarge when n times the rounds passes
    ``MAX_SNAPSHOT_CELLS``.
    """
    parts = []
    for record, rows in zip(trace.rounds, _formatted_rounds(trace, partial(_text_row, trace.source))):
        parts.append(
            f"Round {record.round_index}"
            f"  frontier={_vertex_set(record.frontier)}"
            f"  newly permanent={_vertex_set(record.newly_permanent)}"
            "\nnode | label | status"
        )
        parts += rows
        parts.append("\n\n")
    parts.append(
        f"rounds: {trace.rounds_count}"
        f" (including source initialization: {trace.rounds_count_incl_source})\n"
    )
    return "".join(parts)


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array, or with ``brackets="{}"`` an object, in indent-2 layout,
    for a value nested ``depth`` levels deep. Each item is already encoded,
    with its key for an object, and indented to ``depth + 1``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + "\n" + "  " * depth + brackets[1]


def _json_strings(weights: tuple[Weight, ...], depth: int) -> str:
    pad = "  " * (depth + 1)
    return _json_block([f'{pad}"{w}"' for w in weights], depth)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _json_ints(values: frozenset[int], depth: int) -> str:
    pad = "  " * (depth + 1)
    return _json_block([f"{pad}{v}" for v in sorted(values)], depth)


def _json_row(depth: int, v: int, value: Weight, preds, settled) -> str:
    # What json.dumps(row, indent=2) writes for vertex v's row dict nested
    # ``depth`` levels deep, after the separator before it in its label list.
    # No string in a row needs escaping: str(Weight) and the status values
    # are ASCII digits, letters and ".-/".
    pad = "  " * depth
    return (
        f"{',' if v > 1 else ''}\n{pad}{{\n"
        f'{pad}  "vertex": {v},\n'
        f'{pad}  "value": "{value}",\n'
        f'{pad}  "predecessors": {_json_ints(preds, depth + 1)},\n'
        f'{pad}  "status": "{_status_name(settled)}",\n'
        f'{pad}  "settled_round": {"null" if settled is None else settled}\n'
        f"{pad}}}"
    )


# How trace_to_json opens and closes a round's label list; _load_written
# finds each list by them and the key that follows it.
_LABELS_OPEN = '      "labels": ['
_LABELS_CLOSE = "\n      ]\n    }"


def trace_to_json(trace: RunTrace) -> str:
    """The trace as ``json.dumps(document, indent=2) + "\\n"``.

    The document has the keys written below, in that order; each label row
    is ``{"vertex", "value", "predecessors", "status", "settled_round"}``
    with the value as ``str(Weight)`` and the predecessors sorted. Raises
    GraphTooLarge when n times the rounds passes ``MAX_SNAPSHOT_CELLS``.
    """
    parts = [
        "{\n"
        f'  "algorithm": "{trace.algorithm}",\n'
        f'  "strategy": "{trace.strategy.value}",\n'
        f'  "source": {trace.source},\n'
        f'  "target": {json.dumps(trace.target)},\n'
        '  "rounds": ['
    ]
    separator = "\n"
    for record, rows in zip(trace.rounds, _formatted_rounds(trace, partial(_json_row, 4))):
        parts.append(
            f"{separator}    {{\n"
            f'      "round_index": {record.round_index},\n'
            f'      "frontier": {_json_ints(record.frontier, 3)},\n'
            f'      "newly_permanent": {_json_ints(record.newly_permanent, 3)},\n'
            + _LABELS_OPEN
        )
        parts += rows
        parts.append(_LABELS_CLOSE)
        separator = ",\n"
    parts.append('\n  ],\n  "final_labels": [' if trace.rounds else '],\n  "final_labels": [')
    parts += [_json_row(2, v, *row) for v, row in enumerate(trace.final_labels.rows(), start=1)]
    parts.append(
        "\n  ],\n"
        f'  "final_distances": {_json_strings(trace.final_distances, 1)},\n'
        f'  "rounds_count": {trace.rounds_count},\n'
        f'  "rounds_count_incl_source": {trace.rounds_count_incl_source},\n'
        f'  "terminated_early": {_bool_str(trace.terminated_early)}\n'
        "}\n"
    )
    return "".join(parts)


_ROW_FIELDS = itemgetter("vertex", "value", "predecessors", "status", "settled_round")

# Whether a status names a permanent label; any other status is unknown.
_STATUS_IS_PERMANENT = {"temporary": False, "permanent": True}


def _typed(value, kind: type):
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _vertices(n: int, values: tuple) -> frozenset[int]:
    vertices = frozenset(check_vertex(n, v) for v in values)
    if list(values) != sorted(vertices):
        raise ValueError(f"vertex list {list(values)} is not strictly ascending")
    return vertices


def trace_from_json(text: str) -> RunTrace:
    """Inverse of :func:`trace_to_json`, in one walk over the rounds.

    Checks the decoded content of the keys a run writes: other keys are
    ignored, and a weight "1.0" loads as "1". Raises MalformedInput when
    ``text`` is not JSON, lacks a key, or holds a value of the wrong type, an
    unknown strategy or status, an out-of-range vertex, a vertex list (a
    frontier, batch or predecessor set) that is not strictly ascending, or
    label lists whose lengths differ; when a round breaks a rule below,
    checked as it is read, so the first faulty round is reported; or when a
    field it derives disagrees with the document: the algorithm, either round
    count, the final distances, a status given its settled_round, or the
    final labels given the last round's.

    Round k's index is k, it relaxes from round k - 1's batch, each row it
    changes is one a relaxation or settle writes given the rows before it,
    and it settles, at round k, exactly its newly_permanent, the batch its
    strategy settles: under SINGLE_MIN one vertex, with the settled (value,
    vertex) pairs strictly increasing; under TIE_BATCH one value, strictly
    increasing; under STABLE_BATCH the minimum tie class of the finite
    temporary labels and each of them the round did not improve. Only the
    source settles in round 0. ``terminated_early`` holds exactly when the
    target settles in the last batch with some label left temporary, then
    none finite at or below that batch in its strategy's order; otherwise no
    temporary label is finite.

    A document laid out as :func:`trace_to_json` writes it decodes O(n +
    changes) rows, round 1's and then those whose text differs from the
    round before's, and loads when it passes the walk and writes back to
    ``text`` byte for byte. Any other layout, or a failure, decodes every
    row, and only that raises. The walk is O(n + rounds + changes) beyond
    the decoding.
    """
    trace = _load_written(text)
    if trace is not None:
        return trace
    try:
        return _trace_from_document(json.loads(text))
    except KeyError as exc:
        raise MalformedInput(f"malformed trace: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError, VertexOutOfRange) as exc:
        raise MalformedInput(f"malformed trace: {exc}") from None


def _load_written(text: str) -> RunTrace | None:
    """The trace of ``text`` if trace_to_json wrote it, else None.

    Each round's label list is cut into row texts and keeps only those that
    differ from the round before's (all of round 1's) for ``json.loads``.
    """
    if not (isinstance(text, str) and text.startswith('{\n  "algorithm": ')):
        return None
    try:
        parts, round_ids, start = [], [], 0
        while (opened := text.find(_LABELS_OPEN, start)) != -1:
            opened += len(_LABELS_OPEN)
            # The list closes just before the next key; searching for a key
            # skips through the rows, which a needle of spaces cannot.
            bound = text.find('"round_index"', opened)
            if bound == -1:
                bound = text.find('"final_labels"', opened)
            if bound == -1 or (closed := text.rfind(_LABELS_CLOSE, opened, bound)) == -1:
                return None
            # Each row without the "\n" or ",\n" before it and its closing
            # brace: no row holds a brace.
            rows = text[opened + 1 : closed - 1].split("},\n")
            if not round_ids:  # round 1 decodes every row
                n, last = len(rows), [None] * len(rows)
            if len(rows) != n:
                return None
            changed = list(map(ne, rows, last))
            round_ids.append(tuple(compress(range(1, n + 1), changed)))
            # A round that changes no row leaves "[}", which json.loads refuses.
            parts += [text[start:opened], "},\n".join(compress(rows, changed)), "}"]
            last, start = rows, closed
        parts.append(text[start:])
        data = json.loads("".join(parts))
        if round_ids and len(data["final_labels"]) != n:
            return None
        trace = _trace_from_document(data, round_ids)
        return trace if trace_to_json(trace) == text else None
    except (TypeError, ValueError, KeyError, RecursionError, VertexOutOfRange, GraphTooLarge):
        return None


def _trace_from_document(data, round_ids: list[tuple[int, ...]] | None = None) -> RunTrace:
    """The checked trace of a decoded document, whose round k lists the
    rows of vertices ``round_ids[k - 1]`` (by default all), the others
    keeping theirs. A failed check raises what trace_from_json maps."""
    final_items = data["final_labels"]
    n = len(_typed(final_items, list))
    if n < 1:
        raise ValueError("final_labels is empty")
    target = data["target"]
    final_distances = _typed(data["final_distances"], list)
    if len(final_distances) != n:
        raise ValueError(f"final_distances has {len(final_distances)} entries, expected {n}")
    strategy = Strategy(data["strategy"])
    source = check_vertex(n, _typed(data["source"], int))
    target = None if target is None else check_vertex(n, _typed(target, int))
    # Equal weight strings, vertex lists and rows load as one object.
    weight = cache(Weight.from_str)
    vertex_set = cache(partial(_vertices, n))
    row_of = cache(lambda value, preds, r: (weight(_typed(value, str)), vertex_set(preds), r))
    vertex_ids = tuple(range(1, n + 1))

    def vertices(items: list) -> frozenset[int]:
        # Types are checked before the cache is asked: (True,) and (1.0,)
        # equal (1,), so a hit would skip the check.
        if not set(map(type, _typed(items, list))) <= {int}:
            raise TypeError("vertices must be integers")
        return vertex_set(tuple(items))

    def label_rows(items: list, ids: tuple[int, ...] = vertex_ids) -> list:
        if len(_typed(items, list)) != len(ids):
            raise ValueError(f"a label list has {len(items)} rows, expected {len(ids)}")
        vertex, value, preds, status, settled = zip(*map(_ROW_FIELDS, items))
        if vertex != ids or not set(map(type, vertex)) <= {int}:
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
        return list(map(row_of, value, map(tuple, preds), settled))

    # Each round becomes its changes from ``labels``, the rows of the round
    # before, as the engine records them, and is checked before the next is
    # read. ``least`` ranks the last batch by (value, vertex) under
    # SINGLE_MIN, by value under TIE_BATCH; ``unsettled``: STABLE_BATCH's
    # finite ones.
    initial = LabelState.initial(n, source)
    labels, record, batch = list(initial.rows()), initial, frozenset({source})
    single_min = strategy is Strategy.SINGLE_MIN
    least, unsettled, rounds = (Weight.zero(), 0), set(), []
    rounds_ids = repeat(vertex_ids) if round_ids is None else round_ids
    for k, (item, ids) in enumerate(zip(_typed(data["rounds"], list), rounds_ids), start=1):
        round_index = _typed(item["round_index"], int)
        frontier = vertices(item["frontier"])
        rows = label_rows(item["labels"], ids)
        newly_permanent = vertices(item["newly_permanent"])
        if round_index != k or frontier != batch:
            raise ValueError(
                "a round record disagrees with its position or the final settled rounds"
            )
        changes, improved = [], set()
        for v, row in zip(ids, rows):
            value, preds, _ = row
            old_value, old_preds, old_settled = old = labels[v - 1]
            if row == old:
                continue
            if old_settled is not None:
                raise ValueError(f"round {k} changes vertex {v}'s permanent label")
            if value < old_value:
                kept = frozenset()
                improved.add(v)
            elif value == old_value:
                kept = old_preds
            else:
                raise ValueError(f"round {k} raises vertex {v}'s value")
            if not (value.is_finite and preds):
                raise ValueError(f"round {k} gives vertex {v} no finite value or no predecessor")
            added = preds - kept
            if not (kept <= preds and added <= frontier):
                raise ValueError(
                    f"round {k} changes vertex {v}'s predecessors outside its frontier"
                )
            if any(not labels[u - 1][0] < value for u in added):
                raise ValueError(f"round {k} gives vertex {v} a predecessor not below its value")
            changes.append((v, row))
        for v, row in changes:
            labels[v - 1] = row
        settled = [(v, row[2]) for v, row in changes if row[2] is not None]
        if settled != [(v, k) for v in sorted(newly_permanent)]:
            raise ValueError(f"round {k}'s settled rounds disagree with the final ones")
        if not newly_permanent:
            raise ValueError(f"round {k} settles nothing")
        if single_min and len(newly_permanent) > 1:
            raise ValueError("a singlemin round settles more than one vertex")
        if strategy is Strategy.STABLE_BATCH:
            finite = unsettled.union([v for v, _ in changes])
            minimum = min(labels[v - 1][0] for v in finite)
            expected = {v for v in finite if v not in improved or labels[v - 1][0] == minimum}
            if expected != newly_permanent:
                v = min(expected ^ newly_permanent)
                raise ValueError(f"round {k}'s batch is not stablebatch's at vertex {v}")
            unsettled = finite - newly_permanent
        else:
            value, v = min((labels[u - 1][0], u) for u in newly_permanent)
            for u in sorted(newly_permanent):
                if labels[u - 1][0] != value:
                    raise ValueError(f"round {k} settles vertex {u} at a second value")
            if (value, v if single_min else 0) <= least:
                raise ValueError(f"round {k} settles vertex {v} at or below an earlier batch")
            least = (value, v if single_min else 0)
        record = RoundRecord(k, frontier, tuple(changes), newly_permanent, record)
        rounds.append(record)
        batch = newly_permanent
    final = label_rows(final_items)
    terminated_early = _typed(data["terminated_early"], bool)
    trace = RunTrace(strategy, source, target, tuple(rounds), LabelState(final), terminated_early)
    if data["algorithm"] != trace.algorithm:
        raise ValueError(f"algorithm {data['algorithm']!r} is not that of {strategy.value}")
    if _typed(data["rounds_count"], int) != trace.rounds_count:
        raise ValueError(f"rounds_count is not the {trace.rounds_count} rounds listed")
    if _typed(data["rounds_count_incl_source"], int) != trace.rounds_count_incl_source:
        raise ValueError("rounds_count_incl_source is not rounds_count + 1")
    if tuple(map(weight, final_distances)) != trace.final_distances:
        raise ValueError("final_distances disagree with the final_labels values")
    if [v for v, (_, _, r) in enumerate(final, start=1) if r == 0] != [source]:
        raise ValueError("only the source settles in round 0")
    if final != labels:
        raise ValueError("final_labels are not the labels of the last round")
    temporary = [(value, v) for v, (value, _, r) in enumerate(final, start=1) if r is None]
    if terminated_early and not (temporary and target in batch):
        raise ValueError("terminated_early, but the run does not stop when its target settles")
    # A stop leaves every finite temporary label above the last batch,
    # round k's (STABLE_BATCH's rounds were checked for that as read).
    for value, v in filter(lambda pair: pair[0].is_finite, temporary):
        if not terminated_early:
            raise ValueError("not terminated_early, but a temporary label is finite")
        if (value, v if single_min else 0) <= least:
            raise ValueError(f"round {k} stops with vertex {v} temporary at or below its batch")
    return trace


def _matrix_text(n: int, fill: str, rows: Iterable[Iterable[tuple[int, str]]]) -> str:
    """The matrix format, built one row at a time: n, then for each item of
    ``rows`` n tokens, ``fill`` but at its 0-based ``(column, token)`` cells.
    Raises GraphTooLarge above ``MAX_VERTICES`` before reading ``rows``."""
    check_size(n)
    lines = [str(n)]
    for cells in rows:
        row = [fill] * n
        for j, token in cells:
            row[j] = token
        lines.append(" ".join(row))
    return "\n".join([*lines, ""])  # not join + "\n", which copies the text once more


def to_matrix_text(g: Graph) -> str:
    """Serialize in the matrix format; GraphTooLarge above ``MAX_VERTICES``.
    Round-trips through parse_matrix_text when every weight is a decimal
    literal of at most ``MAX_TOKEN_DIGITS`` digits, as in any parsed graph."""
    rows = ([(u, "0")] + [(v - 1, str(w)) for v, w in out] for u, out in enumerate(g.adjacency))
    return _matrix_text(g.n, "INF", rows)


def render_tree_matrix(t: TreeMatrix) -> str:
    """Matrix-format rendering: n, then rows of weights with 0 for no link.
    Raises GraphTooLarge above ``MAX_VERTICES``."""
    check_size(t.n)  # before the O(n) grouping below
    children: list[list[tuple[int, str]]] = [[] for _ in range(t.n)]
    for v, (u, w) in enumerate(zip(t.parents, t.parent_weights)):
        if u is not None:
            children[u - 1].append((v, str(w)))
    return _matrix_text(t.n, "0", children)


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
            f" {_bool_str(result.agrees_oracle)}"
        )
    lines.append(f"stable_batch_unsound: {_bool_str(record.stable_batch_unsound)}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: RunReport) -> str:
    """Flat tabular format, one row per (record, strategy).

    ``agrees_oracle`` is the strategy's exact distance agreement with the
    Bellman-Ford oracle; ``unsound`` is its negation (true only ever for
    stablebatch rows, where it equals the record's stable_batch_unsound flag).
    """
    lines = [CSV_HEADER]
    for record in report.records:
        for result in record.results:
            lines.append(
                f"{_index_str(record.spec_index)},{_index_str(record.graph_index)},"
                f"{result.strategy.value},{result.rounds_count},{result.rounds_count_incl_source},"
                f"{_bool_str(result.agrees_oracle)},{_bool_str(not result.agrees_oracle)}"
            )
    return "\n".join(lines) + "\n"


def _index_str(value: int | None) -> str:
    return "" if value is None else str(value)


def report_to_json(report: RunReport) -> str:
    """The report as ``json.dumps(document, indent=2) + "\\n"``.

    The document has the keys written below, in that order: the config, with
    each spec as its fields; one object per record, with each strategy's
    result under its value; the aggregates per strategy; and the unsound
    count. Weights and fractions are exact strings, and there are no timings,
    so equal reports serialize to equal bytes.
    """
    specs = [
        "      "
        + _json_block(
            [f'        "{f.name}": {json.dumps(getattr(s, f.name))}' for f in fields(s)], 3, "{}"
        )
        for s in report.specs
    ]
    records = [_json_record(record) for record in report.records]
    aggregates = [
        f'    "{strategy.value}": {{\n'
        f'      "mean_rounds": "{agg.mean_rounds}",\n'
        f'      "min_rounds": {agg.min_rounds},\n'
        f'      "max_rounds": {agg.max_rounds},\n'
        f'      "agreement_rate": "{agg.agreement_rate}"\n'
        "    }"
        for strategy, agg in report.aggregates.items()
    ]
    return (
        "{\n"
        '  "config": {\n'
        f'    "specs": {_json_block(specs, 2)},\n'
        f'    "graphs_per_spec": {report.graphs_per_spec},\n'
        f'    "source": {report.source},\n'
        f'    "target": {json.dumps(report.target)}\n'
        "  },\n"
        f'  "records": {_json_block(records, 1)},\n'
        f'  "aggregates": {_json_block(aggregates, 1, "{}")},\n'
        f'  "stable_batch_unsound_count": {report.stable_batch_unsound_count}\n'
        "}\n"
    )


def _json_record(record: ComparisonRecord) -> str:
    # One element of the document's "records" array, nested two levels deep.
    # No string in it needs escaping: str(Weight) and the strategy values are
    # ASCII digits, letters and "./-".
    results = [
        f'        "{result.strategy.value}": {{\n'
        f'          "distances": {_json_strings(result.final_distances, 5)},\n'
        f'          "rounds": {result.rounds_count},\n'
        f'          "rounds_incl_source": {result.rounds_count_incl_source},\n'
        f'          "agrees_oracle": {_bool_str(result.agrees_oracle)}\n'
        "        }"
        for result in record.results
    ]
    return (
        "    {\n"
        f'      "spec_index": {json.dumps(record.spec_index)},\n'
        f'      "graph_index": {json.dumps(record.graph_index)},\n'
        f'      "source": {record.source},\n'
        f'      "target": {json.dumps(record.target)},\n'
        f'      "oracle_distances": {_json_strings(record.oracle_distances, 3)},\n'
        f'      "strategies": {_json_block(results, 3, "{}")},\n'
        f'      "stable_batch_unsound": {_bool_str(record.stable_batch_unsound)}\n'
        "    }"
    )
