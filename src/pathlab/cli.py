"""Command-line entry point: trace, path, compare, bench, and oracle.

Graph files are UTF-8, with or without a byte-order mark. Those ending in
``.edges`` are read as edge lists; anything else is read as a weight matrix.
Exit codes: 0 success (unsound findings are data, not failures), 1 input or
validation error, 2 usage error. All default output is deterministic:
identical invocations produce identical bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import bench as bench_mod
from . import render
from .errors import PathlabError
from .graph import Graph, check_size, parse_edge_list, parse_matrix_text
from .labeling import Strategy
from .oracle import bellman_ford
from .tree import build_tree_matrix, extract_path

STRATEGIES = {
    "classic": Strategy.SINGLE_MIN,
    "tiebatch": Strategy.TIE_BATCH,
    "stablebatch": Strategy.STABLE_BATCH,
}
ALGO_CHOICES = click.Choice(list(STRATEGIES))

STABLE_BATCH_NOTICE = (
    "note: stablebatch is experimental and unsound in general; "
    "its distances are checked against the bellman-ford oracle"
)


def _load_graph(path_str: str) -> Graph:
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's strerror omits the errno and path; a decode error has none
        reason = getattr(exc, "strerror", None) or exc
        raise PathlabError(f"cannot read {path_str}: {reason}") from None
    if path.suffix == ".edges":
        return parse_edge_list(text)
    return parse_matrix_text(text)


def _stable_batch_check(g, trace) -> None:
    click.echo(STABLE_BATCH_NOTICE, err=True)
    oracle = bellman_ford(g, trace.source)
    distances = trace.final_distances
    mismatched = [v for v in g.vertices() if distances[v - 1] != oracle.distances[v - 1]]
    if mismatched:
        click.echo(
            "warning: stablebatch distances differ from the oracle at "
            + ",".join(str(v) for v in mismatched),
            err=True,
        )


class _Main(click.Group):
    """The command group; any PathlabError a command raises is reported as
    ``error: <message>`` on stderr with exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except PathlabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Label-setting shortest-path laboratory."""


@main.command()
@click.argument("graph_file")
@click.option("--source", required=True, type=int, help="Source vertex (1-based).")
@click.option("--target", type=int, help="Optional target vertex.")
@click.option("--algo", required=True, type=ALGO_CHOICES)
@click.option("--stop-at-target", is_flag=True, help="Stop once the target settles.")
@click.option(
    "--format",
    "format_",
    type=click.Choice(["text", "structured"]),
    default="text",
    show_default=True,
)
def trace(graph_file, source, target, algo, stop_at_target, format_):
    """Run one algorithm and print its per-round trace."""
    if stop_at_target and target is None:
        raise click.UsageError("--stop-at-target requires --target")
    g = _load_graph(graph_file)
    result = bench_mod.run_strategy(g, source, STRATEGIES[algo], target, stop_at_target)
    if format_ == "text":
        output = render.render_trace_text(result)
    else:
        output = render.trace_to_json(result)
    if algo == "stablebatch":
        _stable_batch_check(g, result)
    click.echo(output, nl=False)


@main.command(name="path")
@click.argument("graph_file")
@click.option("--source", required=True, type=int)
@click.option("--target", required=True, type=int)
@click.option("--algo", default="classic", show_default=True, type=ALGO_CHOICES)
def path_cmd(graph_file, source, target, algo):
    """Print the route to the target and the shortest-path-tree matrix."""
    g = _load_graph(graph_file)
    check_size(g.n)  # before the run: the tree matrix printed is n by n
    result = bench_mod.run_strategy(g, source, STRATEGIES[algo], target)
    tree = build_tree_matrix(g, result)
    route = extract_path(tree, target)
    if algo == "stablebatch":
        _stable_batch_check(g, result)
    click.echo(f"route: {route}")
    click.echo("tree matrix:")
    click.echo(render.render_tree_matrix(tree), nl=False)


@main.command()
@click.argument("graph_file")
@click.option("--source", required=True, type=int)
@click.option("--target", type=int)
def compare(graph_file, source, target):
    """Compare all strategies against the oracle on one graph."""
    g = _load_graph(graph_file)
    record = bench_mod.compare(g, source, target)
    click.echo(render.render_comparison_text(record), nl=False)


@main.command()
@click.option("--nodes", required=True, type=int, help="Vertices per graph.")
@click.option("--density", required=True, type=float, help="Edge probability in [0,1].")
@click.option("--graphs", required=True, type=int, help="Graphs to generate.")
@click.option("--seed", required=True, type=int)
@click.option("--tie-bias", default=0.0, show_default=True, type=float)
@click.option("--weights", default="1:9", show_default=True, help="Weight range LO:HI.")
@click.option("--source", default=1, show_default=True, type=int)
@click.option(
    "--out",
    required=True,
    help="Report file; .json selects the hierarchical format, anything else CSV.",
)
def bench(nodes, density, graphs, seed, tie_bias, weights, source, out):
    """Generate random graphs, compare strategies, and write a report."""
    try:
        lo_text, _, hi_text = weights.partition(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise click.UsageError(f"--weights must be LO:HI, got {weights!r}")
    if graphs < 0:
        raise click.UsageError("--graphs must be >= 0")
    try:
        spec = bench_mod.GraphSpec(
            n=nodes,
            density=density,
            weight_lo=lo,
            weight_hi=hi,
            tie_bias=tie_bias,
            seed=seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not 1 <= source <= nodes:
        raise click.UsageError(f"--source must be in 1..{nodes}")
    report = bench_mod.run_suite([spec], graphs, source=source)
    if out.endswith(".json"):
        payload = render.report_to_json(report)
    else:
        payload = render.report_to_csv(report)
    try:
        Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise PathlabError(f"cannot write {out}: {exc.strerror or exc}") from None
    click.echo(f"wrote {out} ({len(report.records)} records)")
    for strategy, agg in report.aggregates.items():
        click.echo(
            f"{strategy.value:<11} mean_rounds={render.fixed_decimal(agg.mean_rounds, 6)}"
            f" min={agg.min_rounds} max={agg.max_rounds}"
            f" agreement={render.fixed_decimal(agg.agreement_rate * 100, 6)}%"
        )
    if report.records:
        click.echo(
            f"stablebatch unsound on {report.stable_batch_unsound_count}"
            f" of {len(report.records)} graphs"
        )


@main.command()
@click.argument("graph_file")
@click.option("--source", required=True, type=int)
def oracle(graph_file, source):
    """Print oracle (Bellman-Ford) distances from the source."""
    g = _load_graph(graph_file)
    result = bellman_ford(g, source)
    click.echo(render.render_oracle_text(result), nl=False)


if __name__ == "__main__":
    main()
