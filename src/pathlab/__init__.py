"""Label-setting shortest-path laboratory.

Classic single-settle and tie-batched permanent labeling with full per-round
traces, shortest-path-tree extraction, two independent oracles, and a seeded
benchmark harness comparing iteration counts across selection strategies.
"""

from .bench import (
    ComparisonRecord,
    GraphSpec,
    RunReport,
    StrategyAggregate,
    StrategyResult,
    compare,
    compute_aggregates,
    generate_graph,
    run_suite,
)
from .errors import (
    DiagonalNonZero,
    DuplicateEdge,
    FrontierNotPermanent,
    GraphTooLarge,
    MalformedInput,
    NegativeOrZeroWeight,
    PathlabError,
    SelfLoop,
    VertexOutOfRange,
)
from .graph import Graph, parse_edge_list, parse_matrix_text
from .labeling import (
    LabelState,
    RoundRecord,
    RunTrace,
    Strategy,
    init_labels,
    relax_step,
    run_classic,
    run_modified,
    select_permanent,
)
from .oracle import (
    MAX_ENUMERATION_VERTICES,
    OracleResult,
    bellman_ford,
    enumerate_min_path,
)
from .render import report_to_csv, report_to_json, to_matrix_text
from .tree import Route, TreeMatrix, build_tree_matrix, extract_path
from .weights import INFINITY, Weight

__all__ = [
    "ComparisonRecord",
    "DiagonalNonZero",
    "DuplicateEdge",
    "FrontierNotPermanent",
    "Graph",
    "GraphSpec",
    "GraphTooLarge",
    "INFINITY",
    "LabelState",
    "MAX_ENUMERATION_VERTICES",
    "MalformedInput",
    "NegativeOrZeroWeight",
    "OracleResult",
    "PathlabError",
    "RoundRecord",
    "Route",
    "RunReport",
    "RunTrace",
    "SelfLoop",
    "Strategy",
    "StrategyAggregate",
    "StrategyResult",
    "TreeMatrix",
    "VertexOutOfRange",
    "Weight",
    "bellman_ford",
    "build_tree_matrix",
    "compare",
    "compute_aggregates",
    "enumerate_min_path",
    "extract_path",
    "generate_graph",
    "init_labels",
    "parse_edge_list",
    "parse_matrix_text",
    "relax_step",
    "report_to_csv",
    "report_to_json",
    "run_classic",
    "run_modified",
    "run_suite",
    "select_permanent",
    "to_matrix_text",
]
