"""Weighted additive graph spanners: constructions, exact baselines, benchmarks."""

from .core import (
    UNREACHABLE,
    BudgetMode,
    Edge,
    ErrorBudget,
    PathTable,
    WeightedGraph,
    build_path_table,
    edge_key,
    parse_graph_text,
    terminal_pairs,
    verify_spanner,
    write_graph_text,
)
from .exact import IlpModel, SizeCapExceeded, SizeCaps, build_ilp, emit_lp, exact_optimum, exact_single_level
from .generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
)
from .multilevel import (
    MultiLevelInstance,
    MultiLevelSpanner,
    multilevel_naive,
    multilevel_roundup,
    priorities,
    round_up_levels,
)
from .pairwise import (
    PairwiseAlgo,
    PairwiseParams,
    advertised_budget,
    d_light_init,
    limited_missing_path,
    pairwise_spanner,
    pairwise_spanner_run,
    shortest_path_tree,
)
from .subsetwise import (
    Clustering,
    build_clustering,
    cluster_threshold,
    path_value,
    subsetwise_2w,
    subsetwise_2w_run,
)
from .bench import ALGO_BUDGETS, ExperimentPlan, ResultRow, d_sweep, run_plan, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
