"""Weighted additive graph spanners: constructions, exact baselines, benchmarks."""

from .core import BudgetMode, ErrorBudget, build_path_table, terminal_pairs, verify_spanner
from .generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
)
from .pairwise import PairwiseAlgo, PairwiseParams, pairwise_spanner
from .subsetwise import subsetwise_2w
