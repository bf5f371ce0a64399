"""Multi-level spanners: priorities, power-of-two rounding, per-level assembly.

Both strategies run a single-level subsetwise solver per level and merge the
results by keeping each edge at the highest level that used it; lower levels
inherit it, which preserves nesting and per-level validity.  The rounding-up
strategy only solves power-of-two levels over the rounded-up priorities and
projects back, trading sparsity (at most a factor 4 over the optimum with an
exact solver) for fewer subroutine calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import Edge, ErrorBudget, WeightedGraph

# (graph, terminals, level_tag) -> spanner edge set; the level tag lets
# randomized solvers split their seed per level.
SingleLevelSolver = Callable[[WeightedGraph, frozenset, int], set]


@dataclass(frozen=True)
class MultiLevelInstance:
    """Graph, nested terminal sets S_1 >= ... >= S_levels, and an error budget."""

    graph: WeightedGraph
    terminal_sets: tuple[frozenset[int], ...]
    budget: ErrorBudget

    def __post_init__(self) -> None:
        if not self.terminal_sets:
            raise ValueError("need at least one terminal set")
        sets = tuple(frozenset(s) for s in self.terminal_sets)
        object.__setattr__(self, "terminal_sets", sets)
        for i, s in enumerate(sets, start=1):
            if not s:
                raise ValueError(f"terminal set {i} is empty")
            if any(not (0 <= v < self.graph.n) for v in s):
                raise ValueError(f"terminal set {i} references a vertex outside the graph")
            if i > 1 and not s <= sets[i - 2]:
                raise ValueError(f"terminal set {i} is not contained in set {i - 1}")

    @property
    def levels(self) -> int:
        return len(self.terminal_sets)


@dataclass(frozen=True, eq=False)
class MultiLevelSpanner:
    """Nested edge sets per level plus each edge's rate (highest level holding it)."""

    level_edges: tuple[frozenset[Edge], ...]
    edge_rate: dict[Edge, int]

    @property
    def sparsity(self) -> int:
        return sum(len(edges) for edges in self.level_edges)


def priorities(inst: MultiLevelInstance) -> dict[int, int]:
    """Highest level whose terminal set contains each vertex; 0 outside S_1."""
    out = {v: 0 for v in range(inst.graph.n)}
    for level, terminals in enumerate(inst.terminal_sets, start=1):
        for v in terminals:
            out[v] = level
    return out


def _next_pow2(k: int) -> int:
    return 1 << (k - 1).bit_length()


def round_up_levels(p: Mapping[int, int], ell: int) -> dict[int, int]:
    """Round positive priorities up to the nearest power of two; 0 stays 0."""
    out = {}
    for v, level in p.items():
        if not 0 <= level <= ell:
            raise ValueError(f"priority {level} out of range 0..{ell}")
        out[v] = 0 if level == 0 else _next_pow2(level)
    return out


def _solve_level(inst, solver, terminals: frozenset, tag: int) -> set:
    if len(terminals) < 2:
        return set()
    return solver(inst.graph, terminals, tag)


def _materialize(rate_of: dict[Edge, int], required) -> MultiLevelSpanner:
    """Fill per-level edge sets from raw rates; required maps an original
    level to the minimum raw rate an edge needs to appear there."""
    level_edges = []
    for need in required:
        level_edges.append(frozenset(e for e, r in rate_of.items() if r >= need))
    edge_rate: dict[Edge, int] = {}
    for k, edges in enumerate(level_edges, start=1):
        for e in edges:
            edge_rate[e] = k
    return MultiLevelSpanner(tuple(level_edges), edge_rate)


def multilevel_roundup(inst: MultiLevelInstance, subroutine: SingleLevelSolver) -> MultiLevelSpanner:
    """Solve power-of-two levels over rounded-up priorities, then project back."""
    ell = inst.levels
    rounded = round_up_levels(priorities(inst), ell)
    top = _next_pow2(ell)
    pow_levels = []
    i = 1
    while i <= top:
        pow_levels.append(i)
        i *= 2
    rate_of: dict[Edge, int] = {}
    for i in pow_levels:
        terminals = frozenset(v for v, r in rounded.items() if r >= i)
        for e in _solve_level(inst, subroutine, terminals, i):
            rate_of[e] = i
    return _materialize(rate_of, [_next_pow2(k) for k in range(1, ell + 1)])


def multilevel_naive(inst: MultiLevelInstance, subroutine: SingleLevelSolver) -> MultiLevelSpanner:
    """Solve every level over its exact terminal set and merge."""
    rate_of: dict[Edge, int] = {}
    for k in range(1, inst.levels + 1):
        for e in _solve_level(inst, subroutine, inst.terminal_sets[k - 1], k):
            rate_of[e] = k
    return _materialize(rate_of, list(range(1, inst.levels + 1)))
