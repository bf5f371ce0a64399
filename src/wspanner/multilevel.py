"""Multi-level spanners: the naive and the rounding-up strategies.

Both strategies run a single-level subsetwise solver on tagged terminal sets
and assemble one union per level: level k is the union of the edge sets
solved with a tag of at least k, so each edge reaches exactly the levels up
to its highest tag, which preserves nesting and per-level validity.  The
tags are solved top-down: each solve gets the edges the higher tags already
returned as free edges, which a solver may start from instead of buying
them again (the top-down heuristic of multi-level Steiner trees).  The
naive strategy solves every level k over S_k with tag k.

The rounding-up strategy rounds each vertex's priority (the highest level
holding it) up to a power of two and solves only the power-of-two levels,
trading sparsity (at most a factor 4 over the optimum with an exact solver)
for fewer subroutine calls.  For a power of two i, next_pow2(p) >= i holds
exactly when p > i // 2, so the vertices whose rounded priority is at least
i are S_(i//2 + 1), a set the instance already holds.  Level k needs tag
next_pow2(k), which for power-of-two tags is the same as tag >= k, so both
strategies share one assembler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Edge, ErrorBudget, WeightedGraph

# (graph, terminals, level_tag, free) -> spanner edge set; the level tag lets
# randomized solvers split their seed per level, and free holds the edges the
# higher tags' solves returned, which the solver may keep at no cost.
SingleLevelSolver = Callable[[WeightedGraph, frozenset, int, frozenset], set]


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
    """Nested edge sets, one per level."""

    level_edges: tuple[frozenset[Edge], ...]

    @property
    def sparsity(self) -> int:
        return sum(len(edges) for edges in self.level_edges)


def _assemble(inst: MultiLevelInstance, subroutine: SingleLevelSolver,
              tagged_sets: Iterable[tuple[int, frozenset]]) -> MultiLevelSpanner:
    """Solve each (tag, terminals) with at least 2 terminals, from the highest
    tag down, each with the union of the higher tags' edge sets as its free
    edges; level k is the union of the edge sets with a tag of at least k.
    tagged_sets lists its tags in ascending order."""
    held, union_from = frozenset(), {}
    for tag, terminals in reversed(list(tagged_sets)):
        if len(terminals) >= 2:
            held = held.union(subroutine(inst.graph, terminals, tag, held))
        union_from[tag] = held
    return MultiLevelSpanner(tuple(union_from[min(t for t in union_from if t >= k)]
                                   for k in range(1, inst.levels + 1)))


def multilevel_roundup(inst: MultiLevelInstance, subroutine: SingleLevelSolver) -> MultiLevelSpanner:
    """Solve the power-of-two levels i over S_(i//2 + 1), then project back."""
    # i = 1, 2, 4, ..., next_pow2(levels)
    tags = [1 << j for j in range((inst.levels - 1).bit_length() + 1)]
    return _assemble(inst, subroutine, ((i, inst.terminal_sets[i // 2]) for i in tags))


def multilevel_naive(inst: MultiLevelInstance, subroutine: SingleLevelSolver) -> MultiLevelSpanner:
    """Solve every level over its exact terminal set and merge."""
    return _assemble(inst, subroutine, enumerate(inst.terminal_sets, start=1))
