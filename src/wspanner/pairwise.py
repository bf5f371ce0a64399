"""Pairwise spanner constructions built on a d-light initialization.

Three variants share the same skeleton: start from the d lightest edges per
vertex, then sweep the input pairs, adding a pair's canonical shortest path
outright when few of its edges are missing and otherwise falling back to
randomized repairs (shortest-path trees from sampled roots, bounded-miss
paths between sampled pairs, or a subsetwise spanner over a sample).  One
sweep serves all three; only the repair differs.  After each full pass the
pairs still over budget are collected; if the union of their missing
canonical-path edges is small enough (at most n*d) it is patched in
directly, otherwise the pass is retried on a fresh sub-seed.
When retries run out the patch is applied unconditionally (the report's
fallback flag), so the result always meets its advertised budget:

    p2w -> +2*W(u,v)    p4w -> +4*W(u,v)    p8w -> +6*W_max
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    UNREACHABLE,
    BudgetMode,
    Edge,
    ErrorBudget,
    WeightedGraph,
    edge_key,
    verify_spanner,
)
from .seeding import ROLE_PAIRWISE, stream
from .subsetwise import subsetwise_2w


class PairwiseAlgo(Enum):
    P2W = "p2w"
    P4W = "p4w"
    P8W = "p8w"


# (d exponent, ell exponent) as exact fractions num/den over |P|.
_EXPONENTS = {
    PairwiseAlgo.P2W: ((1, 3), (2, 3)),
    PairwiseAlgo.P4W: ((2, 7), (5, 7)),
    PairwiseAlgo.P8W: ((1, 4), (3, 4)),
}

# The error budget each construction enforces on its output.
BUDGETS = {
    PairwiseAlgo.P2W: ErrorBudget(BudgetMode.LOCAL, 2),
    PairwiseAlgo.P4W: ErrorBudget(BudgetMode.LOCAL, 4),
    PairwiseAlgo.P8W: ErrorBudget(BudgetMode.GLOBAL, 6),
}


def _least_root(a: int, b: int, den: int) -> int:
    """Smallest k >= 1 with k**den * a >= b (a >= 1), by integer bisection."""
    lo = hi = 1
    while hi ** den * a < b:
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** den * a >= b:
            hi = mid
        else:
            lo = mid + 1
    return lo


def default_d(algo: PairwiseAlgo, pair_count: int) -> int:
    """ceil(|P|**(num/den)), at least 1."""
    num, den = _EXPONENTS[algo][0]
    return _least_root(1, pair_count ** num, den)


def default_ell(algo: PairwiseAlgo, n: int, pair_count: int) -> int:
    """ceil(n / |P|**(num/den)), at least 1; |P| <= 1 gives n."""
    num, den = _EXPONENTS[algo][1]
    return _least_root(max(1, pair_count) ** num, n ** den, den)


@dataclass(frozen=True)
class PairwiseParams:
    algo: PairwiseAlgo
    d_override: int | None = None
    ell_override: int | None = None
    max_retries: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_override is not None and self.d_override < 1:
            raise ValueError(f"d override must be positive, got {self.d_override}")
        if self.ell_override is not None and self.ell_override < 1:
            raise ValueError(f"ell override must be positive, got {self.ell_override}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def advertised_budget(params: PairwiseParams) -> ErrorBudget:
    """The error budget the construction enforces on its output."""
    return BUDGETS[params.algo]


def d_light_init(g: WeightedGraph, d: int) -> set[Edge]:
    """Union over vertices of each vertex's d lightest incident edges
    (ties toward the smaller neighbor id; all edges when degree <= d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    h: set[Edge] = set()
    for v in range(g.n):
        incident = sorted((w, u) for u, w in g.adj[v])
        h.update(edge_key(v, u) for _, u in incident[:d])
    return h


def _tree_edges(g: WeightedGraph, root: int) -> set[Edge]:
    """Edges of the canonical shortest-path tree from root over the vertices
    it reaches."""
    parents = [g.paths.tree_parent(root, v) for v in range(g.n)]
    return {edge_key(p, v) for v, p in enumerate(parents) if v != root and p >= 0}


def shortest_path_tree(g: WeightedGraph, root: int) -> set[Edge]:
    """Edge set of the canonical shortest-path tree from root (n-1 edges)."""
    tree = _tree_edges(g, root)
    if len(tree) != g.n - 1:
        raise ValueError("shortest-path tree needs a connected graph")
    return tree


def limited_missing_path(g: WeightedGraph, r: int, r_prime: int, current_edges: Iterable[Edge],
                         miss_cap: int) -> tuple[int, ...] | None:
    """Minimum-weight r -> r_prime path using at most miss_cap edges outside
    current_edges, or None when no such path exists.

    Runs a shortest-path search over (vertex, missing-count) states; among
    equal-weight answers the smaller missing count wins, and reconstruction
    prefers the smaller predecessor id.  The search stops at the first settled
    (r_prime, k) state: weights are >= 1, so every state lighter than that
    answer is already settled, and the (weight, vertex, k) heap order makes its
    k the smallest among equal-weight answers, exactly as a full search would.
    """
    if miss_cap < 0:
        raise ValueError("miss_cap must be >= 0")
    if r == r_prime:
        return (r,)
    present = {edge_key(u, v) for u, v in current_edges}
    n = g.n
    cap = miss_cap
    dist = [[UNREACHABLE] * (cap + 1) for _ in range(n)]
    dist[r][0] = 0
    heap = [(0, r, 0)]
    while heap:
        d, x, k = heapq.heappop(heap)
        if d > dist[x][k]:
            continue
        if x == r_prime:
            break
        for y, w in g.adj[x]:
            k2 = k + (0 if edge_key(x, y) in present else 1)
            if k2 > cap:
                continue
            nd = d + w
            if nd < dist[y][k2]:
                dist[y][k2] = nd
                heapq.heappush(heap, (nd, y, k2))
    else:
        return None
    weight = d
    path = [r_prime]
    x = r_prime
    while x != r or k != 0:
        for u, w in g.adj[x]:
            k_prev = k - (0 if edge_key(u, x) in present else 1)
            if k_prev >= 0 and dist[u][k_prev] != UNREACHABLE and dist[u][k_prev] + w == weight:
                path.append(u)
                weight -= w
                x, k = u, k_prev
                break
        else:
            raise AssertionError("path reconstruction failed")
    path.reverse()
    return tuple(path)


@dataclass
class PairwiseReport:
    """Run trace: parameters, per-pass repair sizes, sampling counts."""

    algo: str
    d: int
    ell: int
    passes: int = 0
    missing_trace: list[int] = field(default_factory=list)
    sample_counts: list[int] = field(default_factory=list)
    patched: int = 0
    fallback: bool = False


def _sample(rng, n: int, prob: float, report: PairwiseReport) -> list[int]:
    """Each vertex independently with probability min(1, prob); the sample
    size is appended to the report."""
    hits = rng.random(n) < min(1.0, prob)
    sample = [v for v in range(n) if hits[v]]
    report.sample_counts.append(len(sample))
    return sample


def _missing_for(g: WeightedGraph, pairs, h: set[Edge]) -> set[Edge]:
    missing: set[Edge] = set()
    for u, v in pairs:
        missing.update(e for e in g.paths.path_edges(u, v) if e not in h)
    return missing


def _pass(algo: PairwiseAlgo, g: WeightedGraph, pairs, h: set[Edge], d: int, ell: int, rng,
          report: PairwiseReport) -> None:
    """One sweep over the pairs: buy a pair's canonical path when at most ell
    of its edges are missing from h, otherwise run the algorithm's repair
    (p4w: trees or bounded-miss paths, p8w: a subsetwise spanner on a sample).
    p2w repairs once, after the sweep, with the trees of one sample."""
    n = g.n
    for u, v in pairs:
        pe = g.paths.path_edges(u, v)
        missing = [e for e in pe if e not in h]
        if len(missing) <= ell:
            h.update(pe)
        elif algo is PairwiseAlgo.P4W and len(missing) * d * d >= n:
            for r in _sample(rng, n, d * d / n, report):
                h.update(_tree_edges(g, r))
        elif algo is PairwiseAlgo.P4W:
            h.update(missing[:ell])
            h.update(missing[-ell:])
            sample = _sample(rng, n, 1.0 / (ell * d), report)
            for i, r in enumerate(sample):
                for r_prime in sample[i + 1:]:
                    path = limited_missing_path(g, r, r_prime, h, n // (d * d))
                    if path is not None:
                        h.update(edge_key(a, b) for a, b in zip(path, path[1:]))
        elif algo is PairwiseAlgo.P8W:
            h.update(missing[:ell])
            h.update(missing[-ell:])
            sample = _sample(rng, n, 1.0 / (ell * d), report)
            # the subsetwise subroutine needs a connected graph; without it the
            # final patch still guarantees the advertised budget
            if len(sample) >= 2 and g.is_connected():
                h.update(subsetwise_2w(g, frozenset(sample)))
    if algo is PairwiseAlgo.P2W:
        for r in _sample(rng, n, 1.0 / (ell * d), report):
            h.update(_tree_edges(g, r))


def pairwise_spanner_run(g: WeightedGraph, pairs: Sequence[tuple[int, int]],
                         params: PairwiseParams) -> tuple[set[Edge], PairwiseReport]:
    if not pairs:
        raise ValueError("pairs must be nonempty")
    norm = [edge_key(u, v) if u != v else (u, v) for u, v in pairs]
    for u, v in norm:
        if not g.paths.reachable(u, v):
            raise ValueError(f"pair ({u},{v}) is disconnected")
    count = len(norm)
    d = params.d_override if params.d_override is not None else default_d(params.algo, count)
    ell = params.ell_override if params.ell_override is not None else default_ell(params.algo, g.n, count)
    budget = advertised_budget(params)
    h = d_light_init(g, d)
    report = PairwiseReport(algo=params.algo.value, d=d, ell=ell)
    # Each pass is checked once (max_retries=0 checks d-light init alone).  The
    # first check with at most n*d missing edges ends the loop; when none does,
    # the last check's edges are patched in anyway and the run is a fallback.
    for attempt in range(max(1, params.max_retries)):
        if params.max_retries:
            rng = stream(params.seed, ROLE_PAIRWISE, attempt)
            _pass(params.algo, g, norm, h, d, ell, rng, report)
            report.passes += 1
        missing = _missing_for(g, verify_spanner(g, h, norm, budget), h)
        report.missing_trace.append(len(missing))
        if len(missing) <= g.n * d:
            break
    h.update(missing)
    report.patched = len(missing)
    report.fallback = len(missing) > g.n * d
    return h, report


def pairwise_spanner(g: WeightedGraph, pairs: Sequence[tuple[int, int]],
                     params: PairwiseParams) -> set[Edge]:
    """Edge set meeting the advertised budget for every input pair."""
    return pairwise_spanner_run(g, pairs, params)[0]
