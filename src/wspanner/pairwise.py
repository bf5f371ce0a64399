"""Pairwise spanner constructions built on a d-light initialization.

Three variants share the same skeleton: start from the d lightest edges per
vertex, then sweep the input pairs, adding a pair's canonical shortest path
outright when few of its edges are missing and otherwise falling back to
randomized repairs (shortest-path trees from sampled roots, bounded-miss
paths between sampled pairs, or a subsetwise spanner over a sample).  One
sweep serves all three; only the repair differs.  A run is one sweep, one
check and one patch: the pairs still over budget after the sweep get the
missing edges of their canonical paths, so the result always meets its
advertised budget:

    p2w -> +2*W(u,v)    p4w -> +4*W(u,v)    p8w -> +6*W_max

The report's fallback flag says the patch added more than n*d edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_override is not None and self.d_override < 1:
            raise ValueError(f"d override must be positive, got {self.d_override}")


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


def shortest_path_tree(g: WeightedGraph, root: int) -> set[Edge]:
    """Edges of the canonical shortest-path tree from root over the vertices
    it reaches."""
    parents = [g.paths.tree_parent(root, v) for v in range(g.n)]
    return {edge_key(p, v) for v, p in enumerate(parents) if v != root and p >= 0}


def limited_missing_path(g: WeightedGraph, r: int, r_prime: int, present: set[Edge],
                         miss_cap: int) -> tuple[int, ...] | None:
    """Minimum-weight r -> r_prime path using at most miss_cap edges outside
    present (a set of canonical (min, max) edge keys), or None when no such
    path exists.

    Runs a shortest-path search over (vertex, missing-count) states; among
    equal-weight answers the smaller missing count wins, and reconstruction
    prefers the smaller predecessor id.  The search stops at the first settled
    (r_prime, k) state: weights are >= 1, so every state lighter than that
    answer is already settled, and the (weight, vertex, k) heap order makes its
    k the smallest among equal-weight answers, exactly as a full search would.

    Dominance pruning: least[x] is the least k settled at x so far (at first
    miss_cap + 1, which is the cap), and (x, k) is pushed and expanded only
    while k < least[x].  A state settled earlier at x with fewer misses is no
    heavier, so from it the suffix of any path through (x, k) would reach
    r_prime no heavier with fewer misses: a pruned state lies on no optimal
    path.  So optimal paths are settled as in the full search, and each
    table entry, a walk's weight, is never below the full search's: the
    states the reconstruction's weight test accepts, the break point, the
    returned tuple and None are the same as without pruning.
    """
    if miss_cap < 0:
        raise ValueError("miss_cap must be >= 0")
    if not (0 <= r < g.n and 0 <= r_prime < g.n):
        raise ValueError(f"pair ({r},{r_prime}) references a vertex outside 0..{g.n - 1}")
    if r == r_prime:
        return (r,)
    adj, width = g.adj, miss_cap + 1
    dist = [UNREACHABLE] * (g.n * width)  # state (x, k) at x * width + k
    least = [width] * g.n
    dist[r * width] = 0
    heap = [(0, r, 0)]
    while heap:
        d, x, k = heapq.heappop(heap)
        if k >= least[x]:
            continue
        least[x] = k
        if x == r_prime:
            break
        for y, w in adj[x]:
            k2 = k if ((x, y) if x < y else (y, x)) in present else k + 1
            if k2 < least[y] and d + w < dist[y * width + k2]:
                dist[y * width + k2] = d + w
                heapq.heappush(heap, (d + w, y, k2))
    else:
        return None
    weight, path = d, [r_prime]
    while x != r or k != 0:
        for u, w in adj[x]:
            k_prev = k if edge_key(u, x) in present else k - 1
            if k_prev >= 0 and dist[u * width + k_prev] + w == weight:
                path.append(u)
                weight, x, k = weight - w, u, k_prev
                break
        else:
            raise AssertionError("path reconstruction failed")
    path.reverse()
    return tuple(path)


@dataclass
class PairwiseReport:
    """Run trace: parameters, sampling counts, patch size.  passes is always
    1 (one sweep per run); the field stays for readers of the report."""

    algo: str
    d: int
    ell: int
    passes: int = 1
    sample_counts: list[int] = field(default_factory=list)
    patched: int = 0
    fallback: bool = False


def _sample(rng, n: int, prob: float, report: PairwiseReport) -> list[int]:
    """Each vertex independently with probability prob (all of them when
    prob >= 1); the sample size is appended to the report."""
    sample = [v for v in range(n) if rng.random() < prob]
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
                h.update(shortest_path_tree(g, r))
        elif algo is not PairwiseAlgo.P2W:
            h.update(missing[:ell])
            h.update(missing[-ell:])
            sample = _sample(rng, n, 1.0 / (ell * d), report)
            if algo is PairwiseAlgo.P4W:
                for i, r in enumerate(sample):
                    for r_prime in sample[i + 1:]:
                        path = limited_missing_path(g, r, r_prime, h, n // (d * d))
                        if path is not None:
                            h.update(edge_key(a, b) for a, b in zip(path, path[1:]))
            elif len(sample) >= 2 and g.is_connected():
                # the subsetwise subroutine needs a connected graph; without
                # it the final patch still guarantees the advertised budget
                h.update(subsetwise_2w(g, frozenset(sample)))
    if algo is PairwiseAlgo.P2W:
        for r in _sample(rng, n, 1.0 / (ell * d), report):
            h.update(shortest_path_tree(g, r))


def pairwise_spanner_run(g: WeightedGraph, pairs: Sequence[tuple[int, int]],
                         params: PairwiseParams) -> tuple[set[Edge], PairwiseReport]:
    """The d-light init, one sweep, one check, and a patch of the missing
    canonical-path edges of the pairs the check flags."""
    if not pairs:
        raise ValueError("pairs must be nonempty")
    norm = [edge_key(u, v) if u != v else (u, v) for u, v in pairs]
    for u, v in norm:
        if u < 0 or v >= g.n:
            raise ValueError(f"pair ({u},{v}) references a vertex outside 0..{g.n - 1}")
        if not g.paths.reachable(u, v):
            raise ValueError(f"pair ({u},{v}) is disconnected")
    count = len(norm)
    d = params.d_override if params.d_override is not None else default_d(params.algo, count)
    ell = default_ell(params.algo, g.n, count)
    h = d_light_init(g, d)
    report = PairwiseReport(algo=params.algo.value, d=d, ell=ell)
    _pass(params.algo, g, norm, h, d, ell, stream(params.seed, ROLE_PAIRWISE, 0), report)
    missing = _missing_for(g, verify_spanner(g, h, norm, BUDGETS[params.algo]), h)
    h.update(missing)
    report.patched = len(missing)
    report.fallback = len(missing) > g.n * d
    return h, report


def pairwise_spanner(g: WeightedGraph, pairs: Sequence[tuple[int, int]],
                     params: PairwiseParams) -> set[Edge]:
    """Edge set meeting the advertised budget for every input pair."""
    return pairwise_spanner_run(g, pairs, params)[0]
