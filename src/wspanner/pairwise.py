"""Pairwise spanner constructions built on a d-light initialization.

Three variants share the same skeleton: start from the d lightest edges per
vertex and the caller's free edges, then sweep the input pairs, adding a
pair's canonical shortest path outright when few of its edges are missing
and otherwise falling back to randomized repairs (shortest-path trees from
sampled roots, bounded-miss paths between sampled pairs, or a subsetwise
spanner over a sample).  One
sweep serves all three; only the repair differs.  A run is one sweep, one
check and one patch, and the sweep and the check visit only the pairs whose
canonical path leaves H (``PathTable.leaving``); the pairs still over budget
get the missing edges of their canonical paths, so the result always meets
its advertised budget:

    p2w -> +2*W(u,v)    p4w -> +4*W(u,v)    p8w -> +6*W_max

The report's fallback flag says the patch added more than n*d edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Collection, Sequence

from .core import (
    UNREACHABLE,
    BudgetMode,
    Edge,
    ErrorBudget,
    WeightedGraph,
    _is_int,
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
        object.__setattr__(self, "algo", PairwiseAlgo(self.algo))
        if self.d_override is not None and not (_is_int(self.d_override) and self.d_override >= 1):
            raise ValueError(f"d override must be an integer >= 1, got {self.d_override!r}")


def d_light_init(g: WeightedGraph, d: int) -> set[Edge]:
    """Union over vertices of each vertex's d lightest incident edges
    (ties toward the smaller neighbor id; all edges when degree <= d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return {e for incident in g.light_first for e in incident[:d]}


def shortest_path_tree(g: WeightedGraph, root: int) -> set[Edge]:
    """Edges of the canonical shortest-path tree from root over the vertices
    it reaches."""
    return {edge_key(p, v) for v, p in enumerate(g.paths.row(root)[1]) if p >= 0}


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
    """Run trace: parameters, sampling counts, patch size (passes is always 1)."""

    algo: str
    d: int
    ell: int
    passes: int = 1
    sample_counts: list[int] = field(default_factory=list)
    patched: int = 0
    fallback: bool = False


def _sample(rng, n: int, prob: float, report: PairwiseReport) -> list[int]:
    """Each vertex independently with probability prob (all of them when
    prob >= 1), drawn from rng; the sample size is appended to the report."""
    sample = [v for v in range(n) if rng.random() < prob]
    report.sample_counts.append(len(sample))
    return sample


def _pass(algo: PairwiseAlgo, g: WeightedGraph, pairs: Sequence[tuple[int, int]],
          h: set[Edge], d: int, ell: int, seed: int, report: PairwiseReport) -> None:
    """One sweep, in input order, over the pairs whose canonical path leaves
    h when it starts (their positions from ``PathTable.leaving``, each path
    from ``PathTable.path``): h only grows, so every other pair's path stays
    in h, and the pair draws nothing.  A visited pair's missing edges are
    counted at its turn, since earlier buys and repairs may have covered its
    path.  Its path is bought when at most ell edges are missing from h,
    else repaired: p4w with trees or with bounded-miss paths for the sample
    pairs whose canonical path leaves h (one in h weighs dist_G with no
    miss, so the search would return a path in h), p8w with a subsetwise
    spanner on a sample, p2w after the sweep with trees.  The samples share
    one stream, seeded at the first.  The first bad pair in input order
    raises before any repair: one outside the graph, or one that g does not
    connect (only a disconnected g has one), with ``ErrorBudget.limit``'s message."""
    n, pt, rng = g.n, g.paths, None
    if not g.is_connected:
        for u, v in pairs:
            BUDGETS[PairwiseAlgo.P8W].limit(g, u, v)  # a global limit reads no path
    for i in pt.leaving(pairs, h):
        missing = [e for e in pt.path(*pairs[i]) if e not in h]
        if len(missing) <= ell:
            h.update(missing)
            continue
        if algo is PairwiseAlgo.P4W and len(missing) * d * d >= n:
            for r in _sample(rng := rng or stream(seed, ROLE_PAIRWISE, 0), n, d * d / n, report):
                h.update(shortest_path_tree(g, r))
        elif algo is not PairwiseAlgo.P2W:
            h.update(missing[:ell])
            h.update(missing[-ell:])
            sample = _sample(rng := rng or stream(seed, ROLE_PAIRWISE, 0), n, 1.0 / (ell * d), report)
            if algo is PairwiseAlgo.P4W:
                for r, r_prime in combinations(sample, 2):
                    if not h.issuperset(pt.path(r, r_prime) or ()):
                        path = limited_missing_path(g, r, r_prime, h, n // (d * d))
                        if path is not None:
                            h.update(edge_key(a, b) for a, b in zip(path, path[1:]))
            elif len(sample) >= 2 and g.is_connected:
                # the subsetwise subroutine needs a connected graph (else the final patch
                # keeps the budget); the path table keeps no pair tuple of a one-off sample
                h.update(subsetwise_2w(g, sample, one_off=True))
    if algo is PairwiseAlgo.P2W:
        for r in _sample(rng := rng or stream(seed, ROLE_PAIRWISE, 0), n, 1.0 / (ell * d), report):
            h.update(shortest_path_tree(g, r))


def pairwise_spanner_run(g: WeightedGraph, pairs: Sequence[tuple[int, int]], params: PairwiseParams,
                         free: Collection[Edge] = ()) -> tuple[set[Edge], PairwiseReport]:
    """The d-light init plus the free edges (edges of g the caller already
    holds, kept in the output), one sweep, one check of every pair and a
    patch of the missing canonical-path edges of the pairs it flags; the
    check searches only for the pairs whose canonical path leaves H."""
    if not pairs:
        raise ValueError("pairs must be nonempty")
    d = params.d_override or default_d(params.algo, len(pairs))
    ell = default_ell(params.algo, g.n, len(pairs))
    h = d_light_init(g, d)
    h.update(free)
    report = PairwiseReport(algo=params.algo.value, d=d, ell=ell)
    _pass(params.algo, g, pairs, h, d, ell, params.seed, report)
    violators = verify_spanner(g, h, pairs, BUDGETS[params.algo])
    missing = {e for u, v in violators for e in g.paths.path(u, v) if e not in h}
    h.update(missing)
    report.patched = len(missing)
    report.fallback = len(missing) > g.n * d
    return h, report


def pairwise_spanner(g: WeightedGraph, pairs: Sequence[tuple[int, int]], params: PairwiseParams,
                     free: Collection[Edge] = ()) -> set[Edge]:
    """Edge set holding free and meeting the advertised budget for every pair."""
    return pairwise_spanner_run(g, pairs, params, free)[0]
