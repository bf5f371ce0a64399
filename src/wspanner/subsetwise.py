"""Subsetwise +2W spanner: greedy clustering followed by a cost/value path-buying sweep.

The clustering phase repeatedly picks the smallest-id vertex with at least
ceil(sqrt(|S| * W)) unclustered neighbors and clusters that many of its
smallest-id unclustered neighbors; star edges and intra-cluster edges go
into the cluster subgraph, and every edge incident to a vertex left
unclustered is added afterwards.  The buying sweep visits, in ascending
order, the terminal pairs whose canonical path leaves H at its start
(``PathTable.leaving``).  A pair whose path H holds at its turn is bought
with cost 0 and value 0 (a path inside H beats no H distance; without
clusters H is all of g).  Any other path is bought when cost <= (2W+1) *
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import core
from .core import Edge, Subgraph, WeightedGraph, edge_key


def cluster_threshold(s_size: int, w_max: int) -> int:
    """ceil(sqrt(s_size * w_max)) in exact integer arithmetic, at least 1."""
    x = s_size * w_max
    r = math.isqrt(x)
    return max(1, r if r * r == x else r + 1)


@dataclass(frozen=True)
class Clustering:
    """Disjoint clusters and the cluster subgraph edge set."""

    clusters: tuple[frozenset[int], ...]
    cluster_subgraph: frozenset[Edge]

    @cached_property
    def cluster_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, members in enumerate(self.clusters):
            for v in members:
                out[v] = idx
        return out


def build_clustering(g: WeightedGraph, s_size: int) -> Clustering:
    if not 1 <= s_size <= g.n:
        raise ValueError(f"terminal count {s_size} out of range 1..{g.n}")
    threshold = cluster_threshold(s_size, g.weight_max)
    adj = g.adj
    unclustered = [True] * g.n
    clusters: list[frozenset[int]] = []
    gc: set[Edge] = set()
    # Unclustered-neighbor counts only fall, so a vertex passed over never
    # qualifies later: one pass in id order picks the centers that a rescan
    # from vertex 0 after each cluster would.
    for center in range(g.n):
        if len(adj[center]) < threshold:
            continue
        free = [u for u, _ in adj[center] if unclustered[u]]
        while len(free) >= threshold:
            members, free = frozenset(free[:threshold]), free[threshold:]
            for u in members:
                unclustered[u] = False
            clusters.append(members)
            gc.update(edge_key(center, u) for u in members)
            gc.update((a, b) for a in members for b, _ in adj[a] if b in members and a < b)
    gc.update((u, v) for u, v, _ in g.edges if unclustered[u] or unclustered[v])
    return Clustering(tuple(clusters), frozenset(gc))


def path_value(g: WeightedGraph, pair: Edge, x: int, clustering: Clustering, h: Subgraph) -> int:
    """Clusters touched by the canonical path of pair (u, v), u < v, whose
    along-path distance from the end x beats dist_H from x, searched no
    farther than the largest along-path distance.  Each prefix of the path
    is a shortest path from u, so the along-path distance to a path vertex y
    is dist_G(u, y) from u and dist_G(u, v) - dist_G(u, y) from v, both read
    from row u; a cluster counts from its path member nearest x.  An x that
    is not an end, or a pair with no path, is a ValueError."""
    u, v = pair
    if x not in pair:
        raise ValueError(f"{x} is not an endpoint of the path")
    if (path := g.paths.path(u, v)) is None:
        raise ValueError(f"pair ({u},{v}) has no path")
    dist_g = g.paths.row(u)[0]
    along: dict[int, int] = {}
    for y in {y for e in path for y in e}:
        c = clustering.cluster_of.get(y)
        if c is not None:
            d = dist_g[y] if x == u else dist_g[v] - dist_g[y]
            along[c] = min(d, along.get(c, d))
    if not along:
        return 0
    # Entries past the limit are only known to lie beyond it, which is at
    # least d_path, so the comparison decides as with exact distances.
    dist = h.dist(x, limit=max(along.values()))
    return sum(d_path < min(dist[w] for w in clustering.clusters[c])
               for c, d_path in along.items())


@dataclass(slots=True)
class BuyRecord:
    pair: Edge
    cost: int
    value: int
    bought: bool


@dataclass
class PathBuyState:
    """Final spanner edges plus the audit trail of buy decisions: the sweep
    keeps the records of the pairs it valued, by position; ``records`` adds
    cost 0, value 0 ones for the other pairs, in pair order, on first read."""

    current_edges: set[Edge]
    pairs: Sequence[Edge]
    valued: dict[int, BuyRecord]

    @cached_property
    def records(self) -> list[BuyRecord]:
        return [self.valued.get(i) or BuyRecord(pair, 0, 0, True)
                for i, pair in enumerate(self.pairs)]


def subsetwise_2w_run(g: WeightedGraph, terminals: Iterable[int], one_off: bool = False) -> PathBuyState:
    if not g.is_connected:
        raise ValueError("subsetwise construction needs a connected graph")
    s = sorted(set(terminals))
    outside = [t for t in s if not 0 <= t < g.n]
    if outside:
        raise ValueError(f"terminals {outside} are outside 0..{g.n - 1}")
    if len(s) < 2:
        raise ValueError("need at least two terminals")
    pt = g.paths
    clustering = build_clustering(g, len(s))
    h = Subgraph(g, clustering.cluster_subgraph)
    # a one-off set (p8w's repair sample) gets its own list, which the table neither keeps nor indexes
    pairs = core.terminal_pairs(s) if one_off else pt.terminal_pairs(s)
    valued: dict[int, BuyRecord] = {}
    # an h that is all of g (always so without clusters) holds every path
    left = pt.leaving(pairs, h.edges) if len(h.edges) < len(g.edges) else ()
    for i in left:
        u, v = pairs[i]
        new = [e for e in pt.path(u, v) if e not in h.edges]
        if not new:
            continue
        value = (path_value(g, (u, v), u, clustering, h)
                 + path_value(g, (u, v), v, clustering, h))
        bought = len(new) <= (2 * g.weight_max + 1) * value
        if bought:
            h.add(new)
        valued[i] = BuyRecord((u, v), len(new), value, bought)
    return PathBuyState(h.edges, pairs, valued)


def subsetwise_2w(g: WeightedGraph, terminals: Iterable[int], one_off: bool = False) -> set[Edge]:
    """Edge set guaranteeing dist_H(u, v) <= dist_G(u, v) + 2*W_max on S x S."""
    return subsetwise_2w_run(g, terminals, one_off).current_edges
