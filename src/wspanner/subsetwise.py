"""Subsetwise +2W spanner: greedy clustering followed by a cost/value path-buying sweep.

The clustering phase repeatedly picks the smallest-id vertex with at least
ceil(sqrt(|S| * W)) unclustered neighbors and clusters that many of its
smallest-id unclustered neighbors; star edges and intra-cluster edges go
into the cluster subgraph, and every edge incident to a vertex left
unclustered is added afterwards.  The buying sweep then walks the terminal
pairs in ascending order and buys a canonical shortest path when
cost <= (2W+1) * value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import (
    Edge,
    WeightedGraph,
    dijkstra_distances,
    edge_key,
    subgraph_adjacency,
    terminal_pairs,
)


def cluster_threshold(s_size: int, w_max: int) -> int:
    """ceil(sqrt(s_size * w_max)) in exact integer arithmetic, at least 1."""
    x = s_size * w_max
    r = math.isqrt(x)
    return max(1, r if r * r == x else r + 1)


@dataclass(frozen=True)
class Clustering:
    """Disjoint clusters, their centers, and the cluster subgraph edge set."""

    clusters: tuple[frozenset[int], ...]
    centers: tuple[int, ...]
    cluster_subgraph: frozenset[Edge]
    threshold: int

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
    centers: list[int] = []
    gc: set[Edge] = set()
    # Unclustered-neighbor counts only fall, so a vertex passed over never
    # qualifies later: one pass in id order picks the centers that a rescan
    # from vertex 0 after each cluster would.
    for center in range(g.n):
        free = [u for u, _ in adj[center] if unclustered[u]]
        while len(free) >= threshold:
            members, free = free[:threshold], free[threshold:]
            for u in members:
                unclustered[u] = False
            member_set = set(members)
            clusters.append(frozenset(members))
            centers.append(center)
            gc.update(edge_key(center, u) for u in members)
            gc.update(edge_key(a, b) for a in members for b, _ in adj[a] if b in member_set and a < b)
    for v in range(g.n):
        if unclustered[v]:
            gc.update(edge_key(v, u) for u, _ in adj[v])
    return Clustering(tuple(clusters), tuple(centers), frozenset(gc), threshold)


def path_value(g: WeightedGraph, path: Sequence[int], x: int, clustering: Clustering,
               current_edges: Iterable[Edge]) -> int:
    """Clusters touched by the path whose along-path distance from x beats the
    distance through the current edge set (unreachable counts as infinite)."""
    if path[0] == x:
        seq = tuple(path)
    elif path[-1] == x:
        seq = tuple(reversed(path))
    else:
        raise ValueError(f"{x} is not an endpoint of the path")
    if not clustering.clusters:
        return 0
    along: dict[int, int] = {}
    acc = 0
    for i, v in enumerate(seq):
        if i:
            acc += g.weight(seq[i - 1], v)
        c = clustering.cluster_of.get(v)
        if c is not None and c not in along:
            along[c] = acc
    if not along:
        return 0
    dist = dijkstra_distances(subgraph_adjacency(g, current_edges), g.n, x)
    count = 0
    for c, d_path in along.items():
        d_current = min(dist[w] for w in clustering.clusters[c])
        if d_path < d_current:
            count += 1
    return count


@dataclass(frozen=True)
class BuyRecord:
    pair: Edge
    cost: int
    value: int
    bought: bool


@dataclass
class PathBuyState:
    """Final spanner edges plus the audit trail of buy decisions."""

    current_edges: set[Edge]
    records: list[BuyRecord]


def subsetwise_2w_run(g: WeightedGraph, terminals: Iterable[int]) -> PathBuyState:
    if not g.is_connected():
        raise ValueError("subsetwise construction needs a connected graph")
    s = sorted(set(terminals))
    outside = [t for t in s if not 0 <= t < g.n]
    if outside:
        raise ValueError(f"terminals {outside} are outside 0..{g.n - 1}")
    if len(s) < 2:
        raise ValueError("need at least two terminals")
    pt = g.paths
    clustering = build_clustering(g, len(s))
    w_max = g.weight_max
    h: set[Edge] = set(clustering.cluster_subgraph)
    records: list[BuyRecord] = []
    for u, v in terminal_pairs(s):
        pe = pt.path_edges(u, v)
        cost = sum(1 for e in pe if e not in h)
        if cost == 0:
            # A path already inside the spanner cannot beat any spanner
            # distance, so its value is exactly zero and it is always bought.
            value = 0
            bought = True
        else:
            path = pt.path(u, v)
            value = (path_value(g, path, u, clustering, h)
                     + path_value(g, path, v, clustering, h))
            bought = cost <= (2 * w_max + 1) * value
        if bought:
            h.update(pe)
        records.append(BuyRecord((u, v), cost, value, bought))
    return PathBuyState(h, records)


def subsetwise_2w(g: WeightedGraph, terminals: Iterable[int]) -> set[Edge]:
    """Edge set guaranteeing dist_H(u, v) <= dist_G(u, v) + 2*W_max on S x S."""
    return subsetwise_2w_run(g, terminals).current_edges
