"""Core graph machinery: weighted graphs, canonical shortest paths, spanner checks.

All distances are exact integers; ``UNREACHABLE`` is the reserved value for
disconnected pairs and never takes part in arithmetic.  Shortest-path ties
are broken toward the smallest-id predecessor, per source, as edges are
relaxed, so every derived artifact (paths, per-pair maximum edge weights,
shortest-path trees) is a pure function of the graph.  ``PathTable``
computes these artifacts on demand, one search per source row, and caches
each row it computes; every graph owns one, ``WeightedGraph.paths``, which
the constructions, the validity check and the exact solver all read.  The
validity check passes a pair whose canonical path lies in the subgraph
without searching it, so it trusts the table's paths as well as its
distances; only the pairs left over cost a search of the subgraph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Collection, Iterable

Edge = tuple[int, int]

UNREACHABLE = math.inf


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def terminal_pairs(terminals: Iterable[int]) -> list[Edge]:
    """All unordered terminal pairs in ascending lexicographic order."""
    return list(combinations(sorted(set(terminals)), 2))


def _is_int(x) -> bool:
    """An int that is not a bool: the only number graph text can hold."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple graph on vertices 0..n-1 with integer edge weights >= 1.

    Edges are normalized to (u, v, w) with u < v and stored sorted, so equal
    graphs compare equal and serialize identically.  Instances are immutable
    and safe to share across concurrent workers.  Derived facts (adjacency,
    weight map, the path table ``paths``) are computed on first use and
    cached on the instance.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"vertex count {self.n!r} is not an integer >= 1")
        seen: set[Edge] = set()
        norm = []
        for u, v, w in self.edges:
            if not (_is_int(u) and _is_int(v)):
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex id that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) references a vertex outside 0..{self.n - 1}")
            if not _is_int(w) or w < 1:
                raise ValueError(f"edge ({u},{v}) weight {w!r} is not an integer >= 1")
            key = edge_key(u, v)
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], w))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex (neighbor, weight) pairs sorted by neighbor id."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            lists[u].append((v, w))
            lists[v].append((u, w))
        return tuple(tuple(sorted(entry)) for entry in lists)

    @cached_property
    def weight_max(self) -> int:
        """Largest edge weight; 0 for an edgeless graph."""
        return max((w for _, _, w in self.edges), default=0)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, v, _ in self.edges)

    @cached_property
    def weight_map(self) -> dict[Edge, int]:
        return {(u, v): w for u, v, w in self.edges}

    def weight(self, u: int, v: int) -> int:
        return self.weight_map[edge_key(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.weight_map

    @cached_property
    def paths(self) -> PathTable:
        """The graph's path table; its rows are computed as they are read."""
        return build_path_table(self)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def _connected(self) -> bool:
        return all(self.paths.reachable(0, v) for v in range(1, self.n))

    def is_connected(self) -> bool:
        return self._connected


def write_graph_text(g: WeightedGraph, keep: Collection[Edge] | None = None) -> str:
    """Serialize to the plain text format: `n m` then `u v w` per edge; with
    keep, only the edges of g whose (min, max) key it holds (a subgraph).

    Edges come out in ascending (u, v) order with u < v, so the encoding is
    bit-exact for equal graphs.
    """
    edges = g.edges if keep is None else [e for e in g.edges if e[:2] in keep]
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> WeightedGraph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return WeightedGraph(n, tuple(edges))


class BudgetMode(Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class ErrorBudget:
    """Additive error allowance: c * W_max (GLOBAL) or c * W(u, v) (LOCAL)."""

    mode: BudgetMode
    c: int

    def __post_init__(self) -> None:
        if not _is_int(self.c) or self.c < 0:
            raise ValueError(f"budget coefficient must be a nonnegative integer, got {self.c!r}")

    def allowance(self, g: WeightedGraph, u: int, v: int) -> int:
        if self.mode is BudgetMode.GLOBAL:
            return self.c * g.weight_max
        return self.c * g.paths.max_weight(u, v)


def dijkstra_distances(adj, n: int, source: int, limit=UNREACHABLE) -> list:
    """Single-source shortest-path weights; UNREACHABLE marks disconnection.
    The search stops once it pops a distance above limit: every entry at or
    below limit is exact, and every other entry is above limit."""
    dist = [UNREACHABLE] * n
    dist[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, x = pop(heap)
        if d > dist[x]:
            continue
        if d > limit:
            break
        for y, w in adj[x]:
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                push(heap, (nd, y))
    return dist


def shortest_path_row(adj, n: int, source: int) -> tuple[list, list[int], list[int]]:
    """One path-table row from one search: distances from source, each
    vertex's smallest-id parent in the shortest-path tree (-1 at the source
    and where unreachable), and the largest edge weight on its tree path.

    A relaxation that ties a vertex's distance keeps the smaller parent id.
    Each parent change also takes the parent's path maximum, which is final
    because the parent is settled.
    """
    dist = [UNREACHABLE] * n
    parent = [-1] * n
    wmax = [0] * n
    dist[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, x = pop(heap)
        if d > dist[x]:
            continue
        top = wmax[x]
        for y, w in adj[x]:
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                push(heap, (nd, y))
            elif nd > dist[y] or x > parent[y]:
                continue
            parent[y] = x
            wmax[y] = top if top > w else w
    return dist, parent, wmax


def subgraph_adjacency(g: WeightedGraph, edges: Iterable[Edge]):
    """Adjacency lists of the subgraph induced by the given edges of g, in no
    particular order (its readers take distances, which do not depend on it)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v in edges:
        w = g.weight_map[edge_key(u, v)]
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


class PathTable:
    """Distances, canonical paths, and per-pair maximum edge weight, computed
    on demand one source row at a time.

    A row for source s holds the distances from s, the smallest-id parents of
    the shortest-path tree rooted at s (the tie-break is applied as edges are
    relaxed), and the largest edge weight on each tree path, all from one
    search (``shortest_path_row``).  It is computed the first time any
    method asks for s and then cached.  The canonical path of an unordered
    pair {u, v} comes from the tree rooted at min(u, v); path(v, u) is its
    reverse.  dist, reachable, max_weight and path read the row of min(u, v);
    tree_parent(root, v) reads the row of root.  Answers do not depend on the
    order of queries.  Each row is a pure function of the graph, so
    concurrent first reads of one source can at worst compute its row twice.

    The table keeps the graph's adjacency and vertex count, not the graph
    itself, so a graph that caches its table forms no reference cycle and
    both are freed as soon as the graph is.
    """

    def __init__(self, graph: WeightedGraph):
        self._adj = graph.adj
        self._n = graph.n
        self._rows: dict[int, tuple[list, list[int], list[int]]] = {}
        self._edge_cache: dict[Edge, tuple[Edge, ...]] = {}

    def _row(self, s: int) -> tuple[list, list[int], list[int]]:
        row = self._rows.get(s)
        if row is None:
            row = self._rows[s] = shortest_path_row(self._adj, self._n, s)
        return row

    def dist(self, u: int, v: int):
        return self._row(u)[0][v] if u < v else self._row(v)[0][u]

    def reachable(self, u: int, v: int) -> bool:
        return self.dist(u, v) != UNREACHABLE

    def max_weight(self, u: int, v: int) -> int:
        """Largest edge weight on the canonical u-v path (0 when u == v)."""
        return self._row(u)[2][v] if u < v else self._row(v)[2][u]

    def tree_parent(self, root: int, v: int) -> int:
        """Predecessor of v in the canonical shortest-path tree from root."""
        return self._row(root)[1][v]

    def path(self, u: int, v: int) -> tuple[int, ...]:
        if u == v:
            return (u,)
        if not self.reachable(u, v):
            raise ValueError(f"no path between {u} and {v}")
        s, t = (u, v) if u < v else (v, u)
        par = self._row(s)[1]
        rev = [t]
        while rev[-1] != s:
            rev.append(par[rev[-1]])
        if u < v:
            rev.reverse()
        return tuple(rev)

    def path_edges(self, u: int, v: int) -> tuple[Edge, ...]:
        """Canonical path as a sequence of (min, max) edges."""
        key = edge_key(u, v) if u != v else (u, v)
        hit = self._edge_cache.get(key)
        if hit is None:
            p = self.path(*key)
            hit = tuple(edge_key(a, b) for a, b in zip(p, p[1:]))
            self._edge_cache[key] = hit
        return hit


def build_path_table(g: WeightedGraph) -> PathTable:
    """A new deterministic path table of g (see PathTable for the tie-break
    rule); no row is computed until it is first read.  Library code reads the
    graph's own table, ``g.paths``, instead."""
    return PathTable(g)


def verify_spanner(g: WeightedGraph, h_edges: Iterable[Edge], pairs,
                   budget: ErrorBudget) -> list[tuple[int, int]]:
    """Pairs whose distance in the subgraph exceeds dist_G + allowance, in
    the order they are given.

    An empty result means h_edges is a valid spanner for the given pairs.
    Pairs disconnected in g itself are never reported.  A pair whose
    canonical path lies in the subgraph has dist_H = dist_G and passes
    without a search; this trusts ``path_edges`` to be a real path of
    weight ``dist``.  The subgraph is searched, one Dijkstra per source,
    only for the pairs left over.
    """
    hset = {edge_key(u, v) for u, v in h_edges}
    extra = hset - g.edge_set
    if extra:
        raise ValueError(f"subgraph edges not present in the graph: {sorted(extra)[:3]}")
    n, pt = g.n, g.paths
    left = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u},{v}) references a vertex outside 0..{n - 1}")
        if u == v:
            continue
        dg = pt.dist(u, v)
        if dg != UNREACHABLE and not hset.issuperset(pt.path_edges(u, v)):
            left.append((u, v, dg))
    if not left:
        return []
    h_adj = subgraph_adjacency(g, hset)
    rows: dict[int, list] = {}
    violated = []
    for u, v, dg in left:
        if u in rows:
            dh = rows[u][v]
        elif v in rows:
            dh = rows[v][u]
        else:
            rows[u] = dijkstra_distances(h_adj, n, u)
            dh = rows[u][v]
        if dh == UNREACHABLE or dh > dg + budget.allowance(g, u, v):
            violated.append((u, v))
    return violated
