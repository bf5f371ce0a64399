"""Core graph machinery: weighted graphs, canonical shortest paths, spanner checks.

All distances are exact integers; ``UNREACHABLE`` is the reserved value for
disconnected pairs and never takes part in arithmetic.  Shortest-path ties
are broken toward the smallest-id predecessor, per source, as edges are
relaxed, so every derived artifact (paths, per-pair maximum edge weights,
shortest-path trees) is a pure function of the graph.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Collection, Iterable, Sequence

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
        n, seen, norm = self.n, set(), []
        for u, v, w in self.edges:  # an exact int skips the _is_int call
            if not ((type(u) is int or _is_int(u)) and (type(v) is int or _is_int(v))):
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex id that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references a vertex outside 0..{n - 1}")
            if not (type(w) is int or _is_int(w)) or w < 1:
                raise ValueError(f"edge ({u},{v}) weight {w!r} is not an integer >= 1")
            if (key := (u, v) if u < v else (v, u)) in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append(key + (w,))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex (neighbor, weight) pairs by neighbor id, as the sorted edges fill them."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            lists[u].append((v, w))
            lists[v].append((u, w))
        return tuple(map(tuple, lists))

    @cached_property
    def light_first(self) -> tuple[tuple[Edge, ...], ...]:
        """Per-vertex incident edge keys by (weight, neighbor id): a stable weight sort keeps adj's id order."""
        lists: list[list[Edge]] = [[] for _ in range(self.n)]
        for u, v, _ in sorted(self.edges, key=itemgetter(2)):
            lists[u].append((u, v))
            lists[v].append((u, v))
        return tuple(map(tuple, lists))

    @cached_property
    def weight_max(self) -> int:
        """Largest edge weight; 0 for an edgeless graph."""
        return max((w for _, _, w in self.edges), default=0)

    @cached_property
    def weight_map(self) -> dict[Edge, int]:
        return {(u, v): w for u, v, w in self.edges}

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.weight_map

    @cached_property
    def paths(self) -> PathTable:
        """The graph's path table; its rows are computed as they are read."""
        return build_path_table(self)

    @cached_property
    def is_connected(self) -> bool:
        """Every vertex reaches vertex 0; computes no path-table row."""
        return connects(self.n, self.edges)


def connects(n: int, edges: Iterable[tuple]) -> bool:
    """Whether edges, tuples whose first two entries are vertex ids, join all
    of 0..n-1 into one component (a search from vertex 0)."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        nbrs[e[0]].append(e[1])
        nbrs[e[1]].append(e[0])
    reached, seen = [0], {0}
    for x in reached:
        for y in nbrs[x]:
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return len(reached) == n


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
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty graph text")
    head, *rows = [line.split() for line in lines]
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) != m:
        raise ValueError(f"expected {m} edge lines, got {len(rows)}")
    ok = next((i for i, parts in enumerate(rows) if len(parts) != 3), m)  # rows above it fail first
    edges = [(int(u), int(v), int(w)) for u, v, w in rows[:ok]]
    if ok < m:
        raise ValueError(f"bad edge line {lines[ok + 1]!r}")
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
        object.__setattr__(self, "mode", BudgetMode(self.mode))
        if not _is_int(self.c) or self.c < 0:
            raise ValueError(f"budget coefficient must be a nonnegative integer, got {self.c!r}")

    def allowance(self, g: WeightedGraph, u: int, v: int) -> int:
        if self.mode is BudgetMode.GLOBAL:
            return self.c * g.weight_max
        return self.c * g.paths.max_weight(u, v)


def _settle(adj, n: int, source: int, limit) -> tuple[list, list[int]]:
    """The search behind dijkstra_distances and shortest_path_row: distances
    and smallest-id parents.  buckets maps a distance to the vertices that
    reached it (one that later reaches less is skipped there) and keys is a
    heap of those distances, so no memory grows with the weights.  Order
    within a bucket cannot change a row: every tight predecessor of a vertex
    is in an earlier bucket."""
    dist = [UNREACHABLE] * n
    parent = [-1] * n
    dist[source] = 0
    buckets = {0: [source]}
    keys = [0]
    push, pop = heapq.heappush, heapq.heappop
    while keys:
        d = pop(keys)
        if d > limit:
            break
        for x in buckets.pop(d):
            if dist[x] < d:
                continue
            for y, w in adj[x]:
                nd = d + w
                if nd < dist[y]:
                    dist[y] = nd
                    if nd in buckets:
                        buckets[nd].append(y)
                    else:
                        buckets[nd] = [y]
                        push(keys, nd)
                elif nd > dist[y] or x > parent[y]:
                    continue
                parent[y] = x
    return dist, parent


def dijkstra_distances(adj, n: int, source: int, limit=UNREACHABLE) -> list:
    """Single-source shortest-path weights; UNREACHABLE marks disconnection.
    The search stops once it pops a distance above limit: every entry at or
    below limit is exact, and every other entry is above limit."""
    return _settle(adj, n, source, limit)[0]


def shortest_path_row(adj, n: int, source: int) -> tuple[list, list[int]]:
    """One path-table row from one search: distances from source and each
    vertex's smallest-id parent in the shortest-path tree (-1 at the source
    and where unreachable).  A relaxation that ties a vertex's distance keeps
    the smaller parent id."""
    return _settle(adj, n, source, UNREACHABLE)


class Subgraph:
    """A subgraph of g that only grows: ``edges``, a set of (min, max) keys of
    g's edges, and adjacency lists (in no particular order; distances do not
    depend on it) built at the first ``dist`` and grown by every later
    ``add``, so a subgraph that is never searched builds none."""

    def __init__(self, g: WeightedGraph, edges: Iterable[Edge]):
        self.g, self.edges, self._adj = g, set(edges), None

    def add(self, edges: Iterable[Edge]) -> None:
        new = [e for e in edges if e not in self.edges]
        self.edges.update(new)
        if self._adj is not None:
            self._link(new)

    def _link(self, edges: Iterable[Edge]) -> None:
        weight, adj = self.g.weight_map, self._adj
        for u, v in edges:
            adj[u].append((v, weight[u, v]))
            adj[v].append((u, weight[u, v]))

    def dist(self, source: int, limit=UNREACHABLE) -> list:
        """``dijkstra_distances`` from source over the subgraph."""
        if self._adj is None:
            self._adj = [[] for _ in range(self.g.n)]
            self._link(self.edges)
        return dijkstra_distances(self._adj, self.g.n, source, limit)


class PathTable:
    """Distances, canonical paths, and per-pair maximum edge weight, computed
    on demand one source row at a time.

    The row of source s, the distances and smallest-id parents of the
    shortest-path tree rooted at s from one search (``shortest_path_row``),
    is computed the first time any method asks for s and cached with the
    canonical-path edge tuples ``path`` builds.  The canonical path of an
    unordered pair {u, v} is the path from min(u, v) in the tree rooted
    there, as (min, max) edge keys; the per-pair methods read the row of
    min(u, v).  Answers do not depend on the order of queries.  Each row,
    tuple and index is a pure function of the graph and its input, so
    concurrent first reads can at worst compute one twice.

    The table keeps the graph's adjacency, weight map and vertex count, not
    the graph itself, so a graph that caches its table forms no reference
    cycle and both are freed as soon as the graph is.
    """

    def __init__(self, graph: WeightedGraph):
        self._adj = graph.adj
        self._weight = graph.weight_map
        self._n = graph.n
        self._rows: dict[int, tuple[list, list[int], list]] = {}
        self._pairs: dict[frozenset, tuple[Edge, ...]] = {}
        self._indexes: dict[int, dict[Edge, list[int]] | None] = {}

    def _row(self, u: int, v: int) -> tuple[int, tuple[list, list[int], list]]:
        """max(u, v) and the row of s = min(u, v): shortest_path_row's (dist,
        parent) for s, plus the canonical path edge tuples from s, each None
        until ``path`` builds it; a vertex outside 0..n-1 is a ValueError."""
        s, t = (u, v) if u < v else (v, u)
        if s < 0 or t >= self._n:
            raise ValueError(f"pair ({u},{v}) references a vertex outside 0..{self._n - 1}")
        row = self._rows.get(s)
        if row is None:
            edges: list = [None] * self._n
            edges[s] = ()
            row = self._rows[s] = (*shortest_path_row(self._adj, self._n, s), edges)
        return t, row

    def path(self, u: int, v: int) -> tuple[Edge, ...] | None:
        """Canonical path edges of {u, v} from the row of min(u, v), None
        when unreachable; a vertex outside 0..n-1 is a ValueError.  Each
        vertex's tuple is its parent's plus one edge, built once, the first
        time a path through the vertex is asked for."""
        t, (dist, parent, edges) = self._row(u, v)
        if edges[t] is None and dist[t] != UNREACHABLE:
            climb = [t]
            while edges[parent[climb[-1]]] is None:
                climb.append(parent[climb[-1]])
            for y in reversed(climb):
                p = parent[y]
                edges[y] = edges[p] + ((p, y) if p < y else (y, p),)
        return edges[t]

    def dist(self, u: int, v: int):
        t, (dist, _, _) = self._row(u, v)
        return dist[t]

    def max_weight(self, u: int, v: int) -> int:
        """Largest edge weight on the canonical u-v path (0 when u == v or
        the pair is unreachable)."""
        return max(map(self._weight.__getitem__, self.path(u, v) or ()), default=0)

    def row(self, s: int) -> tuple[list, list[int]]:
        """The cached (dist, parent) lists of source s in 0..n-1, to read only."""
        return self._row(s, s)[1][:2]

    def terminal_pairs(self, terminals: Iterable[int]) -> tuple[Edge, ...]:
        """The table's tuple of ``terminal_pairs(terminals)``: one object per set,
        even when first reads race (setdefault); ``leaving`` keeps the index of these alone."""
        pairs = self._pairs.get(key := frozenset(terminals))
        if pairs is None:
            pairs = self._pairs.setdefault(key, tuple(terminal_pairs(key)))
            self._indexes.setdefault(id(pairs), None)
        return pairs

    def leaving(self, pairs: Sequence[Edge], h: Collection[Edge]) -> list[int]:
        """Ascending positions of the pairs whose canonical path has an edge
        outside h, a set of (min, max) keys; a pair with u == v or no path
        never leaves.  The index from each path edge to the positions of the
        pairs using it walks each pair's parent chain in the row of min(u, v)
        (a vertex outside 0..n-1 raises and caches nothing), and builds no
        edge tuple.  It is kept, by id, only for a tuple from
        ``terminal_pairs``, which the table holds alive and nobody can change;
        any other sequence, such as a list changed in place, is indexed anew."""
        key = id(pairs)
        index = self._indexes.get(key)
        if index is None:
            index = defaultdict(list)
            for i, (u, v) in enumerate(pairs):
                y, (_, parent, _) = self._row(u, v)
                while (p := parent[y]) >= 0:  # -1 at min(u, v) and where it does not reach
                    index[(p, y) if p < y else (y, p)].append(i)
                    y = p
            if key in self._indexes:
                self._indexes[key] = index
        return sorted(set().union(*map(index.__getitem__, index.keys() - h)))


def build_path_table(g: WeightedGraph) -> PathTable:
    """A new deterministic path table of g (see PathTable for the tie-break
    rule); no row is computed until it is first read.  Library code reads the
    graph's own table, ``g.paths``, instead."""
    return PathTable(g)


def verify_spanner(g: WeightedGraph, h_edges: Iterable[Edge], pairs: Sequence[Edge],
                   budget: ErrorBudget) -> list[tuple[int, int]]:
    """Pairs whose distance in the subgraph exceeds dist_G + allowance, in
    the order they are given; none means h_edges is a valid spanner for them.

    h_edges are (min, max) keys of edges of g, as in ``g.weight_map``;
    anything else, a reversed key included, is a ValueError.  Pairs
    disconnected in g are never reported.  A pair whose canonical path lies
    in the subgraph has dist_H = dist_G and passes without a search (this
    trusts the canonical paths to be real paths of weight ``dist``); the
    pairs ``PathTable.leaving`` returns cost one search per source.
    """
    hset = set(h_edges)
    extra = sorted(hset.difference(g.weight_map))[:3]
    if extra:
        raise ValueError(f"subgraph edges must be (min, max) keys of graph edges: {extra}")
    if not (left := g.paths.leaving(pairs, hset)):
        return []
    h, rows, violated = Subgraph(g, hset), {}, []
    for u, v in (pairs[i] for i in left):
        if u not in rows:
            rows[u] = h.dist(u)
        dh = rows[u][v]
        if dh == UNREACHABLE or dh > g.paths.dist(u, v) + budget.allowance(g, u, v):
            violated.append((u, v))
    return violated
