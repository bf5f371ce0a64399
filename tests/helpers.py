"""Independent oracles for the test suite.

Everything here is deliberately written without reusing the library's
shortest-path or search machinery: distances come from exhaustive simple-path
enumeration or Bellman-Ford relaxation, optima (and the tie-break among
them) from plain subset / rate-vector enumeration, LP files are solved through scipy's MILP backend, and the
clustering and the multi-level rounding-up sets follow their definitions
literally, and ``highest_tag_levels`` is the multi-level assembly as a
per-edge highest-tag map.  ``unpruned_limited_missing_path`` is the
library's bounded-miss search as it was before dominance pruning, kept to pin
which of several tied paths comes back.  ``rebuilt_path_value`` is the subsetwise path value with
full distances over the whole subgraph recomputed for every call, over a
vertex path whose edge weights it adds up step by step.  ``tree_path`` walks
a canonical path back through a row's parents, without the table's cached
edge tuples.  ``scanned_leaving`` is the per-pair scan that
``PathTable.leaving`` replaces, one subset test per pair.
``light_first_reference`` gathers each vertex's incident edges from the edge
tuples and sorts each list whole by (weight, neighbor id), as
``WeightedGraph.light_first`` is defined.
``reference_subsetwise_run`` is the whole subsetwise construction built
from these oracles: every pair visited, none skipped through the index;
``reference_pairwise_run`` is the pairwise one, likewise, from the d-light
init plus any free edges.
``canonical_edges`` is no oracle: it reads one pair's canonical path edges
through ``PathTable.path``.  ``caterpillar_edges`` is the one test
instance shared by the pairwise and golden tests.  ``exact_single_level`` is
no oracle: it is the library's exact optimum read as one level's edge set,
for the tests that compare against it.  ``made_subgraphs`` is no oracle
either: it records every ``core.Subgraph`` made while a test runs.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from itertools import combinations, product

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from wspanner.core import Subgraph
from wspanner.exact import exact_optimum
from wspanner.multilevel import MultiLevelInstance
from wspanner.pairwise import (
    BUDGETS,
    PairwiseAlgo,
    PairwiseReport,
    d_light_init,
    default_d,
    default_ell,
    limited_missing_path,
    shortest_path_tree,
)
from wspanner.seeding import ROLE_PAIRWISE, stream
from wspanner.subsetwise import BuyRecord, cluster_threshold

INF = float("inf")


def simple_paths(g, u: int, v: int):
    """Every simple u-v path as a vertex tuple, by depth-first enumeration
    over an adjacency built from the edge list ((u,) when u == v)."""
    adj = {x: [] for x in range(g.n)}
    for a, b, _ in g.edges:
        adj[a].append(b)
        adj[b].append(a)

    def walk(path):
        if path[-1] == v:
            yield tuple(path)
            return
        for y in adj[path[-1]]:
            if y not in path:
                yield from walk(path + [y])

    yield from walk([u])


def minimal_path_masks(g, u: int, v: int, limit: int, eindex) -> list:
    """Inclusion-minimal edge bitmasks (bit eindex[(a, b)] for edge a < b) of
    the simple u-v paths of weight <= limit, ordered by (edge count, mask):
    every path's mask from simple_paths, then each mask that contains a
    smaller kept one dropped."""
    found = []
    for path in simple_paths(g, u, v):
        if path_weight(g, path) <= limit:
            found.append(sum(1 << eindex[min(a, b), max(a, b)] for a, b in zip(path, path[1:])))
    found.sort(key=lambda m: (m.bit_count(), m))
    kept = []
    for mask in found:
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return kept


def unpruned_limited_missing_path(g, r: int, r_prime: int, present, miss_cap: int):
    """The bounded-miss search without dominance pruning: Dijkstra over every
    (vertex, missing-count) state up to miss_cap, stopped at the first settled
    (r_prime, k), then a backward walk that takes the first neighbour (in
    adjacency order) whose state weight plus the edge weight is tight."""
    if miss_cap < 0:
        raise ValueError("miss_cap must be >= 0")
    if r == r_prime:
        return (r,)

    def edge_key(u, v):
        return (u, v) if u < v else (v, u)

    n = g.n
    cap = miss_cap
    dist = [[INF] * (cap + 1) for _ in range(n)]
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
            if k_prev >= 0 and dist[u][k_prev] != INF and dist[u][k_prev] + w == weight:
                path.append(u)
                weight -= w
                x, k = u, k_prev
                break
        else:
            raise AssertionError("path reconstruction failed")
    path.reverse()
    return tuple(path)


def scanned_leaving(table, pairs, h) -> list:
    """Positions of the pairs whose canonical path has an edge outside h, by
    reading each pair's path from the table and testing it against h on its
    own (pathless pairs and u == v never leave)."""
    return [i for i, (u, v) in enumerate(pairs)
            if not h.issuperset(table.path(u, v) or ())]


def tree_path(table, s: int, t: int):
    """Vertex path from s to t in the shortest-path tree of row s, walked
    back from t through the row's parents; None when s does not reach t."""
    dist, parent = table.row(s)
    if dist[t] == INF:
        return None
    rev = [t]
    while rev[-1] != s:
        rev.append(parent[rev[-1]])
    return tuple(reversed(rev))


def path_edge_keys(path) -> tuple:
    """(min, max) keys of the edges of a vertex path, in path order."""
    return tuple((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))


def canonical_edges(table, u: int, v: int):
    """The table's canonical u-v path edges, read through PathTable.path."""
    return table.path(u, v)


def caterpillar_edges(k: int) -> tuple:
    """Weighted edges on 3k vertices: a spine 0..k-1 of weight-2..4 edges,
    each spine vertex with two weight-1 leaves, so a 2-light init misses
    every spine edge."""
    edges = [(i, i + 1, 2 + i % 3) for i in range(k - 1)]
    for i in range(k):
        edges += [(i, k + 2 * i, 1), (i, k + 2 * i + 1, 1)]
    return tuple(edges)


def light_first_reference(g) -> tuple:
    """Per-vertex incident (min, max) edge keys, each list sorted whole by
    (weight, neighbor id)."""
    incident = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        incident[u].append((w, v))
        incident[v].append((w, u))
    return tuple(tuple((min(x, y), max(x, y)) for _, y in sorted(entry))
                 for x, entry in enumerate(incident))


def path_weight(g, path) -> int:
    return sum(g.weight_map[e] for e in path_edge_keys(path))


def brute_force_distance(g, u: int, v: int) -> float:
    """Minimum weight over all simple u-v paths, by exhaustive enumeration."""
    return min((path_weight(g, p) for p in simple_paths(g, u, v)), default=INF)


def bellman_ford(n: int, weighted_edges, source: int) -> list[float]:
    """Distances by |V|-1 rounds of relaxation over an explicit edge list."""
    dist = [INF] * n
    dist[source] = 0
    for _ in range(max(1, n - 1)):
        changed = False
        for u, v, w in weighted_edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def made_subgraphs(monkeypatch) -> list:
    """Every ``core.Subgraph`` made while the patch holds, in order of making;
    one whose ``_adj`` is not None has built its adjacency lists."""
    made = []
    real = Subgraph.__init__
    monkeypatch.setattr(Subgraph, "__init__", lambda self, *args: made.append(self) or real(self, *args))
    return made


def bellman_ford_violations(g, h_edges, pairs, budget) -> list:
    """Pairs, in the given order, whose Bellman-Ford distance over the
    subgraph's weighted edges exceeds the one over g's edges plus
    ``budget.allowance``; pairs with u == v or disconnected in g are skipped."""
    keep = {(min(u, v), max(u, v)) for u, v in h_edges}
    h_weighted = [(u, v, w) for u, v, w in g.edges if (u, v) in keep]
    dist_g, dist_h, out = {}, {}, []
    for u, v in pairs:
        if u not in dist_g:
            dist_g[u] = bellman_ford(g.n, g.edges, u)
            dist_h[u] = bellman_ford(g.n, h_weighted, u)
        dg, dh = dist_g[u][v], dist_h[u][v]
        if u != v and dg != INF and dh > dg + budget.allowance(g, u, v):
            out.append((u, v))
    return out


def reordered_pairs(pairs, rnd) -> tuple[list, list]:
    """Two reorderings of sorted pairs: shuffled, with some pairs reversed and
    one u == v pair added; and sorted by (v, u), so that consecutive pairs
    rarely share a source."""
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
    shuffled.append((pairs[0][0], pairs[0][0]))
    rnd.shuffle(shuffled)
    return shuffled, sorted(pairs, key=lambda p: (p[1], p[0]))


def rebuilt_path_value(g, path, x: int, clusters, h_edges) -> int:
    """Clusters (member sets) touched by the path whose along-path distance
    from its endpoint x is below the Bellman-Ford distance from x, over the
    weighted edges of g in h_edges, to the cluster's nearest member."""
    if x not in (path[0], path[-1]):
        raise ValueError(f"{x} is not an endpoint of the path")
    seq = list(path) if path[0] == x else list(reversed(path))
    keep = {(min(u, v), max(u, v)) for u, v in h_edges}
    dist = bellman_ford(g.n, [(u, v, w) for u, v, w in g.edges if (u, v) in keep], x)
    along = count = 0
    seen = set()
    for i, v in enumerate(seq):
        if i:
            along += path_weight(g, seq[i - 1:i + 1])
        for c, members in enumerate(clusters):
            if v in members and c not in seen:
                seen.add(c)
                count += along < min(dist[w] for w in members)
    return count


def hop_radius(g) -> int:
    """Smallest hop eccentricity over all vertices (edge counts, not weights),
    by breadth-first search over an adjacency built from the edge list."""
    adj = {x: [] for x in range(g.n)}
    for a, b, _ in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    best = None
    for s in range(g.n):
        level = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in level:
                    level[y] = level[x] + 1
                    queue.append(y)
        if len(level) != g.n:
            raise ValueError("hop radius is undefined for a disconnected graph")
        ecc = max(level.values())
        best = ecc if best is None else min(best, ecc)
    return best


def rescan_clustering(g, threshold: int):
    """(clusters, cluster subgraph) by the clustering rule read literally:
    after each cluster, rescan from vertex 0 for the smallest-id vertex with
    at least threshold unclustered neighbors, and cluster that many of its
    smallest-id unclustered neighbors with it as center."""
    nbrs = {x: [] for x in range(g.n)}
    for a, b, _ in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for x in nbrs:
        nbrs[x].sort()
    unclustered = set(range(g.n))
    clusters, sub = [], set()
    while True:
        center = next((x for x in range(g.n)
                       if len([y for y in nbrs[x] if y in unclustered]) >= threshold), None)
        if center is None:
            break
        members = [y for y in nbrs[center] if y in unclustered][:threshold]
        unclustered -= set(members)
        clusters.append(frozenset(members))
        sub |= {(min(center, y), max(center, y)) for y in members}
        sub |= {(a, b) for a, b, _ in g.edges if a in members and b in members}
    sub |= {(a, b) for a, b, _ in g.edges if a in unclustered or b in unclustered}
    return tuple(clusters), frozenset(sub)


def reference_subsetwise_run(g, terminals) -> tuple[set, list]:
    """(edges, buy records) of the +2W subsetwise construction read plainly:
    the clustering from rescan_clustering, then every terminal pair in
    ascending order, its path walked back through its row's parents
    (tree_path), its cost the path edges missing from H at its turn, its
    value rebuilt_path_value from both ends, and the path bought when
    cost <= (2W + 1) * value.  A path that H holds comes out worth 0 with no
    special case: H reaches each of its vertices no later than the path does."""
    s = sorted(set(terminals))
    w = g.weight_max
    clusters, subgraph = rescan_clustering(g, cluster_threshold(len(s), w))
    h, records = set(subgraph), []
    for u, v in combinations(s, 2):
        path = tree_path(g.paths, u, v)
        pe = path_edge_keys(path)
        cost = sum(e not in h for e in pe)
        value = (rebuilt_path_value(g, path, u, clusters, h)
                 + rebuilt_path_value(g, path, v, clusters, h))
        bought = cost <= (2 * w + 1) * value
        if bought:
            h.update(pe)
        records.append(BuyRecord((u, v), cost, value, bought))
    return h, records


def reference_pairwise_run(g, pairs, params, free=()) -> tuple[set, PairwiseReport]:
    """(edges, report) of the pairwise construction read plainly: the d-light
    init plus the free edges, then every pair in input order, its missing edges recounted at its
    turn from its canonical path (tree_path from the row of its smaller end),
    bought when at most ell are missing and else repaired with every p4w
    sample pair searched and p8w's subsetwise spanner from
    reference_subsetwise_run; then the pairs bellman_ford_violations flags
    get their missing canonical-path edges.  A disconnected pair raises at
    its turn, which, as nothing is returned, matches raising up front."""
    algo, n = params.algo, g.n
    d = params.d_override or default_d(algo, len(pairs))
    ell = default_ell(algo, n, len(pairs))
    h, report = d_light_init(g, d) | set(free), PairwiseReport(algo.value, d, ell)
    rng = stream(params.seed, ROLE_PAIRWISE, 0)
    connected = INF not in bellman_ford(n, g.edges, 0)

    def sample(prob):
        out = [v for v in range(n) if rng.random() < prob]
        report.sample_counts.append(len(out))
        return out

    def canonical(u, v):
        path = tree_path(g.paths, min(u, v), max(u, v))
        if path is None:
            raise ValueError(f"pair ({u},{v}) is disconnected")
        return path_edge_keys(path)

    for u, v in pairs:
        missing = [e for e in canonical(u, v) if e not in h]
        if len(missing) <= ell:
            h.update(missing)
        elif algo is PairwiseAlgo.P4W and len(missing) * d * d >= n:
            for r in sample(d * d / n):
                h.update(shortest_path_tree(g, r))
        elif algo is not PairwiseAlgo.P2W:
            h.update(missing[:ell] + missing[-ell:])
            roots = sample(1.0 / (ell * d))
            if algo is PairwiseAlgo.P4W:
                for r, r_prime in combinations(roots, 2):
                    path = limited_missing_path(g, r, r_prime, h, n // (d * d))
                    h.update(path_edge_keys(path or ()))
            elif len(roots) >= 2 and connected:
                h.update(reference_subsetwise_run(g, roots)[0])
    if algo is PairwiseAlgo.P2W:
        for r in sample(1.0 / (ell * d)):
            h.update(shortest_path_tree(g, r))
    patch = {e for u, v in bellman_ford_violations(g, h, pairs, BUDGETS[algo])
             for e in canonical(u, v) if e not in h}
    h.update(patch)
    report.patched, report.fallback = len(patch), len(patch) > n * d
    return h, report


def round_up_pow2(p: int) -> int:
    """Smallest power of two >= p, for p >= 1."""
    r = 1
    while r < p:
        r *= 2
    return r


def roundup_solves(terminal_sets) -> list:
    """The (tag, terminals) solves of the rounding-up strategy, from the
    paper's definition: a vertex's priority is the highest level holding it,
    rounded up to a power of two, and each power of two i up to the rounded
    top level solves the vertices whose rounded priority is at least i."""
    priority = {}
    for level, terminals in enumerate(terminal_sets, start=1):
        for v in terminals:
            priority[v] = level
    rounded = {v: round_up_pow2(p) for v, p in priority.items()}
    out = []
    i = 1
    while i <= round_up_pow2(len(terminal_sets)):
        out.append((i, frozenset(v for v, r in rounded.items() if r >= i)))
        i *= 2
    return out


def highest_tag_levels(levels: int, solved) -> tuple:
    """The multi-level assembly from its per-edge definition: walk the
    (tag, edges) solves, in any order, let each edge keep the highest tag
    that used it, and give level k the edges whose tag is at least k."""
    tag_of = {}
    for tag, edges in solved:
        for e in edges:
            tag_of[e] = max(tag, tag_of.get(e, tag))
    return tuple(frozenset(e for e, t in tag_of.items() if t >= k)
                 for k in range(1, levels + 1))


def subset_meets_limits(g, subset, pair_limits) -> bool:
    """True when every (u, v) -> limit entry holds in the edge subset."""
    chosen = [(u, v, g.weight_map[u, v]) for u, v in subset]
    by_source = {}
    for (u, v), limit in pair_limits.items():
        if u not in by_source:
            by_source[u] = bellman_ford(g.n, chosen, u)
        if by_source[u][v] > limit:
            return False
    return True


def brute_min_spanner_size(g, pair_limits) -> int:
    """Smallest edge-subset size meeting all pair limits (plain enumeration)."""
    edges = [(u, v) for u, v, _ in g.edges]
    for k in range(len(edges) + 1):
        for subset in combinations(edges, k):
            if subset_meets_limits(g, set(subset), pair_limits):
                return k
    raise AssertionError("full edge set should always be feasible")


def brute_multilevel_opt(g, level_pair_limits) -> tuple[int, tuple]:
    """(minimum sparsity, its first rate vector) over all nested edge-set
    families, by enumerating every per-edge rate vector in product order,
    which is lexicographic: the vector returned is the smallest optimal one,
    the exact optimum's tie-break.  level_pair_limits[k] maps pairs to limits
    for level k+1 (0-based list, level 1 first)."""
    edges = [(u, v) for u, v, _ in g.edges]
    ell = len(level_pair_limits)
    best = None
    for rates in product(range(ell + 1), repeat=len(edges)):
        ok = True
        for k in range(1, ell + 1):
            subset = {e for e, r in zip(edges, rates) if r >= k}
            if not subset_meets_limits(g, subset, level_pair_limits[k - 1]):
                ok = False
                break
        if ok:
            sparsity = sum(rates)
            if best is None or sparsity < best[0]:
                best = (sparsity, rates)
    assert best is not None
    return best


def exact_single_level(g, terminals, budget, caps=None) -> set:
    """Minimum edge set spanning one terminal set within the budget."""
    if len(set(terminals)) < 2:
        return set()
    inst = MultiLevelInstance(g, (frozenset(terminals),), budget)
    return set(exact_optimum(inst, caps).level_edges[0])


_TERM = re.compile(r"([+-])?\s*(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(expr: str):
    out = []
    for sign, coef, var in _TERM.findall(expr):
        value = int(coef) if coef else 1
        if sign == "-":
            value = -value
        out.append((value, var))
    return out


def parse_lp(text: str):
    """Parse the library's LP output into (objective_vars, constraints, binaries).

    Constraints come back as (terms, sense, rhs) with terms = [(coef, var)].
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    section = None
    objective = []
    constraints = []
    binaries = []
    for line in lines:
        if line in ("Minimize", "Subject To", "Binary", "End"):
            section = line
            continue
        if section == "Minimize":
            _, expr = line.split(":", 1)
            objective = [var for _, var in _parse_terms(expr)]
        elif section == "Subject To":
            _, body = line.split(":", 1)
            match = re.search(r"(<=|>=|=)\s*(-?\d+)\s*$", body)
            sense, rhs = match.group(1), int(match.group(2))
            constraints.append((_parse_terms(body[: match.start()]), sense, rhs))
        elif section == "Binary":
            binaries.append(line)
    return objective, constraints, binaries


def solve_lp_text(text: str) -> float:
    """Objective value of the LP text, solved as a MILP (HiGHS via scipy)."""
    objective, constraints, binaries = parse_lp(text)
    index = {var: i for i, var in enumerate(binaries)}
    c = np.zeros(len(binaries))
    for var in objective:
        c[index[var]] += 1.0
    rows, lows, highs = [], [], []
    for terms, sense, rhs in constraints:
        row = np.zeros(len(binaries))
        for coef, var in terms:
            row[index[var]] += coef
        rows.append(row)
        if sense == "<=":
            lows.append(-np.inf)
            highs.append(rhs)
        elif sense == ">=":
            lows.append(rhs)
            highs.append(np.inf)
        else:
            lows.append(rhs)
            highs.append(rhs)
    result = milp(
        c=c,
        constraints=LinearConstraint(np.array(rows), np.array(lows), np.array(highs)),
        integrality=np.ones(len(binaries)),
        bounds=Bounds(0, 1),
    )
    assert result.success, result.message
    return float(result.fun)
