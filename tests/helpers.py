"""Independent oracles for the test suite.

Everything here is deliberately written without reusing the library's
shortest-path or search machinery: distances come from exhaustive simple-path
enumeration or Bellman-Ford relaxation, optima from plain subset / rate-vector
enumeration, and LP files are solved through scipy's MILP backend.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations, product

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

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


def path_weight(g, path) -> int:
    return sum(g.weight(a, b) for a, b in zip(path, path[1:]))


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


def subset_meets_limits(g, subset, pair_limits) -> bool:
    """True when every (u, v) -> limit entry holds in the edge subset."""
    chosen = [(u, v, g.weight(u, v)) for u, v in subset]
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


def brute_multilevel_opt(g, level_pair_limits) -> int:
    """Minimum sparsity over all nested edge-set families, by enumerating every
    per-edge rate vector.  level_pair_limits[k] maps pairs to limits for level
    k+1 (0-based list, level 1 first)."""
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
            if best is None or sparsity < best:
                best = sparsity
    assert best is not None
    return best


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
