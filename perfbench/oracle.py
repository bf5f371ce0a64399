"""Independent output check for the benchmark.

Distances come from the raw edge lists through ``scipy.sparse.csgraph``,
never from the library's ``PathTable``.  The local weight W(u, v) is the
largest edge weight on the canonical shortest path from min(u, v), where
every vertex's predecessor is its smallest-id tight neighbour (the
tie-break the library documents).  Budgets come from the table below, the
one the package documents, not from the library's own constants, so a
loosened budget in the library shows up as a failed check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# algorithm -> (budget mode, coefficient c): dist_H <= dist_G + c * W
ADVERTISED = {
    "sub2w": ("global", 2),
    "p2w": ("local", 2),
    "p4w": ("local", 4),
    "p8w": ("global", 6),
}


def _csr(n: int, edges: np.ndarray) -> csr_matrix:
    u, v, w = edges[:, 0], edges[:, 1], edges[:, 2].astype(float)
    return csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n))


def _path_wmax(n: int, edges: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per source row: largest edge weight on the canonical path to each vertex."""
    a = np.r_[edges[:, 0], edges[:, 1]]
    b = np.r_[edges[:, 1], edges[:, 0]]
    w = np.r_[edges[:, 2], edges[:, 2]]
    k = dist.shape[0]
    tight = (dist[:, a] + w == dist[:, b]) & np.isfinite(dist[:, b])
    parent = np.full((k, n), n)
    rows, arcs = np.nonzero(tight)
    np.minimum.at(parent, (rows, b[arcs]), a[arcs])
    weight = np.zeros((n + 1, n), dtype=np.int64)
    weight[edges[:, 0], edges[:, 1]] = edges[:, 2]
    weight[edges[:, 1], edges[:, 0]] = edges[:, 2]
    best = weight[parent, np.arange(n)]
    # Sources and unreachable vertices point at themselves with weight 0;
    # pointer doubling then takes the maximum over each whole tree path.
    anc = np.where(parent < n, parent, np.arange(n))
    for _ in range(max(1, n.bit_length())):
        best = np.maximum(best, np.take_along_axis(best, anc, axis=1))
        anc = np.take_along_axis(anc, anc, axis=1)
    return best


def pair_limits(n: int, g_edges, terminals, mode: str, c: int):
    """(sorted terminals, dist_G and allowed dist_H among them, both |S| x |S|)."""
    edges = np.asarray(g_edges, dtype=np.int64).reshape(-1, 3)
    s = np.array(sorted(set(terminals)), dtype=np.int64)
    dist = dijkstra(_csr(n, edges), directed=False, indices=s)
    if mode == "global":
        allow = c * int(edges[:, 2].max(initial=0))
    else:
        allow = c * _path_wmax(n, edges, dist)[:, s]
    dg = dist[:, s]
    return s, dg, dg + allow


def budget_problems(n: int, g_edges, h_edges, terminals, mode: str, c: int) -> list[str]:
    """Ways in which h_edges fails as a (mode, c) spanner of g for all terminal pairs."""
    weight = {(min(u, v), max(u, v)): w for u, v, w in g_edges}
    h = sorted({(min(u, v), max(u, v)) for u, v in h_edges})
    extra = [e for e in h if e not in weight]
    if extra:
        return [f"{len(extra)} spanner edges are not graph edges, e.g. {extra[0]}"]
    s, dg, limit = pair_limits(n, g_edges, terminals, mode, c)
    if len(s) < 2:
        return []
    h_arr = np.array([(u, v, weight[(u, v)]) for u, v in h], dtype=np.int64).reshape(-1, 3)
    dh = dijkstra(_csr(n, h_arr), directed=False, indices=s)[:, s]
    bad = np.argwhere(np.triu(dh > limit, k=1))
    if not len(bad):
        return []
    i, j = bad[0]
    return [f"{len(bad)} terminal pairs over the +{c}W {mode} budget, e.g. "
            f"({s[i]},{s[j]}): dist_H {dh[i, j]} > dist_G {dg[i, j]} + allowance"]


def algo_of(budget) -> str | None:
    """The algorithm whose advertised budget equals a library ErrorBudget."""
    for algo, (mode, c) in ADVERTISED.items():
        if budget.mode.value == mode and budget.c == c:
            return algo
    return None


def _multilevel_problems(graph, terminal_sets, level_edges, mode: str, c: int) -> list[str]:
    problems = []
    for k, (terminals, edges) in enumerate(zip(terminal_sets, level_edges), start=1):
        problems += [f"level {k}: {p}" for p in
                     budget_problems(graph.n, graph.edges, edges, terminals, mode, c)]
        if k > 1 and not set(edges) <= set(level_edges[k - 2]):
            problems.append(f"level {k} is not contained in level {k - 1}")
    return problems


class Verdict:
    """Outcome of checking one op: problems found, instance shape, output sizes."""

    def __init__(self):
        self.problems: list[str] = []
        self.shape: dict[str, int] = {}
        self.edges = 0  # spanner edges output, summed over levels and algorithms
        self.full_graph_outputs = 0  # outputs whose first level is the whole graph


def check_plan(rows, captures) -> Verdict:
    """Rows of a one-instance plan against the spanners captured while it ran."""
    v = Verdict()
    sizes: dict[str, dict[str, int]] = {"multilevel": {}, "exact": {}}
    for kind, inst, spanner in captures:
        algo = algo_of(inst.budget)
        if algo is None:
            v.problems.append(f"{kind} output under unadvertised budget {inst.budget}")
            continue
        g = inst.graph
        v.shape = {"n": g.n, "m": len(g.edges),
                   "pairs": sum(len(s) * (len(s) - 1) // 2 for s in inst.terminal_sets)}
        mode, c = ADVERTISED[algo]
        v.problems += [f"{kind} {algo} {p}" for p in _multilevel_problems(
            g, inst.terminal_sets, spanner.level_edges, mode, c)]
        sizes[kind][algo] = sum(len(e) for e in spanner.level_edges)
        if kind == "multilevel":
            v.edges += sizes[kind][algo]
            v.full_graph_outputs += len(spanner.level_edges[0]) == len(g.edges)
    for r in rows:
        built = sizes["multilevel"].get(r.algorithm)
        exact = sizes["exact"].get(r.algorithm)
        if (not r.valid or r.sparsity != built or r.exact_sparsity != exact
                or r.m != v.shape.get("m")):
            v.problems.append(f"row {r.algorithm} (sparsity {r.sparsity}, exact "
                              f"{r.exact_sparsity}) does not match its outputs ({built}, {exact})")
        elif exact is not None and exact > built:
            v.problems.append(f"exact optimum for {r.algorithm} is larger than the heuristic output")
    if len(rows) != len(sizes["multilevel"]):
        v.problems.append(f"{len(rows)} rows for {len(sizes['multilevel'])} captured outputs")
    return v


def read_graph(path) -> tuple[int, list[tuple[int, int, int]]]:
    """The plain text graph format: `n m`, then `u v w` per edge."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1:m + 1]]
    return n, edges


def read_terminals(path) -> list[list[int]]:
    text = Path(path).read_text(encoding="utf-8")
    return [[int(t) for t in line.split()] for line in text.splitlines() if line.strip()]


def check_spanner_files(algo: str, graph_path, terminals_path, level: int, out_prefix) -> Verdict:
    """Output files of `wspanner spanner --out PREFIX` against the input files."""
    v = Verdict()
    n, g_edges = read_graph(graph_path)
    terminals = read_terminals(terminals_path)[level - 1]
    hn, h_edges = read_graph(f"{out_prefix}.graph")
    report = json.loads(Path(f"{out_prefix}.json").read_text(encoding="utf-8"))
    v.shape = {"n": n, "m": len(g_edges), "pairs": len(terminals) * (len(terminals) - 1) // 2}
    weight = {(min(a, b), max(a, b)): w for a, b, w in g_edges}
    if hn != n or any(weight.get((min(a, b), max(a, b))) != w for a, b, w in h_edges):
        v.problems.append("output graph is not a weighted subgraph of the input")
    if report.get("valid") is not True or report.get("edges") != len(h_edges):
        v.problems.append(f"report says valid={report.get('valid')} edges={report.get('edges')}")
    mode, c = ADVERTISED[algo]
    v.problems += budget_problems(n, g_edges, [(a, b) for a, b, _ in h_edges], terminals, mode, c)
    v.edges = len(h_edges)
    v.full_graph_outputs = int(len(h_edges) == len(g_edges))
    return v


_LEN_ROW = re.compile(r"^ len_p(\d+)_(\d+)(?:_l(\d+))?: .* <= (-?\d+)$")


def check_lp(graph_path, terminals_path, mode: str, c: int, lp_path) -> Verdict:
    """An emitted LP: one edge variable per edge and level in the objective, and
    each pair's path-length row bounded by dist_G + allowance."""
    v = Verdict()
    n, g_edges = read_graph(graph_path)
    sets = read_terminals(terminals_path)
    lines = Path(lp_path).read_text(encoding="utf-8").splitlines()
    v.shape = {"n": n, "m": len(g_edges), "pairs": sum(len(s) * (len(s) - 1) // 2 for s in sets)}
    objective = lines[1].split(":", 1)[1].split(" + ") if len(lines) > 1 else []
    if lines[:1] != ["Minimize"] or len(objective) != len(g_edges) * len(sets):
        v.problems.append(f"objective has {len(objective)} variables, "
                          f"expected {len(g_edges) * len(sets)}")
    rhs = {}
    for line in lines:
        hit = _LEN_ROW.match(line)
        if hit:
            rhs[(int(hit[1]), int(hit[2]), int(hit[3] or 1))] = int(hit[4])
    expected = {}
    for k, terminals in enumerate(sets, start=1):
        s, _, limit = pair_limits(n, g_edges, terminals, mode, c)
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                expected[(int(s[i]), int(s[j]), k)] = int(limit[i, j])
    if rhs != expected:
        wrong = sorted(set(rhs.items()) ^ set(expected.items()))[:1]
        v.problems.append(f"path-length rows differ from dist_G + allowance, e.g. {wrong}")
    return v
