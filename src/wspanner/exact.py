"""Exact optimum for desk-scale instances plus an LP-format model emitter.

The optimizer exploits the fact that any minimum spanner is a union of one
within-budget path per terminal pair: it enumerates, per pair, the
inclusion-minimal edge sets of simple paths within the budget and runs a
branch-and-bound over per-pair path choices, levels processed top-down.
This returns exactly the minimum-sparsity solution (ties broken by the
lexicographically smallest per-edge rate vector) that plain subset
enumeration in (cardinality, rate-vector) order would find, at a fraction
of the cost.  Larger instances are refused with SizeCapExceeded; emit the
ILP and hand it to an external MILP solver instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, WeightedGraph, edge_key, terminal_pairs
from .multilevel import MultiLevelInstance, MultiLevelSpanner


@dataclass(frozen=True)
class SizeCaps:
    max_edges_single: int = 20
    max_edges_multi: int = 14
    max_work: int = 5_000_000


class SizeCapExceeded(RuntimeError):
    """Instance too large for exhaustive search; use the ILP route instead."""

    def __init__(self, message: str, edges: int, levels: int):
        super().__init__(message)
        self.edges = edges
        self.levels = levels


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "<=" or "="
    rhs: int


@dataclass(frozen=True)
class IlpModel:
    """Binary model: minimize the sum of objective variables."""

    objective: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]
    binaries: tuple[str, ...]


def build_ilp(inst: MultiLevelInstance) -> IlpModel:
    """Path-based flow model, one flow system per unordered terminal pair per
    level: path length bounded by dist + allowance, flow conservation,
    out-degree at most one, arcs coupled to edge variables, and (multi-level)
    each level's edges contained in the level below.  Variable names carry a
    level suffix _l{k} only when there is more than one level."""
    g = inst.graph
    pt = g.paths
    suffixes = [f"_l{k}" if inst.levels > 1 else "" for k in range(1, inst.levels + 1)]
    xe = [[f"xe_{u}_{v}{sfx}" for u, v, _ in g.edges] for sfx in suffixes]
    arcs = [(a, b, w) for i, j, w in g.edges for a, b in ((i, j), (j, i))]
    objective = [name for level in xe for name in level]
    binaries = list(objective)
    constraints: list[LinearConstraint] = []
    for k, sfx in enumerate(suffixes):
        for u, v in terminal_pairs(inst.terminal_sets[k]):
            if not pt.reachable(u, v):
                raise ValueError(f"terminal pair ({u},{v}) is disconnected")
            pair = f"p{u}_{v}{sfx}"
            f = {(i, j): f"f_{i}_{j}_{pair}" for i, j, _ in arcs}
            binaries.extend(f.values())
            limit = pt.dist(u, v) + inst.budget.allowance(g, u, v)
            constraints.append(LinearConstraint(
                f"len_{pair}", tuple((w, f[i, j]) for i, j, w in arcs), "<=", limit))
            for i in range(g.n):
                terms = tuple(t for j, _ in g.adj[i] for t in ((1, f[i, j]), (-1, f[j, i])))
                rhs = 1 if i == u else (-1 if i == v else 0)
                constraints.append(LinearConstraint(f"flow_{pair}_v{i}", terms, "=", rhs))
            for i in range(g.n):
                terms = tuple((1, f[i, j]) for j, _ in g.adj[i])
                if terms:
                    constraints.append(LinearConstraint(f"deg_{pair}_v{i}", terms, "<=", 1))
            for e, (i, j, _) in enumerate(g.edges):
                constraints.append(LinearConstraint(
                    f"cpl_{pair}_e{i}_{j}", ((1, f[i, j]), (1, f[j, i]), (-1, xe[k][e])), "<=", 0))
    for k in range(1, inst.levels):
        for e, (i, j, _) in enumerate(g.edges):
            constraints.append(LinearConstraint(
                f"nest_e{i}_{j}{suffixes[k]}", ((1, xe[k][e]), (-1, xe[k - 1][e])), "<=", 0))
    return IlpModel(tuple(objective), tuple(constraints), tuple(binaries))


def _format_terms(terms) -> str:
    parts = []
    for idx, (coef, var) in enumerate(terms):
        mag = abs(coef)
        body = var if mag == 1 else f"{mag} {var}"
        if idx == 0:
            parts.append(body if coef >= 0 else f"- {body}")
        else:
            parts.append(("+ " if coef >= 0 else "- ") + body)
    return " ".join(parts)


def emit_lp(model: IlpModel) -> str:
    """Deterministic LP text: Minimize / Subject To / Binary / End.

    Constraints appear in model order (per level, per pair: length, flow per
    vertex, degree per vertex, coupling per edge; then nesting), so equal
    models serialize byte-identically.
    """
    lines = ["Minimize", " obj: " + " + ".join(model.objective), "Subject To"]
    for c in model.constraints:
        lines.append(f" {c.name}: {_format_terms(c.terms)} {c.sense} {c.rhs}")
    lines.append("Binary")
    lines.extend(f" {v}" for v in model.binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _minimal_path_masks(g: WeightedGraph, u: int, v: int, limit: int,
                        eindex: dict[Edge, int]) -> list[int]:
    """Inclusion-minimal edge bitmasks of simple u-v paths of weight <= limit."""
    adj = g.adj
    found: list[int] = []

    def walk(x: int, visited: int, weight: int, mask: int) -> None:
        if x == v:
            found.append(mask)
            return
        for y, w in adj[x]:
            if visited >> y & 1:
                continue
            nw = weight + w
            if nw > limit:
                continue
            walk(y, visited | (1 << y), nw, mask | (1 << eindex[edge_key(x, y)]))

    walk(u, 1 << u, 0, 0)
    found.sort(key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for mask in found:
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return kept


def exact_optimum(inst: MultiLevelInstance, caps: SizeCaps | None = None) -> MultiLevelSpanner:
    """Globally minimum-sparsity multi-level spanner for the instance.

    Ties are broken toward the lexicographically smallest per-edge rate
    vector (edges in canonical sorted order).  Raises SizeCapExceeded when
    the instance is over the edge caps or the enumeration work budget.
    """
    caps = caps or SizeCaps()
    g = inst.graph
    ell = inst.levels
    m = len(g.edges)
    cap = caps.max_edges_single if ell == 1 else caps.max_edges_multi
    if m > cap:
        raise SizeCapExceeded(f"{m} edges exceeds the cap of {cap} for {ell} level(s)", m, ell)
    if (ell + 1) ** m > caps.max_work:
        raise SizeCapExceeded(f"search space ({ell + 1}**{m}) exceeds the work budget", m, ell)
    pt = g.paths
    eindex = {edge_key(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    masks: dict[Edge, list[int]] = {}
    for u, v in terminal_pairs(inst.terminal_sets[0]):
        if not pt.reachable(u, v):
            raise ValueError(f"terminal pair ({u},{v}) is disconnected")
        limit = pt.dist(u, v) + inst.budget.allowance(g, u, v)
        masks[(u, v)] = _minimal_path_masks(g, u, v, limit, eindex)
    flat = [(k, pair)
            for k in range(ell, 0, -1)
            for pair in terminal_pairs(inst.terminal_sets[k - 1])]

    best_sparsity: int | None = None
    best_rates: tuple[int, ...] | None = None
    rates = [0] * m

    def search(idx: int, covered: int, sparsity: int) -> None:
        nonlocal best_sparsity, best_rates
        if best_sparsity is not None and sparsity > best_sparsity:
            return
        if idx == len(flat):
            key = tuple(rates)
            if (best_sparsity is None or sparsity < best_sparsity
                    or (sparsity == best_sparsity and key < best_rates)):
                best_sparsity, best_rates = sparsity, key
            return
        level, pair = flat[idx]
        options = masks[pair]
        for mask in options:
            if mask & covered == mask:
                # Pair already satisfied at this level; adding anything else
                # can only raise rates, so the branch is dominated.
                search(idx + 1, covered, sparsity)
                return
        for mask in options:
            new = mask & ~covered
            cost = level * new.bit_count()
            if best_sparsity is not None and sparsity + cost > best_sparsity:
                continue
            bits = []
            rest = new
            while rest:
                low = rest & -rest
                bits.append(low.bit_length() - 1)
                rest ^= low
            for b in bits:
                rates[b] = level
            search(idx + 1, covered | mask, sparsity + cost)
            for b in bits:
                rates[b] = 0

    search(0, 0, 0)
    assert best_rates is not None
    return MultiLevelSpanner(tuple(
        frozenset((u, v) for i, (u, v, _) in enumerate(g.edges) if best_rates[i] >= k)
        for k in range(1, ell + 1)))


def exact_single_level(g: WeightedGraph, terminals, budget,
                       caps: SizeCaps | None = None) -> set[Edge]:
    """Minimum edge set spanning one terminal set within the budget."""
    if len(set(terminals)) < 2:
        return set()
    inst = MultiLevelInstance(g, (frozenset(terminals),), budget)
    return set(exact_optimum(inst, caps).level_edges[0])
