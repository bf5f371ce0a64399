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

from .core import Edge, edge_key, terminal_pairs
from .multilevel import MultiLevelInstance, MultiLevelSpanner


@dataclass(frozen=True)
class SizeCaps:
    max_edges_single: int = 20
    max_edges_multi: int = 14
    max_work: int = 5_000_000


class SizeCapExceeded(RuntimeError):
    """Instance too large for exhaustive search; use the ILP route instead."""


@dataclass(frozen=True)
class IlpModel:
    """Binary model: minimize the sum of objective variables; rows are LP text."""

    objective: tuple[str, ...]
    constraints: tuple[str, ...]
    binaries: tuple[str, ...]


def _row(name: str, terms, sense: str, rhs: int) -> str:
    """An LP constraint row from (coefficient, variable) terms; a unit
    coefficient is left out, and a leading sign only when negative."""
    parts = []
    for coef, var in terms:
        body = var if abs(coef) == 1 else f"{abs(coef)} {var}"
        parts.append(("- " if coef < 0 else "+ ") + body)
    return f"{name}: {' '.join(parts).removeprefix('+ ')} {sense} {rhs}"


def build_ilp(inst: MultiLevelInstance) -> IlpModel:
    """Path-based flow model, one flow system per unordered terminal pair per
    level, in this row order: path length bounded by dist + allowance, flow
    conservation and out-degree at most one per vertex, arcs coupled to edge
    variables, and (multi-level) each level's edges contained in the level
    below.  Variable names carry a level suffix _l{k} only when there is more
    than one level."""
    g = inst.graph
    pt = g.paths
    suffixes = [f"_l{k}" if inst.levels > 1 else "" for k in range(1, inst.levels + 1)]
    xe = [[f"xe_{u}_{v}{sfx}" for u, v, _ in g.edges] for sfx in suffixes]
    arcs = [(a, b, w) for i, j, w in g.edges for a, b in ((i, j), (j, i))]
    objective = [name for level in xe for name in level]
    binaries = list(objective)
    constraints: list[str] = []
    for k, sfx in enumerate(suffixes):
        for u, v in terminal_pairs(inst.terminal_sets[k]):
            if not pt.reachable(u, v):
                raise ValueError(f"terminal pair ({u},{v}) is disconnected")
            pair = f"p{u}_{v}{sfx}"
            f = {(i, j): f"f_{i}_{j}_{pair}" for i, j, _ in arcs}
            binaries.extend(f.values())
            limit = pt.dist(u, v) + inst.budget.allowance(g, u, v)
            constraints.append(_row(f"len_{pair}", ((w, f[i, j]) for i, j, w in arcs), "<=", limit))
            for i in range(g.n):
                terms = (t for j, _ in g.adj[i] for t in ((1, f[i, j]), (-1, f[j, i])))
                rhs = 1 if i == u else (-1 if i == v else 0)
                constraints.append(_row(f"flow_{pair}_v{i}", terms, "=", rhs))
            for i in range(g.n):
                if g.adj[i]:
                    terms = ((1, f[i, j]) for j, _ in g.adj[i])
                    constraints.append(_row(f"deg_{pair}_v{i}", terms, "<=", 1))
            for e, (i, j, _) in enumerate(g.edges):
                constraints.append(_row(f"cpl_{pair}_e{i}_{j}",
                                        ((1, f[i, j]), (1, f[j, i]), (-1, xe[k][e])), "<=", 0))
    for k in range(1, inst.levels):
        for e, (i, j, _) in enumerate(g.edges):
            constraints.append(_row(f"nest_e{i}_{j}{suffixes[k]}",
                                    ((1, xe[k][e]), (-1, xe[k - 1][e])), "<=", 0))
    return IlpModel(tuple(objective), tuple(constraints), tuple(binaries))


def emit_lp(model: IlpModel) -> str:
    """Deterministic LP text: Minimize / Subject To / Binary / End, with the
    rows in model order, so equal models serialize byte-identically."""
    lines = ["Minimize", " obj: " + " + ".join(model.objective), "Subject To"]
    lines.extend(f" {c}" for c in model.constraints)
    lines.append("Binary")
    lines.extend(f" {v}" for v in model.binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _minimal_path_masks(incidence, u: int, v: int, limit: int) -> list[int]:
    """Edge bitmasks of the simple u-v paths of weight <= limit, walked over
    incidence, each vertex's (neighbor, weight, edge bit) triples, and sorted
    by (edge count, mask) so that the search tries cheap paths first.  Each is
    inclusion-minimal: if a simple u-v path Q uses only edges of a simple u-v
    path P, then Q is a u-v path in the path graph P, so Q = P.  The masks
    are distinct and pairwise incomparable, so none needs filtering."""
    found: list[int] = []

    def walk(x: int, visited: int, weight: int, mask: int) -> None:
        if x == v:
            found.append(mask)
            return
        for y, w, bit in incidence[x]:
            if not visited >> y & 1 and weight + w <= limit:
                walk(y, visited | (1 << y), weight + w, mask | bit)

    walk(u, 1 << u, 0, 0)
    found.sort(key=lambda m: (m.bit_count(), m))
    return found


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
        raise SizeCapExceeded(f"{m} edges exceeds the cap of {cap} for {ell} level(s)")
    if (ell + 1) ** m > caps.max_work:
        raise SizeCapExceeded(f"search space ({ell + 1}**{m}) exceeds the work budget")
    pt = g.paths
    bits = {(u, v): 1 << i for i, (u, v, _) in enumerate(g.edges)}
    incidence = [[(y, w, bits[edge_key(x, y)]) for y, w in g.adj[x]] for x in range(g.n)]
    masks: dict[Edge, list[int]] = {}
    for u, v in terminal_pairs(inst.terminal_sets[0]):
        if not pt.reachable(u, v):
            raise ValueError(f"terminal pair ({u},{v}) is disconnected")
        limit = pt.dist(u, v) + inst.budget.allowance(g, u, v)
        masks[(u, v)] = _minimal_path_masks(incidence, u, v, limit)
    flat = [(k, pair)
            for k in range(ell, 0, -1)
            for pair in terminal_pairs(inst.terminal_sets[k - 1])]

    best_sparsity, best_rates = float("inf"), ()
    rates = [0] * m

    def search(idx: int, covered: int, sparsity: int) -> None:
        # Every call has sparsity <= best_sparsity: each option is tested first.
        nonlocal best_sparsity, best_rates
        if idx == len(flat):
            key = tuple(rates)
            if sparsity < best_sparsity or (sparsity == best_sparsity and key < best_rates):
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
            if sparsity + cost > best_sparsity:
                continue
            bits, rest = [], new  # set bits of new, lowest first
            while rest:
                bits.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            for b in bits:
                rates[b] = level
            search(idx + 1, covered | mask, sparsity + cost)
            for b in bits:
                rates[b] = 0

    search(0, 0, 0)
    return MultiLevelSpanner(tuple(
        frozenset((u, v) for i, (u, v, _) in enumerate(g.edges) if best_rates[i] >= k)
        for k in range(1, ell + 1)))
