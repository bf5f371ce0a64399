"""Exact optimum for desk-scale instances plus an LP-format model emitter.

Any minimum spanner is a union of one within-budget path per terminal pair,
so ``exact_optimum`` runs a branch-and-bound over per-pair path choices.
Larger instances are refused with SizeCapExceeded; emit the ILP and hand it
to an external MILP solver instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from weakref import WeakKeyDictionary

from .core import UNREACHABLE, Edge, _is_int, edge_key
from .multilevel import MultiLevelInstance, MultiLevelSpanner

# path table -> ({pair: (limit, paths)}, {terminal sets: [(limits, level masks, answer)]})
_KEPT: WeakKeyDictionary = WeakKeyDictionary()


@dataclass(frozen=True)
class SizeCaps:
    max_edges_single: int = 20
    max_edges_multi: int = 14
    max_work: int = 5_000_000

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            if not _is_int(value := getattr(self, name)) or value < 0:
                raise ValueError(f"size cap {name} must be an integer >= 0, got {value!r}")


class SizeCapExceeded(RuntimeError):
    """Instance too large for exhaustive search; use the ILP route instead."""


def build_ilp(inst: MultiLevelInstance) -> tuple[list[str], list[str], list[str]]:
    """(objective, constraints, binaries), lists of LP text: minimize the sum
    of the objective variables in a path-based flow model, one flow system
    per unordered terminal pair per level, in this row order: path length
    bounded by dist + allowance, flow conservation and out-degree at most one
    per vertex, arcs coupled to edge variables, and (multi-level) each
    level's edges contained in the level below.  Variable names carry a
    level suffix _l{k} only when there is more than one level.  Each row is
    joined from its arc names directly: a unit coefficient is left out, and
    a sign only where the term is negative."""
    g = inst.graph
    pt = g.paths
    suffixes = [f"_l{k}" if inst.levels > 1 else "" for k in range(1, inst.levels + 1)]
    xe = [[f"xe_{u}_{v}{sfx}" for u, v, _ in g.edges] for sfx in suffixes]
    arcs = [(a, b, w) for i, j, w in g.edges for a, b in ((i, j), (j, i))]
    stems = [f"f_{i}_{j}_" for i, j, _ in arcs]
    coefs = ["" if w == 1 else f"{w} " for _, _, w in arcs]
    # f[a] names arc a of the pair; around[i] is (out arc, in arc) per neighbor of i
    at = {(i, j): a for a, (i, j, _) in enumerate(arcs)}
    around = [[(at[i, j], at[j, i]) for j, _ in g.adj[i]] for i in range(g.n)]
    objective = [name for level in xe for name in level]
    binaries = list(objective)
    constraints: list[str] = []
    for k, sfx in enumerate(suffixes):
        for u, v in pt.terminal_pairs(inst.terminal_sets[k]):
            if pt.dist(u, v) == UNREACHABLE:
                raise ValueError(f"terminal pair ({u},{v}) is disconnected")
            pair = f"p{u}_{v}{sfx}"
            f = [stem + pair for stem in stems]
            binaries.extend(f)
            limit = pt.dist(u, v) + inst.budget.allowance(g, u, v)
            length = " + ".join(map(str.__add__, coefs, f))
            constraints.append(f"len_{pair}: {length} <= {limit}")
            for i, out in enumerate(around):
                terms = " + ".join(f"{f[a]} - {f[b]}" for a, b in out)
                rhs = 1 if i == u else (-1 if i == v else 0)
                constraints.append(f"flow_{pair}_v{i}: {terms} = {rhs}")
            for i, out in enumerate(around):
                if out:
                    terms = " + ".join(f[a] for a, _ in out)
                    constraints.append(f"deg_{pair}_v{i}: {terms} <= 1")
            for e, (i, j, _) in enumerate(g.edges):
                forth, back = f[2 * e], f[2 * e + 1]
                constraints.append(f"cpl_{pair}_e{i}_{j}: {forth} + {back} - {xe[k][e]} <= 0")
    for k in range(1, inst.levels):
        for e, (i, j, _) in enumerate(g.edges):
            constraints.append(f"nest_e{i}_{j}{suffixes[k]}: {xe[k][e]} - {xe[k - 1][e]} <= 0")
    return objective, constraints, binaries


def emit_lp(model) -> str:
    """Deterministic LP text of build_ilp's triple: Minimize / Subject To /
    Binary / End, rows in model order, so equal models give equal bytes."""
    objective, constraints, binaries = model
    lines = ["Minimize", " obj: " + " + ".join(objective), "Subject To"]
    lines.extend(f" {c}" for c in constraints)
    lines.append("Binary")
    lines.extend(f" {v}" for v in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _minimal_path_masks(incidence, u: int, v: int, limit: int, to_v) -> list[tuple[int, int, int, int]]:
    """(edge count, edge bitmask, vertex bitmask, weight) of each simple u-v
    path of weight <= limit, for u != v, over incidence (each vertex's
    (neighbor, weight, edge bit) triples), sorted by (edge count, edge mask)
    so that the search tries cheap paths first.  The walk skips the step to y
    when even a shortest y-v path, of weight to_v[y], would take the weight
    over limit, a test every path it completes passes.  Each mask is
    inclusion-minimal: a simple u-v path inside a simple u-v path P is P."""
    found: list[tuple[int, int, int, int]] = []

    def walk(x: int, visited: int, weight: int, mask: int) -> None:
        for y, w, bit in incidence[x]:
            if not visited >> y & 1 and weight + w + to_v[y] <= limit:
                if y == v:
                    found.append(((mask | bit).bit_count(), mask | bit, visited | 1 << y, weight + w))
                else:
                    walk(y, visited | 1 << y, weight + w, mask | bit)

    walk(u, 1 << u, 0, 0)
    del walk  # the closure holds its own cell: drop it so reference counting frees both
    found.sort()
    return found


def exact_optimum(inst: MultiLevelInstance, caps: SizeCaps | None = None) -> MultiLevelSpanner:
    """Globally minimum-sparsity multi-level spanner for the instance, ties
    broken toward the lexicographically smallest per-edge rate vector (edges
    in canonical order); SizeCapExceeded when over the caps or work budget.

    The search takes the levels top-down, so a covered edge's rate is at
    least every level still to come, and within a level the pairs with the
    fewest path options first.  A terminal of a level with two or more
    terminals that no covered edge touches still needs a new edge of at
    least that level's rate, and a new edge of rate r serves at most two
    terminals at each of r levels; so ceil(sum_k popcount(T_k & ~touched) / 2)
    more sparsity is to come, with T_k the terminal mask of level k.  An
    option is cut when that takes it strictly over the best found, so every
    solution of the best sparsity still reaches the tie-break.  No pair order
    changes the output: with r* the answer, taking at each pair not yet
    satisfied an option inside r*'s level set reaches a leaf whose rates are
    pointwise at most r*'s and so equal it, and nothing cuts that way.

    Per graph, while its path table lives, each S_1 pair is walked once, at
    the largest limit yet asked for, a narrower limit taking the paths within
    it, and each answer searched for is kept beside the walks (``_KEPT``).  A
    solve of the same terminal sets with no limit above a kept answer's
    returns it when, at every level, each pair has a walked path within its
    limit inside the answer's level set: the kept optimum then lies in this
    solve's feasible set, a subset of the kept one's, so it is optimal here.
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
    limits: dict[Edge, int] = {}
    for u, v in pt.terminal_pairs(inst.terminal_sets[0]):
        if pt.dist(u, v) == UNREACHABLE:
            raise ValueError(f"terminal pair ({u},{v}) is disconnected")
        limits[u, v] = pt.dist(u, v) + inst.budget.allowance(g, u, v)
    walked, answers = _KEPT.setdefault(pt, ({}, {}))
    kept = answers.setdefault(inst.terminal_sets, [])
    for wider, level_masks, answer in kept:
        if all(wider[p] >= limit for p, limit in limits.items()) and all(
                any(w <= limits[p] and mask & level == mask for _, mask, _, w in walked[p][1])
                for level, ts in zip(level_masks, inst.terminal_sets) for p in pt.terminal_pairs(ts)):
            return answer
    bits = {(u, v): 1 << i for i, (u, v, _) in enumerate(g.edges)}
    incidence = [[(y, w, bits[edge_key(x, y)]) for y, w in g.adj[x]] for x in range(g.n)]
    masks: dict[Edge, list[tuple[int, int, int, int]]] = {}
    for (u, v), limit in limits.items():
        top, paths = walked.get((u, v), (-1, ()))
        if top < limit:
            walked[(u, v)] = limit, (paths := _minimal_path_masks(incidence, v, u, limit, pt.row(u)[0]))
        masks[(u, v)] = [p for p in paths if p[3] <= limit]
    flat = [(k, pair)
            for k in range(ell, 0, -1)
            for pair in sorted(pt.terminal_pairs(inst.terminal_sets[k - 1]),
                               key=lambda p: (len(masks[p]), p))]
    terminal_masks = [sum(1 << t for t in ts) for ts in inst.terminal_sets if len(ts) >= 2]

    best_sparsity, best_rates = float("inf"), ()
    rates = [0] * m

    def search(idx: int, covered: int, touched: int, sparsity: int) -> None:
        # Every call has sparsity <= best_sparsity: each option is tested first.
        nonlocal best_sparsity, best_rates
        if idx == len(flat):
            key = tuple(rates)
            if sparsity < best_sparsity or (sparsity == best_sparsity and key < best_rates):
                best_sparsity, best_rates = sparsity, key
            return
        level, pair = flat[idx]
        options = masks[pair]
        for _, mask, _, _ in options:
            if mask & covered == mask:
                # Pair already satisfied at this level; adding anything else
                # can only raise rates, so the branch is dominated.
                search(idx + 1, covered, touched, sparsity)
                return
        for _, mask, verts, _ in options:
            new = mask & ~covered
            total = sparsity + level * new.bit_count()
            if total > best_sparsity:
                continue
            reach = touched | verts
            untouched = sum((t & ~reach).bit_count() for t in terminal_masks)
            if total + (untouched + 1) // 2 > best_sparsity:
                continue
            bits, rest = [], new  # set bits of new, lowest first
            while rest:
                bits.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            for b in bits:
                rates[b] = level
            search(idx + 1, covered | mask, reach, total)
            for b in bits:
                rates[b] = 0

    search(0, 0, 0, 0)
    del search  # as in _minimal_path_masks: no cycle left for the collector
    level_masks = [sum(1 << i for i, r in enumerate(best_rates) if r >= k) for k in range(1, ell + 1)]
    answer = MultiLevelSpanner(tuple(
        frozenset(g.edges[i][:2] for i in range(m) if mask >> i & 1) for mask in level_masks))
    kept.append((limits, level_masks, answer))
    return answer
