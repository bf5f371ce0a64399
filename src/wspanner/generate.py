"""Seeded random instances: four graph models, integer weights, nested terminals.

Model parameters are fixed to the usual experimental setup: ER edge
probability (1+eps)ln(n)/n with eps=1, WS ring lattice K=6 rewired with
p=0.2, BA attachment m=5, GE connection radius sqrt((1+eps)ln(n)/(pi n));
weights i.i.d. uniform on [1, 10] unless the spec sets another range.
Disconnected topology samples are redrawn on an incremented sub-seed (the
parameter choices make connectivity the likely case).
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum

from .core import WeightedGraph
from .seeding import ROLE_TERMINALS, ROLE_TOPOLOGY, ROLE_WEIGHTS, pick, stream

MAX_CONNECTIVITY_ATTEMPTS = 100
EPSILON = 1.0
WS_K = 6
WS_P = 0.2
BA_M = 5


class Model(Enum):
    ER = "er"
    WS = "ws"
    BA = "ba"
    GE = "ge"


@dataclass(frozen=True)
class GeneratorSpec:
    model: Model
    n: int
    seed: int
    weight_range: tuple[int, int] = (1, 10)


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Connected weighted graph sampled from the requested model."""
    if spec.n < 2:
        raise ValueError("need n >= 2")
    lo, hi = spec.weight_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad weight range {spec.weight_range}")
    if spec.model is Model.WS and spec.n <= WS_K:
        raise ValueError(f"WS needs n > K={WS_K}, got n={spec.n}")
    if spec.model is Model.BA and spec.n <= BA_M:
        raise ValueError(f"BA needs n > m={BA_M}, got n={spec.n}")

    for attempt in range(MAX_CONNECTIVITY_ATTEMPTS):
        ordered = sorted(_topology(spec, stream(spec.seed, ROLE_TOPOLOGY, attempt)))
        # The weight stream does not depend on the attempt, so every draw
        # weighs its edges with the same sequence.
        rng = stream(spec.seed, ROLE_WEIGHTS)
        g = WeightedGraph(spec.n, tuple((u, v, lo + int(rng.random() * (hi - lo + 1)))
                                        for u, v in ordered))
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected topology in {MAX_CONNECTIVITY_ATTEMPTS} attempts for {spec}")


def _topology(spec: GeneratorSpec, rng: random.Random) -> set[tuple[int, int]]:
    if spec.model is Model.ER:
        return _er(spec.n, EPSILON, rng)
    if spec.model is Model.WS:
        return _ws(spec.n, WS_K, WS_P, rng)
    if spec.model is Model.BA:
        return _ba(spec.n, BA_M, rng)
    return _ge(spec.n, EPSILON, rng)


def _er(n: int, eps: float, rng) -> set[tuple[int, int]]:
    p = min(1.0, (1.0 + eps) * math.log(n) / n)
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def _ws(n: int, k: int, p: float, rng) -> set[tuple[int, int]]:
    half = k // 2
    neighbors = [{(i + j) % n for j in range(-half, half + 1) if j} for i in range(n)]
    # Rewire each clockwise lattice edge with probability p to a uniform
    # non-duplicate, non-self target.
    for j in range(1, half + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            candidates = [t for t in range(n) if t != i and t not in neighbors[i]]
            if not candidates:
                continue
            target = candidates[int(rng.random() * len(candidates))]
            neighbors[i].discard((i + j) % n)
            neighbors[(i + j) % n].discard(i)
            neighbors[i].add(target)
            neighbors[target].add(i)
    return {(a, b) for a in range(n) for b in neighbors[a] if a < b}


def _ba(n: int, m: int, rng) -> set[tuple[int, int]]:
    # Complete seed core on m+1 vertices, then degree-proportional attachment
    # of m distinct targets per new vertex, sampled without replacement: a
    # chosen target's weight drops to 0, so the bisection never lands on it.
    edges = {(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)}
    degree = [m] * (m + 1) + [0] * (n - m - 1)
    for t in range(m + 1, n):
        weights = degree[:t]
        for _ in range(m):
            cumulative = list(itertools.accumulate(weights))
            c = bisect.bisect(cumulative, rng.random() * cumulative[-1])
            weights[c] = 0
            edges.add((c, t))
            degree[c] += 1
        degree[t] = m
    return edges


def _ge(n: int, eps: float, rng) -> set[tuple[int, int]]:
    points = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = (1.0 + eps) * math.log(n) / (math.pi * n)
    return {(u, v) for u, (x, y) in enumerate(points) for v in range(u + 1, n)
            if (x - points[v][0]) ** 2 + (y - points[v][1]) ** 2 <= r2}


class TerminalScheme(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exp"


@dataclass(frozen=True)
class TerminalSelection:
    method: TerminalScheme
    levels: int
    seed: int


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def generate_terminals(n: int, sel: TerminalSelection) -> tuple[tuple[int, ...], ...]:
    """Nested terminal sets S_1 >= S_2 >= ... >= S_levels, each sorted ascending.

    LINEAR starts at round(n * (1 - 1/(levels+1))) and removes
    round(n / (levels+1)) random vertices per level (never below one);
    EXPONENTIAL starts at round(n/2) and keeps ceil(half) per level.
    """
    ell = sel.levels
    if ell < 1:
        raise ValueError("levels must be >= 1")
    if n < ell + 1:
        raise ValueError(f"need n >= levels + 1, got n={n}, levels={ell}")
    rng = stream(sel.seed, ROLE_TERMINALS)
    if sel.method is TerminalScheme.LINEAR:
        first = max(1, _round_half_up(n * (1.0 - 1.0 / (ell + 1))))
        drop = _round_half_up(n / (ell + 1))
    else:
        first = max(1, _round_half_up(n / 2.0))
        drop = 0
    current = sorted(pick(rng, range(n), first))
    sets = [tuple(current)]
    for _ in range(ell - 1):
        if sel.method is TerminalScheme.LINEAR:
            remove = min(drop, len(current) - 1)
            removed = set(pick(rng, current, remove))
            current = [v for v in current if v not in removed]
        else:
            keep = math.ceil(len(current) / 2)
            current = sorted(pick(rng, current, keep))
        if not current:
            raise ValueError("terminal level became empty")
        sets.append(tuple(current))
    return tuple(sets)


def write_terminals_text(sets) -> str:
    """One line per level: space-separated vertex ids, ascending."""
    return "\n".join(" ".join(str(v) for v in sorted(level)) for level in sets) + "\n"


def parse_terminals_text(text: str) -> tuple[tuple[int, ...], ...]:
    levels = []
    for line in text.splitlines():
        if line.strip():
            levels.append(tuple(sorted(int(tok) for tok in line.split())))
    if not levels:
        raise ValueError("empty terminals text")
    return tuple(levels)
