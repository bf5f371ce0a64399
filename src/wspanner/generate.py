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

from .core import WeightedGraph, connects
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

    def __post_init__(self) -> None:
        """Every argument check of ``generate``, made when the spec is built."""
        object.__setattr__(self, "model", Model(self.model))
        if self.n < 2:
            raise ValueError("need n >= 2")
        lo, hi = self.weight_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad weight range {self.weight_range}")
        if self.model is Model.WS and self.n <= WS_K:
            raise ValueError(f"WS needs n > K={WS_K}, got n={self.n}")
        if self.model is Model.BA and self.n <= BA_M:
            raise ValueError(f"BA needs n > m={BA_M}, got n={self.n}")


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Connected weighted graph sampled from the requested model."""
    lo, hi = spec.weight_range
    for attempt in range(MAX_CONNECTIVITY_ATTEMPTS):
        topology = _topology(spec, stream(spec.seed, ROLE_TOPOLOGY, attempt))
        if connects(spec.n, topology):
            # The weight stream does not depend on the attempt, so the kept
            # draw is weighed as it would be had every draw been weighed.
            rng = stream(spec.seed, ROLE_WEIGHTS)
            g = WeightedGraph(spec.n, tuple((u, v, lo + int(rng.random() * (hi - lo + 1)))
                                            for u, v in sorted(topology)))
            object.__setattr__(g, "is_connected", True)  # the cached verdict of connects
            return g
    raise RuntimeError(f"no connected topology in {MAX_CONNECTIVITY_ATTEMPTS} attempts for {spec}")


def _er(n: int, rng) -> set[tuple[int, int]]:
    p = min(1.0, (1.0 + EPSILON) * math.log(n) / n)
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def _ws(n: int, rng) -> set[tuple[int, int]]:
    half = WS_K // 2
    neighbors = [{(i + j) % n for j in range(-half, half + 1) if j} for i in range(n)]
    # Rewire each clockwise lattice edge with probability WS_P to a uniform
    # non-duplicate, non-self target.
    for j in range(1, half + 1):
        for i in range(n):
            if rng.random() >= WS_P:
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


def _ba(n: int, rng) -> set[tuple[int, int]]:
    # Complete seed core on BA_M+1 vertices, then degree-proportional attachment
    # of BA_M distinct targets per new vertex, sampled without replacement: a
    # chosen target's weight drops to 0, so the bisection never lands on it.
    edges = {(u, v) for u in range(BA_M + 1) for v in range(u + 1, BA_M + 1)}
    degree = [BA_M] * (BA_M + 1) + [0] * (n - BA_M - 1)
    for t in range(BA_M + 1, n):
        weights = degree[:t]
        for _ in range(BA_M):
            cumulative = list(itertools.accumulate(weights))
            c = bisect.bisect(cumulative, rng.random() * cumulative[-1])
            weights[c] = 0
            edges.add((c, t))
            degree[c] += 1
        degree[t] = BA_M
    return edges


def _ge(n: int, rng) -> set[tuple[int, int]]:
    points = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = (1.0 + EPSILON) * math.log(n) / (math.pi * n)
    return {(u, v) for u, (x, y) in enumerate(points) for v in range(u + 1, n)
            if (x - points[v][0]) ** 2 + (y - points[v][1]) ** 2 <= r2}


def _topology(spec: GeneratorSpec, rng: random.Random) -> set[tuple[int, int]]:
    return {Model.ER: _er, Model.WS: _ws, Model.BA: _ba, Model.GE: _ge}[spec.model](spec.n, rng)


class TerminalScheme(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exp"


@dataclass(frozen=True)
class TerminalSelection:
    method: TerminalScheme
    levels: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", TerminalScheme(self.method))
        if self.levels < 1:
            raise ValueError("levels must be >= 1")

    def check_size(self, n: int) -> None:
        """Raise ValueError unless n vertices can hold the levels' nested sets."""
        if n < self.levels + 1:
            raise ValueError(f"need n >= levels + 1, got n={n}, levels={self.levels}")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def generate_terminals(n: int, sel: TerminalSelection) -> tuple[tuple[int, ...], ...]:
    """Nested terminal sets S_1 >= S_2 >= ... >= S_levels, each sorted ascending.

    LINEAR starts at round(n * (1 - 1/(levels+1))) and removes
    round(n / (levels+1)) random vertices per level (never below one);
    EXPONENTIAL starts at round(n/2) and keeps ceil(half) per level.
    """
    sel.check_size(n)
    ell = sel.levels
    rng = stream(sel.seed, ROLE_TERMINALS)
    if sel.method is TerminalScheme.LINEAR:
        first = max(1, _round_half_up(n * (1.0 - 1.0 / (ell + 1))))
        drop = _round_half_up(n / (ell + 1))
    else:
        first = max(1, _round_half_up(n / 2.0))
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
