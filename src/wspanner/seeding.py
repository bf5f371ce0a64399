"""Deterministic stream splitting for all randomized components.

Every random choice in the library flows through a ``random.Random`` keyed by
(base seed, role tag, ...extra tags); role tags keep topology, weights,
terminal selection, and per-pass sampling on independent streams.  Callers
draw only ``random()``, whose sequence for an integer seed Python promises to
keep across releases; ``randrange``, ``sample``, ``choice`` and ``shuffle``
are not covered by that promise, so ``pick`` stands in for them.
"""

from __future__ import annotations

import hashlib
import operator
import random

ROLE_TOPOLOGY = 1
ROLE_WEIGHTS = 2
ROLE_TERMINALS = 3
ROLE_PAIRWISE = 4
ROLE_PLAN = 5
ROLE_LEVEL = 6


def derive_seed(seed: int, *tags: int) -> int:
    """Stable 64-bit sub-seed for (seed, tags): the first 8 bytes of a SHA-256
    over their decimal text."""
    text = " ".join(str(operator.index(part)) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stream(seed: int, *tags: int) -> random.Random:
    """Generator for (seed, tags); same inputs give the same stream."""
    return random.Random(derive_seed(seed, *tags))


def pick(rng: random.Random, items, k: int) -> list:
    """k distinct items, in draw order, by a partial Fisher-Yates shuffle
    driven by random()."""
    pool = list(items)
    for i in range(k):
        j = i + int(rng.random() * (len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
