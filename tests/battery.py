"""A seeded battery of library runs that prints one sha256 of their outputs.

Run from the root of a checkout, on any supported Python, with no pytest or
hypothesis installed:

    python tests/battery.py

It reads the library from this checkout's ``src/``.  The runs: 32 seeded
graphs (ER, GE, BA and WS in turn, n=60, 3 exponential terminal levels);
every algorithm (sub2w, p2w, p4w, p8w) under both multi-level strategies,
the pairwise ones with and without the d-sweep; the validity check of an
empty subgraph on every level; and one exact solve.  Every graph, edge set
and violation list goes into the digest, so equal digests on two
interpreters or two revisions mean byte-identical outputs.
``tests/test_golden.py`` pins the digest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wspanner.bench import ALGO_BUDGETS, STRATEGIES, make_solver, run_strategy  # noqa: E402
from wspanner.core import terminal_pairs, verify_spanner  # noqa: E402
from wspanner.exact import exact_optimum  # noqa: E402
from wspanner.generate import (  # noqa: E402
    GeneratorSpec,
    TerminalSelection,
    generate,
    generate_terminals,
)
from wspanner.multilevel import MultiLevelInstance  # noqa: E402

MODELS = ("er", "ge", "ba", "ws")
GRAPHS, N, LEVELS = 32, 60, 3


def runs():
    """(label, output) for every run of the battery, in a fixed order."""
    for i in range(GRAPHS):
        model, seed = MODELS[i % len(MODELS)], 100 + i
        g = generate(GeneratorSpec(model, N, seed))
        sets = generate_terminals(N, TerminalSelection("exp", LEVELS, seed))
        yield f"graph {model} {seed}", g.edges
        for algo, budget in ALGO_BUDGETS.items():
            inst = MultiLevelInstance(g, sets, budget)
            yield f"empty H {algo}", [verify_spanner(g, set(), terminal_pairs(s), budget)
                                      for s in inst.terminal_sets]
            for strategy in STRATEGIES:
                for sweep in (False, True) if algo != "sub2w" else (False,):
                    spanner = run_strategy(strategy, inst, make_solver(algo, seed, sweep=sweep))
                    yield (f"{algo} {strategy} sweep={sweep}",
                           [sorted(level) for level in spanner.level_edges])
    g = generate(GeneratorSpec("er", 7, 5))
    sets = generate_terminals(7, TerminalSelection("exp", 2, 5))
    spanner = exact_optimum(MultiLevelInstance(g, sets, ALGO_BUDGETS["sub2w"]))
    yield "exact", [sorted(level) for level in spanner.level_edges]


def digest() -> str:
    h = hashlib.sha256()
    for label, output in runs():
        h.update(f"{label}: {output!r}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
