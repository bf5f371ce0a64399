"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Hard criteria assert; the two directional criteria (5 and 6) report and warn
instead of failing, since they track trends rather than guarantees.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
import warnings
from pathlib import Path
from statistics import mean

import pytest

from wspanner.bench import ALGO_BUDGETS, ExperimentPlan, d_sweep, make_solver, rows_to_csv, run_plan
from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    terminal_pairs,
    verify_spanner,
)
from wspanner.exact import exact_optimum, exact_single_level
from wspanner.generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
)
from wspanner.multilevel import MultiLevelInstance, multilevel_roundup
from wspanner.pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, pairwise_spanner
from wspanner.seeding import pick, stream
from wspanner.subsetwise import subsetwise_2w

from helpers import solve_lp_text

GOLDEN = Path(__file__).parent / "golden"
GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)
LOCAL2 = ErrorBudget(BudgetMode.LOCAL, 2)


def make_instance(g, sets, budget):
    return MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)


def test_criterion_1_validity_suite():
    """Every algorithm, every level, every instance: zero budget violations."""
    plan = ExperimentPlan(
        models=("er", "ws", "ba", "ge"), sizes=(10, 20, 30, 40), levels=(1, 2, 3),
        tsms=("linear", "exp"), algorithms=("sub2w", "p2w", "p4w", "p8w"),
        seeds_per_cell=3, base_seed=20260810, exact=False,
    )
    start = time.perf_counter()
    rows = run_plan(plan)  # any violation aborts with ValidityError
    elapsed = time.perf_counter() - start
    instances = len(rows) // 4
    assert instances >= 200
    assert all(r.valid for r in rows)
    print(f"\n[criterion 1] PASS: {instances} instances x 4 algorithms verified "
          f"at every level, 0 violations ({elapsed:.1f}s)")


def test_criterion_2_oracle_dominance():
    """Exact optimum never exceeds any heuristic; experimental ratio >= 1."""
    start = time.perf_counter()
    checked = 0
    ratios = []

    # single level: ER n=10 capped at 20 edges
    seed = 0
    singles = 0
    while singles < 30:
        g = generate(GeneratorSpec(Model.ER, 10, seed))
        seed += 1
        if len(g.edges) > 20:
            continue
        terminals = generate_terminals(10, TerminalSelection(TerminalScheme.EXPONENTIAL, 1, seed))[0]
        pairs = terminal_pairs(terminals)
        outputs = {"sub2w": subsetwise_2w(g, terminals)}
        for algo in PairwiseAlgo:
            outputs[algo.value] = pairwise_spanner(g, pairs, PairwiseParams(algo, seed=seed))
        for name, h in outputs.items():
            budget = ALGO_BUDGETS[name]
            opt = len(exact_single_level(g, terminals, budget))
            assert opt <= len(h)
            if opt > 0:
                ratios.append(len(h) / opt)
        singles += 1
        checked += 1

    # two levels: ER n=8 capped at 14 edges
    seed = 0
    doubles = 0
    while doubles < 20:
        g = generate(GeneratorSpec(Model.ER, 8, seed))
        seed += 1
        if len(g.edges) > 14:
            continue
        sets = generate_terminals(8, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, seed))
        for algo, budget in ALGO_BUDGETS.items():
            inst = make_instance(g, sets, budget)
            ml = multilevel_roundup(inst, make_solver(algo, seed))
            opt = exact_optimum(inst).sparsity
            assert opt <= ml.sparsity
            if opt > 0:
                ratios.append(ml.sparsity / opt)
        doubles += 1
        checked += 1

    assert checked >= 50
    assert all(r >= 1.0 for r in ratios)
    print(f"\n[criterion 2] PASS: exact <= heuristic on {checked} instances "
          f"({singles} single-level, {doubles} two-level); all ratios >= 1 "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_3_roundup_within_4x_of_optimum():
    """Rounding-up with an exact subroutine stays within 4x the optimum."""
    start = time.perf_counter()

    def exact_subroutine(g, terminals, level):
        return exact_single_level(g, terminals, GLOBAL2)

    checked = 0
    seed = 0
    worst = 1.0
    while checked < 30:
        n = 7 + (seed % 2)
        g = generate(GeneratorSpec(Model.ER, n, seed))
        seed += 1
        if len(g.edges) > 14:
            continue
        sets = generate_terminals(n, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, seed))
        inst = make_instance(g, sets, GLOBAL2)
        ml = multilevel_roundup(inst, exact_subroutine)
        opt = exact_optimum(inst).sparsity
        assert opt <= ml.sparsity <= 4 * opt
        if opt:
            worst = max(worst, ml.sparsity / opt)
        checked += 1
    print(f"\n[criterion 3] PASS: roundup-with-exact within 4x of OPT on {checked} "
          f"instances (worst observed {worst:.3f}x, {time.perf_counter() - start:.1f}s)")


def test_criterion_4_triangle_golden_case():
    """Fixed triangle: exact sparsity 1 both modes; LP file golden and solvable."""
    triangle = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    for budget in (GLOBAL2, LOCAL2):
        opt = exact_optimum(make_instance(triangle, [{0, 2}], budget))
        assert opt.sparsity == 1
    from wspanner.exact import build_ilp, emit_lp

    text = emit_lp(build_ilp(make_instance(triangle, [{0, 2}], GLOBAL2)))
    golden = (GOLDEN / "triangle_global_c2.lp").read_text()
    assert text == golden
    objective = solve_lp_text(text)
    assert objective == pytest.approx(1.0)
    print("\n[criterion 4] PASS: triangle exact sparsity 1 (global and local c=2); "
          "LP byte-identical to golden; MILP objective 1")


def test_criterion_5_relative_sparsity_ordering():
    """Directional: the +6W-based algorithm should be sparsest on average and
    the +2W-based one densest (soft gate: warn, do not fail)."""
    start = time.perf_counter()
    rel = {algo: [] for algo in ALGO_BUDGETS}
    for seed in range(20):
        g = generate(GeneratorSpec(Model.ER, 100, seed))
        sets = generate_terminals(100, TerminalSelection(TerminalScheme.EXPONENTIAL, 3, seed))
        sizes = {}
        for algo, budget in ALGO_BUDGETS.items():
            inst = make_instance(g, sets, budget)
            ml = multilevel_roundup(inst, make_solver(algo, seed))
            problems = [verify_spanner(g, ml.level_edges[k], terminal_pairs(sets[k]), budget)
                        for k in range(len(sets))]
            assert all(not p for p in problems)
            sizes[algo] = ml.sparsity
        least = min(sizes.values())
        for algo, sparsity in sizes.items():
            value = sparsity / least
            assert value >= 1.0
            rel[algo].append(value)
    means = {algo: mean(values) for algo, values in rel.items()}
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{algo}={means[algo]:.3f}" for algo in ("sub2w", "p2w", "p4w", "p8w"))
    if means["p8w"] <= means["sub2w"]:
        print(f"\n[criterion 5] PASS: mean relative sparsity ordering holds ({detail}, {elapsed:.1f}s)")
    else:
        warnings.warn(f"directional ordering failed: {detail}")
        print(f"\n[criterion 5] WARN: mean(p8w) > mean(sub2w) ({detail}, {elapsed:.1f}s)")


def test_criterion_6_d_sweep():
    """Best-of-sweep is never worse than base d (hard) and strictly better on
    a majority of ER n=200 seeds (soft gate)."""
    start = time.perf_counter()
    strictly_smaller = 0
    for seed in range(20):
        g = generate(GeneratorSpec(Model.ER, 200, seed))
        rng = stream(seed, 1234)
        terminals = sorted(pick(rng, range(200), 50))
        pairs = terminal_pairs(terminals)
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, seed=seed)
        base_size = ladder[0][1]
        assert len(best) == min(size for _, size in ladder)
        assert len(best) <= base_size
        if len(best) < base_size:
            strictly_smaller += 1
    elapsed = time.perf_counter() - start
    if strictly_smaller > 10:
        print(f"\n[criterion 6] PASS: best-of-sweep <= base everywhere; strictly smaller "
              f"on {strictly_smaller}/20 seeds ({elapsed:.1f}s)")
    else:
        warnings.warn(f"d-sweep strictly smaller on only {strictly_smaller}/20 seeds")
        print(f"\n[criterion 6] WARN: strictly smaller on {strictly_smaller}/20 seeds "
              f"({elapsed:.1f}s)")


def test_criterion_7_determinism():
    """Identical seeds reproduce graphs, spanners, and result tables byte-for-byte
    (wall-time column excluded)."""
    plan = ExperimentPlan(
        models=("er", "ge"), sizes=(12, 18), levels=(1, 2), tsms=("linear", "exp"),
        algorithms=("sub2w", "p2w", "p4w", "p8w"), seeds_per_cell=2, base_seed=99,
        exact=True,
    )

    def strip_wall(text: str) -> str:
        lines = text.splitlines()
        idx = lines[0].split(",").index("wall_time_ms")
        return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != idx)
                         for line in lines)

    first = strip_wall(rows_to_csv(run_plan(plan)))
    second = strip_wall(rows_to_csv(run_plan(plan)))
    assert first == second

    spec = GeneratorSpec(Model.GE, 30, 7)
    assert generate(spec) == generate(spec)
    g = generate(spec)
    pairs = terminal_pairs(range(0, 30, 4))
    for algo in PairwiseAlgo:
        params = PairwiseParams(algo, seed=7)
        assert pairwise_spanner(g, pairs, params) == pairwise_spanner(g, pairs, params)
    assert subsetwise_2w(g, range(0, 30, 4)) == subsetwise_2w(g, range(0, 30, 4))
    print("\n[criterion 7] PASS: plan rerun byte-identical (modulo wall time); "
          "graphs and spanners reproduce exactly")


def test_criterion_8_scale_smoke():
    """p2w, p4w, p8w each finish an ER n=500 instance within 60 seconds."""
    g = generate(GeneratorSpec(Model.ER, 500, 3))
    rng = stream(3, 99)
    terminals = sorted(pick(rng, range(500), 50))
    pairs = terminal_pairs(terminals)
    timings = {}
    for algo in PairwiseAlgo:
        params = PairwiseParams(algo, seed=3)
        start = time.perf_counter()
        h = pairwise_spanner(g, pairs, params)
        took = time.perf_counter() - start
        assert verify_spanner(g, h, pairs, BUDGETS[params.algo]) == []
        assert took < 60.0
        timings[algo.value] = took
    detail = ", ".join(f"{k}={v:.2f}s" for k, v in timings.items())
    print(f"\n[criterion 8] PASS: ER n=500 (m={len(g.edges)}), all under 60s ({detail})")
