import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    terminal_pairs,
    verify_spanner,
)
from wspanner.exact import SizeCaps, exact_optimum
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.multilevel import (
    MultiLevelInstance,
    multilevel_naive,
    multilevel_roundup,
)
from wspanner.subsetwise import subsetwise_2w

from helpers import exact_single_level, highest_tag_levels, round_up_pow2, roundup_solves
from strategies import connected_graphs

GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)


def sub2w_solver(g, terminals, level, free):
    return subsetwise_2w(g, terminals)


def exact_solver(budget, caps=None):
    def solve(g, terminals, level, free):
        return exact_single_level(g, terminals, budget, caps)
    return solve


def instance(g, *sets, budget=GLOBAL2):
    return MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)


TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))


class TestInstanceValidation:
    def test_rejects_no_levels(self):
        with pytest.raises(ValueError, match="at least one terminal set"):
            instance(TRIANGLE)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError, match="not contained"):
            instance(TRIANGLE, {0, 1}, {2})

    def test_rejects_empty_level(self):
        with pytest.raises(ValueError, match="empty"):
            instance(TRIANGLE, {0, 1}, set())

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            instance(TRIANGLE, {0, 5})


class TestRoundup:
    def test_single_level_reduces_to_one_call(self):
        inst = instance(TRIANGLE, {0, 2})
        ml = multilevel_roundup(inst, sub2w_solver)
        assert ml.level_edges == (frozenset(subsetwise_2w(TRIANGLE, {0, 2})),)
        assert ml.sparsity == len(ml.level_edges[0])

    def test_equal_sets_double_the_single_level(self):
        g = generate(GeneratorSpec(Model.ER, 14, 3))
        s = frozenset(range(0, g.n, 2))
        inst = instance(g, s, s)
        ml = multilevel_roundup(inst, sub2w_solver)
        single = frozenset(subsetwise_2w(g, s))
        assert ml.level_edges == (single, single)
        assert ml.sparsity == 2 * len(single)

    def test_naive_matches_roundup_for_one_level(self):
        g = generate(GeneratorSpec(Model.WS, 12, 6))
        inst = instance(g, frozenset(range(6)))
        a = multilevel_roundup(inst, sub2w_solver)
        b = multilevel_naive(inst, sub2w_solver)
        assert a.level_edges == b.level_edges

    def test_three_levels_use_powers_one_two_four(self):
        calls = []

        def recording_solver(g, terminals, level, free):
            calls.append((level, terminals))
            return sub2w_solver(g, terminals, level, free)

        g = generate(GeneratorSpec(Model.ER, 12, 1))
        sets = generate_terminals(g.n, TerminalSelection(TerminalScheme.LINEAR, 3, 5))
        inst = instance(g, *sets)
        multilevel_roundup(inst, recording_solver)
        levels = [lvl for lvl, _ in calls]
        assert levels == [4, 2, 1]
        # rounded priority >= 4 means original priority 3
        assert calls[0][1] == frozenset(sets[2])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_roundup_solves_match_paper_definition(data):
    """The (tag, terminals) calls, highest tag first, and the level sets of
    multilevel_roundup against the priority / round-up definition, on random
    nested sets."""
    n = data.draw(st.integers(1, 9))
    ell = data.draw(st.integers(1, 5))
    order = data.draw(st.permutations(range(n)))
    sizes = sorted(data.draw(st.lists(st.integers(1, n), min_size=ell, max_size=ell)),
                   reverse=True)
    sets = [frozenset(order[:size]) for size in sizes]
    calls = []

    def recording_solver(g, terminals, tag, free):
        calls.append((tag, terminals))
        # stand-in edges shared across tags, so each must keep its highest tag
        return {(0, v) for v in terminals}

    path = WeightedGraph(n, tuple((v, v + 1, 1) for v in range(n - 1)))
    ml = multilevel_roundup(instance(path, *sets), recording_solver)
    expected = [(tag, s) for tag, s in roundup_solves(sets) if len(s) >= 2]
    assert calls == expected[::-1]
    for k, edges in enumerate(ml.level_edges, start=1):
        assert edges == {(0, v) for tag, s in expected if tag >= round_up_pow2(k) for v in s}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_union_assembly_matches_highest_tag_oracle(data):
    """Level k as the union of the solves tagged at least k equals the
    per-edge highest-tag assembly, for random overlapping edge sets per tag
    at 1-5 levels under both strategies, and the levels are nested."""
    n = data.draw(st.integers(2, 8))
    ell = data.draw(st.integers(1, 5))
    order = data.draw(st.permutations(range(n)))
    sizes = sorted(data.draw(st.lists(st.integers(1, n), min_size=ell, max_size=ell)),
                   reverse=True)
    sets = [frozenset(order[:size]) for size in sizes]
    universe = list(combinations(range(n), 2))
    path = WeightedGraph(n, tuple((v, v + 1, 1) for v in range(n - 1)))
    for strategy in (multilevel_roundup, multilevel_naive):
        solved = []

        def stub_solver(g, terminals, tag, free):
            edges = data.draw(st.sets(st.sampled_from(universe)))
            solved.append((tag, edges))
            return set(edges)

        ml = strategy(instance(path, *sets), stub_solver)
        assert ml.level_edges == highest_tag_levels(ell, solved)
        for k in range(1, ell):
            assert ml.level_edges[k] <= ml.level_edges[k - 1]


@pytest.mark.parametrize("strategy", [multilevel_roundup, multilevel_naive])
def test_tags_solve_highest_first_each_with_the_higher_outputs_free(strategy):
    """Each solve, highest tag first, gets exactly the union of the edge sets
    the higher tags returned; a solver that ignores them still gets the
    levels as unions."""
    calls = []
    rng = random.Random(5)
    universe = list(combinations(range(8), 2))

    def recording_solver(g, terminals, tag, free):
        edges = set(rng.sample(universe, 6))
        calls.append((tag, frozenset(free), edges))
        return edges

    path = WeightedGraph(8, tuple((v, v + 1, 1) for v in range(7)))
    sets = [range(8), range(7), range(5), range(4), range(2)]
    ml = strategy(instance(path, *sets), recording_solver)
    tags = [tag for tag, _, _ in calls]
    assert tags == sorted(tags, reverse=True) and len(tags) == len(set(tags)) >= 3
    for i, (_, free, _) in enumerate(calls):
        assert free == frozenset().union(*(edges for _, _, edges in calls[:i]))
    assert ml.level_edges == highest_tag_levels(len(sets), [(t, e) for t, _, e in calls])


class TestNaive:
    def test_identical_sets_repeat_the_spanner(self):
        g = generate(GeneratorSpec(Model.ER, 12, 2))
        s = frozenset(range(0, g.n, 3))
        inst = instance(g, s, s, s)
        ml = multilevel_naive(inst, sub2w_solver)
        single = frozenset(subsetwise_2w(g, s))
        assert ml.level_edges == (single, single, single)
        assert ml.sparsity == 3 * len(single)

    def test_singleton_levels_contribute_nothing(self):
        inst = instance(TRIANGLE, {0, 2}, {0})
        ml = multilevel_naive(inst, sub2w_solver)
        assert ml.level_edges[1] == frozenset()


@given(connected_graphs(min_n=3, max_n=7), st.data())
@settings(max_examples=40, deadline=None)
def test_outputs_nested_and_valid_per_level(g, data):
    ell = data.draw(st.integers(1, 3))
    vertices = list(range(g.n))
    sets = []
    current = set(data.draw(st.permutations(vertices))[: max(2, g.n - 1)])
    for _ in range(ell):
        sets.append(frozenset(current))
        if len(current) > 1:
            current = set(list(sorted(current))[: max(1, len(current) // 2)])
    inst = MultiLevelInstance(g, tuple(sets), GLOBAL2)
    for strategy in (multilevel_roundup, multilevel_naive):
        ml = strategy(inst, sub2w_solver)
        assert len(ml.level_edges) == ell
        for k in range(1, ell):
            assert ml.level_edges[k] <= ml.level_edges[k - 1]
        for k, terminals in enumerate(sets, start=1):
            assert verify_spanner(g, ml.level_edges[k - 1], terminal_pairs(terminals),
                                  GLOBAL2) == []
        assert ml.sparsity == sum(len(level) for level in ml.level_edges)
        # level 1 must connect S_1, so it needs at least |S_1| - 1 edges
        assert len(ml.level_edges[0]) >= len(sets[0]) - 1


def test_roundup_with_exact_subroutine_within_4x_of_optimum():
    checked = 0
    for seed in range(12):
        g = generate(GeneratorSpec(Model.ER, 8, seed))
        if len(g.edges) > 14:
            continue
        sets = generate_terminals(g.n, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, seed))
        inst = instance(g, *sets)
        ml = multilevel_roundup(inst, exact_solver(GLOBAL2))
        opt = exact_optimum(inst).sparsity
        assert opt <= ml.sparsity <= 4 * opt
        checked += 1
    assert checked >= 3


def test_heuristics_dominate_optimum_three_levels():
    # brute-force oracle needs a wider work budget for (l+1)^m at l = 3
    caps = SizeCaps(max_edges_single=20, max_edges_multi=14, max_work=4 ** 15)
    checked = 0
    for seed in range(20):
        g = generate(GeneratorSpec(Model.ER, 8, seed))
        if len(g.edges) > 14:
            continue
        sets = generate_terminals(g.n, TerminalSelection(TerminalScheme.EXPONENTIAL, 3, seed))
        inst = instance(g, *sets)
        opt = exact_optimum(inst, caps).sparsity
        for strategy in (multilevel_roundup, multilevel_naive):
            ml = strategy(inst, sub2w_solver)
            assert ml.sparsity >= opt
        checked += 1
    assert checked >= 3
