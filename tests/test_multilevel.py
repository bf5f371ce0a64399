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
from wspanner.exact import SizeCaps, exact_optimum, exact_single_level
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.multilevel import (
    MultiLevelInstance,
    multilevel_naive,
    multilevel_roundup,
    priorities,
    round_up_levels,
)
from wspanner.subsetwise import subsetwise_2w

from strategies import connected_graphs

GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)


def sub2w_solver(g, terminals, level):
    return subsetwise_2w(g, terminals)


def exact_solver(budget, caps=None):
    def solve(g, terminals, level):
        return exact_single_level(g, terminals, budget, caps)
    return solve


def instance(g, *sets, budget=GLOBAL2):
    return MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)


TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))


class TestInstanceValidation:
    def test_rejects_non_nested(self):
        with pytest.raises(ValueError, match="not contained"):
            instance(TRIANGLE, {0, 1}, {2})

    def test_rejects_empty_level(self):
        with pytest.raises(ValueError, match="empty"):
            instance(TRIANGLE, {0, 1}, set())

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            instance(TRIANGLE, {0, 5})


class TestPriorities:
    def test_highest_containing_level(self):
        g = WeightedGraph(6, tuple((i, i + 1, 1) for i in range(5)))
        inst = instance(g, {0, 1, 2, 3, 4}, {0, 1, 2, 3}, {0, 3}, {3}, {3})
        p = priorities(inst)
        assert p[0] == 3  # in S_3 but not S_4
        assert p[3] == 5
        assert p[5] == 0  # outside S_1

    def test_duplicate_levels(self):
        inst = instance(TRIANGLE, {0}, {0})
        assert priorities(inst)[0] == 2

    def test_round_up(self):
        assert round_up_levels({0: 3}, 5)[0] == 4
        assert round_up_levels({0: 1}, 5)[0] == 1
        assert round_up_levels({0: 5}, 5)[0] == 8  # 2^ceil(log2 5)
        assert round_up_levels({0: 0}, 5)[0] == 0

    def test_round_up_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            round_up_levels({0: 4}, 3)


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
        assert a.edge_rate == b.edge_rate

    def test_three_levels_use_powers_one_two_four(self):
        calls = []

        def recording_solver(g, terminals, level):
            calls.append((level, terminals))
            return sub2w_solver(g, terminals, level)

        g = generate(GeneratorSpec(Model.ER, 12, 1))
        sets = generate_terminals(g.n, TerminalSelection(TerminalScheme.LINEAR, 3, 5))
        inst = instance(g, *sets)
        multilevel_roundup(inst, recording_solver)
        levels = [lvl for lvl, _ in calls]
        assert levels == [1, 2, 4]
        # rounded priority >= 4 means original priority 3
        assert calls[2][1] == frozenset(sets[2])


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
        for edge, rate in ml.edge_rate.items():
            assert edge in ml.level_edges[rate - 1]
            if rate < ell:
                assert edge not in ml.level_edges[rate]
        assert ml.sparsity == sum(len(level) for level in ml.level_edges)
        assert ml.sparsity == sum(ml.edge_rate.values())
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
