from pathlib import Path

import pytest
from hypothesis import given, settings

from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    terminal_pairs,
    verify_spanner,
)
from wspanner.exact import (
    SizeCapExceeded,
    SizeCaps,
    build_ilp,
    emit_lp,
    exact_optimum,
    exact_single_level,
)
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.multilevel import MultiLevelInstance
from wspanner.pairwise import PairwiseAlgo, PairwiseParams, advertised_budget, pairwise_spanner
from wspanner.subsetwise import subsetwise_2w

from helpers import brute_min_spanner_size, brute_multilevel_opt, solve_lp_text
from strategies import graphs_with_terminals

GOLDEN = Path(__file__).parent / "golden"
TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
K2 = WeightedGraph(2, ((0, 1, 4),))
GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)
LOCAL2 = ErrorBudget(BudgetMode.LOCAL, 2)


def inst(g, *sets, budget=GLOBAL2):
    return MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)


def pair_limits(g, terminals, budget):
    return {(u, v): g.paths.dist(u, v) + budget.allowance(g, u, v)
            for u, v in terminal_pairs(terminals)}


class TestBuildIlp:
    def test_k2_variable_counts(self):
        model = build_ilp(inst(K2, {0, 1}))
        assert model.objective == ("xe_0_1",)
        arc_vars = [v for v in model.binaries if v.startswith("f_")]
        assert len(arc_vars) == 2

    def test_k2_golden_byte_exact(self):
        text = emit_lp(build_ilp(inst(K2, {0, 1})))
        assert text == (GOLDEN / "k2_global_c2.lp").read_text()

    def test_triangle_golden_byte_exact(self):
        text = emit_lp(build_ilp(inst(TRIANGLE, {0, 2})))
        assert text == (GOLDEN / "triangle_global_c2.lp").read_text()

    def test_emit_is_deterministic(self):
        a = emit_lp(build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2})))
        b = emit_lp(build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2})))
        assert a == b

    def test_multilevel_adds_nesting_rows(self):
        model = build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2}))
        nest = [c for c in model.constraints if c.name.startswith("nest_")]
        assert len(nest) == len(TRIANGLE.edges)
        assert all(c.sense == "<=" and c.rhs == 0 for c in nest)

    def test_local_mode_tightens_rhs(self):
        glob = build_ilp(inst(TRIANGLE, {0, 2}))
        loc = build_ilp(inst(TRIANGLE, {0, 2}, budget=LOCAL2))
        rhs_glob = next(c.rhs for c in glob.constraints if c.name.startswith("len_"))
        rhs_loc = next(c.rhs for c in loc.constraints if c.name.startswith("len_"))
        assert rhs_glob == 2 + 2 * 3  # c * W_max
        assert rhs_loc == 2 + 2 * 1  # c * W(0, 2)

    def test_disconnected_pair_raises(self):
        g = WeightedGraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ValueError):
            build_ilp(inst(g, {0, 3}))


class TestMilpAgreement:
    def test_k2_solves_to_one(self):
        text = (GOLDEN / "k2_global_c2.lp").read_text()
        assert solve_lp_text(text) == pytest.approx(1.0)

    def test_triangle_solves_to_one(self):
        text = (GOLDEN / "triangle_global_c2.lp").read_text()
        assert solve_lp_text(text) == pytest.approx(1.0)

    @pytest.mark.parametrize("budget", [GLOBAL2, LOCAL2, ErrorBudget(BudgetMode.GLOBAL, 6)])
    def test_milp_matches_brute_force_single_level(self, budget):
        for seed in (0, 3, 5):
            g = generate(GeneratorSpec(Model.ER, 8, seed))
            if len(g.edges) > 16:
                continue
            terminals = generate_terminals(8, TerminalSelection(TerminalScheme.EXPONENTIAL, 1, seed))[0]
            instance = inst(g, terminals, budget=budget)
            lp_value = solve_lp_text(emit_lp(build_ilp(instance)))
            assert lp_value == pytest.approx(exact_optimum(instance).sparsity)

    def test_milp_matches_brute_force_two_levels(self):
        for seed in (2, 6):
            g = generate(GeneratorSpec(Model.ER, 7, seed))
            if len(g.edges) > 14:
                continue
            sets = generate_terminals(7, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, seed))
            instance = inst(g, *sets)
            lp_value = solve_lp_text(emit_lp(build_ilp(instance)))
            assert lp_value == pytest.approx(exact_optimum(instance).sparsity)


class TestExactOptimum:
    def test_k2(self):
        opt = exact_optimum(inst(K2, {0, 1}))
        assert opt.sparsity == 1
        assert opt.level_edges == (frozenset({(0, 1)}),)

    def test_triangle_global(self):
        opt = exact_optimum(inst(TRIANGLE, {0, 2}))
        assert opt.sparsity == 1
        assert opt.level_edges[0] == frozenset({(0, 2)})

    def test_triangle_local(self):
        # limit = 2 + 2*W(0,2) = 4; the weight-3 edge alone still fits
        opt = exact_optimum(inst(TRIANGLE, {0, 2}, budget=LOCAL2))
        assert opt.sparsity == 1

    def test_triangle_two_levels(self):
        opt = exact_optimum(inst(TRIANGLE, {0, 1, 2}, {0, 2}))
        assert opt.sparsity == 3
        # lexicographically smallest rate vector over edges (0,1),(0,2),(1,2)
        assert opt.edge_rate == {(0, 2): 2, (1, 2): 1}
        assert opt.level_edges[1] <= opt.level_edges[0]

    def test_levels_are_valid_nested_spanners(self):
        g = generate(GeneratorSpec(Model.ER, 7, 4))
        sets = generate_terminals(7, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, 4))
        instance = inst(g, *sets)
        opt = exact_optimum(instance)
        assert opt.level_edges[1] <= opt.level_edges[0]
        for k, terminals in enumerate(sets, start=1):
            assert verify_spanner(g, opt.level_edges[k - 1], terminal_pairs(terminals),
                                  GLOBAL2) == []
        assert len(opt.level_edges[0]) >= len(sets[0]) - 1

    def test_cap_refusal_reports_size(self):
        g = generate(GeneratorSpec(Model.ER, 14, 0))
        assert len(g.edges) > 20
        with pytest.raises(SizeCapExceeded) as err:
            exact_optimum(inst(g, set(range(5))))
        assert err.value.edges == len(g.edges)

    def test_work_budget_refusal(self):
        g = generate(GeneratorSpec(Model.ER, 8, 2))  # 13 edges
        caps = SizeCaps(max_work=100)
        with pytest.raises(SizeCapExceeded):
            exact_optimum(inst(g, {0, 1}, {0, 1}), caps=caps)

    def test_empty_pair_set_gives_empty_spanner(self):
        opt = exact_optimum(inst(TRIANGLE, {0}))
        assert opt.sparsity == 0
        assert opt.level_edges == (frozenset(),)


@given(graphs_with_terminals(max_n=6, max_w=3))
@settings(max_examples=30, deadline=None)
def test_matches_plain_enumeration_single_level(gt):
    g, terminals = gt
    if len(g.edges) > 10:
        return
    opt = exact_optimum(inst(g, terminals))
    assert opt.sparsity == brute_min_spanner_size(g, pair_limits(g, terminals, GLOBAL2))


@given(graphs_with_terminals(max_n=5, max_w=3))
@settings(max_examples=20, deadline=None)
def test_matches_plain_enumeration_two_levels(gt):
    g, terminals = gt
    if len(g.edges) > 8:
        return
    inner = tuple(sorted(terminals)[: max(1, len(terminals) // 2)])
    opt = exact_optimum(inst(g, terminals, inner))
    limits = [pair_limits(g, terminals, GLOBAL2), pair_limits(g, inner, GLOBAL2)]
    assert opt.sparsity == brute_multilevel_opt(g, limits)


@given(graphs_with_terminals(max_n=6, max_w=3))
@settings(max_examples=25, deadline=None)
def test_oracle_dominates_heuristics(gt):
    g, terminals = gt
    if len(g.edges) > 12:
        return
    pairs = terminal_pairs(terminals)
    sub = subsetwise_2w(g, terminals)
    assert exact_single_level(g, terminals, GLOBAL2) <= g.edge_set
    assert len(exact_single_level(g, terminals, GLOBAL2)) <= len(sub)
    for algo in PairwiseAlgo:
        params = PairwiseParams(algo, seed=11)
        h = pairwise_spanner(g, pairs, params)
        budget = advertised_budget(params)
        opt = exact_single_level(g, terminals, budget)
        assert len(opt) <= len(h)
