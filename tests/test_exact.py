import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import core, exact
from wspanner.bench import ALGO_BUDGETS
from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    edge_key,
    terminal_pairs,
    verify_spanner,
)
from wspanner.exact import (
    SizeCapExceeded,
    SizeCaps,
    _minimal_path_masks,
    build_ilp,
    emit_lp,
    exact_optimum,
)
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.multilevel import MultiLevelInstance
from wspanner.pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, pairwise_spanner
from wspanner.subsetwise import subsetwise_2w

from helpers import (
    brute_force_distance,
    brute_multilevel_opt,
    exact_single_level,
    minimal_path_masks,
    solve_lp_text,
)
from strategies import connected_graphs, graphs_with_terminals

GOLDEN = Path(__file__).parent / "golden"
TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
K2 = WeightedGraph(2, ((0, 1, 4),))
ISOLATED = WeightedGraph(4, ((0, 1, 1), (1, 2, 2), (0, 2, 4)))  # vertex 3 has no edge
GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)
LOCAL2 = ErrorBudget(BudgetMode.LOCAL, 2)


def inst(g, *sets, budget=GLOBAL2):
    return MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)


def pair_limits(g, terminals, budget):
    return {(u, v): g.paths.dist(u, v) + budget.allowance(g, u, v)
            for u, v in terminal_pairs(terminals)}


def row_parts(row):
    """(name, sense, rhs) of an LP constraint row."""
    name, *_, sense, rhs = row.split()
    return name.removesuffix(":"), sense, int(rhs)


# Byte-exact LP files, each recorded from an earlier version of the writer.
GOLDEN_LPS = {
    "k2_global_c2": inst(K2, {0, 1}),
    "triangle_global_c2": inst(TRIANGLE, {0, 2}),
    "triangle_two_level_local_c2": inst(TRIANGLE, {0, 1, 2}, {0, 2}, budget=LOCAL2),
    "isolated_vertex_global_c2": inst(ISOLATED, {0, 2}),
}


class TestBuildIlp:
    def test_k2_variable_counts(self):
        objective, _, binaries = build_ilp(inst(K2, {0, 1}))
        assert objective == ["xe_0_1"]
        arc_vars = [v for v in binaries if v.startswith("f_")]
        assert len(arc_vars) == 2

    @pytest.mark.parametrize("name", GOLDEN_LPS)
    def test_golden_byte_exact(self, name):
        text = emit_lp(build_ilp(GOLDEN_LPS[name]))
        assert text == (GOLDEN / f"{name}.lp").read_text()

    def test_emit_is_deterministic(self):
        a = emit_lp(build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2})))
        b = emit_lp(build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2})))
        assert a == b

    def test_multilevel_adds_nesting_rows(self):
        _, constraints, _ = build_ilp(inst(TRIANGLE, {0, 1, 2}, {0, 2}))
        nest = [row_parts(row) for row in constraints if row.startswith("nest_")]
        assert len(nest) == len(TRIANGLE.edges)
        assert all(sense == "<=" and rhs == 0 for _, sense, rhs in nest)

    def test_local_mode_tightens_rhs(self):
        _, glob, _ = build_ilp(inst(TRIANGLE, {0, 2}))
        _, loc, _ = build_ilp(inst(TRIANGLE, {0, 2}, budget=LOCAL2))
        len_glob = next(row_parts(row) for row in glob if row.startswith("len_"))
        len_loc = next(row_parts(row) for row in loc if row.startswith("len_"))
        assert len_glob == ("len_p0_2", "<=", 2 + 2 * 3)  # c * W_max
        assert len_loc == ("len_p0_2", "<=", 2 + 2 * 1)  # c * W(0, 2)

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
        assert opt.level_edges == (frozenset({(0, 2), (1, 2)}), frozenset({(0, 2)}))

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
        message = rf"^{len(g.edges)} edges exceeds the cap of 20 for 1 level\(s\)$"
        with pytest.raises(SizeCapExceeded, match=message):
            exact_optimum(inst(g, set(range(5))))

    def test_work_budget_refusal(self):
        g = generate(GeneratorSpec(Model.ER, 8, 2))  # 13 edges
        caps = SizeCaps(max_work=100)
        with pytest.raises(SizeCapExceeded):
            exact_optimum(inst(g, {0, 1}, {0, 1}), caps=caps)

    def test_empty_pair_set_gives_empty_spanner(self):
        opt = exact_optimum(inst(TRIANGLE, {0}))
        assert opt.sparsity == 0
        assert opt.level_edges == (frozenset(),)

    def test_budgets_on_one_graph_walk_again_only_to_widen(self):
        # For the pair (0, 2), dist 2 and W 1 on the path 0-1-2: local c=0,
        # local c=1 and global c=2 give limits 2, 3 and 8, so the direct
        # edge of weight 3 is out, on the limit, and inside it.  The second
        # solve walks again; the last two filter its walk.
        g = WeightedGraph(3, TRIANGLE.edges)
        for budget, sparsity in ((ErrorBudget(BudgetMode.LOCAL, 0), 2), (GLOBAL2, 1),
                                 (ErrorBudget(BudgetMode.LOCAL, 1), 1),
                                 (ErrorBudget(BudgetMode.LOCAL, 0), 2)):
            assert exact_optimum(inst(g, {0, 2}, budget=budget)).sparsity == sparsity

    def test_kept_walks_are_freed_with_the_graph(self):
        g = WeightedGraph(3, TRIANGLE.edges)
        exact_optimum(inst(g, {0, 2}))
        table = weakref.ref(g.paths)
        walks, answers = exact._KEPT[table()]
        assert walks and answers
        del g, walks, answers
        assert table() is None

    @pytest.mark.parametrize("budget", [GLOBAL2, LOCAL2])
    def test_reads_only_the_rows_of_smaller_pair_ends(self, budget, monkeypatch):
        # Each pair's distance, allowance and walk all come from the row of
        # its smaller end; vertex 9 is the larger end of every pair it is in.
        g = WeightedGraph(10, tuple((i, i + 1, 1 + i % 3) for i in range(9)) + ((0, 9, 2), (2, 7, 1)))
        sources = []
        real = core.shortest_path_row

        def counting(adj, n, source):
            sources.append(source)
            return real(adj, n, source)

        monkeypatch.setattr(core, "shortest_path_row", counting)
        terminals = {0, 4, 9}
        exact_optimum(inst(g, terminals, budget=budget))
        assert sources and set(sources) <= {u for u, _ in terminal_pairs(terminals)}


class TestKeptAnswers:
    """Each solve keeps its answer on the graph; a later solve of the same
    terminal sets is served that answer when its budget is no wider at any
    pair and the answer meets it at every level, and searches otherwise."""

    def test_fitting_wider_answer_is_returned_as_the_same_object(self):
        # global c=2 keeps the direct edge (0, 2) of weight 3, which local
        # c=1's limit of 2 + 1 still holds
        g = WeightedGraph(3, TRIANGLE.edges)
        wider = exact_optimum(inst(g, {0, 2}))
        assert exact_optimum(inst(g, {0, 2}, budget=ErrorBudget(BudgetMode.LOCAL, 1))) is wider

    def test_wider_answer_missing_the_narrower_budget_leads_to_a_search(self):
        # local c=0 allows only the shortest path 0-1-2, not the kept edge (0, 2)
        g = WeightedGraph(3, TRIANGLE.edges)
        assert exact_optimum(inst(g, {0, 2})).level_edges == (frozenset({(0, 2)}),)
        narrower = exact_optimum(inst(g, {0, 2}, budget=ErrorBudget(BudgetMode.LOCAL, 0)))
        assert narrower.level_edges == (frozenset({(0, 1), (1, 2)}),)

    def test_narrower_answer_never_serves_a_wider_budget(self):
        # the local c=0 answer 0-1-2 meets global c=2 too, but is not its optimum
        g = WeightedGraph(3, TRIANGLE.edges)
        exact_optimum(inst(g, {0, 2}, budget=ErrorBudget(BudgetMode.LOCAL, 0)))
        assert exact_optimum(inst(g, {0, 2})).level_edges == (frozenset({(0, 2)}),)

    @pytest.mark.parametrize("first,second", [({0, 1, 2}, {0, 2}), ({0, 2}, {0, 1, 2})])
    def test_instances_of_other_terminal_sets_never_serve_each_other(self, first, second):
        # the answer for {0, 1, 2} holds a path for (0, 2) within budget, but
        # {0, 2} alone needs one edge
        g = WeightedGraph(3, TRIANGLE.edges)
        exact_optimum(inst(g, first))
        assert (exact_optimum(inst(g, second)).level_edges
                == exact_optimum(inst(WeightedGraph(3, TRIANGLE.edges), second)).level_edges)

    def test_two_level_answer_fitting_level_1_only_leads_to_a_search(self):
        # Local c=2 forces (0, 1) and (1, 2) into level 1 and keeps the edge
        # (0, 2) for level 2 on the rate-vector tie-break.  Under local c=0
        # that level 1 still holds every pair's shortest path, but level 2's
        # edge (0, 2), of weight 3, is over the pair's limit of 2.
        g = WeightedGraph(3, TRIANGLE.edges)
        sets = ({0, 1, 2}, {0, 2})
        wider = exact_optimum(inst(g, *sets, budget=ErrorBudget(BudgetMode.LOCAL, 2)))
        assert wider.level_edges == (frozenset(TRIANGLE.weight_map), frozenset({(0, 2)}))
        narrower = exact_optimum(inst(g, *sets, budget=ErrorBudget(BudgetMode.LOCAL, 0)))
        assert narrower.level_edges == (frozenset({(0, 1), (1, 2)}),) * 2

    def test_a_solve_leaves_nothing_for_the_collector(self):
        # the walk and the search are recursive closures; each call drops its
        # own, so reference counting frees every object the call made
        instance = inst(generate(GeneratorSpec(Model.ER, 8, 2)), {0, 1, 2, 5}, {0, 5})
        gc.collect()
        gc.disable()
        try:
            exact_optimum(instance)
            assert gc.collect() == 0
        finally:
            gc.enable()


BUDGET_ORDERS = {
    "widest first": ("p8w", "p4w", "sub2w", "p2w"),
    "narrowest first": ("p2w", "sub2w", "p4w", "p8w"),
    "mixed": ("p2w", "p8w", "sub2w", "p4w"),
}


@given(model=st.sampled_from(list(Model)), n=st.integers(8, 12), levels=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kept_answers_match_fresh_solves_in_any_budget_order(model, n, levels, seed):
    # Oracle: each of the four budgets solved on an equal but distinct graph,
    # which holds no kept walk or answer.  On one shared graph, in each
    # order, every solve gives the same level sets (or the same refusal).
    g = generate(GeneratorSpec(model, n, seed))
    sets = generate_terminals(n, TerminalSelection(TerminalScheme.EXPONENTIAL, levels, seed))

    def solve(graph, algo):
        try:
            return exact_optimum(inst(graph, *sets, budget=ALGO_BUDGETS[algo])).level_edges
        except SizeCapExceeded:
            return None

    fresh = {algo: solve(WeightedGraph(g.n, g.edges), algo) for algo in ALGO_BUDGETS}
    for order in BUDGET_ORDERS.values():
        shared = WeightedGraph(g.n, g.edges)
        assert {algo: solve(shared, algo) for algo in order} == fresh


@pytest.mark.parametrize("mode", list(BudgetMode))
@given(g=connected_graphs(min_n=2, max_n=7, max_w=4), c=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_path_masks_match_filtered_enumeration(mode, g, c):
    # Every simple path's mask within the budget is already inclusion-minimal,
    # and the goal-directed walk loses none of them.
    budget = ErrorBudget(mode, c)
    eindex = {edge_key(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    incidence = [[(y, w, 1 << eindex[edge_key(x, y)]) for y, w in g.adj[x]] for x in range(g.n)]
    for u, v in terminal_pairs(range(g.n)):
        limit = brute_force_distance(g, u, v) + budget.allowance(g, u, v)
        to_v = [brute_force_distance(g, y, v) for y in range(g.n)]
        found = _minimal_path_masks(incidence, u, v, limit, to_v)
        assert [mask for _, mask, _, _ in found] == minimal_path_masks(g, u, v, limit, eindex)
        for count, mask, verts, weight in found:
            ends = {x for a, b, _ in g.edges if mask >> eindex[a, b] & 1 for x in (a, b)}
            assert count == len(ends) - 1 and verts == sum(1 << x for x in ends)
            assert weight == sum(w for a, b, w in g.edges if mask >> eindex[a, b] & 1)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_solves_sharing_a_graph_match_solves_on_a_fresh_graph(data):
    # The solves of one graph share each pair's walk: a narrower budget
    # filters a wider walk, and a wider budget walks again.  In any order,
    # each of the four advertised budgets gives what it gives on a fresh
    # equal graph, which walks at that budget alone.
    levels = data.draw(st.integers(1, 3))
    g, terminals = data.draw(graphs_with_terminals(max_n=6, max_w=3))
    if len(g.edges) > (10, 8, 6)[levels - 1]:
        return
    sets = [terminals]
    for _ in range(levels - 1):
        keep = data.draw(st.integers(1, len(sets[-1])))
        sets.append(tuple(sorted(data.draw(st.permutations(sets[-1]))[:keep])))
    for budget in data.draw(st.permutations(list(ALGO_BUDGETS.values()))):
        fresh = WeightedGraph(g.n, g.edges)
        assert (exact_optimum(inst(g, *sets, budget=budget)).level_edges
                == exact_optimum(inst(fresh, *sets, budget=budget)).level_edges)


def _matches_plain_enumeration(data, levels, max_n, max_edges):
    """exact_optimum against brute_multilevel_opt on a drawn graph, budget
    mode and nested terminal levels: the same sparsity and, as the tie-break
    promises, the level sets of the lexicographically smallest optimal rate
    vector, whatever order the search takes the pairs in.
    brute_multilevel_opt tries all (levels+1)**m rate vectors, so callers
    lower max_edges as levels rise."""
    g, terminals = data.draw(graphs_with_terminals(max_n=max_n, max_w=3))
    if len(g.edges) > max_edges:
        return
    sets = [terminals]
    for _ in range(levels - 1):
        keep = data.draw(st.integers(1, len(sets[-1])))
        sets.append(tuple(sorted(data.draw(st.permutations(sets[-1]))[:keep])))
    budget = ErrorBudget(data.draw(st.sampled_from(list(BudgetMode))), 2)
    opt = exact_optimum(inst(g, *sets, budget=budget))
    limits = [pair_limits(g, level, budget) for level in sets]
    sparsity, rates = brute_multilevel_opt(g, limits)
    assert opt.sparsity == sparsity
    assert opt.level_edges == tuple(
        frozenset((u, v) for (u, v, _), r in zip(g.edges, rates) if r >= k)
        for k in range(1, levels + 1))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_matches_plain_enumeration_single_level(data):
    _matches_plain_enumeration(data, levels=1, max_n=6, max_edges=10)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_matches_plain_enumeration_two_levels(data):
    _matches_plain_enumeration(data, levels=2, max_n=5, max_edges=8)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_matches_plain_enumeration_three_levels(data):
    _matches_plain_enumeration(data, levels=3, max_n=5, max_edges=6)


@given(graphs_with_terminals(max_n=6, max_w=3))
@settings(max_examples=25, deadline=None)
def test_oracle_dominates_heuristics(gt):
    g, terminals = gt
    if len(g.edges) > 12:
        return
    pairs = terminal_pairs(terminals)
    sub = subsetwise_2w(g, terminals)
    assert exact_single_level(g, terminals, GLOBAL2) <= g.weight_map.keys()
    assert len(exact_single_level(g, terminals, GLOBAL2)) <= len(sub)
    for algo in PairwiseAlgo:
        params = PairwiseParams(algo, seed=11)
        h = pairwise_spanner(g, pairs, params)
        budget = BUDGETS[params.algo]
        opt = exact_single_level(g, terminals, budget)
        assert len(opt) <= len(h)
