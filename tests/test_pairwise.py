import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import core, pairwise
from wspanner.core import (
    BudgetMode,
    WeightedGraph,
    build_path_table,
    edge_key,
    terminal_pairs,
    verify_spanner,
)
from wspanner.generate import GeneratorSpec, Model, generate
from wspanner.pairwise import (
    PairwiseAlgo,
    PairwiseParams,
    advertised_budget,
    d_light_init,
    default_d,
    default_ell,
    limited_missing_path,
    pairwise_spanner,
    pairwise_spanner_run,
    shortest_path_tree,
)

from helpers import path_weight, simple_paths
from strategies import graphs_with_pairs

TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))

# (d exponent, ell exponent) of each construction, as (numerator, denominator):
# d = |P|**(1/3), ell = n / |P|**(2/3) for p2w, and likewise below.
DEFAULT_EXPONENTS = {
    PairwiseAlgo.P2W: ((1, 3), (2, 3)),
    PairwiseAlgo.P4W: ((2, 7), (5, 7)),
    PairwiseAlgo.P8W: ((1, 4), (3, 4)),
}
TRIANGLE_123 = WeightedGraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
ALL_ALGOS = list(PairwiseAlgo)


class TestDefaults:
    def test_d_exact_on_perfect_powers(self):
        assert default_d(PairwiseAlgo.P2W, 8) == 2       # 8^(1/3)
        assert default_d(PairwiseAlgo.P2W, 9) == 3       # ceil(9^(1/3))
        assert default_d(PairwiseAlgo.P2W, 27) == 3
        assert default_d(PairwiseAlgo.P8W, 16) == 2      # 16^(1/4)
        assert default_d(PairwiseAlgo.P8W, 17) == 3
        assert default_d(PairwiseAlgo.P4W, 128) == 4     # 128^(2/7) = 4
        assert default_d(PairwiseAlgo.P4W, 129) == 5

    def test_ell_exact(self):
        assert default_ell(PairwiseAlgo.P2W, 3, 1) == 3          # n / 1
        assert default_ell(PairwiseAlgo.P2W, 100, 8) == 25       # 100 / 8^(2/3)
        assert default_ell(PairwiseAlgo.P2W, 100, 1000) == 1     # 100/100
        assert default_ell(PairwiseAlgo.P8W, 10, 10000) == 1     # clamped to 1

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_defaults_match_integer_search(self, algo):
        # d = ceil(|P|**a) and ell = max(1, ceil(n / |P|**b)), by counting up
        # from 1 over exact integer powers.
        (a_num, a_den), (b_num, b_den) = DEFAULT_EXPONENTS[algo]

        def least(ok):
            k = 1
            while not ok(k):
                k += 1
            return k

        for p in [*range(0, 130), 343, 1000, 1225, 4950, 20000]:
            assert default_d(algo, p) == least(lambda k: k ** a_den >= p ** a_num), p
            if p == 0:
                continue
            for n in (1, 2, 3, 7, 10, 40, 100, 500):
                assert default_ell(algo, n, p) == least(
                    lambda k: k ** b_den * p ** b_num >= n ** b_den), (n, p)

    def test_budgets(self):
        assert advertised_budget(PairwiseParams(PairwiseAlgo.P2W)).mode is BudgetMode.LOCAL
        assert advertised_budget(PairwiseParams(PairwiseAlgo.P2W)).c == 2
        assert advertised_budget(PairwiseParams(PairwiseAlgo.P4W)).c == 4
        p8 = advertised_budget(PairwiseParams(PairwiseAlgo.P8W))
        assert p8.mode is BudgetMode.GLOBAL and p8.c == 6

    def test_rejects_nonpositive_overrides(self):
        with pytest.raises(ValueError):
            PairwiseParams(PairwiseAlgo.P2W, d_override=0)
        with pytest.raises(ValueError):
            PairwiseParams(PairwiseAlgo.P2W, ell_override=0)


class TestDLightInit:
    def test_d_at_least_max_degree_returns_all_edges(self):
        g = generate(GeneratorSpec(Model.ER, 15, 2))
        max_deg = max(g.degree(v) for v in range(g.n))
        assert d_light_init(g, max_deg) == g.edge_set

    def test_star_every_leaf_claims_its_edge(self):
        star = WeightedGraph(4, ((0, 1, 1), (0, 2, 2), (0, 3, 3)))
        assert d_light_init(star, 1) == star.edge_set

    def test_triangle_d1_drops_heaviest(self):
        assert d_light_init(TRIANGLE_123, 1) == {(0, 1), (1, 2)}

    def test_tie_prefers_smaller_neighbor(self):
        g = WeightedGraph(3, ((0, 1, 2), (0, 2, 2)))
        assert (0, 1) in d_light_init(g, 1)

    def test_rejects_d_zero(self):
        with pytest.raises(ValueError):
            d_light_init(TRIANGLE, 0)


@given(graphs_with_pairs())
@settings(max_examples=40, deadline=None)
def test_d_light_init_monotone_in_d(gp):
    g, _ = gp
    previous = set()
    for d in range(1, g.n + 1):
        current = d_light_init(g, d)
        assert previous <= current
        previous = current


class TestShortestPathTree:
    def test_tree_input_returns_all_edges(self):
        tree = WeightedGraph(5, ((0, 1, 2), (1, 2, 1), (1, 3, 4), (3, 4, 1)))
        assert shortest_path_tree(tree, 2) == tree.edge_set

    def test_triangle_root_zero(self):
        assert shortest_path_tree(TRIANGLE, 0) == {(0, 1), (1, 2)}

    def test_k2(self):
        assert shortest_path_tree(WeightedGraph(2, ((0, 1, 7),)), 1) == {(0, 1)}

    def test_matches_path_table_variant(self):
        # The graph's own table and an independent one give the same trees.
        g = generate(GeneratorSpec(Model.ER, 12, 5))
        fresh = build_path_table(g)
        for root in range(g.n):
            expected = {edge_key(fresh.tree_parent(root, v), v) for v in range(g.n) if v != root}
            assert shortest_path_tree(g, root) == expected

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            shortest_path_tree(WeightedGraph(3, ((0, 1, 1),)), 0)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_few_terminals_compute_few_path_table_rows(algo, monkeypatch):
    g = generate(GeneratorSpec(Model.ER, 60, 3))
    rows = []
    real = core.dijkstra_distances

    def counting(adj, n, source):
        if adj is g.adj:  # searches of the table, not of the spanner under test
            rows.append(source)
        return real(adj, n, source)

    monkeypatch.setattr(core, "dijkstra_distances", counting)
    pairs = terminal_pairs([0, 12, 24, 36, 48])
    h = pairwise_spanner(g, pairs, PairwiseParams(algo, seed=1))
    monkeypatch.undo()
    assert verify_spanner(g, h, pairs, advertised_budget(PairwiseParams(algo))) == []
    assert len(rows) == len(set(rows)) < g.n


class TestLimitedMissingPath:
    def test_large_cap_gives_shortest_path_weight(self):
        pt = TRIANGLE.paths
        path = limited_missing_path(TRIANGLE, 0, 2, set(), TRIANGLE.n - 1)
        weight = sum(TRIANGLE.weight(a, b) for a, b in zip(path, path[1:]))
        assert weight == pt.dist(0, 2)

    def test_cap_zero_without_connection_is_none(self):
        assert limited_missing_path(TRIANGLE, 0, 2, set(), 0) is None

    def test_cap_zero_uses_present_heavy_edge(self):
        assert limited_missing_path(TRIANGLE, 0, 2, {(0, 2)}, 0) == (0, 2)

    def test_trivial_endpoints(self):
        assert limited_missing_path(TRIANGLE, 1, 1, set(), 0) == (1,)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            limited_missing_path(TRIANGLE, 0, 1, set(), -1)

    def test_prefers_fewer_missing_edges_on_weight_tie(self):
        # routes 0-1-3 and 0-2-3 both weigh 2; only 0-2-3 is fully present
        g = WeightedGraph(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        path = limited_missing_path(g, 0, 3, {(0, 2), (2, 3)}, 2)
        assert path == (0, 2, 3)


@st.composite
def bounded_miss_cases(draw):
    """(graph, r, r_prime, present, cap) on up to 7 vertices; the graph may be
    disconnected and present lists a random subset of its edges, some reversed."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    g = WeightedGraph(n, tuple((u, v, draw(st.integers(1, 4))) for u, v in chosen))
    present = [(v, u) if draw(st.booleans()) else (u, v)
               for u, v in chosen if draw(st.booleans())]
    r = draw(st.integers(0, n - 1))
    r_prime = draw(st.integers(0, n - 1))
    return g, r, r_prime, present, draw(st.integers(0, n))


@given(bounded_miss_cases())
@settings(max_examples=300, deadline=None)
def test_limited_missing_path_matches_brute_force(case):
    g, r, r_prime, present, cap = case
    keys = {frozenset(e) for e in present}

    def misses(path):
        return sum(frozenset(e) not in keys for e in zip(path, path[1:]))

    admissible = [(path_weight(g, p), misses(p)) for p in simple_paths(g, r, r_prime)]
    admissible = [(w, k) for w, k in admissible if k <= cap]
    path = limited_missing_path(g, r, r_prime, present, cap)
    if not admissible:
        assert path is None
        return
    assert path is not None and path[0] == r and path[-1] == r_prime
    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert (path_weight(g, path), misses(path)) == min(admissible)


class TestPairwiseSpanner:
    def test_triangle_p2w_defaults(self):
        params = PairwiseParams(PairwiseAlgo.P2W, seed=0)
        h, report = pairwise_spanner_run(TRIANGLE, [(0, 2)], params)
        assert report.d == 1 and report.ell == 3
        assert h == {(0, 1), (1, 2)}
        assert report.passes == 1 and not report.fallback

    def test_canonical_path_inside_init_needs_no_retries(self):
        g = generate(GeneratorSpec(Model.ER, 20, 8))
        pair = terminal_pairs(range(g.n))[0]
        params = PairwiseParams(PairwiseAlgo.P2W, d_override=g.n, seed=0)
        h, report = pairwise_spanner_run(g, [pair], params)
        assert report.passes == 1
        assert report.missing_trace[-1] == 0
        assert h == d_light_init(g, g.n)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_zero_retries_patches_init_directly(self, algo):
        g = generate(GeneratorSpec(Model.ER, 18, 4))
        pt = g.paths
        pairs = terminal_pairs(range(0, g.n, 3))
        params = PairwiseParams(algo, max_retries=0, seed=1)
        h, report = pairwise_spanner_run(g, pairs, params)
        # one check of the init; its patch is within n*d, so no fallback
        assert report.passes == 0 and report.missing_trace == [report.patched]
        assert not report.fallback and report.patched <= g.n * report.d
        init = d_light_init(g, report.d)
        budget = advertised_budget(params)
        expected = set(init)
        for pair in verify_spanner(g, init, pairs, budget):
            expected.update(e for e in pt.path_edges(*pair) if e not in init)
        assert h == expected
        assert verify_spanner(g, h, pairs, budget) == []

    def test_exhausted_retries_patch_after_one_check_per_pass(self, monkeypatch):
        # Every check reports all of g's edges missing, more than n*d, so no
        # pass is accepted and the last check's edges are patched in anyway.
        g = generate(GeneratorSpec(Model.ER, 20, 8))
        real_missing, real_verify = pairwise._missing_for, pairwise.verify_spanner
        checks = []

        def verify(*args):
            checks.append(args)
            return real_verify(*args)

        monkeypatch.setattr(pairwise, "_missing_for", lambda *args: real_missing(*args) | g.edge_set)
        monkeypatch.setattr(pairwise, "verify_spanner", verify)
        params = PairwiseParams(PairwiseAlgo.P2W, d_override=1, max_retries=3, seed=0)
        h, report = pairwise_spanner_run(g, terminal_pairs(range(0, g.n, 4)), params)
        assert len(g.edges) > g.n * report.d
        assert report.fallback and report.passes == 3 and len(checks) == 3
        assert report.missing_trace == [len(g.edges)] * 3
        assert h == g.edge_set and report.patched == len(g.edges)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_deterministic_given_seed(self, algo):
        g = generate(GeneratorSpec(Model.ER, 16, 9))
        pairs = terminal_pairs(range(0, g.n, 2))
        params = PairwiseParams(algo, seed=77)
        assert pairwise_spanner(g, pairs, params) == pairwise_spanner(g, pairs, params)

    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError):
            pairwise_spanner(TRIANGLE, [], PairwiseParams(PairwiseAlgo.P2W))

    def test_rejects_disconnected_pair(self):
        g = WeightedGraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ValueError):
            pairwise_spanner(g, [(0, 3)], PairwiseParams(PairwiseAlgo.P2W))

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_disconnected_graph_with_connected_pairs(self, algo):
        # two components; all requested pairs stay inside the first
        left = generate(GeneratorSpec(Model.ER, 8, 6))
        edges = left.edges + ((8, 9, 1),)
        g = WeightedGraph(10, edges)
        pairs = terminal_pairs(range(5))
        params = PairwiseParams(algo, ell_override=1, seed=2)
        h = pairwise_spanner(g, pairs, params)
        assert verify_spanner(g, h, pairs, advertised_budget(params)) == []


@pytest.mark.parametrize("algo", ALL_ALGOS)
@given(gp=graphs_with_pairs())
@settings(max_examples=25, deadline=None)
def test_output_meets_advertised_budget(algo, gp):
    g, pairs = gp
    params = PairwiseParams(algo, seed=5)
    h = pairwise_spanner(g, pairs, params)
    assert h <= g.edge_set
    assert verify_spanner(g, h, pairs, advertised_budget(params)) == []


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_d_override_sweep_outputs_stay_valid(algo):
    g = generate(GeneratorSpec(Model.ER, 25, 13))
    pairs = terminal_pairs(range(0, g.n, 2))
    base = default_d(algo, len(pairs))
    d = base
    while True:
        params = PairwiseParams(algo, d_override=d, seed=3)
        h = pairwise_spanner(g, pairs, params)
        assert verify_spanner(g, h, pairs, advertised_budget(params)) == []
        if d == 1:
            break
        d = (d + 1) // 2
