import random

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
from wspanner.generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
)
from wspanner.pairwise import (
    BUDGETS,
    PairwiseAlgo,
    PairwiseParams,
    d_light_init,
    default_d,
    default_ell,
    limited_missing_path,
    pairwise_spanner,
    pairwise_spanner_run,
    shortest_path_tree,
)
from wspanner.seeding import ROLE_PAIRWISE

from helpers import (
    INF,
    bellman_ford,
    canonical_edges,
    caterpillar_edges,
    made_subgraphs,
    path_edge_keys,
    path_weight,
    reference_pairwise_run,
    reordered_pairs,
    simple_paths,
    tree_path,
    unpruned_limited_missing_path,
)
from strategies import any_graphs, connected_graphs, graphs_with_pairs

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
        assert BUDGETS[PairwiseAlgo.P2W].mode is BudgetMode.LOCAL
        assert BUDGETS[PairwiseAlgo.P2W].c == 2
        assert BUDGETS[PairwiseAlgo.P4W].c == 4
        p8 = BUDGETS[PairwiseAlgo.P8W]
        assert p8.mode is BudgetMode.GLOBAL and p8.c == 6

    def test_rejects_nonpositive_overrides(self):
        # A bool or a float is no d either, even where it compares >= 1.
        for d in (0, True, 2.5):
            with pytest.raises(ValueError, match=f"got {d!r}"):
                PairwiseParams(PairwiseAlgo.P2W, d_override=d)

    def test_algo_value_acts_as_its_algo_and_an_unknown_one_is_rejected(self):
        g = generate(GeneratorSpec(Model.ER, 15, 2))
        for algo in PairwiseAlgo:
            params = PairwiseParams(algo.value, seed=3)
            assert params == PairwiseParams(algo, seed=3) and params.algo is algo
            assert pairwise_spanner(g, [(0, 7), (3, 12)], params) == pairwise_spanner(
                g, [(0, 7), (3, 12)], PairwiseParams(algo, seed=3))
        with pytest.raises(ValueError, match="p16w"):
            PairwiseParams("p16w")


class TestDLightInit:
    def test_d_at_least_max_degree_returns_all_edges(self):
        g = generate(GeneratorSpec(Model.ER, 15, 2))
        max_deg = max(len(entry) for entry in g.adj)
        assert d_light_init(g, max_deg) == g.weight_map.keys()

    def test_star_every_leaf_claims_its_edge(self):
        star = WeightedGraph(4, ((0, 1, 1), (0, 2, 2), (0, 3, 3)))
        assert d_light_init(star, 1) == star.weight_map.keys()

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
        assert shortest_path_tree(tree, 2) == tree.weight_map.keys()

    def test_triangle_root_zero(self):
        assert shortest_path_tree(TRIANGLE, 0) == {(0, 1), (1, 2)}

    def test_k2(self):
        assert shortest_path_tree(WeightedGraph(2, ((0, 1, 7),)), 1) == {(0, 1)}

    def test_matches_path_table_variant(self):
        # The graph's own table and an independent one give the same trees.
        g = generate(GeneratorSpec(Model.ER, 12, 5))
        fresh = build_path_table(g)
        for root in range(g.n):
            expected = {edge_key(fresh.row(root)[1][v], v) for v in range(g.n) if v != root}
            assert shortest_path_tree(g, root) == expected

    def test_disconnected_spans_what_root_reaches(self):
        assert shortest_path_tree(WeightedGraph(3, ((0, 1, 1),)), 0) == {(0, 1)}


def _pair_by_pair(table, u, v):
    # PathTable.path's edges rebuilt on every read, by walking back through
    # the parents of the smaller end's row; the range error is kept.
    if min(u, v) < 0 or max(u, v) >= table._n:
        raise ValueError(f"pair ({u},{v}) references a vertex outside 0..{table._n - 1}")
    path = tree_path(table, min(u, v), max(u, v))
    return None if path is None else path_edge_keys(path)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_runs_on_any_pair_order_match_pair_by_pair_reads(algo, monkeypatch):
    # The sweep's output depends on the pair order by design, so each order
    # is checked against pair-by-pair reads of that same order, each run on a
    # fresh graph whose table holds no row yet.
    g = generate(GeneratorSpec(Model.ER, 30, 5))
    pairs = terminal_pairs(range(0, 30, 3))
    orders = [pairs, *reordered_pairs(pairs, random.Random(0))]
    params = PairwiseParams(algo, seed=3)
    runs = [pairwise_spanner_run(WeightedGraph(g.n, g.edges), order, params) for order in orders]
    monkeypatch.setattr(core.PathTable, "path", _pair_by_pair)
    for order, run in zip(orders, runs):
        assert pairwise_spanner_run(WeightedGraph(g.n, g.edges), order, params) == run


@pytest.mark.parametrize("d", [None, 1, 2])
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_reversed_pairs_give_the_same_run(algo, d):
    # A pair names the same canonical path in either orientation; the spine
    # instance reaches every repair of every construction at some d.
    g = WeightedGraph(30, caterpillar_edges(10))
    pairs = terminal_pairs([0, 9, *range(10, 30)])
    params = PairwiseParams(algo, d_override=d, seed=7)
    reversed_run = pairwise_spanner_run(g, [(v, u) for u, v in pairs], params)
    assert reversed_run == pairwise_spanner_run(g, pairs, params)


@st.composite
def caterpillar_graphs(draw, max_spine=10):
    """Connected graph: a spine 0..k-1 of weight-2..5 edges, each spine vertex
    with one or two weight-1 leaves, plus up to two chords of any weight.  A
    spine vertex keeps its leaves in a light init ahead of its spine edges,
    so paths along the spine miss many edges and the sweeps reach their
    repairs (k is drawn evenly, since short spines rarely get there)."""
    k = draw(st.sampled_from(range(2, max_spine + 1)))
    edges = {(i, i + 1): draw(st.integers(2, 5)) for i in range(k - 1)}
    n = k
    for i in range(k):
        leaves = draw(st.integers(1, 2))
        edges.update({(i, n + j): 1 for j in range(leaves)})
        n += leaves
    for _ in range(draw(st.integers(0, 2))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        edges.setdefault((u, v), draw(st.integers(1, 8)))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


@st.composite
def pairwise_cases(draw, algo):
    """(graph, pairs, params): a caterpillar graph, or a graph on up to 10
    vertices that may be disconnected; then either every pair of a terminal
    set holding half or more of one component, shuffled, or 1-40 pairs
    inside components (either orientation, u == v and repeats allowed); any
    seed and d."""
    g = draw(st.one_of(caterpillar_graphs(), any_graphs(min_n=2, max_n=10, max_w=4)))
    reach = [bellman_ford(g.n, g.edges, u) for u in range(g.n)]
    root = draw(st.sampled_from(range(g.n)))
    component = [v for v in range(g.n) if reach[root][v] < INF]
    if len(component) >= 2 and draw(st.booleans()):
        # in any order: in ascending order each pair's path tends to extend
        # a path bought just before it, so the sweeps rarely repair
        count = draw(st.integers(max(2, len(component) // 2), len(component)))
        terminals = draw(st.permutations(component))[:count]
        pairs = draw(st.permutations(terminal_pairs(terminals)))
    else:
        within = [(u, v) for u in range(g.n) for v in range(g.n) if reach[u][v] < INF]
        pairs = [draw(st.sampled_from(within)) for _ in range(draw(st.integers(1, 40)))]
    params = PairwiseParams(algo, draw(st.sampled_from([None, 1, 2])), draw(st.integers(0, 2**16)))
    return g, pairs, params


@pytest.mark.parametrize("algo", ALL_ALGOS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_run_matches_plain_reference(algo, data):
    g, pairs, params = data.draw(pairwise_cases(algo))
    free = data.draw(st.frozensets(st.sampled_from([(u, v) for u, v, _ in g.edges]))
                     if g.edges else st.just(frozenset()))
    assert (pairwise_spanner_run(g, pairs, params, free)
            == reference_pairwise_run(g, pairs, params, free))


@pytest.mark.parametrize("d", [None, 1, 2])
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_free_edges_start_h_as_in_the_plain_reference(algo, d):
    # Free spine edges cover part of the pairs' paths, which a 1- or 2-light
    # init misses, so the sweep meets fewer misses; free leaf edges are in
    # every init already.
    g = WeightedGraph(30, caterpillar_edges(10))
    pairs = terminal_pairs([0, 9, *range(10, 30)])
    free = frozenset([(0, 1), (3, 4), (4, 5), (7, 8), (2, 15), (9, 29)])
    params = PairwiseParams(algo, d_override=d, seed=7)
    h, report = pairwise_spanner_run(g, pairs, params, free)
    assert (h, report) == reference_pairwise_run(g, pairs, params, free)
    assert free <= h and verify_spanner(g, h, pairs, BUDGETS[algo]) == []


@pytest.mark.parametrize("algo", ALL_ALGOS)
@given(case=graphs_with_pairs(max_n=8, max_pairs=10), d=st.sampled_from([None, 1, 2]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_output_holds_its_free_edges_and_meets_its_budget(algo, case, d, data):
    g, pairs = case
    free = data.draw(st.frozensets(st.sampled_from([(u, v) for u, v, _ in g.edges])))
    h = pairwise_spanner(g, pairs, PairwiseParams(algo, d_override=d, seed=3), free)
    assert free <= h
    assert verify_spanner(g, h, pairs, BUDGETS[algo]) == []


@pytest.mark.parametrize("detached", [False, True])
@pytest.mark.parametrize("d", [None, 1, 2])
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_run_matches_plain_reference_on_every_repair(algo, d, detached):
    # The spine instance reaches every repair at some d.  Shuffled, a pair
    # need not extend a path bought just before it, so what a repair adds
    # decides later turns.  With a detached edge p8w skips its subsetwise
    # repair, and a pair across raises.
    g = WeightedGraph(30 + 2 * detached, caterpillar_edges(10) + ((30, 31, 1),) * detached)
    pairs = terminal_pairs([0, 9, *range(10, 30)])
    params = PairwiseParams(algo, d_override=d, seed=7)
    for order in (pairs, random.Random(0).sample(pairs, len(pairs))):
        assert pairwise_spanner_run(g, order, params) == reference_pairwise_run(g, order, params)
    if detached:
        for run in (pairwise_spanner_run, reference_pairwise_run):
            with pytest.raises(ValueError, match=r"^terminal pair \(9,30\) is disconnected$"):
                run(g, pairs + [(9, 30)], params)


def _seeded_streams(monkeypatch) -> list:
    """The tags of every stream the pairwise module seeds from now on."""
    seeded = []

    def counting(*tags, real=pairwise.stream):
        seeded.append(tags)
        return real(*tags)

    monkeypatch.setattr(pairwise, "stream", counting)
    return seeded


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_a_pass_seeds_its_stream_only_when_it_samples(algo, monkeypatch):
    # With d = n the init holds every canonical path, so p4w and p8w sample
    # nothing and seed no stream; p2w still samples its trees after the
    # sweep.  At d = 1 every construction samples once and seeds once.
    g = WeightedGraph(30, caterpillar_edges(10))
    pairs = terminal_pairs([0, 9, *range(10, 30)])
    seeded = _seeded_streams(monkeypatch)
    for d in (g.n, 1):
        seeded.clear()
        report = pairwise_spanner_run(g, pairs, PairwiseParams(algo, d_override=d, seed=7))[1]
        samples = 1 if d == 1 or algo is PairwiseAlgo.P2W else 0
        assert len(report.sample_counts) == samples
        assert seeded == [(7, ROLE_PAIRWISE, 0)] * samples


@pytest.mark.parametrize("algo", [PairwiseAlgo.P4W, PairwiseAlgo.P8W])
def test_every_sample_of_a_pass_draws_from_its_one_stream(algo, monkeypatch):
    # The sweep repairs twice, and its first sample, one vertex, repairs
    # nothing; a stream seeded again for the second sample would draw the
    # first one's values and sample that one vertex again.
    g = WeightedGraph(30, caterpillar_edges(10))
    pairs = terminal_pairs(range(0, 30, 4))
    params = PairwiseParams(algo, d_override=2, seed=4)
    seeded = _seeded_streams(monkeypatch)
    h, report = pairwise_spanner_run(g, pairs, params)
    assert len(report.sample_counts) >= 2 and len(seeded) == 1
    assert (h, report) == reference_pairwise_run(g, pairs, params)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_few_terminals_compute_few_path_table_rows(algo, monkeypatch):
    g = generate(GeneratorSpec(Model.ER, 60, 3))
    rows = []
    real = core.shortest_path_row

    def counting(adj, n, source):
        rows.append(source)
        return real(adj, n, source)

    monkeypatch.setattr(core, "shortest_path_row", counting)
    pairs = terminal_pairs([0, 12, 24, 36, 48])
    h = pairwise_spanner(g, pairs, PairwiseParams(algo, seed=1))
    monkeypatch.undo()
    assert verify_spanner(g, h, pairs, BUDGETS[algo]) == []
    assert len(rows) == len(set(rows)) < g.n


class TestLimitedMissingPath:
    def test_large_cap_gives_shortest_path_weight(self):
        pt = TRIANGLE.paths
        path = limited_missing_path(TRIANGLE, 0, 2, set(), TRIANGLE.n - 1)
        assert path_weight(TRIANGLE, path) == pt.dist(0, 2)

    def test_cap_zero_without_connection_is_none(self):
        assert limited_missing_path(TRIANGLE, 0, 2, set(), 0) is None

    def test_cap_zero_uses_present_heavy_edge(self):
        assert limited_missing_path(TRIANGLE, 0, 2, {(0, 2)}, 0) == (0, 2)

    def test_trivial_endpoints(self):
        assert limited_missing_path(TRIANGLE, 1, 1, set(), 0) == (1,)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            limited_missing_path(TRIANGLE, 0, 1, set(), -1)

    @pytest.mark.parametrize("r, r_prime", [(-1, 0), (3, 0), (0, -1), (0, 3), (-1, -1)])
    def test_rejects_vertex_outside_range(self, r, r_prime):
        g = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
        with pytest.raises(ValueError, match=rf"pair \({r},{r_prime}\) references a vertex "
                                             r"outside 0\.\.2"):
            limited_missing_path(g, r, r_prime, set(), 3)

    def test_prefers_fewer_missing_edges_on_weight_tie(self):
        # routes 0-1-3 and 0-2-3 both weigh 2; only 0-2-3 is fully present
        g = WeightedGraph(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        path = limited_missing_path(g, 0, 3, {(0, 2), (2, 3)}, 2)
        assert path == (0, 2, 3)

    def test_reconstruction_prefers_the_smaller_predecessor_on_a_full_tie(self):
        # 0-1-3, 0-2-3 and 0-4-3 tie in weight and misses; the walk back from
        # 3 takes its smallest tight neighbour
        g = WeightedGraph(5, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 4, 1), (3, 4, 1)))
        assert limited_missing_path(g, 0, 3, set(), 2) == (0, 1, 3)
        assert limited_missing_path(g, 0, 3, {(0, 2), (2, 3), (0, 4), (3, 4)}, 0) == (0, 2, 3)


@st.composite
def bounded_miss_cases(draw):
    """(graph, r, r_prime, present, cap) on up to 7 vertices; the graph may be
    disconnected and present holds the canonical keys of a random subset of
    its edges."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    g = WeightedGraph(n, tuple((u, v, draw(st.integers(1, 4))) for u, v in chosen))
    present = {(u, v) for u, v in chosen if draw(st.booleans())}
    r = draw(st.integers(0, n - 1))
    r_prime = draw(st.integers(0, n - 1))
    return g, r, r_prime, present, draw(st.integers(0, n))


@given(bounded_miss_cases())
@settings(max_examples=300, deadline=None)
def test_limited_missing_path_matches_brute_force(case):
    g, r, r_prime, present, cap = case

    def misses(path):
        return sum((min(e), max(e)) not in present for e in zip(path, path[1:]))

    admissible = [(path_weight(g, p), misses(p)) for p in simple_paths(g, r, r_prime)]
    admissible = [(w, k) for w, k in admissible if k <= cap]
    path = limited_missing_path(g, r, r_prime, present, cap)
    if not admissible:
        assert path is None
        return
    assert path is not None and path[0] == r and path[-1] == r_prime
    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert (path_weight(g, path), misses(path)) == min(admissible)


@given(bounded_miss_cases())
@settings(max_examples=300, deadline=None)
def test_limited_missing_path_matches_unpruned_search_on_small_graphs(case):
    # the brute-force test pins (weight, misses); this pins the tied path too
    assert limited_missing_path(*case) == unpruned_limited_missing_path(*case)


@given(st.sampled_from([Model.GE, Model.ER]), st.integers(0, 2**16), st.data())
@settings(max_examples=60, deadline=None)
def test_limited_missing_path_matches_unpruned_search_on_generated_graphs(model, seed, data):
    g = generate(GeneratorSpec(model, 22, seed))
    present = {(u, v) for u, v, _ in g.edges if data.draw(st.booleans())}
    for _ in range(10):
        r, r_prime = data.draw(st.integers(0, 21)), data.draw(st.integers(0, 21))
        cap = data.draw(st.integers(0, 22))
        assert (limited_missing_path(g, r, r_prime, present, cap)
                == unpruned_limited_missing_path(g, r, r_prime, present, cap))


@given(st.one_of(connected_graphs(), any_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_limited_missing_path_stays_in_present_holding_the_canonical_path(g, data):
    # the p4w repair skips the search for such a pair: its answer adds no edge
    r, r_prime = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    present = {(u, v) for u, v, _ in g.edges if data.draw(st.booleans())}
    cap = data.draw(st.integers(0, g.n))
    canonical = canonical_edges(g.paths, r, r_prime)
    if canonical is None:
        assert limited_missing_path(g, r, r_prime, present, cap) is None
        return
    present.update(canonical)
    path = limited_missing_path(g, r, r_prime, present, cap)
    assert path is not None and path[0] == r and path[-1] == r_prime
    assert all(edge_key(a, b) in present for a, b in zip(path, path[1:]))
    assert path_weight(g, path) == g.paths.dist(r, r_prime)


class TestPairwiseSpanner:
    def test_triangle_p2w_defaults(self):
        params = PairwiseParams(PairwiseAlgo.P2W, seed=0)
        h, report = pairwise_spanner_run(TRIANGLE, [(0, 2)], params)
        assert report.d == 1 and report.ell == 3
        assert h == {(0, 1), (1, 2)}
        assert report.passes == 1 and not report.fallback

    def test_canonical_path_inside_init_needs_no_retries(self, monkeypatch):
        # With d = n the init is all of g: every canonical path lies in H,
        # so the check makes no subgraph and no search.
        g = generate(GeneratorSpec(Model.ER, 20, 8))
        pairs = terminal_pairs(range(0, g.n, 3))
        searches = []
        real = core.dijkstra_distances
        monkeypatch.setattr(core, "dijkstra_distances", lambda *a: searches.append(a) or real(*a))
        made = made_subgraphs(monkeypatch)
        for algo in ALL_ALGOS:
            params = PairwiseParams(algo, d_override=g.n, seed=0)
            h, report = pairwise_spanner_run(g, pairs, params)
            assert report.passes == 1 and report.patched == 0
            assert h == d_light_init(g, g.n) == g.weight_map.keys()
        assert searches == [] and made == []

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_patch_completes_a_sweepless_init(self, algo, monkeypatch):
        # With the sweep stubbed out to buy nothing and hand back every pair,
        # the check runs on the 1-light init, and the patch adds the missing
        # canonical edges of the pairs it flags.
        g = generate(GeneratorSpec(Model.GE, 22, 0))
        sets = generate_terminals(22, TerminalSelection(TerminalScheme.LINEAR, 2, 0))
        pairs = terminal_pairs(sets[0])
        monkeypatch.setattr(pairwise, "_pass", lambda algo, g, pairs, *rest: list(pairs))
        params = PairwiseParams(algo, d_override=1, seed=1)
        h, report = pairwise_spanner_run(g, pairs, params)
        init = d_light_init(g, 1)
        budget = BUDGETS[params.algo]
        expected = set(init)
        for pair in verify_spanner(g, init, pairs, budget):
            expected.update(e for e in canonical_edges(g.paths, *pair) if e not in init)
        assert h == expected
        assert report.patched == len(expected - init) > 0
        assert report.passes == 1 and not report.fallback
        assert verify_spanner(g, h, pairs, budget) == []
        assert pairwise_spanner_run(g, [(v, u) for u, v in pairs], params) == (h, report)

    def test_patch_larger_than_n_times_d_is_a_fallback(self, monkeypatch):
        # A weight-1 spine plus weight-2 chords over 7 or more spine edges: the
        # 1-light init is the spine, and each chord is the only shortest path
        # of its ends, which lie 7 or more apart in the spine, beyond 2 + 2*2.
        # With the sweep stubbed out, the one check flags every chord pair and
        # the patch adds all 91 chords, more than n*d = 20: a fallback.
        n = 20
        spine = tuple((i, i + 1, 1) for i in range(n - 1))
        chords = tuple((i, j, 2) for i in range(n) for j in range(i + 7, n))
        g = WeightedGraph(n, spine + chords)
        real_verify = pairwise.verify_spanner
        checks = []

        def verify(*args):
            checks.append(args)
            return real_verify(*args)

        monkeypatch.setattr(pairwise, "_pass", lambda algo, g, pairs, *rest: list(pairs))
        monkeypatch.setattr(pairwise, "verify_spanner", verify)
        params = PairwiseParams(PairwiseAlgo.P2W, d_override=1, seed=0)
        h, report = pairwise_spanner_run(g, [(u, v) for u, v, _ in chords], params)
        assert d_light_init(g, 1) == {(u, v) for u, v, _ in spine}
        assert report.fallback and report.passes == 1 and len(checks) == 1
        assert h == g.weight_map.keys() and report.patched == len(chords) == 91 > g.n * report.d

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
    def test_first_disconnected_pair_after_connected_ones_is_named(self, algo):
        # The sweep repairs the caterpillar pairs first (as in the test below),
        # then meets the detached edge's pair, named as the caller gave it;
        # the out-of-range pair after it is never reached.
        g = WeightedGraph(32, caterpillar_edges(10) + ((30, 31, 1),))
        pairs = terminal_pairs([0, 9, *range(10, 30)]) + [(31, 0), (0, 99)]
        params = PairwiseParams(algo, d_override=2, seed=2)
        with pytest.raises(ValueError, match=r"^terminal pair \(31,0\) is disconnected$"):
            pairwise_spanner_run(g, pairs, params)

    @pytest.mark.parametrize("algo", [PairwiseAlgo.P4W, PairwiseAlgo.P8W])
    def test_pair_covered_by_earlier_buys_is_not_repaired(self, algo):
        # The 1-light init holds only the caterpillar's leaf edges.  (0,4) and
        # (4,8) each miss 4 = ell spine edges and are bought; (0,8) misses all
        # 8 of its spine edges when the sweep starts but none at its turn, so
        # it is neither repaired nor draws a sample.  The leaf pairs, whose
        # paths lie in the init, bring |P| to 20, where ell is 4.
        g = WeightedGraph(30, caterpillar_edges(10))
        leaves = [(i, 10 + 2 * i + j) for i in range(10) for j in (0, 1)][:17]
        pairs = [(0, 4), (4, 8), (0, 8)] + leaves
        init = d_light_init(g, 1)
        assert default_ell(algo, g.n, len(pairs)) == 4
        assert g.paths.leaving(pairs, init) == [0, 1, 2]
        h, report = pairwise_spanner_run(g, pairs, PairwiseParams(algo, d_override=1, seed=0))
        assert report.sample_counts == [] and report.patched == 0
        assert h == init | {(i, i + 1) for i in range(8)}

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_disconnected_graph_with_connected_pairs(self, algo):
        # a caterpillar plus a detached edge; every pair stays on the
        # caterpillar, the sweep draws a repair sample, and p8w skips its
        # subsetwise repair because the graph is disconnected
        g = WeightedGraph(32, caterpillar_edges(10) + ((30, 31, 1),))
        pairs = terminal_pairs([0, 9, *range(10, 30)])
        params = PairwiseParams(algo, d_override=2, seed=2)
        h, report = pairwise_spanner_run(g, pairs, params)
        assert report.sample_counts
        assert verify_spanner(g, h, pairs, BUDGETS[params.algo]) == []


@pytest.mark.parametrize("algo", ALL_ALGOS)
@given(gp=graphs_with_pairs())
@settings(max_examples=25, deadline=None)
def test_output_meets_advertised_budget(algo, gp):
    g, pairs = gp
    params = PairwiseParams(algo, seed=5)
    h = pairwise_spanner(g, pairs, params)
    assert h <= g.weight_map.keys()
    assert verify_spanner(g, h, pairs, BUDGETS[params.algo]) == []


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_d_override_sweep_outputs_stay_valid(algo):
    g = generate(GeneratorSpec(Model.ER, 25, 13))
    pairs = terminal_pairs(range(0, g.n, 2))
    base = default_d(algo, len(pairs))
    d = base
    while True:
        params = PairwiseParams(algo, d_override=d, seed=3)
        h = pairwise_spanner(g, pairs, params)
        assert verify_spanner(g, h, pairs, BUDGETS[params.algo]) == []
        if d == 1:
            break
        d = (d + 1) // 2
