import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import subsetwise
from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    Subgraph,
    WeightedGraph,
    edge_key,
    terminal_pairs,
    verify_spanner,
)
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.subsetwise import (
    BuyRecord,
    Clustering,
    build_clustering,
    cluster_threshold,
    path_value,
    subsetwise_2w,
    subsetwise_2w_run,
)

from helpers import (
    brute_min_spanner_size,
    made_subgraphs,
    path_weight,
    rebuilt_path_value,
    reference_subsetwise_run,
    rescan_clustering,
)
from strategies import connected_graphs, graphs_with_terminals

TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
GLOBAL2 = ErrorBudget(BudgetMode.GLOBAL, 2)


def test_cluster_threshold_integer_exact():
    assert cluster_threshold(4, 1) == 2
    assert cluster_threshold(3, 3) == 3
    assert cluster_threshold(2, 2) == 2
    assert cluster_threshold(50, 10) == 23  # ceil(sqrt(500))
    assert cluster_threshold(1, 0) == 1  # clamped for edgeless graphs


class TestBuildClustering:
    def test_star_clusters_pairs_of_leaves(self):
        star = WeightedGraph(5, tuple((0, i, 1) for i in range(1, 5)))
        c = build_clustering(star, 4)  # threshold ceil(sqrt(4)) = 2
        # the center repeatedly grabs its two smallest unclustered leaves
        assert c.clusters == (frozenset({1, 2}), frozenset({3, 4}))
        assert c.cluster_subgraph == star.weight_map.keys()

    def test_rejects_terminal_count_outside_1_to_n(self):
        for s_size in (0, 4):
            with pytest.raises(ValueError, match=r"terminal count .* out of range 1\.\.3"):
                build_clustering(TRIANGLE, s_size)

    def test_threshold_above_max_degree_keeps_all_edges(self):
        c = build_clustering(TRIANGLE, 3)  # threshold ceil(sqrt(9)) = 3 > degree 2
        assert c.clusters == ()
        assert c.cluster_subgraph == TRIANGLE.weight_map.keys()

    def test_intra_cluster_edges_included(self):
        # center 0 adjacent to 1,2,3; edge (1,2) lies inside the cluster
        g = WeightedGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)))
        c = build_clustering(g, 4)  # threshold 2
        assert c.clusters[0] == frozenset({1, 2})
        assert (1, 2) in c.cluster_subgraph

    def test_clusters_disjoint_and_centers_adjacent(self):
        g = generate(GeneratorSpec(Model.BA, 25, 3))
        c = build_clustering(g, 4)
        threshold = cluster_threshold(4, g.weight_max)
        seen = set()
        for members in c.clusters:
            assert len(members) == threshold
            assert not members & seen
            # some vertex outside the cluster is its center: the cluster
            # subgraph joins it to every member
            assert any(all(edge_key(x, v) in c.cluster_subgraph for v in members)
                       for x in range(g.n) if x not in members)
            seen |= members
        assert c.cluster_subgraph <= g.weight_map.keys()


@given(connected_graphs(max_n=12, max_w=2), st.data())
@settings(max_examples=200, deadline=None)
def test_clustering_matches_rescan_oracle(g, data):
    s_size = data.draw(st.integers(1, g.n))
    c = build_clustering(g, s_size)
    clusters, subgraph = rescan_clustering(g, cluster_threshold(s_size, g.weight_max))
    assert (c.clusters, c.cluster_subgraph) == (clusters, subgraph)
    assert c.cluster_of == {v: i for i, members in enumerate(clusters) for v in members}


# The canonical 0-2 path of TRIANGLE and of the graphs below: 0-1-2.
PATH_012 = ((0, 1), (1, 2))


class TestPathValue:
    def test_zero_when_current_edges_are_whole_graph(self):
        clustering = build_clustering(TRIANGLE, 2)
        h = Subgraph(TRIANGLE, TRIANGLE.weight_map)
        assert TRIANGLE.paths.path(0, 2) == PATH_012
        for x in (0, 2):
            assert path_value(TRIANGLE, (0, 2), x, clustering, h) == 0

    def test_zero_with_no_clusters(self):
        c = build_clustering(TRIANGLE, 3)
        assert c.clusters == ()
        assert path_value(TRIANGLE, (0, 2), 0, c, Subgraph(TRIANGLE, ())) == 0

    def test_counts_unreachable_cluster_member(self):
        # path 0-1-2, single cluster {1}; with no current edges the cluster is
        # unreachable, so both endpoints beat it along the path: total value 2
        g = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
        c = Clustering((frozenset({1}),), frozenset({(0, 1)}))
        assert g.paths.path(0, 2) == PATH_012
        assert path_value(g, (0, 2), 0, c, Subgraph(g, ())) == 1
        assert path_value(g, (0, 2), 2, c, Subgraph(g, ())) == 1

    def test_cluster_counts_from_its_path_member_nearest_the_end(self):
        # Path 0-1-2-3 with weights 1, 3, 1 and one cluster {1, 2}.  H, the
        # weight-1 detours 0-4-1 and 3-5-2, reaches the cluster at 2 from
        # either end.  The member nearest 0 lies 1 along the path and the one
        # nearest 3 lies 1 from 3, so both ends count it; the far member, 4
        # along the path, would beat H from neither.
        g = WeightedGraph(6, ((0, 1, 1), (1, 2, 3), (2, 3, 1),
                              (0, 4, 1), (1, 4, 1), (3, 5, 1), (2, 5, 1)))
        c = Clustering((frozenset({1, 2}),), frozenset())
        assert g.paths.path(0, 3) == ((0, 1), (1, 2), (2, 3))
        h = {(0, 4), (1, 4), (3, 5), (2, 5)}
        for x in (0, 3):
            assert path_value(g, (0, 3), x, c, Subgraph(g, h)) == 1
            assert rebuilt_path_value(g, (0, 1, 2, 3), x, c.clusters, h) == 1

    def test_cluster_beyond_the_search_limit_is_beaten(self):
        # From 0 the path reaches cluster {1} at distance 1, and H reaches it
        # only at 11, past the search's limit of 1; from 2, H's edge (1, 2)
        # ties the path, which does not beat it.
        g = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (0, 3, 5), (2, 3, 5)))
        c = Clustering((frozenset({1}),), frozenset())
        h = {(0, 3), (2, 3), (1, 2)}
        assert g.paths.path(0, 2) == PATH_012
        for x, value in ((0, 1), (2, 0)):
            assert path_value(g, (0, 2), x, c, Subgraph(g, h)) == value
            assert rebuilt_path_value(g, (0, 1, 2), x, c.clusters, h) == value

    def test_cluster_past_the_nearest_one_is_searched_for(self):
        # Path 0-1-2-3 with weights 1, 2, 1 and clusters {1} and {2}.  From 0
        # H, the weight-1 detour 0-4-5-2, ties the path at 2 (distance 3), so
        # only {1} is beaten: the search has to run to the farther cluster's
        # along-path distance, not stop at the nearer one's.  From 3, H
        # reaches neither cluster.
        g = WeightedGraph(6, ((0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 4, 1), (4, 5, 1), (2, 5, 1)))
        c = Clustering((frozenset({1}), frozenset({2})), frozenset())
        h = {(0, 4), (4, 5), (2, 5)}
        assert g.paths.path(0, 3) == ((0, 1), (1, 2), (2, 3))
        for x, value in ((0, 1), (3, 2)):
            assert path_value(g, (0, 3), x, c, Subgraph(g, h)) == value
            assert rebuilt_path_value(g, (0, 1, 2, 3), x, c.clusters, h) == value

    def test_rejects_non_endpoint(self):
        c = build_clustering(TRIANGLE, 3)
        with pytest.raises(ValueError):
            path_value(TRIANGLE, (0, 2), 1, c, Subgraph(TRIANGLE, ()))

    def test_rejects_pair_with_no_path(self):
        g = WeightedGraph(3, ((0, 1, 1),))
        c = Clustering((frozenset({1}),), frozenset())
        with pytest.raises(ValueError, match=r"^pair \(0,2\) has no path$"):
            path_value(g, (0, 2), 0, c, Subgraph(g, ()))


class TestSubsetwise2W:
    def test_triangle_output_valid_and_optimum_is_one_edge(self):
        h = subsetwise_2w(TRIANGLE, [0, 2])
        assert verify_spanner(TRIANGLE, h, [(0, 2)], GLOBAL2) == []
        # independent exhaustive search: budget dist+2W = 2+6 = 8
        assert brute_min_spanner_size(TRIANGLE, {(0, 2): 8}) == 1

    def test_cost_zero_paths_always_bought(self):
        state = subsetwise_2w_run(TRIANGLE, [0, 1])
        record = state.records[0]
        assert record.cost == 0 and record.bought

    def test_terminals_in_one_cluster_reachable_via_star(self):
        # leaves 1 and 2 end up in the same cluster around center 0
        star = WeightedGraph(7, tuple((0, i, 2) for i in range(1, 7)))
        c = build_clustering(star, 2)  # threshold ceil(sqrt(4)) = 2
        assert {1, 2} <= set().union(*c.clusters[:1])
        h = subsetwise_2w(star, [1, 2])
        star_path_weight = path_weight(star, (1, 0, 2))
        assert star_path_weight <= 2 * star.weight_max
        assert verify_spanner(star, h, [(1, 2)], GLOBAL2) == []

    def test_rejects_disconnected_graph(self):
        g = WeightedGraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ValueError):
            subsetwise_2w(g, [0, 3])

    def test_rejects_single_terminal(self):
        with pytest.raises(ValueError):
            subsetwise_2w(TRIANGLE, [0])


@given(graphs_with_terminals())
@settings(max_examples=50, deadline=None)
def test_output_always_meets_plus_2w(gt):
    g, terminals = gt
    h = subsetwise_2w(g, terminals)
    assert h <= g.weight_map.keys()
    assert verify_spanner(g, h, terminal_pairs(terminals), GLOBAL2) == []


def _replay(g, terminals):
    """Compare the run's edges and audit, record by record, with the plain
    construction (helpers.reference_subsetwise_run).  Returns the run's state."""
    state = subsetwise_2w_run(g, terminals)
    edges, records = reference_subsetwise_run(g, terminals)
    assert state.records == records
    assert state.current_edges == edges
    return state


@given(graphs_with_terminals(max_n=6))
@settings(max_examples=40, deadline=None)
def test_audit_replay_matches_run(gt):
    _replay(*gt)


@given(graphs_with_terminals(min_n=8, max_n=12, max_w=2))
@settings(max_examples=100, deadline=None)
def test_audit_replay_matches_run_on_graphs_where_clusters_form(gt):
    # Weights 1..2 on 8 to 12 vertices keep the cluster threshold low, so
    # about half of these draws value some path above 0.
    _replay(*gt)


@pytest.mark.parametrize("model,n,seed,k", [("er", 30, 2, 6), ("er", 30, 4, 4), ("ba", 20, 2, 6)])
def test_audit_replay_matches_run_where_clusters_form(model, n, seed, k):
    # On these instances a path of positive cost is bought and a later
    # pair's value is then taken over the grown subgraph.
    g = generate(GeneratorSpec(Model(model), n, seed))
    state = _replay(g, range(0, n, n // k)[:k])
    bought = [i for i, r in enumerate(state.records) if r.cost > 0 and r.bought]
    assert bought and any(r.value > 0 for r in state.records[bought[0] + 1:])


def test_one_subgraph_adjacency_per_run_and_none_without_clusters(monkeypatch):
    # A run makes one subgraph, H, whose lists are built at its first search;
    # each buy grows them, and at the end they hold the adjacency of the
    # returned edges.  Without clusters H is all of g and is never searched.
    made = made_subgraphs(monkeypatch)
    g = generate(GeneratorSpec(Model.ER, 30, 2))
    state = subsetwise_2w_run(g, range(0, 30, 5))
    assert sum(r.cost > 0 for r in state.records) > 1
    assert any(r.cost > 0 and r.bought for r in state.records)
    (h,) = made
    assert h.edges is state.current_edges and h._adj is not None
    fresh = Subgraph(g, state.current_edges)
    fresh.dist(0)
    assert [sorted(entry) for entry in h._adj] == [sorted(entry) for entry in fresh._adj]
    made.clear()
    assert build_clustering(g, 30).clusters == ()  # threshold ceil(sqrt(30 * W))
    subsetwise_2w_run(g, range(30))
    assert [h._adj for h in made] == [None]


def test_zero_cluster_run_builds_its_buy_records_on_first_read(monkeypatch):
    # Without clusters the sweep values no pair, so the audit trail is made
    # only when read: one cost 0, value 0 record per pair, then cached.
    made = []
    real = subsetwise.BuyRecord
    monkeypatch.setattr(subsetwise, "BuyRecord", lambda *a: made.append(a) or real(*a))
    g = generate(GeneratorSpec(Model.ER, 30, 2))
    assert build_clustering(g, 30).clusters == ()
    state = subsetwise_2w_run(g, range(30))
    assert state.current_edges == g.weight_map.keys() and made == []
    pairs = terminal_pairs(range(30))
    assert state.records == [real(pair, 0, 0, True) for pair in pairs]
    assert len(made) == len(pairs) and state.records is state.records


def test_mean_output_below_full_graph_on_er():
    # regression guard: sub2w should not degenerate to the full edge set
    # on average for ER n=40, |S|=10, W in [1,10]
    ratios = []
    for seed in range(20):
        g = generate(GeneratorSpec(Model.ER, 40, seed))
        terminals = generate_terminals(40, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, seed))[1]
        terminals = tuple(terminals)[:10]
        h = subsetwise_2w(g, terminals)
        assert len(h) <= len(g.edges)
        ratios.append(len(h) / len(g.edges))
    assert sum(ratios) / len(ratios) < 1.0


def test_pair_covered_by_an_earlier_buy_asks_no_path_value(monkeypatch):
    # ER n=16 seed 12, terminals {5, 7, 9, 12}: (9, 12) leaves the cluster
    # subgraph when the sweep starts, but the path bought for (7, 12) covers
    # it by its turn, so it is bought with cost 0 and value 0 unvalued.
    g = generate(GeneratorSpec(Model.ER, 16, 12))
    terminals = (5, 7, 9, 12)
    pairs = terminal_pairs(terminals)
    start = set(build_clustering(g, len(terminals)).cluster_subgraph)
    assert [pairs[i] for i in g.paths.leaving(pairs, start)] == [
        (5, 7), (5, 12), (7, 12), (9, 12)]
    valued = []
    real = subsetwise.path_value

    def counting(g, pair, x, clustering, h):
        valued.append(pair)
        return real(g, pair, x, clustering, h)

    monkeypatch.setattr(subsetwise, "path_value", counting)
    state = subsetwise_2w_run(g, terminals)
    assert state.records[4] == BuyRecord((7, 12), 2, 1, True)
    assert state.records[5] == BuyRecord((9, 12), 0, 0, True)
    assert sorted(set(valued)) == [(5, 7), (5, 12), (7, 12)]
