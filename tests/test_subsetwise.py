import pytest
from hypothesis import given, settings

from wspanner.core import (
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    terminal_pairs,
    verify_spanner,
)
from wspanner.generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from wspanner.subsetwise import (
    Clustering,
    build_clustering,
    cluster_threshold,
    path_value,
    subsetwise_2w,
    subsetwise_2w_run,
)

from helpers import brute_min_spanner_size
from strategies import graphs_with_terminals

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
        c = build_clustering(star, 4)
        assert c.threshold == 2
        # the center repeatedly grabs its two smallest unclustered leaves
        assert c.clusters == (frozenset({1, 2}), frozenset({3, 4}))
        assert c.centers == (0, 0)
        assert c.cluster_subgraph == star.edge_set

    def test_threshold_above_max_degree_keeps_all_edges(self):
        c = build_clustering(TRIANGLE, 3)  # threshold ceil(sqrt(9)) = 3 > degree 2
        assert c.clusters == ()
        assert c.cluster_subgraph == TRIANGLE.edge_set

    def test_intra_cluster_edges_included(self):
        # center 0 adjacent to 1,2,3; edge (1,2) lies inside the cluster
        g = WeightedGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)))
        c = build_clustering(g, 4)  # threshold 2
        assert c.clusters[0] == frozenset({1, 2})
        assert (1, 2) in c.cluster_subgraph

    def test_clusters_disjoint_and_centers_adjacent(self):
        g = generate(GeneratorSpec(Model.BA, 25, 3))
        c = build_clustering(g, 4)
        seen = set()
        for members, center in zip(c.clusters, c.centers):
            assert len(members) == c.threshold
            assert not members & seen
            assert center not in members
            assert all(g.has_edge(center, v) for v in members)
            seen |= members
        assert c.cluster_subgraph <= g.edge_set


class TestPathValue:
    def test_zero_when_current_edges_are_whole_graph(self):
        pt = TRIANGLE.paths
        clustering = build_clustering(TRIANGLE, 2)
        path = pt.path(0, 2)
        for x in (0, 2):
            assert path_value(TRIANGLE, path, x, clustering, TRIANGLE.edge_set) == 0

    def test_zero_with_no_clusters(self):
        c = build_clustering(TRIANGLE, 3)
        assert c.clusters == ()
        assert path_value(TRIANGLE, (0, 1, 2), 0, c, set()) == 0

    def test_counts_unreachable_cluster_member(self):
        # path 0-1-2, single cluster {1}; with no current edges the cluster is
        # unreachable, so both endpoints beat it along the path: total value 2
        g = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
        c = Clustering((frozenset({1}),), (0,), frozenset({(0, 1)}), 1)
        assert path_value(g, (0, 1, 2), 0, c, set()) == 1
        assert path_value(g, (0, 1, 2), 2, c, set()) == 1

    def test_rejects_non_endpoint(self):
        c = build_clustering(TRIANGLE, 3)
        with pytest.raises(ValueError):
            path_value(TRIANGLE, (0, 1, 2), 1, c, set())


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
        star_path_weight = star.weight(0, 1) + star.weight(0, 2)
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
    assert h <= g.edge_set
    assert verify_spanner(g, h, terminal_pairs(terminals), GLOBAL2) == []


@given(graphs_with_terminals(max_n=6))
@settings(max_examples=40, deadline=None)
def test_audit_replay_matches_run(gt):
    """Replaying the audit records against independently recomputed cost/value
    reproduces the run, including the monotone growth of the edge set."""
    g, terminals = gt
    pt = g.paths
    state = subsetwise_2w_run(g, terminals)
    clustering = build_clustering(g, len(set(terminals)))
    w = g.weight_max
    h = set(clustering.cluster_subgraph)
    pairs = terminal_pairs(terminals)
    assert [r.pair for r in state.records] == pairs
    for record in state.records:
        u, v = record.pair
        pe = pt.path_edges(u, v)
        cost = sum(1 for e in pe if e not in h)
        path = pt.path(u, v)
        value = (path_value(g, path, u, clustering, h)
                 + path_value(g, path, v, clustering, h))
        assert record.cost == cost
        assert record.value == value
        assert record.bought == (cost <= (2 * w + 1) * value)
        if record.bought:
            h.update(pe)
    assert h == state.current_edges


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
