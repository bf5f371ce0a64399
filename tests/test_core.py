import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import core
from wspanner.core import (
    UNREACHABLE,
    BudgetMode,
    ErrorBudget,
    WeightedGraph,
    build_path_table,
    edge_key,
    parse_graph_text,
    terminal_pairs,
    verify_spanner,
    write_graph_text,
)

from wspanner.generate import GeneratorSpec, Model, generate
from wspanner.pairwise import PairwiseAlgo, PairwiseParams, pairwise_spanner
from wspanner.subsetwise import subsetwise_2w

from helpers import bellman_ford, bellman_ford_violations, brute_force_distance, hop_radius
from strategies import connected_graphs

TRIANGLE = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))


def budget(mode, c):
    return ErrorBudget(BudgetMode[mode], c)


class TestWeightedGraph:
    def test_edges_normalized_and_sorted(self):
        g = WeightedGraph(4, ((3, 1, 2), (0, 2, 1)))
        assert g.edges == ((0, 2, 1), (1, 3, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(2, ((1, 1, 1),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            WeightedGraph(2, ((0, 1, 1), (1, 0, 2)))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            WeightedGraph(2, ((0, 1, 0),))

    def test_rejects_bool_weight(self):
        # True == 1, but write_graph_text would emit "True", which the parser rejects
        with pytest.raises(ValueError, match="weight True"):
            WeightedGraph(2, ((0, 1, True),))

    @pytest.mark.parametrize("n,edges", [
        (3, ((False, True, 2), (True, 2, 1))), (3, ((0, 1.0, 1),)), (True, ()), (2.0, ()),
    ], ids=["bool-ids", "float-id", "bool-n", "float-n"])
    def test_rejects_a_vertex_id_or_count_graph_text_cannot_hold(self, n, edges):
        # False == 0 and True == 1, but write_graph_text would emit "False True 2"
        with pytest.raises(ValueError, match="is not an integer"):
            WeightedGraph(n, edges)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            WeightedGraph(2, ((0, 2, 1),))

    def test_adjacency_sorted_by_neighbor(self):
        g = WeightedGraph(4, ((0, 3, 1), (0, 1, 2), (0, 2, 5)))
        assert g.adj[0] == ((1, 2), (2, 5), (3, 1))

    def test_weight_max(self):
        assert TRIANGLE.weight_max == 3
        assert WeightedGraph(1, ()).weight_max == 0


class TestGraphText:
    def test_round_trip_is_bit_exact(self):
        text = write_graph_text(TRIANGLE)
        assert text == "3 3\n0 1 1\n0 2 3\n1 2 1\n"
        assert parse_graph_text(text) == TRIANGLE
        assert write_graph_text(parse_graph_text(text)) == text

    def test_parse_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_graph_text("2 2\n0 1 1\n")


class TestPathTable:
    def test_path_graph(self):
        g = WeightedGraph(3, ((0, 1, 2), (1, 2, 3)))
        pt = g.paths
        assert pt.dist(0, 2) == 5
        assert pt.path(0, 2) == (0, 1, 2)
        assert pt.max_weight(0, 2) == 3

    def test_triangle_prefers_lighter_route(self):
        # Independent check: enumerate both 0-2 routes by brute force.
        assert brute_force_distance(TRIANGLE, 0, 2) == 2
        pt = TRIANGLE.paths
        assert pt.dist(0, 2) == 2
        assert pt.path(0, 2) == (0, 1, 2)
        assert pt.max_weight(0, 2) == 1

    def test_single_vertex(self):
        pt = build_path_table(WeightedGraph(1, ()))
        assert pt.dist(0, 0) == 0
        assert pt.path(0, 0) == (0,)
        assert pt.max_weight(0, 0) == 0

    def test_disconnected_pair_gets_sentinel(self):
        g = WeightedGraph(3, ((0, 1, 1),))
        pt = g.paths
        assert pt.dist(0, 2) == UNREACHABLE
        assert not pt.reachable(0, 2)
        with pytest.raises(ValueError):
            pt.path(0, 2)

    def test_equal_weight_ties_take_smaller_predecessor(self):
        # Two weight-2 routes 0->3: via 1 and via 2; the tie goes to vertex 1.
        g = WeightedGraph(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        pt = g.paths
        assert pt.path(0, 3) == (0, 1, 3)
        assert pt.path(3, 0) == (3, 1, 0)


@given(connected_graphs(max_w=2))
@settings(max_examples=150)
def test_tree_parents_and_path_max_follow_the_smallest_id_rule(g):
    # Weights 1..2 make many equal-length routes.  The expected parent of v is
    # the smallest u with an edge that is tight under Bellman-Ford distances.
    pt = g.paths
    for s in range(g.n):
        bf = bellman_ford(g.n, g.edges, s)
        parent = [min((u for u, w in g.adj[v] if bf[u] + w == bf[v]), default=-1)
                  if v != s else -1 for v in range(g.n)]
        for v in range(g.n):
            assert pt.tree_parent(s, v) == parent[v]
        for v in range(s + 1, g.n):
            heaviest, x = 0, v
            while x != s:
                heaviest = max(heaviest, g.weight(x, parent[x]))
                x = parent[x]
            assert pt.max_weight(s, v) == heaviest


@given(connected_graphs(max_n=7))
@settings(max_examples=60)
def test_distances_match_brute_force(g):
    pt = g.paths
    for u in range(g.n):
        for v in range(g.n):
            assert pt.dist(u, v) == brute_force_distance(g, u, v)


@given(connected_graphs())
@settings(max_examples=60)
def test_triangle_inequality(g):
    pt = g.paths
    for u in range(g.n):
        for v in range(g.n):
            assert pt.dist(u, v) == pt.dist(v, u)
            for x in range(g.n):
                assert pt.dist(u, v) <= pt.dist(u, x) + pt.dist(x, v)


@given(connected_graphs())
@settings(max_examples=60)
def test_canonical_paths_consistent(g):
    pt = g.paths
    for u in range(g.n):
        for v in range(g.n):
            path = pt.path(u, v)
            total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
            assert total == pt.dist(u, v)
            assert path == tuple(reversed(pt.path(v, u)))
            if path[1:]:
                assert pt.max_weight(u, v) == max(g.weight(a, b) for a, b in zip(path, path[1:]))
                assert pt.max_weight(u, v) <= g.weight_max


@given(connected_graphs())
@settings(max_examples=40)
def test_tree_paths_are_prefix_consistent_per_source(g):
    # The tie-break guarantees prefix consistency within each source's tree:
    # the canonical path of {u, v} comes from the source-min(u, v) tree, and
    # each of its prefixes is that same tree's path to the prefix endpoint.
    pt = g.paths

    def tree_path(s, v):
        rev = [v]
        while rev[-1] != s:
            rev.append(pt.tree_parent(s, rev[-1]))
        return tuple(reversed(rev))

    for u in range(g.n):
        for v in range(u + 1, g.n):
            path = pt.path(u, v)
            assert path == tree_path(u, v)
            for i in range(1, len(path) + 1):
                assert path[:i] == tree_path(u, path[i - 1])


def _answers(pt, sources, n):
    """Every per-pair answer of the table, asked source by source in the given order."""
    return {(s, v): (pt.dist(s, v), pt.path(s, v), pt.max_weight(s, v), pt.tree_parent(s, v))
            for s in sources for v in range(n)}


@given(connected_graphs())
@settings(max_examples=30)
def test_path_table_determinism(g):
    a = build_path_table(g)
    b = build_path_table(g)
    assert _answers(a, range(g.n), g.n) == _answers(b, range(g.n), g.n)


@given(connected_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_path_table_answers_do_not_depend_on_query_order(g, rnd):
    shuffled = list(range(g.n))
    rnd.shuffle(shuffled)
    ascending = _answers(build_path_table(g), range(g.n), g.n)
    assert _answers(build_path_table(g), shuffled, g.n) == ascending
    for s in range(g.n):
        expected = bellman_ford(g.n, g.edges, s)
        assert [ascending[s, v][0] for v in range(g.n)] == expected


def test_path_table_computes_only_the_rows_it_is_asked_for(monkeypatch):
    g = WeightedGraph(5, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)))
    sources = []
    real = core.shortest_path_row

    def counting(adj, n, source):
        sources.append(source)
        return real(adj, n, source)

    monkeypatch.setattr(core, "shortest_path_row", counting)
    pt = g.paths
    assert sources == []
    assert pt.dist(4, 1) == 3 and pt.path(4, 1) == (4, 3, 2, 1) and pt.max_weight(1, 4) == 1
    assert pt.tree_parent(3, 0) == 1
    assert sources == [1, 3]


def test_constructions_and_check_share_the_graphs_table(monkeypatch):
    g = generate(GeneratorSpec(Model.ER, 40, 2))
    sources = []
    real = core.shortest_path_row

    def counting(adj, n, source):
        sources.append(source)
        return real(adj, n, source)

    monkeypatch.setattr(core, "shortest_path_row", counting)
    terminals = range(0, g.n, 5)
    pairs = terminal_pairs(terminals)
    h = subsetwise_2w(g, terminals) | pairwise_spanner(g, pairs, PairwiseParams(PairwiseAlgo.P2W))
    assert verify_spanner(g, h, pairs, budget("GLOBAL", 2)) == []
    assert sources and len(sources) == len(set(sources))


def test_graph_and_its_table_form_no_reference_cycle():
    g = WeightedGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    assert g.paths is g.paths and g.paths.dist(0, 2) == 2
    ref = weakref.ref(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g
        assert ref() is None  # freed by reference counting alone
    finally:
        if enabled:
            gc.enable()


class TestVerifySpanner:
    def test_heavy_edge_within_global_budget(self):
        assert verify_spanner(TRIANGLE, {(0, 2)}, [(0, 2)], budget("GLOBAL", 2)) == []

    def test_empty_subgraph_violates(self):
        assert verify_spanner(TRIANGLE, set(), [(0, 2)], budget("GLOBAL", 99)) == [(0, 2)]

    def test_full_graph_never_violates(self):
        pairs = terminal_pairs(range(3))
        assert verify_spanner(TRIANGLE, TRIANGLE.edge_set, pairs, budget("GLOBAL", 0)) == []
        assert verify_spanner(TRIANGLE, TRIANGLE.edge_set, pairs, budget("LOCAL", 0)) == []

    def test_rejects_foreign_edges(self):
        with pytest.raises(ValueError):
            verify_spanner(TRIANGLE, {(0, 5)}, [(0, 2)], budget("GLOBAL", 2))

    def test_local_budget_uses_pair_max_weight(self):
        # dist(0,2)=2, W(0,2)=1: edge (0,2) of weight 3 passes c=1 but not c=0.
        assert verify_spanner(TRIANGLE, {(0, 2)}, [(0, 2)], budget("LOCAL", 1)) == []
        assert verify_spanner(TRIANGLE, {(0, 2)}, [(0, 2)], budget("LOCAL", 0)) == [(0, 2)]

    def test_tied_path_off_the_canonical_one_passes(self):
        # Canonical 0-3 path runs via 1; the tied route via 2 is as short.
        g = WeightedGraph(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        assert verify_spanner(g, {(0, 2), (2, 3)}, [(3, 0)], budget("LOCAL", 0)) == []
        assert verify_spanner(g, {(0, 2), (1, 3)}, [(3, 0)], budget("LOCAL", 0)) == [(3, 0)]

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 2)])
    def test_pair_outside_the_graph_is_a_value_error(self, pair):
        u, v = pair
        with pytest.raises(ValueError, match=rf"pair \({u},{v}\) references a vertex outside 0\.\.2"):
            verify_spanner(TRIANGLE, TRIANGLE.edge_set, [pair], budget("GLOBAL", 2))


@st.composite
def subgraph_checks(draw):
    """(graph, subgraph, pairs): per pair, the subgraph keeps its canonical
    path, a drawn shortest path (often a tied one on weights 1..2), or its
    canonical path with one or more edges cut; a few other graph edges ride
    along.  Pairs come in either orientation."""
    max_w = draw(st.sampled_from((1, 2, 5)))
    g = draw(connected_graphs(min_n=2, max_w=max_w))
    all_pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    pairs = draw(st.permutations(all_pairs))[:draw(st.integers(1, len(all_pairs)))]
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    h = set()
    for u, v in pairs:
        kind = draw(st.sampled_from(("canonical", "shortest", "cut")))
        if kind == "shortest":
            dist = bellman_ford(g.n, g.edges, u)
            walk = [v]
            while walk[-1] != u:
                x = walk[-1]
                walk.append(draw(st.sampled_from(
                    [y for y, w in g.adj[x] if dist[y] + w == dist[x]])))
            h.update(edge_key(a, b) for a, b in zip(walk, walk[1:]))
        else:
            edges = g.paths.path_edges(u, v)
            if kind == "cut":
                cut = draw(st.sets(st.sampled_from(edges), min_size=1))
                edges = [e for e in edges if e not in cut]
            h.update(edges)
    h |= draw(st.sets(st.sampled_from(sorted(g.edge_set)), max_size=2))
    return g, h, pairs


@given(subgraph_checks())
@settings(max_examples=200)
def test_verify_spanner_matches_a_bellman_ford_verifier(case):
    g, h, pairs = case
    for mode in ("GLOBAL", "LOCAL"):
        for c in (0, 1, 2):
            b = budget(mode, c)
            assert verify_spanner(g, h, pairs, b) == bellman_ford_violations(g, h, pairs, b)


def test_check_searches_the_subgraph_only_for_pairs_off_their_canonical_path(monkeypatch):
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pairs = terminal_pairs(range(0, g.n, 5))
    h = {e for u, v in pairs for e in g.paths.path_edges(u, v)}
    calls = dict.fromkeys(("dijkstra_distances", "subgraph_adjacency"), 0)
    for name in calls:
        def counting(*args, name=name, real=getattr(core, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(core, name, counting)
    for mode in ("GLOBAL", "LOCAL"):
        assert verify_spanner(g, h, pairs, budget(mode, 0)) == []
    assert calls == {"dijkstra_distances": 0, "subgraph_adjacency": 0}
    cut = h - {g.paths.path_edges(*pairs[0])[0]}
    for mode in ("GLOBAL", "LOCAL"):
        calls.update(dijkstra_distances=0, subgraph_adjacency=0)
        b = budget(mode, 0)
        assert verify_spanner(g, cut, pairs, b) == bellman_ford_violations(g, cut, pairs, b)
        assert calls["subgraph_adjacency"] == 1 and calls["dijkstra_distances"] >= 1


@given(connected_graphs())
@settings(max_examples=40)
def test_whole_graph_is_always_a_valid_spanner(g):
    pairs = terminal_pairs(range(g.n))
    for mode in ("GLOBAL", "LOCAL"):
        assert verify_spanner(g, g.edge_set, pairs, budget(mode, 0)) == []


class TestHopRadius:
    def test_path_graph(self):
        assert hop_radius(WeightedGraph(3, ((0, 1, 5), (1, 2, 9)))) == 1

    def test_complete_graph(self):
        k5 = WeightedGraph(5, tuple((u, v, 1) for u in range(5) for v in range(u + 1, 5)))
        assert hop_radius(k5) == 1

    def test_cycle_c6(self):
        c6 = WeightedGraph(6, tuple((i, (i + 1) % 6, 1) for i in range(6)))
        # BFS from any vertex of C6 reaches the opposite vertex in 3 hops.
        assert hop_radius(c6) == 3

    def test_ignores_weights(self):
        g = WeightedGraph(3, ((0, 1, 100), (1, 2, 100), (0, 2, 1)))
        assert hop_radius(g) == 1

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            hop_radius(WeightedGraph(3, ((0, 1, 1),)))


def test_error_budget_validation():
    with pytest.raises(ValueError):
        ErrorBudget(BudgetMode.GLOBAL, -1)


def test_error_budget_rejects_bool_coefficient():
    with pytest.raises(ValueError, match="got True"):
        ErrorBudget(BudgetMode.GLOBAL, True)


def test_edge_key_and_terminal_pairs():
    assert edge_key(5, 2) == (2, 5)
    assert terminal_pairs([3, 1, 2]) == [(1, 2), (1, 3), (2, 3)]
