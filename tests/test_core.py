import concurrent.futures
import enum
import gc
import math
import re
import sys
import threading
import tracemalloc
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
from wspanner.pairwise import PairwiseAlgo, PairwiseParams, d_light_init, pairwise_spanner
from wspanner.subsetwise import subsetwise_2w

from helpers import (
    bellman_ford,
    bellman_ford_violations,
    brute_force_distance,
    canonical_edges,
    hop_radius,
    light_first_reference,
    made_subgraphs,
    path_edge_keys,
    reordered_pairs,
    scanned_leaving,
    tree_path,
)
from strategies import any_graphs, connected_graphs

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

    def test_adjacency_of_a_middle_vertex_takes_its_lower_neighbors_first(self):
        g = WeightedGraph(5, ((2, 4, 1), (3, 2, 2), (1, 2, 3), (2, 0, 4)))
        assert g.adj[2] == ((0, 4), (1, 3), (3, 2), (4, 1))

    def test_light_first_orders_by_weight_then_neighbor_id(self):
        g = WeightedGraph(5, ((2, 4, 1), (3, 2, 2), (1, 2, 1), (2, 0, 2), (0, 1, 1)))
        assert g.light_first == (((0, 1), (0, 2)), ((0, 1), (1, 2)),
                                 ((1, 2), (2, 4), (0, 2), (2, 3)), ((2, 3),), ((2, 4),))

    @pytest.mark.parametrize("edges,message", [
        (((True, 2, 1),), "edge (True,2) has a vertex id that is not an integer"),
        (((0, 1.0, 1),), "edge (0,1.0) has a vertex id that is not an integer"),
        ((("0", 1, 1),), "edge ('0',1) has a vertex id that is not an integer"),
        (((1, 1, 1),), "self-loop at vertex 1"),
        (((-1, 1, 1),), "edge (-1,1) references a vertex outside 0..2"),
        (((0, 3, 1),), "edge (0,3) references a vertex outside 0..2"),
        (((0, 1, 0),), "edge (0,1) weight 0 is not an integer >= 1"),
        (((0, 1, -2),), "edge (0,1) weight -2 is not an integer >= 1"),
        (((0, 1, True),), "edge (0,1) weight True is not an integer >= 1"),
        (((0, 1, 1.0),), "edge (0,1) weight 1.0 is not an integer >= 1"),
        (((0, 1, 1), (1, 0, 2)), "parallel edge (0, 1)"),
        # the first bad edge in input order wins
        (((0, 1, 1), (2, 2, 1), (0, 5, 1), (1, 0, 1)), "self-loop at vertex 2"),
        (((0, 1, 1), (1, 0, 1), (True, 2, 1)), "parallel edge (0, 1)"),
        # within one edge: id type, self-loop, range, weight, parallel
        (((1.0, 1.0, 0),), "edge (1.0,1.0) has a vertex id that is not an integer"),
        (((5, 5, 0),), "self-loop at vertex 5"),
        (((0, 5, 0),), "edge (0,5) references a vertex outside 0..2"),
        (((0, 1, 1), (1, 0, 0)), "edge (1,0) weight 0 is not an integer >= 1"),
    ], ids=["bool-id", "float-id", "str-id", "self-loop", "negative-id", "id-at-n", "zero-weight",
            "negative-weight", "bool-weight", "float-weight", "reversed-duplicate",
            "first-edge-wins", "parallel-before-later-type", "type-before-self-loop",
            "self-loop-before-range", "range-before-weight", "weight-before-parallel"])
    def test_edge_check_message_and_precedence(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedGraph(3, edges)

    def test_accepts_an_int_subclass_other_than_bool_as_is_int_does(self):
        # the inline check tests exactly what core._is_int tests
        Vertex = enum.IntEnum("Vertex", "ONE TWO")
        g = WeightedGraph(3, ((Vertex.TWO, Vertex.ONE, Vertex.TWO),))
        assert g.edges == ((1, 2, 2),) and g.light_first[2] == ((1, 2),)

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

    def test_parse_skips_blank_lines(self):
        text = write_graph_text(TRIANGLE)
        assert parse_graph_text(text + "\n") == TRIANGLE
        assert parse_graph_text("\n" + text.replace("\n", "\n \n")) == TRIANGLE

    @pytest.mark.parametrize("text,message", [
        ("3 2\n0 1 1\n1 2\n", "bad edge line '1 2'"),
        ("3 2\n0 1 1 1\n1 2 1\n", "bad edge line '0 1 1 1'"),
        ("3 2\n 0\t1 \n1 2 1\n", "bad edge line ' 0\\t1 '"),
        # an unparseable integer above the first malformed line is reported first
        ("3 2\n0 x 1\n1 2\n", "invalid literal for int() with base 10: 'x'"),
        ("3 2\n0 1\n1 x 1\n", "bad edge line '0 1'"),
    ], ids=["two-tokens", "four-tokens", "original-text", "int-error-first", "line-error-first"])
    def test_parse_names_the_first_malformed_edge_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph_text(text)


@given(connected_graphs(max_n=9, max_w=2), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_derived_lists_do_not_depend_on_the_edge_order_and_match_their_reference(g, rnd):
    """Weights in {1, 2}, so weight ties are common."""
    fed = [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
    rnd.shuffle(fed)
    shuffled, plain = WeightedGraph(g.n, tuple(fed)), WeightedGraph(g.n, tuple(sorted(g.edges)))
    for attr in ("edges", "adj", "light_first", "weight_map"):
        assert getattr(shuffled, attr) == getattr(plain, attr)
    assert all(a[0] < b[0] for entry in shuffled.adj for a, b in zip(entry, entry[1:]))
    reference = light_first_reference(shuffled)
    assert shuffled.light_first == reference
    for d in range(1, max(map(len, reference)) + 1):
        assert d_light_init(shuffled, d) == {e for entry in reference for e in entry[:d]}


@given(connected_graphs(), st.data())
@settings(max_examples=60)
def test_subgraph_text_equals_the_text_of_the_rebuilt_subgraph(g, data):
    keep = {e for e in sorted(g.weight_map.keys()) if data.draw(st.booleans())}
    rebuilt = WeightedGraph(g.n, tuple((u, v, g.weight_map[u, v]) for u, v in keep))
    assert write_graph_text(g, keep) == write_graph_text(rebuilt)
    assert write_graph_text(g, g.weight_map.keys()) == write_graph_text(g)


class TestPathTable:
    def test_path_graph(self):
        g = WeightedGraph(3, ((0, 1, 2), (1, 2, 3)))
        pt = g.paths
        assert pt.dist(0, 2) == 5
        assert canonical_edges(pt, 0, 2) == ((0, 1), (1, 2))
        assert pt.max_weight(0, 2) == 3

    def test_triangle_prefers_lighter_route(self):
        # Independent check: enumerate both 0-2 routes by brute force.
        assert brute_force_distance(TRIANGLE, 0, 2) == 2
        pt = TRIANGLE.paths
        assert pt.dist(0, 2) == 2
        assert canonical_edges(pt, 0, 2) == ((0, 1), (1, 2))
        assert pt.max_weight(0, 2) == 1

    def test_single_vertex(self):
        pt = build_path_table(WeightedGraph(1, ()))
        assert pt.dist(0, 0) == 0
        assert canonical_edges(pt, 0, 0) == ()
        assert pt.max_weight(0, 0) == 0

    def test_is_connected(self):
        assert WeightedGraph(1, ()).is_connected
        assert TRIANGLE.is_connected
        assert not WeightedGraph(3, ((0, 1, 1),)).is_connected
        assert not WeightedGraph(2, ()).is_connected

    def test_disconnected_pair_gets_sentinel(self):
        g = WeightedGraph(3, ((0, 1, 1),))
        pt = g.paths
        assert pt.dist(0, 2) == UNREACHABLE
        assert canonical_edges(pt, 0, 2) is None and canonical_edges(pt, 2, 0) is None

    def test_equal_weight_ties_take_smaller_predecessor(self):
        # Two weight-2 routes 0->3: via 1 and via 2; the tie goes to vertex 1.
        g = WeightedGraph(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
        pt = g.paths
        assert pt.row(0)[1][3] == 1
        assert canonical_edges(pt, 0, 3) == canonical_edges(pt, 3, 0) == ((0, 1), (1, 3))


def _tree_oracle(g, s):
    """(dist, smallest-id parents, path maxima) from Bellman-Ford distances:
    the parent of v is the smallest u whose edge to v is tight."""
    dist = bellman_ford(g.n, g.edges, s)
    parent = [min((u for u, w in g.adj[v] if dist[u] + w == dist[v]), default=-1)
              if v != s and dist[v] != UNREACHABLE else -1 for v in range(g.n)]
    wmax = [0] * g.n
    for v in range(g.n):
        x = v
        while parent[x] >= 0:
            wmax[v] = max(wmax[v], g.weight_map[edge_key(x, parent[x])])
            x = parent[x]
    return dist, parent, wmax


@given(st.one_of(connected_graphs(max_w=2), any_graphs()))
@settings(max_examples=200)
def test_tree_parents_and_path_max_follow_the_smallest_id_rule(g):
    # Weights 1..2 make many equal-length routes; any_graphs adds disconnected
    # graphs and weights up to 10**12 with ties at every scale.
    pt = g.paths
    for s in range(g.n):
        dist, parent, wmax = _tree_oracle(g, s)
        assert core.shortest_path_row(g.adj, g.n, s) == (dist, parent)
        assert pt.row(s) == (dist, parent)
        for v in range(s + 1, g.n):
            assert pt.max_weight(s, v) == wmax[v]


@given(any_graphs())
@settings(max_examples=100)
def test_is_connected_matches_bellman_ford(g):
    assert g.is_connected == (UNREACHABLE not in bellman_ford(g.n, g.edges, 0))


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
    for u, v in [(u, v) for u in range(g.n) for v in range(g.n)]:
        edges = pt.path(u, v)
        weights = [g.weight_map[e] for e in edges]
        assert sum(weights) == pt.dist(u, v)
        assert edges == canonical_edges(pt, v, u)
        assert pt.max_weight(u, v) == max(weights, default=0) <= g.weight_max


@given(connected_graphs())
@settings(max_examples=40)
def test_tree_paths_are_prefix_consistent_per_source(g):
    # The tie-break guarantees prefix consistency within each source's tree:
    # the canonical path of {u, v} comes from the source-min(u, v) tree, and
    # each of its prefixes that ends at a y > u is the canonical path of {u, y}.
    pt = g.paths
    for u in range(g.n):
        for v in range(u + 1, g.n):
            path = tree_path(pt, u, v)
            edges = canonical_edges(pt, u, v)
            assert edges == path_edge_keys(path)
            for i, y in enumerate(path):
                if u < y:
                    assert canonical_edges(pt, u, y) == edges[:i]


@given(st.one_of(connected_graphs(), any_graphs()), st.data())
@settings(max_examples=150)
def test_dijkstra_limit_keeps_every_entry_up_to_it_exact(g, data):
    kept = [(u, v, w) for u, v, w in g.edges if data.draw(st.booleans())]
    h = core.Subgraph(g, [(u, v) for u, v, _ in kept])
    s = data.draw(st.integers(0, g.n - 1))
    exact = bellman_ford(g.n, kept, s)
    assert h.dist(s) == exact
    assert h.dist(s, limit=UNREACHABLE) == exact
    finite = sorted({d for d in exact if d != UNREACHABLE})
    limit = data.draw(st.one_of(st.integers(0, 5 * g.n), st.sampled_from(finite).flatmap(
        lambda d: st.sampled_from([d - 1, d, d + 1]))))
    bounded = h.dist(s, limit=limit)
    for got, want in zip(bounded, exact):
        assert got == want if want <= limit else got > limit


def test_row_kernel_allocates_nothing_proportional_to_the_weights():
    g = WeightedGraph(3, ((0, 1, 10**15), (1, 2, 10**15), (0, 2, 3 * 10**15)))
    adj = g.adj
    tracemalloc.start()
    try:
        row = core.shortest_path_row(adj, g.n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row == ([0, 10**15, 2 * 10**15], [-1, 0, 1])
    assert peak < 4096


@given(any_graphs(max_w=5))
@settings(max_examples=100)
def test_path_edges_are_the_edges_of_the_canonical_path(g):
    # path's edges of {u, v} are those of the tree path from min(u, v),
    # walked through the parents of its row, and None when it is unreachable.
    pt = g.paths
    for u, v in [(u, v) for u in range(g.n) for v in range(g.n)]:
        path = tree_path(pt, min(u, v), max(u, v))
        assert pt.path(u, v) == (None if path is None else path_edge_keys(path))


def test_each_canonical_edge_tuple_is_built_once():
    # Every later read, in any order and either orientation, returns the
    # object built by the first one.
    g = generate(GeneratorSpec(Model.ER, 30, 4))
    pt = g.paths
    pairs = [(u, v) for u in range(0, 30, 3) for v in range(30)]
    first = {edge_key(u, v): canonical_edges(pt, u, v) for u, v in pairs}
    for order in (pairs, pairs[::-1], sorted(pairs, key=lambda p: p[1])):
        for u, v in order:
            assert pt.path(u, v) is first[edge_key(u, v)] is canonical_edges(pt, v, u)


def _answers(pt, sources, n):
    """Every per-pair answer of the table, asked source by source in the given order."""
    return {(s, v): (pt.dist(s, v), canonical_edges(pt, s, v), pt.max_weight(s, v),
                     pt.row(s)[1][v])
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
    assert pt.dist(4, 1) == 3 and pt.max_weight(1, 4) == 1
    assert canonical_edges(pt, 4, 1) == ((1, 2), (2, 3), (3, 4))
    assert pt.row(3)[1][0] == 1
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


@st.composite
def graphs_with_pair_lists(draw):
    """A graph, often disconnected, and a list of its vertex pairs in either
    orientation, with repeats and u == v pairs."""
    g = draw(any_graphs(max_w=6))
    vertex = st.integers(0, g.n - 1)
    return g, draw(st.lists(st.tuples(vertex, vertex), max_size=12))


@given(graphs_with_pair_lists(), st.data())
@settings(max_examples=60)
def test_leaving_matches_the_per_pair_scan(case, data):
    # One table answers a list and its copies, each indexed anew, and its own
    # tuple of a drawn terminal set from the index its first call kept, for
    # random subgraphs and for a growing one.
    g, pairs = case
    pt = g.paths
    own = pt.terminal_pairs(data.draw(st.sets(st.integers(0, g.n - 1))))
    edges = sorted(g.weight_map.keys())
    subgraphs = st.sets(st.sampled_from(edges)) if edges else st.just(set())
    grown: set = set()
    for _ in range(4):
        grown |= data.draw(subgraphs)
        for h in (data.draw(subgraphs), set(grown)):
            for order in (pairs, list(pairs), tuple(pairs)):
                assert pt.leaving(order, h) == scanned_leaving(pt, pairs, h)
            assert pt.leaving(own, h) == scanned_leaving(pt, own, h)
    assert pt.leaving(pairs, g.weight_map.keys()) == []


def test_table_hands_out_one_pair_tuple_per_terminal_set():
    g = generate(GeneratorSpec(Model.ER, 30, 1))
    pt = g.paths
    first = pt.terminal_pairs([7, 2, 11, 2])
    assert type(first) is tuple and first == tuple(terminal_pairs([2, 7, 11]))
    for same in ([11, 7, 2], (2, 7, 11), {7, 11, 2}, frozenset({2, 7, 11}), iter([2, 11, 7])):
        assert pt.terminal_pairs(same) is first
    assert pt.terminal_pairs([2, 7]) == ((2, 7),)
    assert WeightedGraph(g.n, g.edges).paths.terminal_pairs([2, 7, 11]) is not first


def test_leaving_keeps_no_index_for_a_sequence_the_table_did_not_hand_out():
    # Equal contents are not enough: only the table's own tuple keeps its
    # index, so a caller's list costs one index per call and nothing after.
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pt = g.paths
    pairs = terminal_pairs(range(0, 40, 3))
    h = set(sorted(g.weight_map)[::2])
    own = pt.terminal_pairs(range(0, 40, 3))
    before = dict(pt._indexes)
    for seq in (pairs, tuple(pairs), list(own)):
        assert pt.leaving(seq, h) == scanned_leaving(pt, pairs, h)
    assert pt._indexes == before
    assert pt.leaving(own, h) == scanned_leaving(pt, pairs, h)
    assert pt._indexes.keys() == before.keys() and pt._indexes[id(own)] is not None


def test_threads_sharing_a_table_get_one_pair_tuple_per_set():
    # Racing first reads of a terminal set hand every thread the one tuple
    # the table keeps, and the table keeps indexes only under the ids of
    # tuples it still holds, so no id can come back on another object.  A
    # plain store in place of setdefault fails this on most of the sets.
    g = generate(GeneratorSpec(Model.ER, 60, 3))
    pt = g.paths
    sets = [set(range(60)) - {s} for s in range(40)]
    h = set(sorted(g.weight_map)[::2])
    got: list[list] = [[] for _ in sets]
    barrier = threading.Barrier(8)

    def work():
        for i, s in enumerate(sets):
            barrier.wait(timeout=60)
            pairs = pt.terminal_pairs(s)
            got[i].append((pairs, pt.leaving(pairs, h)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            for future in [pool.submit(work) for _ in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for runs in got:
        pairs = runs[0][0]
        assert len(runs) == 8 and all(p is pairs for p, _ in runs)
        assert all(left == scanned_leaving(pt, pairs, h) for _, left in runs)
    assert pt._indexes.keys() == set(map(id, pt._pairs.values()))


def test_leaving_answers_a_list_changed_in_place_for_its_new_contents():
    # The same list object with new contents must not meet an index kept
    # for its old ones, or the check would pass pairs it never searched.
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pairs = terminal_pairs(range(0, 40, 3))
    h = {e for u, v in pairs[:20] for e in g.paths.path(u, v)}
    b = budget("GLOBAL", 0)
    old = g.paths.leaving(pairs, h)
    flagged = verify_spanner(g, h, pairs, b)
    pairs.reverse()
    assert scanned_leaving(g.paths, pairs, h) != old
    assert g.paths.leaving(pairs, h) == scanned_leaving(g.paths, pairs, h)
    assert verify_spanner(g, h, pairs, b) == bellman_ford_violations(g, h, pairs, b)
    assert sorted(flagged) == sorted(verify_spanner(g, h, pairs, b))


def _built_path_tuples(pt) -> set:
    """(source, target) of every canonical-path edge tuple the table holds."""
    return {(s, t) for s, (_, _, edges) in pt._rows.items()
            for t, pe in enumerate(edges) if pe is not None}


def test_leaving_builds_path_tuples_only_for_pairs_it_returns():
    # The index comes from the rows' parent arrays and leaving hands out
    # positions: whether it returns no pair or every one, each row's edge
    # tuples stay unbuilt but for the source's (), until path reads them.
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pairs = terminal_pairs(range(0, 40, 3))
    pt = g.paths
    assert pt.leaving(pairs, g.weight_map.keys()) == []
    assert pt._rows.keys() == {u for u, _ in pairs}
    sources_only = {(s, s) for s in pt._rows}
    assert _built_path_tuples(pt) == sources_only
    assert all(pt._rows[s][2][s] == () for s in pt._rows)
    assert pt.leaving(pairs, set()) == list(range(len(pairs)))
    assert _built_path_tuples(pt) == sources_only
    assert all(pt.path(u, v) is pt._rows[u][2][v] for u, v in pairs)


def test_global_check_builds_no_path_tuple():
    # A GLOBAL budget needs no W(u, v), so on a fresh graph the check of an
    # empty subgraph flags every pair and builds only each source's ().
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pairs = terminal_pairs(range(0, 40, 3))
    assert verify_spanner(g, set(), pairs, budget("GLOBAL", 2)) == pairs
    assert _built_path_tuples(g.paths) == {(s, s) for s in g.paths._rows}


@pytest.mark.parametrize("pair", [(-1, 2), (2, -1), (0, 3), (3, 0), (-1, 3), (4, -2)])
def test_path_outside_the_graph_is_a_one_line_value_error(pair):
    # Either orientation, negative ids included: -1 does not wrap to the
    # last row.  max_weight reads through path and dist reads the same
    # checked row, so they raise alike, and no row is cached.
    u, v = pair
    pt = WeightedGraph(TRIANGLE.n, TRIANGLE.edges).paths
    message = rf"^pair \({u},{v}\) references a vertex outside 0\.\.2$"
    for read in (pt.path, pt.max_weight, pt.dist):
        with pytest.raises(ValueError, match=message):
            read(u, v)
    assert pt._rows == {}


@pytest.mark.parametrize("s", [-1, 3])
def test_row_outside_the_graph_is_a_value_error(s):
    pt = WeightedGraph(TRIANGLE.n, TRIANGLE.edges).paths
    with pytest.raises(ValueError, match=r"references a vertex outside 0\.\.2$"):
        pt.row(s)
    assert pt._rows == {}


def test_max_weight_of_a_pathless_pair_is_zero():
    pt = WeightedGraph(3, ((0, 1, 4),)).paths
    assert pt.path(0, 2) is None and pt.path(2, 0) is None
    assert pt.max_weight(0, 2) == pt.max_weight(2, 0) == 0
    assert pt.max_weight(0, 1) == 4


class TestVerifySpanner:
    def test_heavy_edge_within_global_budget(self):
        assert verify_spanner(TRIANGLE, {(0, 2)}, [(0, 2)], budget("GLOBAL", 2)) == []

    def test_empty_subgraph_violates(self):
        assert verify_spanner(TRIANGLE, set(), [(0, 2)], budget("GLOBAL", 99)) == [(0, 2)]

    def test_full_graph_never_violates(self):
        pairs = terminal_pairs(range(3))
        assert verify_spanner(TRIANGLE, TRIANGLE.weight_map.keys(), pairs, budget("GLOBAL", 0)) == []
        assert verify_spanner(TRIANGLE, TRIANGLE.weight_map.keys(), pairs, budget("LOCAL", 0)) == []

    def test_rejects_foreign_edges(self):
        with pytest.raises(ValueError):
            verify_spanner(TRIANGLE, {(0, 5)}, [(0, 2)], budget("GLOBAL", 2))

    def test_rejects_a_reversed_key_of_a_graph_edge(self):
        with pytest.raises(ValueError, match=r"must be \(min, max\) keys of graph edges: \[\(2, 0\)\]"):
            verify_spanner(TRIANGLE, {(0, 1), (2, 0)}, [(0, 2)], budget("GLOBAL", 2))

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
            verify_spanner(TRIANGLE, TRIANGLE.weight_map.keys(), [pair], budget("GLOBAL", 2))

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 2)])
    def test_pair_outside_the_graph_raises_on_every_call(self, pair):
        # A failed index build keeps nothing, so every later call on the same
        # list, or on the table's own tuple of a set holding the vertex,
        # raises again, with the whole graph as the subgraph too.
        g = WeightedGraph(TRIANGLE.n, TRIANGLE.edges)
        for pairs in ([(0, 2), pair], g.paths.terminal_pairs([0, 2, *pair])):
            for h in (g.weight_map.keys(), g.weight_map.keys(), set(), {(0, 1)},
                      g.weight_map.keys()):
                with pytest.raises(ValueError, match=r"references a vertex outside 0\.\.2"):
                    verify_spanner(g, h, pairs, budget("GLOBAL", 2))


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
            edges = canonical_edges(g.paths, u, v)
            if kind == "cut":
                cut = draw(st.sets(st.sampled_from(edges), min_size=1))
                edges = [e for e in edges if e not in cut]
            h.update(edges)
    h |= draw(st.sets(st.sampled_from(sorted(g.weight_map.keys())), max_size=2))
    return g, h, pairs


@given(subgraph_checks())
@settings(max_examples=200)
def test_verify_spanner_matches_a_bellman_ford_verifier(case):
    g, h, pairs = case
    for mode in ("GLOBAL", "LOCAL"):
        for c in (0, 1, 2):
            b = budget(mode, c)
            assert verify_spanner(g, h, pairs, b) == bellman_ford_violations(g, h, pairs, b)


@given(subgraph_checks(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_check_does_not_depend_on_pair_order(case, rnd):
    g, h, pairs = case
    pairs = sorted({edge_key(u, v) for u, v in pairs})
    b = budget("LOCAL", 1)
    flagged = set(verify_spanner(g, h, pairs, b))
    for order in reordered_pairs(pairs, rnd):
        assert verify_spanner(WeightedGraph(g.n, g.edges), h, order, b) == [
            p for p in order if edge_key(*p) in flagged]


def test_check_searches_the_subgraph_only_for_pairs_off_their_canonical_path(monkeypatch):
    # A check makes a subgraph to search only when a pair leaves it, and
    # then searches each source once.
    g = generate(GeneratorSpec(Model.ER, 40, 3))
    pairs = terminal_pairs(range(0, g.n, 5))
    h = {e for u, v in pairs for e in g.paths.path(u, v)}
    sources = []
    real = core.dijkstra_distances
    monkeypatch.setattr(core, "dijkstra_distances", lambda *a: sources.append(a[2]) or real(*a))
    made = made_subgraphs(monkeypatch)
    for mode in ("GLOBAL", "LOCAL"):
        assert verify_spanner(g, h, pairs, budget(mode, 0)) == []
    assert sources == [] and made == []
    cut = h - {canonical_edges(g.paths, *pairs[0])[0]}
    for mode in ("GLOBAL", "LOCAL"):
        made.clear()
        sources.clear()
        b = budget(mode, 0)
        assert verify_spanner(g, cut, pairs, b) == bellman_ford_violations(g, cut, pairs, b)
        assert len(made) == 1 and made[0]._adj is not None
        assert sources and len(sources) == len(set(sources))


@given(st.one_of(connected_graphs(), any_graphs()), st.data())
@settings(max_examples=100)
def test_subgraph_distances_match_bellman_ford_after_any_adds(g, data):
    # Batches of g's edge keys, repeats allowed, grow one subgraph, searched
    # from a drawn source between some batches and after the last one, so
    # the adds come both before and after its lists exist.
    keys = st.lists(st.sampled_from(sorted(g.weight_map)), max_size=6) if g.edges else st.just([])
    batches = data.draw(st.lists(keys, min_size=1, max_size=4))

    def check(h):
        s = data.draw(st.integers(0, g.n - 1))
        assert h.dist(s) == bellman_ford(g.n, [e for e in g.edges if e[:2] in h.edges], s)

    h = core.Subgraph(g, batches[0])
    for batch in batches[1:]:
        if data.draw(st.booleans()):
            check(h)
        h.add(batch)
    check(h)
    assert h.edges == set().union(*map(set, batches))


def test_subgraph_builds_its_lists_at_its_first_search_and_grows_them_after():
    h = core.Subgraph(TRIANGLE, [(0, 2)])
    h.add([(0, 1)])
    assert h._adj is None and h.edges == {(0, 1), (0, 2)}
    assert h.dist(2) == [3, 4, 0]
    h.add([(1, 2), (0, 1)])
    assert h.dist(2) == [2, 1, 0] and h.edges == TRIANGLE.weight_map.keys()
    # each edge once in its ends' lists, as in the whole graph's adjacency
    assert [sorted(entry) for entry in h._adj] == [list(entry) for entry in TRIANGLE.adj]


@given(connected_graphs())
@settings(max_examples=40)
def test_whole_graph_is_always_a_valid_spanner(g):
    pairs = terminal_pairs(range(g.n))
    for mode in ("GLOBAL", "LOCAL"):
        assert verify_spanner(g, g.weight_map.keys(), pairs, budget(mode, 0)) == []


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


def test_error_budget_mode_value_acts_as_its_mode_and_an_unknown_one_is_rejected():
    # On the path 0-1-2 with weights 1 and 5, W_max is 5 and W(0, 1) is 1.
    g = WeightedGraph(3, ((0, 1, 1), (1, 2, 5)))
    for value, mode, allowance in (("global", BudgetMode.GLOBAL, 10),
                                   ("local", BudgetMode.LOCAL, 2)):
        b = ErrorBudget(value, 2)
        assert b == ErrorBudget(mode, 2) and b.mode is mode
        assert b.allowance(g, 0, 1) == allowance
    with pytest.raises(ValueError, match="bogus"):
        ErrorBudget("bogus", 1)


@pytest.mark.parametrize("c", [0, 1, 2])
@pytest.mark.parametrize("mode", ["GLOBAL", "LOCAL"])
@given(g=connected_graphs())
@settings(max_examples=30)
def test_limit_is_the_bellman_ford_distance_plus_the_allowance(mode, c, g):
    b = budget(mode, c)
    for u in range(g.n):
        dist = bellman_ford(g.n, g.edges, u)
        for v in range(g.n):
            assert b.limit(g, u, v) == dist[v] + b.allowance(g, u, v)


def test_limit_of_a_pair_the_graph_does_not_connect_is_a_one_line_value_error():
    g = WeightedGraph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(ValueError, match=r"^terminal pair \(3,1\) is disconnected$"):
        budget("GLOBAL", 2).limit(g, 3, 1)


def test_edge_key_and_terminal_pairs():
    assert edge_key(5, 2) == (2, 5)
    assert terminal_pairs([3, 1, 2]) == [(1, 2), (1, 3), (2, 3)]
