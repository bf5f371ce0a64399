"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from wspanner.core import WeightedGraph


@st.composite
def connected_graphs(draw, min_n=1, max_n=8, max_w=5):
    """Small connected weighted graph: a random spanning tree plus extras."""
    n = draw(st.integers(min_n, max_n))
    edges: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        edges[(p, v)] = draw(st.integers(1, max_w))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and draw(st.booleans()):
                edges[(u, v)] = draw(st.integers(1, max_w))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


@st.composite
def graphs_with_terminals(draw, min_n=2, max_n=7, max_w=4, min_terminals=2):
    """(graph, terminal tuple) with at least min_terminals distinct terminals."""
    g = draw(connected_graphs(min_n=min_n, max_n=max_n, max_w=max_w))
    k = draw(st.integers(min(min_terminals, g.n), g.n))
    terminals = draw(st.permutations(range(g.n)))[:k]
    return g, tuple(sorted(terminals))


@st.composite
def graphs_with_pairs(draw, min_n=2, max_n=7, max_w=4, max_pairs=6):
    """(graph, pair list) with distinct-endpoint vertex pairs."""
    g = draw(connected_graphs(min_n=min_n, max_n=max_n, max_w=max_w))
    all_pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    count = draw(st.integers(1, min(max_pairs, len(all_pairs))))
    pairs = draw(st.permutations(all_pairs))[:count]
    return g, list(pairs)


@st.composite
def any_graphs(draw, min_n=1, max_n=8, max_w=10**12):
    """Small weighted graph, often disconnected, with weights up to max_w:
    either a graph-wide scale times 1..4, which makes equal-length routes at
    every magnitude, or any weight in 1..max_w."""
    n = draw(st.integers(min_n, max_n))
    scale = draw(st.sampled_from(sorted({1, max(1, max_w // 10**6), max(1, max_w // 4)})))
    weight = st.one_of(st.integers(1, 4).map(lambda k: k * scale), st.integers(1, max_w))
    edges = [(u, v, draw(weight)) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    return WeightedGraph(n, tuple(edges))
