from collections import Counter

import pytest

from wspanner.generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
    parse_terminals_text,
    write_terminals_text,
)

from helpers import hop_radius

def spec(model, n, seed, **kw):
    return GeneratorSpec(Model(model), n, seed, **kw)


class TestGenerate:
    def test_er_two_vertices_is_the_single_edge(self):
        # Only connected topology on two vertices; resampling forces it.
        g = generate(spec("er", 2, 0))
        assert len(g.edges) == 1
        u, v, w = g.edges[0]
        assert (u, v) == (0, 1) and 1 <= w <= 10

    def test_ba_m_equals_n_minus_1_gives_complete_graph(self):
        g = generate(spec("ba", 6, 0, ba_m=5))
        assert len(g.edges) == 15  # K6

    def test_ws_keeps_lattice_edge_count(self):
        g = generate(spec("ws", 20, 1))
        assert len(g.edges) == 20 * 6 // 2

    def test_ge_radius_statistics(self):
        # Geometric graphs should be "long": most hop radii land in [4, 12],
        # clearly above the 2-3 typical of same-size ER samples.
        radii = [hop_radius(generate(spec("ge", 30, s))) for s in range(50)]
        in_range = sum(4 <= r <= 12 for r in radii)
        assert in_range >= 30
        assert max(radii) <= 12

    @pytest.mark.parametrize("model", ["er", "ws", "ba", "ge"])
    def test_connected_simple_weighted(self, model):
        for seed in range(5):
            g = generate(spec(model, 24, seed))
            assert g.is_connected()
            assert all(1 <= w <= 10 for _, _, w in g.edges)
            assert len({(u, v) for u, v, _ in g.edges}) == len(g.edges)

    @pytest.mark.parametrize("model", ["er", "ws", "ba", "ge"])
    def test_reproducible_bit_identical(self, model):
        a = generate(spec(model, 30, 99))
        b = generate(spec(model, 30, 99))
        assert a == b
        assert generate(spec(model, 30, 100)) != a

    def test_weight_histogram_roughly_uniform(self):
        weights = []
        for seed in range(20):
            weights.extend(w for _, _, w in generate(spec("er", 150, seed)).edges)
        assert len(weights) > 10_000
        counts = Counter(weights)
        expected = len(weights) / 10
        assert set(counts) == set(range(1, 11))
        for bucket in range(1, 11):
            assert abs(counts[bucket] - expected) <= 0.05 * expected

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate(spec("er", 1, 0))
        with pytest.raises(ValueError):
            generate(spec("ws", 10, 0, ws_k=5))  # odd K
        with pytest.raises(ValueError):
            generate(spec("ws", 4, 0, ws_k=6))  # K >= n
        with pytest.raises(ValueError):
            generate(spec("ba", 4, 0, ba_m=4))  # m >= n
        with pytest.raises(ValueError):
            generate(spec("er", 5, 0, weight_range=(0, 10)))


class TestTerminals:
    def test_linear_single_level_size(self):
        sets = generate_terminals(8, TerminalSelection(TerminalScheme.LINEAR, 1, 3))
        assert len(sets) == 1 and len(sets[0]) == 4

    def test_exponential_two_level_sizes(self):
        sets = generate_terminals(8, TerminalSelection(TerminalScheme.EXPONENTIAL, 2, 3))
        assert [len(s) for s in sets] == [4, 2]

    def test_exponential_minimal_case(self):
        sets = generate_terminals(2, TerminalSelection(TerminalScheme.EXPONENTIAL, 1, 3))
        assert len(sets) == 1 and len(sets[0]) == 1

    def test_linear_three_level_sizes(self):
        sets = generate_terminals(12, TerminalSelection(TerminalScheme.LINEAR, 3, 0))
        assert [len(s) for s in sets] == [9, 6, 3]

    @pytest.mark.parametrize("method", list(TerminalScheme))
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_nested_sorted_nonempty(self, method, levels):
        for seed in range(5):
            sets = generate_terminals(17, TerminalSelection(method, levels, seed))
            assert len(sets) == levels
            for i, level in enumerate(sets):
                assert level and list(level) == sorted(set(level))
                assert all(0 <= v < 17 for v in level)
                if i:
                    assert set(level) <= set(sets[i - 1])

    def test_reproducible(self):
        sel = TerminalSelection(TerminalScheme.EXPONENTIAL, 3, 42)
        assert generate_terminals(20, sel) == generate_terminals(20, sel)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            generate_terminals(3, TerminalSelection(TerminalScheme.LINEAR, 3, 0))

    def test_sidecar_round_trip(self):
        sets = generate_terminals(10, TerminalSelection(TerminalScheme.LINEAR, 2, 1))
        text = write_terminals_text(sets)
        assert parse_terminals_text(text) == sets
        assert text.endswith("\n")
