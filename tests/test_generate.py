from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import core
from wspanner.core import WeightedGraph, connects
from wspanner.generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    _topology,
    generate,
    generate_terminals,
    parse_terminals_text,
    write_terminals_text,
)
from wspanner.seeding import ROLE_TOPOLOGY, stream

from helpers import hop_radius
from test_golden import _first_disconnected_ge_seeds

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
        g = generate(spec("ba", 6, 0))  # m = 5
        assert len(g.edges) == 15  # K6

    def test_ws_keeps_lattice_edge_count(self):
        g = generate(spec("ws", 20, 1))
        assert len(g.edges) == 20 * 6 // 2
        # On 7 vertices the lattice is K7, so a drawn rewire finds no target.
        assert len(generate(spec("ws", 7, 1)).edges) == 21

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
            assert g.is_connected
            assert all(1 <= w <= 10 for _, _, w in g.edges)
            assert len({(u, v) for u, v, _ in g.edges}) == len(g.edges)

    def test_a_redrawn_topology_builds_one_graph(self, monkeypatch):
        # Connectivity is tested on each drawn topology, so only the kept
        # draw is weighed and built; GE n=22 seed 0 redraws its first draw.
        first = _topology(spec("ge", 22, 0), stream(0, ROLE_TOPOLOGY, 0))
        assert not connects(22, first)
        built = []
        monkeypatch.setitem(generate.__globals__, "WeightedGraph",
                            lambda *a: built.append(WeightedGraph(*a)) or built[-1])
        g = generate(spec("ge", 22, 0))
        assert built == [g] and g.is_connected

    @pytest.mark.parametrize("model,n,seed", [("er", 30, 1),
                                              ("ge", 22, _first_disconnected_ge_seeds(2)[1])])
    def test_a_generated_graph_keeps_its_connectivity_verdict(self, model, n, seed, monkeypatch):
        # generate searched the kept topology (for GE after a disconnected
        # first draw), so reading is_connected searches no more.
        searches = []
        monkeypatch.setattr(core, "connects", lambda *a: searches.append(a) or connects(*a))
        g = generate(spec(model, n, seed))
        assert g.is_connected and searches == []
        assert connects(g.n, g.edges)

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
        with pytest.raises(ValueError, match="WS needs n > K=6"):
            generate(spec("ws", 6, 0))
        with pytest.raises(ValueError, match="BA needs n > m=5"):
            generate(spec("ba", 5, 0))
        with pytest.raises(ValueError):
            generate(spec("er", 5, 0, weight_range=(0, 10)))

    @pytest.mark.parametrize("model,n,weight_range,message", [
        ("er", 1, (1, 10), "need n >= 2"),
        ("ws", 6, (1, 10), "WS needs n > K=6, got n=6"),
        ("ba", 5, (1, 10), "BA needs n > m=5, got n=5"),
        ("er", 5, (0, 10), "bad weight range (0, 10)"),
        ("er", 5, (4, 3), "bad weight range (4, 3)"),
    ], ids=["er-1", "ws-6", "ba-5", "weight-0", "weight-reversed"])
    def test_spec_rejects_bad_parameters_at_construction(self, model, n, weight_range, message):
        with pytest.raises(ValueError) as exc:
            GeneratorSpec(model, n, 0, weight_range)
        assert str(exc.value) == message

    def test_ws_smallest_legal_size_generates(self):
        assert generate(GeneratorSpec("ws", 7, 0)).n == 7

    def test_model_value_acts_as_its_model_and_an_unknown_one_is_rejected(self):
        for model in Model:
            s = GeneratorSpec(model.value, 12, 3)
            assert s == GeneratorSpec(model, 12, 3) and s.model is model
            assert generate(s) == generate(GeneratorSpec(model, 12, 3))
        with pytest.raises(ValueError, match="bogus"):
            GeneratorSpec("bogus", 12, 3)


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

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            generate_terminals(8, TerminalSelection(TerminalScheme.LINEAR, 0, 0))

    @pytest.mark.parametrize("levels", [0, -1])
    def test_selection_rejects_fewer_than_one_level_at_construction(self, levels):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            TerminalSelection("exp", levels, 0)

    def test_method_value_acts_as_its_scheme_and_an_unknown_one_is_rejected(self):
        # The two schemes give different sets here, so a value read as the
        # wrong scheme shows.
        for method in TerminalScheme:
            sel = TerminalSelection(method.value, 2, 1)
            assert sel == TerminalSelection(method, 2, 1) and sel.method is method
            assert generate_terminals(20, sel) == generate_terminals(20, TerminalSelection(method, 2, 1))
        assert len(generate_terminals(20, TerminalSelection("linear", 2, 1))[0]) == 13
        with pytest.raises(ValueError, match="bogus"):
            TerminalSelection("bogus", 2, 1)

    @given(method=st.sampled_from(list(TerminalScheme)), levels=st.integers(1, 12),
           extra=st.integers(0, 100), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_no_level_is_empty_for_any_legal_n(self, method, levels, extra, seed):
        # LINEAR removes at most all but one vertex per level; EXPONENTIAL
        # keeps ceil(half) of a nonempty level.
        sets = generate_terminals(levels + 1 + extra, TerminalSelection(method, levels, seed))
        assert len(sets) == levels and all(sets)

    def test_sidecar_round_trip(self):
        sets = generate_terminals(10, TerminalSelection(TerminalScheme.LINEAR, 2, 1))
        text = write_terminals_text(sets)
        assert parse_terminals_text(text) == sets
        assert text.endswith("\n")
