import concurrent.futures
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspanner import bench, cli, core, exact, multilevel, pairwise, subsetwise
from wspanner.bench import (
    ExperimentPlan,
    ResultRow,
    ValidityError,
    d_sweep,
    read_rows_csv,
    rows_to_csv,
    run_plan,
    summarize,
    summary_to_csv,
)
from wspanner.core import WeightedGraph, terminal_pairs, verify_spanner
from wspanner.exact import SizeCaps
from wspanner.generate import GeneratorSpec, Model, generate, parse_terminals_text
from wspanner.pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, default_d, pairwise_spanner

from helpers import caterpillar_edges
from strategies import graphs_with_pairs


def small_plan(**overrides):
    base = dict(models=("er",), sizes=(10, 20), levels=(1,), tsms=("linear", "exp"),
                algorithms=("sub2w", "p2w"), seeds_per_cell=5, base_seed=17, exact=True)
    base.update(overrides)
    return ExperimentPlan(**base)


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.splitlines()
    idx = lines[0].split(",").index("wall_time_ms")
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[idx]
        out.append(",".join(cells))
    return "\n".join(out)


class TestRunPlan:
    def test_row_count_arithmetic(self):
        rows = run_plan(small_plan())
        # 1 model x 2 sizes x 1 level x 2 tsms x 5 seeds x 2 algorithms
        assert len(rows) == 40
        assert all(r.valid for r in rows)

    def test_rows_sorted_by_instance_then_algorithm(self):
        rows = run_plan(small_plan(seeds_per_cell=2))
        keys = [(r.instance_id, r.algorithm) for r in rows]
        assert keys == sorted(keys)

    def test_exact_off_leaves_ratio_empty(self):
        rows = run_plan(small_plan(exact=False, sizes=(10,), seeds_per_cell=2))
        assert all(r.exact_sparsity is None and r.experimental_ratio is None for r in rows)
        assert all(r.relative_sparsity is not None for r in rows)

    def test_relative_sparsity_at_least_one_with_a_winner_per_instance(self):
        rows = run_plan(small_plan(seeds_per_cell=2))
        by_instance = {}
        for r in rows:
            assert r.relative_sparsity >= 1.0
            by_instance.setdefault(r.instance_id, []).append(r.relative_sparsity)
        for values in by_instance.values():
            assert min(values) == pytest.approx(1.0)

    def test_experimental_ratio_at_least_one(self):
        rows = run_plan(small_plan(sizes=(10,), seeds_per_cell=5))
        with_exact = [r for r in rows if r.exact_sparsity is not None]
        assert with_exact, "expected at least one cap-sized instance"
        assert all(r.experimental_ratio >= 1.0 for r in with_exact)

    def test_empty_algorithm_list_rejected(self):
        with pytest.raises(ValueError):
            run_plan(small_plan(algorithms=()))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            small_plan(algorithms=("qspanner",))

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ValueError, match="'p2w' is listed twice"):
            run_plan(small_plan(algorithms=("p2w", "sub2w", "p2w")))

    def test_determinism_modulo_wall_time(self):
        plan = small_plan(seeds_per_cell=2)
        first = strip_wall_time(rows_to_csv(run_plan(plan)))
        second = strip_wall_time(rows_to_csv(run_plan(plan)))
        assert first == second

    def test_worker_pool_matches_serial(self):
        plan = small_plan(sizes=(10,), seeds_per_cell=2, exact=False)
        serial = strip_wall_time(rows_to_csv(run_plan(plan, workers=1)))
        parallel = strip_wall_time(rows_to_csv(run_plan(plan, workers=2)))
        assert serial == parallel

    @pytest.mark.parametrize("workers,pools", [(5000, [4]), (3, [3]), (1, [])])
    def test_pool_never_outnumbers_instances(self, workers, pools, monkeypatch):
        started = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_plan imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        plan = small_plan(sizes=(10,), seeds_per_cell=2, exact=False)  # 4 instances
        assert len(run_plan(plan, workers=workers)) == 8
        assert started == pools
        started.clear()
        assert len(run_plan(small_plan(sizes=(10,), tsms=("exp",), seeds_per_cell=1,
                                       exact=False), workers=workers)) == 2
        assert started == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_plan(small_plan(sizes=(10,), seeds_per_cell=1, exact=False), workers=workers)

    def test_output_files(self, tmp_path):
        plan = small_plan(sizes=(10,), seeds_per_cell=1, exact=False)
        rows = run_plan(plan, out_dir=tmp_path)
        assert (tmp_path / "rows.csv").exists()
        assert (tmp_path / "plan.json").exists()
        # wall time is stored rounded to microprecision; compare the rest
        assert strip_wall_time(rows_to_csv(read_rows_csv(tmp_path / "rows.csv"))) \
            == strip_wall_time(rows_to_csv(rows))

    def test_validity_failure_aborts(self, monkeypatch):
        def broken_solver(algo, seed, **kwargs):
            return lambda g, terminals, level, free: set()

        monkeypatch.setattr(bench, "make_solver", broken_solver)
        with pytest.raises(ValidityError):
            run_plan(small_plan(sizes=(10,), seeds_per_cell=1, exact=False))

    def test_validity_failure_on_an_upper_level_aborts(self, monkeypatch):
        # Level 1 gets the whole graph and passes; level 2 gets nothing, so
        # only a gate that checks every level of the instance catches it.
        def upper_level_broken(algo, seed, **kwargs):
            return lambda g, terminals, level, free: set(g.weight_map) if level == 1 else set()

        monkeypatch.setattr(bench, "make_solver", upper_level_broken)
        with pytest.raises(ValidityError, match=r"budget violations \[\(2, \["):
            run_plan(small_plan(sizes=(10,), levels=(2,), seeds_per_cell=1, exact=False))

    @pytest.mark.parametrize("algo", ["sub2w", "p2w", "p4w", "p8w"])
    @pytest.mark.parametrize("sweep", [False, True])
    def test_solver_handle_rejects_fewer_than_two_terminals(self, algo, sweep):
        solve = bench.make_solver(algo, 0, sweep=sweep)
        with pytest.raises(ValueError):
            solve(generate(GeneratorSpec(Model.ER, 10, 0)), frozenset({3}), 1, frozenset())

    @pytest.mark.parametrize("algo", ["sub2w", "p2w", "p4w", "p8w"])
    @pytest.mark.parametrize("sweep", [False, True])
    def test_solver_handle_starts_pairwise_h_from_the_free_edges(self, algo, sweep):
        # One pair gives d=1, and the heavy chord lies on no shortest path and
        # is no vertex's lightest edge, so only the free edges put it in a
        # pairwise H; sub2w ignores them.
        g = WeightedGraph(30, caterpillar_edges(10) + ((10, 29, 40),))
        terminals, free = frozenset({0, 9}), frozenset({(10, 29)})
        h = bench.make_solver(algo, 0, sweep=sweep)(g, terminals, 1, free)
        if algo == "sub2w":
            assert h == subsetwise.subsetwise_2w(g, terminals)
        else:
            assert free <= h
            assert free.isdisjoint(bench.make_solver(algo, 0, sweep=sweep)(g, terminals, 1, ()))

    def test_plan_level_d_sweep_stays_valid(self):
        plan = small_plan(sizes=(20,), algorithms=("p2w", "p4w"), seeds_per_cell=2,
                          exact=False, d_sweep=True)
        rows = run_plan(plan)
        assert len(rows) == 8 and all(r.valid for r in rows)
        baseline = run_plan(small_plan(sizes=(20,), algorithms=("p2w", "p4w"),
                                       seeds_per_cell=2, exact=False))
        swept = {(r.instance_id, r.algorithm): r.sparsity for r in rows}
        assert swept.keys() == {(r.instance_id, r.algorithm) for r in baseline}


def count_pair_list_work(monkeypatch) -> tuple[Counter, Counter, Counter]:
    """Counters, by pair-list content, of the lists core.terminal_pairs
    builds, the PathTable.leaving calls, and those of them that walk the
    pairs to build an index (they read rows; a call with a kept index reads
    none)."""
    built, calls, indexed = Counter(), Counter(), Counter()
    rows_read = [0]
    real_pairs, real_leaving, real_row = (core.terminal_pairs, core.PathTable.leaving,
                                          core.PathTable._row)

    def pairs(terminals):
        out = real_pairs(terminals)
        built[tuple(out)] += 1
        return out

    def row(table, u, v):
        rows_read[0] += 1
        return real_row(table, u, v)

    def leaving(table, pairs, h):
        before = rows_read[0]
        out = real_leaving(table, pairs, h)
        calls[tuple(pairs)] += 1
        indexed[tuple(pairs)] += rows_read[0] > before
        return out

    monkeypatch.setattr(core, "terminal_pairs", pairs)
    monkeypatch.setattr(core.PathTable, "_row", row)
    monkeypatch.setattr(core.PathTable, "leaving", leaving)
    return built, calls, indexed


def capture_instance(monkeypatch) -> dict:
    """A dict that the next run_instance fills with its graph ("g") and
    terminal sets ("sets"); clear it before each further run."""
    made = {}
    real_gen, real_sets = bench.generate, bench.generate_terminals
    monkeypatch.setattr(bench, "generate", lambda spec: made.setdefault("g", real_gen(spec)))
    monkeypatch.setattr(bench, "generate_terminals",
                        lambda *a: made.setdefault("sets", real_sets(*a)))
    return made


def test_instance_walks_each_terminal_pair_list_once(monkeypatch):
    # Every solve, d-sweep rung, check, validity gate and exact solve of one
    # instance reads its terminal pairs from the table's one tuple per set,
    # so each level's list is built once and indexed once, when leaving
    # first meets it; no other list is built or indexed twice either.  At
    # n=8 the exact solver runs; at n=60 its size caps refuse the instance.
    made = capture_instance(monkeypatch)
    built, calls, indexed = count_pair_list_work(monkeypatch)
    for n, solved in ((60, False), (8, True)):
        for counts in (made, built, calls, indexed):
            counts.clear()
        plan = ExperimentPlan(models=("er",), sizes=(n,), levels=(2,), tsms=("exp",),
                              algorithms=("sub2w", "p2w", "p4w", "p8w"), d_sweep=True,
                              exact=True)
        rows = bench.run_instance(plan, ((0, "er"), n, 2, (0, "exp"), 0))
        assert len(rows) == 4 and all((r.exact_sparsity is not None) == solved for r in rows)
        levels = [made["g"].paths.terminal_pairs(s) for s in made["sets"]]
        assert len(set(levels)) == 2 and all(calls[pairs] > 4 for pairs in levels)
        assert ({pairs: (built[pairs], indexed[pairs]) for pairs in levels}
                == dict.fromkeys(levels, (1, 1)))
        assert max(built.values()) == 1 and max(indexed.values()) == 1
    # the counts see every list built through core; no other module holds
    # terminal_pairs under its own name
    assert [m.__name__ for m in (bench, cli, exact, multilevel, pairwise, subsetwise)
            if hasattr(m, "terminal_pairs")] == []


def test_p8w_sweep_repairs_leave_only_the_level_pair_tuples_in_the_table(monkeypatch):
    # Each p8w subsetwise repair runs on a one-off vertex sample; its pair
    # list is the repair's own, so the table keeps the level sets' alone.
    made = capture_instance(monkeypatch)
    repairs = []
    real = pairwise.subsetwise_2w
    monkeypatch.setattr(pairwise, "subsetwise_2w",
                        lambda *a, **kw: repairs.append(a[1]) or real(*a, **kw))
    plan = ExperimentPlan(models=("er",), sizes=(40,), levels=(2,), tsms=("exp",),
                          algorithms=("p8w",), d_sweep=True)
    bench.run_instance(plan, ((0, "er"), 40, 2, (0, "exp"), 0))
    levels = set(map(frozenset, made["sets"]))
    assert set(map(frozenset, repairs)) - levels
    assert set(made["g"].paths._pairs) == levels


def test_exact_solves_of_an_instance_walk_each_pair_once(monkeypatch):
    # run_instance solves the widest budget (p8w's +6 W_max) first, and the
    # three narrower budgets filter its walks, so each pair of S_1 is walked
    # once over the instance's four exact solves.
    made = capture_instance(monkeypatch)
    walks = Counter()
    real_walk = exact._minimal_path_masks

    def counting(incidence, u, v, limit, to_v):
        walks[(v, u)] += 1  # exact_optimum walks from the larger end
        return real_walk(incidence, u, v, limit, to_v)

    monkeypatch.setattr(exact, "_minimal_path_masks", counting)
    plan = ExperimentPlan(models=("er",), sizes=(9,), levels=(2,), tsms=("exp",),
                          algorithms=("sub2w", "p2w", "p4w", "p8w"), exact=True)
    rows = bench.run_instance(plan, ((0, "er"), 9, 2, (0, "exp"), 3))
    assert len(rows) == 4 and all(r.exact_sparsity is not None for r in rows)
    pairs = made["g"].paths.terminal_pairs(made["sets"][0])
    assert len(pairs) > 1 and walks == Counter(pairs)


@pytest.mark.parametrize("algo", ["sub2w", "p2w"])
def test_cli_spanner_indexes_its_pair_list_once(algo, tmp_path, monkeypatch):
    # The construction's sweep and the report's check read one pair tuple,
    # so its index is built once.  Clusters form on this BA instance, so the
    # sub2w sweep reads the index too.
    prefix = tmp_path / "ba"
    assert cli.main(["gen", "--model", "ba", "--n", "40", "--seed", "7", "--weight-hi", "1",
                     "--out", str(prefix)]) == 0
    built, calls, indexed = count_pair_list_work(monkeypatch)
    assert cli.main(["spanner", "--algo", algo, "--graph", f"{prefix}.graph",
                     "--terminals", f"{prefix}.terminals", "--out", str(tmp_path / "h")]) == 0
    level1 = parse_terminals_text(prefix.with_suffix(".terminals").read_text())[0]
    pairs = tuple(terminal_pairs(level1))
    assert calls[pairs] == (2 if algo == "sub2w" else 3)
    assert (built, indexed) == ({pairs: 1}, {pairs: 1})


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = run_plan(small_plan(sizes=(10,), seeds_per_cell=1))
        path = tmp_path / "rows.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        loaded = read_rows_csv(path)
        assert strip_wall_time(rows_to_csv(loaded)) == strip_wall_time(rows_to_csv(rows))
        # a second pass through the text format is bit-stable
        assert rows_to_csv(loaded) == path.read_text()

    def test_schema_order(self):
        text = rows_to_csv([])
        assert text.splitlines()[0] == (
            "instance_id,generator,n,m,levels,tsm,algorithm,budget_mode,sparsity,"
            "exact_sparsity,experimental_ratio,relative_sparsity,wall_time_ms,seed,valid")


MINIMAL_PLAN = {"models": ["er"], "sizes": [10], "levels": [1], "tsms": ["linear"],
                "algorithms": ["p2w"]}


class TestPlanDict:
    def test_defaults_fill_plan_json(self):
        plan = ExperimentPlan.from_dict(MINIMAL_PLAN)
        assert json.dumps(plan.to_dict(), indent=2, sort_keys=True) == """{
  "algorithms": [
    "p2w"
  ],
  "base_seed": 0,
  "caps": {
    "max_edges_multi": 14,
    "max_edges_single": 20,
    "max_work": 5000000
  },
  "d_sweep": false,
  "exact": false,
  "levels": [
    1
  ],
  "models": [
    "er"
  ],
  "seeds_per_cell": 5,
  "sizes": [
    10
  ],
  "strategy": "roundup",
  "tsms": [
    "linear"
  ]
}"""

    def test_round_trip(self):
        plan = small_plan(caps=SizeCaps(3, 4, 5), d_sweep=True, strategy="naive")
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
        assert ExperimentPlan.from_json(json.dumps(plan.to_dict())) == plan

    @pytest.mark.parametrize("extra,name", [({"d_sweeps": True}, "d_sweeps"),
                                            ({"caps": {"max_edge": 3}}, "max_edge"),
                                            ({"budget_modes": ["global"]}, "budget_modes")])
    def test_unknown_key_rejected(self, extra, name):
        with pytest.raises(ValueError, match=name):
            ExperimentPlan.from_dict(MINIMAL_PLAN | extra)

    @pytest.mark.parametrize("name", ["max_edges_single", "max_edges_multi", "max_work"])
    def test_negative_cap_rejected(self, name):
        # A negative cap would refuse every exact solve and leave each row
        # without its optimum, so the plan is refused instead.
        with pytest.raises(ValueError) as exc:
            ExperimentPlan.from_dict(MINIMAL_PLAN | {"exact": True, "caps": {name: -5}})
        assert str(exc.value) == f"size cap {name} must be an integer >= 0, got -5"

    def test_size_caps_take_integers_from_zero_up(self):
        assert SizeCaps(0, 0, 0) == SizeCaps(max_edges_single=0, max_edges_multi=0, max_work=0)
        for bad in (1.5, True, "3"):
            with pytest.raises(ValueError, match=r"^size cap max_work must be an integer >= 0, got "):
                SizeCaps(max_work=bad)

    def test_absent_required_key_rejected(self):
        data = dict(MINIMAL_PLAN)
        del data["sizes"]
        with pytest.raises(ValueError, match="sizes"):
            ExperimentPlan.from_dict(data)

    @pytest.mark.parametrize("cells,message", [
        ({"models": ["er", "ws"], "sizes": [500, 6]}, "WS needs n > K=6, got n=6"),
        ({"levels": [2, 0]}, "levels must be >= 1"),
        ({"models": ["er", "bogus"]}, "'bogus' is not a valid Model"),
        ({"tsms": ["exp", "bogus"]}, "'bogus' is not a valid TerminalScheme"),
        ({"sizes": [40, 3], "levels": [2, 3]}, "need n >= levels + 1, got n=3, levels=3"),
    ], ids=["ws-6", "levels-0", "unknown-model", "unknown-tsm", "n-3-levels-3"])
    def test_impossible_cell_rejected_by_from_dict(self, cells, message):
        with pytest.raises(ValueError) as exc:
            ExperimentPlan.from_dict(MINIMAL_PLAN | cells)
        assert str(exc.value) == message


@given(case=graphs_with_pairs(max_n=8, max_pairs=10), algo=st.sampled_from(list(PairwiseAlgo)),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_d_sweep_rung_holds_its_free_edges_and_meets_its_budget(case, algo, data):
    g, pairs = case
    free = data.draw(st.frozensets(st.sampled_from([(u, v) for u, v, _ in g.edges])))
    outs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "pairwise_spanner",
                   lambda *args: outs.append(pairwise_spanner(*args)) or outs[-1])
        best, ladder = d_sweep(g, pairs, algo, seed=3, free=free)
    assert [len(h) for h in outs] == [size for _, size in ladder] and best in outs
    for h in outs:
        assert free <= h
        assert verify_spanner(g, h, pairs, BUDGETS[algo]) == []


class TestSummarize:
    def test_single_row_min_equals_mean_equals_max(self):
        rows = run_plan(small_plan(sizes=(10,), tsms=("linear",), algorithms=("p2w",),
                                   seeds_per_cell=1, exact=False))
        summary = summarize(rows, "n")
        assert len(summary) == 1
        s = summary[0]
        assert s["min"] == s["mean"] == s["max"] == 1.0

    def test_sparser_algorithm_scores_exactly_one(self):
        rows = run_plan(small_plan(sizes=(10,), tsms=("exp",), seeds_per_cell=1, exact=False))
        best = min(rows, key=lambda r: r.sparsity)
        assert best.relative_sparsity == pytest.approx(1.0)

    def test_grouping_arithmetic(self):
        rows = run_plan(small_plan())
        summary = summarize(rows, "n")
        # one aggregate row per (n, algorithm, metric with a value); only some
        # n=10 instances are within the exact caps
        assert [(s["value"], s["algorithm"], s["metric"]) for s in summary] == [
            (10, "p2w", "experimental_ratio"), (10, "p2w", "relative_sparsity"),
            (10, "sub2w", "experimental_ratio"), (10, "sub2w", "relative_sparsity"),
            (20, "p2w", "relative_sparsity"), (20, "sub2w", "relative_sparsity")]
        for s in summary:
            values = [getattr(r, s["metric"]) for r in rows
                      if (r.n, r.algorithm) == (s["value"], s["algorithm"])
                      and getattr(r, s["metric"]) is not None]
            assert s["count"] == len(values)
            assert (s["min"], s["max"]) == (min(values), max(values))
            assert s["mean"] == pytest.approx(sum(values) / len(values))

    def test_rows_in_memory_and_from_file_summarize_alike(self, tmp_path):
        # some instances are within the exact caps and some are not
        rows = run_plan(small_plan(sizes=(10, 14), levels=(1, 2), seeds_per_cell=3),
                        out_dir=tmp_path)
        assert {r.exact_sparsity is None for r in rows} == {True, False}
        back = read_rows_csv(tmp_path / "rows.csv")
        for group in ("n", "l", "tsm"):
            assert summary_to_csv(summarize(back, group)) == summary_to_csv(summarize(rows, group))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            summarize([], "n")

    def test_unknown_group_rejected(self):
        row = ResultRow("er-n10-l1-linear-r0", "er", 10, 14, 1, "linear", "p2w", "local", 20,
                        None, None, 1.0, 3.5, 7, True)
        with pytest.raises(ValueError, match=r"^group must be one of \['l', 'n', 'tsm'\]$"):
            summarize([row], "model")

    def test_groups_sort_numerically(self):
        plan = small_plan(sizes=(100, 20), tsms=("exp",), algorithms=("p2w",),
                          seeds_per_cell=1, exact=False)
        values = [s["value"] for s in summarize(run_plan(plan), "n")]
        assert values == [20, 100]

    def test_csv_shape(self):
        rows = run_plan(small_plan(sizes=(10,), seeds_per_cell=1, exact=False))
        text = summary_to_csv(summarize(rows, "tsm"))
        assert text.splitlines()[0] == "group,value,algorithm,metric,count,min,mean,max"


class TestDSweep:
    def test_base_one_is_a_single_run(self):
        # One pair gives default_d 1, so the ladder is a single rung.
        g = generate(GeneratorSpec(Model.ER, 15, 3))
        pairs = terminal_pairs(range(0, g.n, 2))[:1]
        assert default_d(PairwiseAlgo.P2W, len(pairs)) == 1
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, seed=5)
        assert ladder == [(1, len(best))]

    def test_tie_keeps_the_larger_d(self, monkeypatch):
        # 20 terminals give 190 pairs and the rungs 6, 3, 2, 1; d=3 and d=2
        # tie at the least size, and the first of them in rung order wins.
        sizes = {6: 9, 3: 5, 2: 5, 1: 7}
        monkeypatch.setattr(bench, "pairwise_spanner", lambda g, pairs, params, free: {
            (params.d_override, i) for i in range(sizes[params.d_override])})
        best, ladder = d_sweep(None, terminal_pairs(range(20)), PairwiseAlgo.P2W, seed=5)
        assert ladder == [(6, 9), (3, 5), (2, 5), (1, 7)]
        assert best == {(3, i) for i in range(5)}

    def test_best_never_worse_than_base(self):
        g = generate(GeneratorSpec(Model.ER, 30, 9))
        pairs = terminal_pairs(range(0, g.n, 3))
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, seed=5)
        assert ladder[0][0] == default_d(PairwiseAlgo.P2W, len(pairs))
        assert len(best) == min(size for _, size in ladder)
        assert len(best) <= ladder[0][1]

    def test_ladder_halves_down_to_one(self):
        # 46 terminals give 1,035 pairs and default_d 11.
        g = generate(GeneratorSpec(Model.ER, 48, 2))
        pairs = terminal_pairs(range(46))
        assert default_d(PairwiseAlgo.P2W, len(pairs)) == 11
        _, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, seed=0)
        assert [d for d, _ in ladder] == [11, 6, 3, 2, 1]

    def test_every_swept_output_is_valid(self):
        g = generate(GeneratorSpec(Model.GE, 25, 4))
        pairs = terminal_pairs(range(0, g.n, 4))
        params_budget = BUDGETS[PairwiseAlgo.P4W]
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P4W, seed=8)
        assert verify_spanner(g, best, pairs, params_budget) == []
        for d, size in ladder:
            h = pairwise_spanner(g, pairs, PairwiseParams(PairwiseAlgo.P4W, d_override=d, seed=8))
            assert len(h) == size
            assert verify_spanner(g, h, pairs, params_budget) == []

    @pytest.mark.parametrize("algo", list(PairwiseAlgo))
    def test_every_rung_starts_from_the_free_edges(self, algo):
        # The heavy chord lies on no shortest path and is no vertex's lightest
        # edge, so below the top rung only the free edges put it in H.
        g = WeightedGraph(30, caterpillar_edges(10) + ((10, 29, 40),))
        pairs = terminal_pairs([0, 9, *range(10, 29)])
        free = frozenset([(10, 29), (3, 4)])
        best, ladder = d_sweep(g, pairs, algo, seed=4, free=free)
        assert free <= best and len(ladder) > 1
        for d, size in ladder:
            h = pairwise_spanner(g, pairs, PairwiseParams(algo, d_override=d, seed=4), free)
            assert len(h) == size and free <= h
            assert verify_spanner(g, h, pairs, BUDGETS[algo]) == []

    def test_p4w_sweep_with_small_d_finishes_in_bounded_time(self, monkeypatch):
        # d <= 2 sends every heavy pair into the bounded-miss repair; this sweep
        # took about a minute while limited_missing_path searched every state
        # instead of stopping at its target.  The search count keeps the
        # instance one whose sweep meets a heavy pair, so the search runs; it
        # counts only the sample pairs whose canonical path leaves H.
        searches = []
        search = pairwise.limited_missing_path
        monkeypatch.setattr(pairwise, "limited_missing_path",
                            lambda *args: searches.append(args) or search(*args))
        g = generate(GeneratorSpec(Model.ER, 100, 1))
        pairs = terminal_pairs(sorted(random.Random(0).sample(range(100), 25)))
        start = time.perf_counter()
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P4W, seed=1)
        elapsed = time.perf_counter() - start
        budget = BUDGETS[PairwiseAlgo.P4W]
        assert verify_spanner(g, best, pairs, budget) == []
        assert ladder == [(6, 365), (3, 246), (2, 217), (1, 275)]
        assert len(searches) == 162
        assert elapsed < 15

    def test_p4w_at_d1_on_er200_searches_only_pairs_leaving_h(self, monkeypatch):
        # every heavy pair draws about n/2 sampled roots at d=1; this run made
        # 5,151 bounded-miss searches in about 4 s while every sample pair was
        # searched, and 604 once pairs whose canonical path lies in H are skipped
        searches = []
        search = pairwise.limited_missing_path
        monkeypatch.setattr(pairwise, "limited_missing_path",
                            lambda *args: searches.append(args) or search(*args))
        g = generate(GeneratorSpec(Model.ER, 200, 0))
        pairs = terminal_pairs(random.Random(0).sample(range(200), 50))
        start = time.perf_counter()
        h = pairwise_spanner(g, pairs, PairwiseParams(PairwiseAlgo.P4W, d_override=1, seed=1))
        elapsed = time.perf_counter() - start
        assert verify_spanner(g, h, pairs, BUDGETS[PairwiseAlgo.P4W]) == []
        assert len(h) == 688
        assert len(searches) == 604
        assert elapsed < 15
