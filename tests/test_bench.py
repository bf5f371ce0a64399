import json
import random
import time

import pytest

from wspanner import bench, pairwise
from wspanner.bench import (
    ExperimentPlan,
    ValidityError,
    d_sweep,
    read_rows_csv,
    rows_to_csv,
    run_plan,
    summarize,
    summary_to_csv,
    write_rows_csv,
)
from wspanner.core import terminal_pairs, verify_spanner
from wspanner.exact import SizeCaps
from wspanner.generate import GeneratorSpec, Model, generate
from wspanner.pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, default_d, pairwise_spanner


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
            small_plan(algorithms=("qspanner",)).validate()

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

        monkeypatch.setattr(bench, "ProcessPoolExecutor", StubPool)
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
            return lambda g, terminals, level: set()

        monkeypatch.setattr(bench, "make_solver", broken_solver)
        with pytest.raises(ValidityError):
            run_plan(small_plan(sizes=(10,), seeds_per_cell=1, exact=False))

    def test_plan_level_d_sweep_stays_valid(self):
        plan = small_plan(sizes=(20,), algorithms=("p2w", "p4w"), seeds_per_cell=2,
                          exact=False, d_sweep=True)
        rows = run_plan(plan)
        assert len(rows) == 8 and all(r.valid for r in rows)
        baseline = run_plan(small_plan(sizes=(20,), algorithms=("p2w", "p4w"),
                                       seeds_per_cell=2, exact=False))
        swept = {(r.instance_id, r.algorithm): r.sparsity for r in rows}
        assert swept.keys() == {(r.instance_id, r.algorithm) for r in baseline}


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = run_plan(small_plan(sizes=(10,), seeds_per_cell=1))
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
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

    def test_absent_required_key_rejected(self):
        data = dict(MINIMAL_PLAN)
        del data["sizes"]
        with pytest.raises(ValueError, match="sizes"):
            ExperimentPlan.from_dict(data)


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
        g = generate(GeneratorSpec(Model.ER, 15, 3))
        pairs = terminal_pairs(range(0, g.n, 2))
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, base_d=1, seed=5)
        assert ladder == [(1, len(best))]

    def test_best_never_worse_than_base(self):
        g = generate(GeneratorSpec(Model.ER, 30, 9))
        pairs = terminal_pairs(range(0, g.n, 3))
        best, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, seed=5)
        assert ladder[0][0] == default_d(PairwiseAlgo.P2W, len(pairs))
        assert len(best) == min(size for _, size in ladder)
        assert len(best) <= ladder[0][1]

    def test_ladder_halves_down_to_one(self):
        g = generate(GeneratorSpec(Model.ER, 20, 2))
        pairs = terminal_pairs(range(8))
        _, ladder = d_sweep(g, pairs, PairwiseAlgo.P2W, base_d=11, seed=0)
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

    def test_p4w_sweep_with_small_d_finishes_in_bounded_time(self, monkeypatch):
        # d <= 2 sends every heavy pair into the bounded-miss repair; this sweep
        # took about a minute while limited_missing_path searched every state
        # instead of stopping at its target.  The search count keeps the
        # instance one whose sweep meets a heavy pair, so the search runs.
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
        assert len(searches) == 1225
        assert elapsed < 15
