"""Experiment harness: seeded sweeps, validity gating, ratio tables, CSV output.

A plan is a grid of (model, n, levels, terminal scheme) cells with a fixed
number of seeded instances per cell.  Every algorithm's multi-level output
is verified level by level at its advertised budget before a row is
emitted; a violation aborts the run, since it would be a correctness bug
rather than data.  Rerunning a plan with the same seeds reproduces every
row except the wall-time column.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from statistics import mean

from .core import (
    BudgetMode,
    Edge,
    ErrorBudget,
    WeightedGraph,
    terminal_pairs,
    verify_spanner,
)
from .exact import SizeCapExceeded, SizeCaps, exact_optimum
from .generate import GeneratorSpec, Model, TerminalScheme, TerminalSelection, generate, generate_terminals
from .multilevel import MultiLevelInstance, MultiLevelSpanner, SingleLevelSolver, multilevel_naive, multilevel_roundup
from .pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, default_d, pairwise_spanner
from .seeding import ROLE_LEVEL, ROLE_PLAN, derive_seed
from .subsetwise import subsetwise_2w

ALGO_BUDGETS: dict[str, ErrorBudget] = {
    "sub2w": ErrorBudget(BudgetMode.GLOBAL, 2),
    **{algo.value: budget for algo, budget in BUDGETS.items()},
}

CSV_COLUMNS = (
    "instance_id", "generator", "n", "m", "levels", "tsm", "algorithm",
    "budget_mode", "sparsity", "exact_sparsity", "experimental_ratio",
    "relative_sparsity", "wall_time_ms", "seed", "valid",
)


class ValidityError(RuntimeError):
    """An algorithm output failed verification; the run is aborted."""


def make_solver(algo: str, seed: int, sweep: bool = False) -> SingleLevelSolver:
    """Single-level solver handle; pairwise solvers mix the level into the seed."""
    if algo == "sub2w":
        def solve(g: WeightedGraph, terminals: frozenset, level: int) -> set:
            return subsetwise_2w(g, terminals)
        return solve
    palgo = PairwiseAlgo(algo)

    def solve(g: WeightedGraph, terminals: frozenset, level: int) -> set:
        pairs = terminal_pairs(terminals)
        if not pairs:
            return set()
        level_seed = derive_seed(seed, ROLE_LEVEL, level)
        if sweep:
            return d_sweep(g, pairs, palgo, seed=level_seed)[0]
        return pairwise_spanner(g, pairs, PairwiseParams(palgo, seed=level_seed))

    return solve


def d_sweep(g: WeightedGraph, pairs, algo: PairwiseAlgo, base_d: int | None = None,
            seed: int = 0) -> tuple[set[Edge], list[tuple[int, int]]]:
    """Rerun the construction for d, ceil(d/2), ..., 1 (same seed) and keep the
    sparsest output.  Returns (best edge set, [(d, size), ...] ladder)."""
    if base_d is None:
        base_d = default_d(algo, len(pairs))
    if base_d < 1:
        raise ValueError("base_d must be >= 1")
    ladder: list[tuple[int, int]] = []
    best: set[Edge] | None = None
    d = base_d
    while True:
        h = pairwise_spanner(g, pairs, PairwiseParams(algo, d_override=d, seed=seed))
        ladder.append((d, len(h)))
        if best is None or len(h) < len(best):
            best = h
        if d == 1:
            break
        d = (d + 1) // 2
    return best, ladder


def _check_keys(cls, data, what: str) -> None:
    """Raise ValueError unless data is a dict whose keys are fields of the
    dataclass cls, including every field without a default."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    absent = [name for name, f in known.items() if f.default is MISSING and name not in data]
    if absent:
        raise ValueError(f"{what} needs key(s): {', '.join(absent)}")


@dataclass(frozen=True)
class ExperimentPlan:
    models: tuple[str, ...]
    sizes: tuple[int, ...]
    levels: tuple[int, ...]
    tsms: tuple[str, ...]
    algorithms: tuple[str, ...]
    seeds_per_cell: int = 5
    base_seed: int = 0
    strategy: str = "roundup"
    budget_modes: tuple[str, ...] = ("global", "local")
    exact: bool = False
    caps: SizeCaps = SizeCaps()
    d_sweep: bool = False

    def validate(self) -> None:
        if not self.models or not self.sizes or not self.levels or not self.tsms:
            raise ValueError("plan needs at least one model, size, level count, and tsm")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGO_BUDGETS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for model in self.models:
            Model(model)
        for tsm in self.tsms:
            TerminalScheme(tsm)
        for mode in self.budget_modes:
            BudgetMode(mode)
        if self.strategy not in ("roundup", "naive"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")

    def active_algorithms(self) -> tuple[str, ...]:
        modes = {BudgetMode(m) for m in self.budget_modes}
        return tuple(a for a in self.algorithms if ALGO_BUDGETS[a].mode in modes)

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        """Plan from its JSON object; absent keys take the field defaults and
        unknown keys are rejected."""
        _check_keys(cls, data, "plan")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        if "caps" in data:
            _check_keys(SizeCaps, data["caps"], "caps")
            kwargs["caps"] = SizeCaps(**data["caps"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        return cls.from_dict(json.loads(text))


@dataclass
class ResultRow:
    instance_id: str
    generator: str
    n: int
    m: int
    levels: int
    tsm: str
    algorithm: str
    budget_mode: str
    sparsity: int
    exact_sparsity: int | None
    experimental_ratio: float | None
    relative_sparsity: float | None
    wall_time_ms: float
    seed: int
    valid: bool


def _fmt_ratio(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.instance_id, r.generator, r.n, r.m, r.levels, r.tsm, r.algorithm,
            r.budget_mode, r.sparsity,
            "" if r.exact_sparsity is None else r.exact_sparsity,
            _fmt_ratio(r.experimental_ratio), _fmt_ratio(r.relative_sparsity),
            f"{r.wall_time_ms:.3f}", r.seed, "true" if r.valid else "false",
        ])
    return buf.getvalue()


def write_rows_csv(rows, path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8")


def read_rows_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(
                instance_id=rec["instance_id"], generator=rec["generator"],
                n=int(rec["n"]), m=int(rec["m"]), levels=int(rec["levels"]),
                tsm=rec["tsm"], algorithm=rec["algorithm"], budget_mode=rec["budget_mode"],
                sparsity=int(rec["sparsity"]),
                exact_sparsity=int(rec["exact_sparsity"]) if rec["exact_sparsity"] else None,
                experimental_ratio=float(rec["experimental_ratio"]) if rec["experimental_ratio"] else None,
                relative_sparsity=float(rec["relative_sparsity"]) if rec["relative_sparsity"] else None,
                wall_time_ms=float(rec["wall_time_ms"]), seed=int(rec["seed"]),
                valid=rec["valid"] == "true",
            ))
    return rows


def _instance_tasks(plan: ExperimentPlan):
    for mi, model in enumerate(plan.models):
        for n in plan.sizes:
            for ell in plan.levels:
                for ti, tsm in enumerate(plan.tsms):
                    for rep in range(plan.seeds_per_cell):
                        yield (mi, model, n, ell, ti, tsm, rep)


def _verify_levels(g: WeightedGraph, sets, spanner: MultiLevelSpanner,
                   budget: ErrorBudget) -> list:
    problems = []
    for k, terminals in enumerate(sets, start=1):
        violated = verify_spanner(g, spanner.level_edges[k - 1], terminal_pairs(terminals),
                                  budget)
        if violated:
            problems.append((k, violated))
    return problems


def _exact_sparsity(g, sets, budget, caps) -> int | None:
    inst = MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)
    try:
        return exact_optimum(inst, caps).sparsity
    except SizeCapExceeded:
        return None


def run_instance(plan: ExperimentPlan, task) -> list[ResultRow]:
    """All result rows for one seeded instance of a plan cell."""
    mi, model, n, ell, ti, tsm, rep = task
    seed = derive_seed(plan.base_seed, ROLE_PLAN, mi, n, ell, ti, rep)
    instance_id = f"{model}-n{n}-l{ell}-{tsm}-r{rep}"
    g = generate(GeneratorSpec(Model(model), n, seed))
    sets = generate_terminals(n, TerminalSelection(TerminalScheme(tsm), ell, seed))
    strategy = multilevel_roundup if plan.strategy == "roundup" else multilevel_naive
    exact_cache: dict[tuple[str, int], int | None] = {}
    rows: list[ResultRow] = []
    produced: list[tuple[str, MultiLevelSpanner, float]] = []
    for algo in plan.active_algorithms():
        budget = ALGO_BUDGETS[algo]
        inst = MultiLevelInstance(g, tuple(frozenset(s) for s in sets), budget)
        solver = make_solver(algo, seed, sweep=plan.d_sweep)
        start = time.perf_counter()
        spanner = strategy(inst, solver)
        wall_ms = (time.perf_counter() - start) * 1000.0
        problems = _verify_levels(g, sets, spanner, budget)
        if problems:
            raise ValidityError(
                f"instance {instance_id}, algorithm {algo}: budget violations {problems}")
        produced.append((algo, spanner, wall_ms))
    min_sparsity = min(sp.sparsity for _, sp, _ in produced)
    for algo, spanner, wall_ms in produced:
        budget = ALGO_BUDGETS[algo]
        exact_sp: int | None = None
        if plan.exact:
            key = (budget.mode.value, budget.c)
            if key not in exact_cache:
                exact_cache[key] = _exact_sparsity(g, sets, budget, plan.caps)
            exact_sp = exact_cache[key]
        ratio = None if (exact_sp in (None, 0)) else spanner.sparsity / exact_sp
        rel = spanner.sparsity / min_sparsity if min_sparsity > 0 else None
        rows.append(ResultRow(
            instance_id=instance_id, generator=model, n=n, m=len(g.edges), levels=ell,
            tsm=tsm, algorithm=algo, budget_mode=budget.mode.value,
            sparsity=spanner.sparsity, exact_sparsity=exact_sp, experimental_ratio=ratio,
            relative_sparsity=rel, wall_time_ms=wall_ms, seed=seed, valid=True,
        ))
    return rows


def run_plan(plan: ExperimentPlan, out_dir=None, workers: int | None = None) -> list[ResultRow]:
    """Execute a plan; returns rows sorted by (instance id, algorithm)."""
    plan.validate()
    tasks = list(_instance_tasks(plan))
    if workers is None:
        workers = int(os.environ.get("WSPANNER_WORKERS", "1"))
    rows: list[ResultRow] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(run_instance, [plan] * len(tasks), tasks):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(run_instance(plan, task))
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rows_csv(rows, out / "rows.csv")
        (out / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return rows


_GROUP_FIELDS = {"n": "n", "l": "levels", "tsm": "tsm"}


def summarize(rows, group: str = "n") -> list[dict]:
    """Min/mean/max of the experimental ratio (or relative sparsity when no
    exact values are present), grouped by a plan parameter and algorithm."""
    if not rows:
        raise ValueError("no rows to summarize")
    if group not in _GROUP_FIELDS:
        raise ValueError(f"group must be one of {sorted(_GROUP_FIELDS)}")
    attr = _GROUP_FIELDS[group]
    use_ratio = all(r.experimental_ratio is not None for r in rows)
    metric = "experimental_ratio" if use_ratio else "relative_sparsity"
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        value = getattr(r, metric)
        if value is None:
            continue
        groups.setdefault((getattr(r, attr), r.algorithm), []).append(value)
    out = []
    for (value, algo), values in sorted(groups.items()):
        out.append({
            "group": group, "value": value, "algorithm": algo, "metric": metric,
            "count": len(values), "min": min(values), "mean": mean(values), "max": max(values),
        })
    return out


def summary_to_csv(summary) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "value", "algorithm", "metric", "count", "min", "mean", "max"])
    for s in summary:
        writer.writerow([s["group"], s["value"], s["algorithm"], s["metric"], s["count"],
                         f"{s['min']:.6f}", f"{s['mean']:.6f}", f"{s['max']:.6f}"])
    return buf.getvalue()
