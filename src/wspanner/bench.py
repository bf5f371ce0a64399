"""Experiment harness: seeded sweeps, validity gating, ratio tables, CSV output.

A plan is a grid of (model, n, levels, terminal scheme) cells with a fixed
number of seeded instances per cell.  Every algorithm's multi-level output
is verified level by level at its advertised budget before a row is
emitted; a violation aborts the run, since it would be a correctness bug
rather than data.  Rerunning a plan with the same seeds reproduces every
row except the wall-time column.

The process pool, ``statistics`` and ``csv`` are imported where used: most
CLI calls use none of them, and they are about a fifth of its start-up.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import nullcontext, suppress
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain, product
from pathlib import Path

from .core import (
    BudgetMode,
    Edge,
    ErrorBudget,
    WeightedGraph,
    verify_spanner,
)
from .exact import SizeCapExceeded, SizeCaps, exact_optimum
from .generate import GeneratorSpec, TerminalSelection, generate, generate_terminals
from .multilevel import MultiLevelInstance, MultiLevelSpanner, SingleLevelSolver, multilevel_naive, multilevel_roundup
from .pairwise import BUDGETS, PairwiseAlgo, PairwiseParams, default_d, pairwise_spanner
from .seeding import ROLE_LEVEL, ROLE_PLAN, derive_seed
from .subsetwise import subsetwise_2w

ALGO_BUDGETS: dict[str, ErrorBudget] = {
    "sub2w": ErrorBudget(BudgetMode.GLOBAL, 2),
    **{algo.value: budget for algo, budget in BUDGETS.items()},
}

STRATEGIES = ("roundup", "naive")


class ValidityError(RuntimeError):
    """An algorithm output failed verification; the run is aborted."""


def make_solver(algo: str, seed: int, sweep: bool = False) -> SingleLevelSolver:
    """Single-level solver handle.  Pairwise solvers mix the level into the seed
    and start H from the free edges; sub2w ignores them, as its +2W argument
    is not written for a larger starting H."""
    if algo == "sub2w":
        return lambda g, terminals, level, free: subsetwise_2w(g, terminals)
    palgo = PairwiseAlgo(algo)

    def solve(g: WeightedGraph, terminals: frozenset, level: int, free: frozenset) -> set:
        pairs = g.paths.terminal_pairs(terminals)
        level_seed = derive_seed(seed, ROLE_LEVEL, level)
        if sweep:
            return d_sweep(g, pairs, palgo, seed=level_seed, free=free)[0]
        return pairwise_spanner(g, pairs, PairwiseParams(palgo, seed=level_seed), free)

    return solve


def run_strategy(strategy: str, inst: MultiLevelInstance,
                 solver: SingleLevelSolver) -> MultiLevelSpanner:
    """Run the named multi-level strategy.  The strategy function is read from
    this module's namespace at call time, so a wrapper set on it applies."""
    return (multilevel_roundup if strategy == "roundup" else multilevel_naive)(inst, solver)


def d_sweep(g: WeightedGraph, pairs, algo: PairwiseAlgo, seed: int = 0,
            free=()) -> tuple[set[Edge], list[tuple[int, int]]]:
    """Rerun the construction for d = default_d, ceil(d/2), ..., 1 (same seed
    and free edges) and keep the first sparsest output.  Returns (best edge
    set, [(d, size)] ladder); each size counts the free edges."""
    rungs = [default_d(algo, len(pairs))]
    while rungs[-1] > 1:
        rungs.append((rungs[-1] + 1) // 2)
    outs = [pairwise_spanner(g, pairs, PairwiseParams(algo, d_override=d, seed=seed), free)
            for d in rungs]
    return min(outs, key=len), [(d, len(h)) for d, h in zip(rungs, outs)]


_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _check_fields(cls, data, what: str) -> None:
    """Raise ValueError unless data is a dict whose keys are fields of the
    dataclass cls, including every field without a default, and whose values
    have their field's JSON type: a list for a tuple field, and an exact int,
    bool or str (a JSON bool is not an int).  Other fields are left to the
    caller."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    absent = [name for name, f in known.items() if f.default is MISSING and name not in data]
    if absent:
        raise ValueError(f"{what} needs key(s): {', '.join(absent)}")
    for key, value in data.items():
        hint = known[key].type
        if hint.startswith("tuple["):
            item = hint.removeprefix("tuple[").removesuffix(", ...]")
            ok = type(value) is list and all(type(v) is _TYPES[item] for v in value)
            hint = f"a list of {item}"
        elif hint in _TYPES:
            ok = type(value) is _TYPES[hint]
        else:
            continue
        if not ok:
            raise ValueError(f"{what} key {key!r} must be {hint}, got {json.dumps(value)}")


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
    exact: bool = False
    caps: SizeCaps = SizeCaps()
    d_sweep: bool = False

    def __post_init__(self) -> None:
        if not self.models or not self.sizes or not self.levels or not self.tsms:
            raise ValueError("plan needs at least one model, size, level count, and tsm")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        for i, algo in enumerate(self.algorithms):
            if algo not in ALGO_BUDGETS:
                raise ValueError(f"unknown algorithm {algo!r}")
            if algo in self.algorithms[:i]:
                raise ValueError(f"algorithm {algo!r} is listed twice")
        for model, n in product(self.models, self.sizes):
            GeneratorSpec(model, n, 0)
        for tsm, levels, n in product(self.tsms, self.levels, self.sizes):
            TerminalSelection(tsm, levels, 0).check_size(n)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPlan":
        """Plan from its JSON object; absent keys take the field defaults, and
        unknown keys and values of the wrong type are rejected."""
        _check_fields(cls, data, "plan")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        if "caps" in data:
            _check_fields(SizeCaps, data["caps"], "caps")
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


_CSV_HINTS = {f.name: f.type for f in fields(ResultRow)}
CSV_COLUMNS = tuple(_CSV_HINTS)


def _cell(name: str, value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}" if name == "wall_time_ms" else f"{value:.6f}"
    return value


def _parse_cell(hint: str, text: str):
    """Inverse of _cell for a column annotated hint ("int", "float | None", ...)."""
    if text == "" and hint.endswith(" | None"):
        return None
    if hint == "bool":
        if text not in ("true", "false"):
            raise ValueError(f"{text!r} is not true or false")
        return text == "true"
    return _TYPES[hint.removesuffix(" | None")](text)


def _csv_text(columns, records) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(name, rec[name]) for name in columns] for rec in records)
    return buf.getvalue()


def rows_to_csv(rows) -> str:
    return _csv_text(CSV_COLUMNS, map(vars, rows))


def read_rows_csv(path) -> list[ResultRow]:
    """Rows from a file written by rows_to_csv; a cell that file could not
    hold raises ValueError naming its line and column."""
    import csv
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is not a rows.csv: missing columns {', '.join(missing)}")
        for rec in reader:
            values = {}
            for name, hint in _CSV_HINTS.items():
                try:
                    values[name] = _parse_cell(hint, rec[name] or "")
                except ValueError as exc:
                    raise ValueError(f"{path} line {reader.line_num}, column {name}: {exc}")
            rows.append(ResultRow(**values))
    return rows


def _verify_levels(inst: MultiLevelInstance, spanner: MultiLevelSpanner) -> list:
    """(level, violated pairs) for each level of spanner that misses inst's budget."""
    problems = []
    for k, terminals in enumerate(inst.terminal_sets, start=1):
        violated = verify_spanner(inst.graph, spanner.level_edges[k - 1],
                                  inst.graph.paths.terminal_pairs(terminals), inst.budget)
        if violated:
            problems.append((k, violated))
    return problems


def _ratio(sparsity: int, base: int | None) -> float | None:
    """sparsity / base, or None when base is None or 0."""
    return sparsity / base if base else None


def run_instance(plan: ExperimentPlan, task) -> list[ResultRow]:
    """All result rows for one seeded instance of a plan cell; task is
    ((model index, model), n, levels, (tsm index, tsm), repetition)."""
    (mi, model), n, ell, (ti, tsm), rep = task
    seed = derive_seed(plan.base_seed, ROLE_PLAN, mi, n, ell, ti, rep)
    instance_id = f"{model}-n{n}-l{ell}-{tsm}-r{rep}"
    g = generate(GeneratorSpec(model, n, seed))
    sets = generate_terminals(n, TerminalSelection(tsm, ell, seed))
    rows: list[ResultRow] = []
    produced: list[tuple[str, MultiLevelInstance, MultiLevelSpanner, float]] = []
    for algo in plan.algorithms:
        inst = MultiLevelInstance(g, sets, ALGO_BUDGETS[algo])
        solver = make_solver(algo, seed, sweep=plan.d_sweep)
        start = time.perf_counter()
        spanner = run_strategy(plan.strategy, inst, solver)
        wall_ms = (time.perf_counter() - start) * 1000.0
        problems = _verify_levels(inst, spanner)
        if problems:
            raise ValidityError(
                f"instance {instance_id}, algorithm {algo}: budget violations {problems}")
        produced.append((algo, inst, spanner, wall_ms))
    min_sparsity = min(sp.sparsity for _, _, sp, _ in produced)
    exact_sp: dict[str, int] = {}
    if plan.exact:  # widest budget first: its walks serve the narrower budgets' solves
        for algo, inst, _, _ in sorted(produced, key=lambda p: p[1].budget.c, reverse=True):
            with suppress(SizeCapExceeded):
                exact_sp[algo] = exact_optimum(inst, plan.caps).sparsity
    for algo, inst, spanner, wall_ms in produced:
        rows.append(ResultRow(
            instance_id=instance_id, generator=model, n=n, m=len(g.edges), levels=ell,
            tsm=tsm, algorithm=algo, budget_mode=inst.budget.mode.value,
            sparsity=spanner.sparsity, exact_sparsity=exact_sp.get(algo),
            experimental_ratio=_ratio(spanner.sparsity, exact_sp.get(algo)),
            relative_sparsity=_ratio(spanner.sparsity, min_sparsity),
            wall_time_ms=wall_ms, seed=seed, valid=True,
        ))
    return rows


def run_plan(plan: ExperimentPlan, out_dir=None, workers: int = 1) -> list[ResultRow]:
    """Execute a plan in up to workers processes, never more than it has
    instances; returns rows sorted by (instance id, algorithm)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(product(enumerate(plan.models), plan.sizes, plan.levels, enumerate(plan.tsms),
                         range(plan.seeds_per_cell)))
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        chunks = (pool.map if pool else map)(run_instance, [plan] * len(tasks), tasks)
        rows = sorted(chain.from_iterable(chunks), key=lambda r: (r.instance_id, r.algorithm))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "rows.csv").write_text(rows_to_csv(rows), encoding="utf-8")
        (out / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return rows


GROUP_FIELDS = {"n": "n", "l": "levels", "tsm": "tsm"}


def summarize(rows, group: str = "n") -> list[dict]:
    """Min/mean/max per (group value, algorithm, metric) for each metric with
    a value there: experimental_ratio (sparsity over the exact optimum) and
    relative_sparsity (sparsity over the least sparsity of the same instance),
    none where the divisor is 0 or absent.  Both come from the integer
    columns, so run_plan's rows and the rows.csv written from them agree."""
    from statistics import mean
    if not rows:
        raise ValueError("no rows to summarize")
    if group not in GROUP_FIELDS:
        raise ValueError(f"group must be one of {sorted(GROUP_FIELDS)}")
    attr = GROUP_FIELDS[group]
    least: dict[str, int] = {}
    for r in rows:
        least[r.instance_id] = min(r.sparsity, least.get(r.instance_id, r.sparsity))
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        for metric, base in (("experimental_ratio", r.exact_sparsity),
                             ("relative_sparsity", least[r.instance_id])):
            ratio = _ratio(r.sparsity, base)
            if ratio is not None:
                groups.setdefault((getattr(r, attr), r.algorithm, metric), []).append(ratio)
    return [{"group": group, "value": value, "algorithm": algo, "metric": metric,
             "count": len(values), "min": min(values), "mean": mean(values), "max": max(values)}
            for (value, algo, metric), values in sorted(groups.items())]


def summary_to_csv(summary) -> str:
    return _csv_text(("group", "value", "algorithm", "metric", "count", "min", "mean", "max"),
                     summary)
