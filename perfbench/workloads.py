"""The benchmark's four seeded workloads.

A workload's set-up turns (seed, sizes) into a fixed list of ops: it parses
the plans and generates the input files.  Each op is one call into the
library's public API: ``run_plan`` of a one-instance plan with ``workers=1``
passed explicitly (so neither the environment nor a default can start a
process pool), or one in-process ``wspanner`` CLI call.

The full sizes were chosen on a 2-core machine so that one round of ops
takes a few seconds, holds at least 20 ops, and keeps the layer each
workload is for dominant in the traced round:

- grid-paper, n=100: verification is about 60% of the time and the path
  table about 20%, the split seen at the paper's n=300;
- cli-few-terminals, n=128 with level 3 of 7 exp levels (16 terminals): the
  path table is about 70% of each call;
- dsweep-repair, geometric n=22 with 2 linear levels: level 1 has 15
  terminals, so ell=1 and the d=1 rung calls ``limited_missing_path`` on
  about 92% of the instances, where it is about 95% of the time (ER graphs
  of that size reach it on about 80%, and how many do varies with the seed
  enough to move ops_per_s by 10-15%; with one level, ER needs n >= 35 and
  about 3 s per instance);
- desk-exact: every (model, n, levels, tsm) cell of the paper's desk grid.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from wspanner import bench, cli
from wspanner.exact import SizeCaps

ALGOS = ("sub2w", "p2w", "p4w", "p8w")


class PlanOp:
    """One seeded instance of a plan cell, run through ``run_plan``."""

    kind = "plan"

    def __init__(self, name: str, base_seed: int, **cell):
        self.name = name
        text = json.dumps({"seeds_per_cell": 1, "base_seed": base_seed, "strategy": "roundup",
                           **cell})
        self.plan = bench.ExperimentPlan.from_json(text)

    def run(self):
        return bench.run_plan(self.plan, workers=1)

    def output(self, rows) -> bytes:
        """Every row field except the wall time, in row order."""
        return json.dumps([[r.instance_id, r.generator, r.n, r.m, r.levels, r.tsm, r.algorithm,
                            r.budget_mode, r.sparsity, r.exact_sparsity, r.experimental_ratio,
                            r.relative_sparsity, r.seed, r.valid] for r in rows]).encode()


class CliOp:
    """One in-process ``wspanner`` CLI call that writes the listed files."""

    def __init__(self, name: str, kind: str, argv: list[str], outputs: list[Path], **check):
        self.name = name
        self.kind = kind  # "spanner" or "lp"
        self.argv = argv
        self.outputs = outputs
        self.check = check  # keyword arguments of the matching check in oracle.py

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(self.argv)
            except SystemExit as exc:
                return exc.code

    def output(self, code) -> bytes:
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in self.outputs)


def _gen(workdir: Path, name: str, model: str, n: int, seed: int, levels: int,
         tsm: str) -> tuple[Path, Path]:
    prefix = workdir / name
    argv = ["gen", "--model", model, "--n", str(n), "--seed", str(seed),
            "--levels", str(levels), "--tsm", tsm, "--out", str(prefix)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"wspanner {' '.join(argv)} failed")
    return Path(f"{prefix}.graph"), Path(f"{prefix}.terminals")


def _grid_paper(seed: int, p: dict, workdir: Path) -> list:
    models = ("er", "ge")
    return [PlanOp(f"{models[i % 2]}-n{p['n']}-r{i}", seed * 1000 + i, models=[models[i % 2]],
                   sizes=[p["n"]], levels=[2], tsms=["exp"], algorithms=list(ALGOS))
            for i in range(p["instances"])]


def _cli_few_terminals(seed: int, p: dict, workdir: Path) -> list:
    ops = []
    for i in range(p["instances"]):
        graph, terminals = _gen(workdir, f"er{i}", "er", p["n"], seed * 1000 + i, 7, "exp")
        for algo in ALGOS:
            out = workdir / f"er{i}-{algo}"
            argv = ["spanner", "--algo", algo, "--graph", str(graph), "--terminals", str(terminals),
                    "--level", str(p["level"]), "--seed", str(seed * 1000 + i), "--out", str(out)]
            ops.append(CliOp(f"er{i}-{algo}", "spanner", argv,
                             [Path(f"{out}.graph"), Path(f"{out}.json")], algo=algo,
                             graph_path=graph, terminals_path=terminals, level=p["level"],
                             out_prefix=out))
    return ops


def _dsweep_repair(seed: int, p: dict, workdir: Path) -> list:
    return [PlanOp(f"ge-n{p['n']}-r{i}", seed * 1000 + i, models=["ge"], sizes=[p["n"]],
                   levels=[2], tsms=["linear"], algorithms=["p4w", "p8w"], d_sweep=True)
            for i in range(p["instances"])]


def _desk_exact(seed: int, p: dict, workdir: Path) -> list:
    cells = [(model, n, levels, tsm, rep)
             for model in ("er", "ge", "ba") for n in (9, 12) for levels in (1, 2)
             for tsm in ("linear", "exp") for rep in range(p["reps"])]
    caps = SizeCaps()
    plans, lps = [], []
    for i, (model, n, levels, tsm, rep) in enumerate(cells):
        name = f"{model}-n{n}-l{levels}-{tsm}-r{rep}"
        plans.append(PlanOp(name, seed * 1000 + i, models=[model], sizes=[n], levels=[levels],
                            tsms=[tsm], algorithms=list(ALGOS), exact=True))
        graph, terminals = _gen(workdir, name, model, n, seed * 1000 + i, levels, tsm)
        m = int(graph.read_text(encoding="utf-8").split()[1])
        cap = caps.max_edges_single if levels == 1 else caps.max_edges_multi
        if m <= cap and (levels + 1) ** m <= caps.max_work:
            lp = workdir / f"{name}.lp"
            argv = ["emit-ilp", "--graph", str(graph), "--terminals", str(terminals),
                    "--mode", "global", "--c", "2", "--out", str(lp)]
            lps.append(CliOp(f"{name}-lp", "lp", argv, [lp], graph_path=graph,
                             terminals_path=terminals, mode="global", c=2, lp_path=lp))
    return plans + lps


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, dict, Path], list]
    sizes: dict
    smoke_sizes: dict
    # The tail latency's percentile: the highest one with at least ten ops
    # beyond it in a run at full size.  It is fixed, not derived from each
    # run's op count, so that a faster commit is compared at the same
    # percentile rather than at a higher one.
    tail_pct: int
    # Per-layer metrics that must be non-zero in every run, so the workload
    # cannot silently stop exercising the layer it exists for.
    exercises: tuple[str, ...] = ()

    def setup(self, seed: int, smoke: bool, workdir: Path) -> list:
        """Parse every plan and write every input file; returns the ops."""
        workdir.mkdir(parents=True, exist_ok=True)
        return self.build(seed, self.smoke_sizes if smoke else self.sizes, workdir)


WORKLOADS = {w.name: w for w in (
    Workload("grid-paper",
             "the paper's grid (ER+GE, 2 exp levels, all four algorithms): "
             "the validity gate and the pairwise retry checks dominate",
             _grid_paper, {"n": 100, "instances": 20}, {"n": 24, "instances": 2}, 75),
    Workload("cli-few-terminals",
             "CLI spanner runs with 16 terminals on ER graphs: "
             "the all-pairs path table dominates each call",
             _cli_few_terminals, {"n": 128, "level": 3, "instances": 5},
             {"n": 64, "level": 2, "instances": 1}, 90),
    Workload("dsweep-repair",
             "p4w/p8w d-sweeps on small geometric graphs: "
             "bounded-miss repair paths at d=1 dominate",
             _dsweep_repair, {"n": 22, "instances": 80}, {"n": 22, "instances": 1}, 75,
             ("pairwise.lmp.calls",)),
    Workload("desk-exact",
             "hundreds of tiny instances with the exact optimum and LP export: "
             "per-call overhead, exact search and LP emission dominate",
             _desk_exact, {"reps": 16}, {"reps": 1}, 90),
)}
