"""Command-line interface: instance generation, spanner runs, exact solves,
ILP export, and the benchmark harness."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .bench import (
    ALGO_BUDGETS,
    GROUP_FIELDS,
    STRATEGIES,
    ExperimentPlan,
    _verify_levels,
    make_solver,
    read_rows_csv,
    run_plan,
    run_strategy,
    summarize,
    summary_to_csv,
)
from .core import (
    BudgetMode,
    ErrorBudget,
    parse_graph_text,
    verify_spanner,
    write_graph_text,
)
from .exact import SizeCapExceeded, SizeCaps, build_ilp, emit_lp, exact_optimum
from .generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    generate,
    generate_terminals,
    parse_terminals_text,
    write_terminals_text,
)
from .multilevel import MultiLevelInstance
from .pairwise import PairwiseParams, pairwise_spanner_run
from .subsetwise import subsetwise_2w_run


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_instance(args, budget: ErrorBudget) -> MultiLevelInstance:
    return MultiLevelInstance(parse_graph_text(_read(args.graph)),
                              parse_terminals_text(_read(args.terminals)), budget)


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.model, args.n, args.seed, (args.weight_lo, args.weight_hi))
    selection = TerminalSelection(args.tsm, args.levels, args.seed)
    g, sets = generate(spec), generate_terminals(args.n, selection)
    Path(f"{args.out}.graph").write_text(write_graph_text(g), encoding="utf-8")
    Path(f"{args.out}.terminals").write_text(write_terminals_text(sets), encoding="utf-8")
    print(f"wrote {args.out}.graph ({g.n} vertices, {len(g.edges)} edges) "
          f"and {args.out}.terminals ({len(sets)} levels)")
    return 0


def _cmd_spanner(args) -> int:
    inst = _load_instance(args, ALGO_BUDGETS[args.algo])
    if not 1 <= args.level <= inst.levels:
        raise ValueError(f"level {args.level} out of range 1..{inst.levels}")
    g, terminals = inst.graph, inst.terminal_sets[args.level - 1]
    pairs = g.paths.terminal_pairs(terminals)
    if args.algo == "sub2w":
        if args.d is not None:
            raise ValueError("--d sets the d-light parameter of p2w, p4w and p8w; sub2w has none")
        state = subsetwise_2w_run(g, terminals)
        edges = state.current_edges
        report = {"algorithm": "sub2w", "buy_audit": [
            {"pair": list(r.pair), "cost": r.cost, "value": r.value, "bought": r.bought}
            for r in state.records]}
    else:
        params = PairwiseParams(args.algo, d_override=args.d, seed=args.seed)
        edges, run = pairwise_spanner_run(g, pairs, params)
        report = {"algorithm": args.algo} | dataclasses.asdict(run)
    violated = verify_spanner(g, edges, pairs, inst.budget)
    report["valid"] = not violated
    report["edges"] = len(edges)
    text = write_graph_text(g, edges)
    if args.out:
        Path(f"{args.out}.graph").write_text(text, encoding="utf-8")
        Path(f"{args.out}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}.graph ({len(edges)} edges) and {args.out}.json")
    else:
        sys.stdout.write(text)
        print(json.dumps(report, indent=2))
    return 0 if report["valid"] else 1


def _cmd_multilevel(args) -> int:
    inst = _load_instance(args, ALGO_BUDGETS[args.algo])
    spanner = run_strategy(args.strategy, inst, make_solver(args.algo, args.seed))
    summary = {
        "algorithm": args.algo,
        "strategy": args.strategy,
        "levels": inst.levels,
        "level_sizes": [len(e) for e in spanner.level_edges],
        "sparsity": spanner.sparsity,
        "valid": not _verify_levels(inst, spanner),
    }
    if args.out:
        for k, edges in enumerate(spanner.level_edges, start=1):
            Path(f"{args.out}.level{k}.graph").write_text(
                write_graph_text(inst.graph, edges), encoding="utf-8")
        Path(f"{args.out}.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {inst.levels} level files and {args.out}.json (sparsity {spanner.sparsity})")
    else:
        print(json.dumps(summary, indent=2))
    return 0 if summary["valid"] else 1


def _cmd_exact(args) -> int:
    inst = _load_instance(args, ErrorBudget(args.mode, args.c))
    spanner = exact_optimum(inst, SizeCaps(args.cap_single, args.cap_multi))
    print(json.dumps({"sparsity": spanner.sparsity,
                      "level_sizes": [len(e) for e in spanner.level_edges]}, indent=2))
    return 0


def _cmd_emit_ilp(args) -> int:
    inst = _load_instance(args, ErrorBudget(args.mode, args.c))
    Path(args.out).write_text(emit_lp(build_ilp(inst)), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    plan = ExperimentPlan.from_json(_read(args.plan))
    rows = run_plan(plan, out_dir=args.out, workers=args.workers)
    print(f"{len(rows)} rows -> {args.out}/rows.csv")
    return 0


def _cmd_summarize(args) -> int:
    rows = read_rows_csv(args.infile)
    text = summary_to_csv(summarize(rows, args.group))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args returns a fresh
    namespace each call, so no value carries over between calls."""
    parser = argparse.ArgumentParser(prog="wspanner",
                                     description="Weighted additive spanner toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--graph", required=True)
    files.add_argument("--terminals", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--mode", choices=[m.value for m in BudgetMode], default="global")
    budget.add_argument("--c", type=int, default=2)

    p = sub.add_parser("gen", help="generate a seeded instance (graph + terminal levels)")
    p.add_argument("--model", choices=[m.value for m in Model], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--tsm", choices=[t.value for t in TerminalScheme], default="linear")
    p.add_argument("--weight-lo", type=int, default=1)
    p.add_argument("--weight-hi", type=int, default=10)
    p.add_argument("--out", required=True,
                   help="output prefix (writes PREFIX.graph and PREFIX.terminals)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spanner", parents=[files],
                       help="run one construction on one terminal level")
    p.add_argument("--algo", choices=sorted(ALGO_BUDGETS), required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=None, help="override the pairwise d-light parameter")
    p.add_argument("--out", help="output prefix (writes PREFIX.graph and PREFIX.json)")
    p.set_defaults(func=_cmd_spanner)

    p = sub.add_parser("multilevel", parents=[files], help="run a multi-level construction")
    p.add_argument("--algo", choices=sorted(ALGO_BUDGETS), required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=ExperimentPlan.strategy)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output prefix (per-level graphs plus PREFIX.json)")
    p.set_defaults(func=_cmd_multilevel)

    p = sub.add_parser("exact", parents=[files, budget], help="exact minimum sparsity "
                       "(size-capped branch-and-bound over per-pair path masks)")
    p.add_argument("--cap-single", type=int, default=SizeCaps.max_edges_single)
    p.add_argument("--cap-multi", type=int, default=SizeCaps.max_edges_multi)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("emit-ilp", parents=[files, budget], help="write the ILP in LP text format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_ilp)

    p = sub.add_parser("run", help="execute an experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1, help="parallel instances")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("summarize", help="aggregate a rows.csv for plotting")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--group", choices=list(GROUP_FIELDS), default="n")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SizeCapExceeded) as exc:
        print(f"wspanner: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
