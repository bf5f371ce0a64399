"""The benchmark's tracer still wraps and reaches every function it probes.

``perfbench/tracer.py`` replaces library functions by module and name, binds
their parameters by name and reads fields of their results; a renamed
function, parameter or result field breaks the traced round of every
benchmark run.  This test installs the tracer as it is, runs a tiny plan and
two CLI calls under it, and checks that every probe was wrapped, recorded
something and was put back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import wspanner
from wspanner import bench, cli, core, exact, generate, multilevel, pairwise, subsetwise

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = (wspanner, bench, cli, core, exact, generate, multilevel, pairwise, subsetwise)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_probes_a_plan_and_cli_calls_and_restores_the_library(tmp_path, capsys):
    tracer = _load_tracer()
    originals = {(mod, fn): getattr(sys.modules[f"wspanner.{mod}"], fn)
                 for mod, fn, _, _ in tracer.PROBES}
    bindings = {(m.__name__, attr): value for m in MODULES for attr, value in vars(m).items()
                if any(value is f for f in originals.values())}
    prefix = str(tmp_path / "inst")
    assert cli.main(["gen", "--model", "er", "--n", "12", "--seed", "3", "--levels", "2",
                     "--out", prefix]) == 0
    # ER n=6 is small enough for the exact solver and n=40 forms clusters and
    # reaches the bounded-miss repair of the d-sweep's last rung.
    plan = bench.ExperimentPlan(models=("er",), sizes=(6, 40), levels=(3,), tsms=("exp",),
                                algorithms=("sub2w", "p2w", "p4w", "p8w"), seeds_per_cell=1,
                                exact=True, d_sweep=True)
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules[f"wspanner.{mod}"], fn) is not original, (mod, fn)
        rows = bench.run_plan(plan, workers=1)
        files = ["--graph", f"{prefix}.graph", "--terminals", f"{prefix}.terminals"]
        assert cli.main(["spanner", "--algo", "p4w", *files, "--d", "1"]) == 0
        assert cli.main(["emit-ilp", *files, "--out", str(tmp_path / "inst.lp")]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert len(rows) == 8
    for (name, attr), value in bindings.items():
        assert vars(sys.modules[name])[attr] is value, (name, attr)
    spans = {span[0] for span in t.spans}
    assert {span for _, _, span, _ in tracer.PROBES if span} <= spans
    metrics = {name: value for name, (value, _) in t.layer_metrics().items()}
    # The count-only probes: row searches, and clusterings with or without clusters.
    assert any(key.endswith(".rows") for key in t.counts)
    assert metrics["subsetwise.clusters"] > 0 and metrics["health.zero_cluster_clusterings"] > 0
    for name in ("pairwise.passes", "pairwise.sampled_vertices", "core.verify.pairs",
                 "bench.d_sweep.rungs", "exact.lp_bytes", "multilevel.levels_solved"):
        assert metrics[name] > 0, name
    assert t.counts["exact.solved"] > 0 and t.counts["pairwise.lmp.found"] > 0
