"""Smoke test of the benchmark at tiny sizes, and of its independent check.

    python3 -m pytest perfbench

The tier-1 suite does not collect this file (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402  (pytest puts this directory on sys.path)
import reference  # noqa: E402
import run  # noqa: E402
from wspanner import (  # noqa: E402
    GeneratorSpec,
    Model,
    PairwiseAlgo,
    PairwiseParams,
    build_path_table,
    generate,
    pairwise_spanner,
    subsetwise_2w,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--smoke", "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = units | {"fail_ratio": "ratio"}
    for name, unit in printed.items():
        pattern = rf"^{re.escape(name)} +-?[0-9.e+-]+ {re.escape(unit)}( |$)"
        assert any(re.match(pattern, line) for line in lines), f"{name} not printed in {unit}"
    assert any(re.fullmatch(r"digest sha256:[0-9a-f]{64}", line) for line in lines)


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_an_op_over_the_time_limit_is_stopped_and_counted_as_failed(monkeypatch):
    class Sleeper:
        name = "sleeper"

        def run(self):
            time.sleep(5)

    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        stats = run.OpStats(Sleeper())
        seconds, error = stats.attempt(deadline=time.perf_counter() + 60)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert "op limit" in error and seconds < 2


def test_op_times_are_scaled_by_the_kernel_runs_around_them(monkeypatch):
    class Op:
        name = "noop"

        def run(self):
            return None

        def output(self, raw):
            return b""

    kernel = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(reference, "kernel_seconds", lambda: next(kernel))
    clock = reference.Clock()
    # the pass's start, the deadline check, the op's start and end, the pass's end
    walls = iter([0.0, 1.0, 10.0, 10.5, 20.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(walls))
    stats = [run.OpStats(Op())]
    busy, rounds = run.timed_pass(stats, seconds=0.0, deadline=float("inf"), clock=clock)
    assert rounds == 1 and stats[0].wall == [0.5]
    assert stats[0].latencies == [pytest.approx(0.5 * reference.REFERENCE_S / 0.003)]
    assert busy == stats[0].latencies[0]


@pytest.mark.parametrize("model", list(Model))
def test_oracle_distances_and_local_weights_match_the_path_table(model):
    g = generate(GeneratorSpec(model, 40, seed=5))
    pt = build_path_table(g)
    terminals = list(range(0, 40, 3))
    s, dg, limit = oracle.pair_limits(g.n, g.edges, terminals, "local", 1)
    for i, j in combinations(range(len(s)), 2):
        u, v = int(s[i]), int(s[j])
        assert dg[i, j] == pt.dist(u, v)
        assert limit[i, j] - dg[i, j] == pt.max_weight(u, v)


@pytest.mark.parametrize("algo", ["sub2w", "p2w", "p4w", "p8w"])
def test_oracle_accepts_spanners_and_rejects_truncated_ones(algo):
    g = generate(GeneratorSpec(Model.ER, 60, seed=11))
    terminals = list(range(0, 60, 4))
    if algo == "sub2w":
        h = subsetwise_2w(g, terminals)
    else:
        pairs = list(combinations(terminals, 2))
        h = pairwise_spanner(g, pairs, PairwiseParams(PairwiseAlgo(algo), seed=2))
    mode, c = oracle.ADVERTISED[algo]
    assert oracle.budget_problems(g.n, g.edges, h, terminals, mode, c) == []
    cut = {e for e in h if terminals[0] not in e}
    assert oracle.budget_problems(g.n, g.edges, cut, terminals, mode, c)
    missing = next((u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v))
    assert oracle.budget_problems(g.n, g.edges, h | {missing}, terminals, mode, c)
