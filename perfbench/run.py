"""Seeded end-to-end benchmark of wspanner, with a traced per-layer round.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in a fresh child process
    python3 perfbench/run.py --smoke ...       # tiny sizes, used by test_perfbench.py

One run of a workload, in one process and one op at a time (a closed loop
with a single client):

1. set-up: import the library, then build the inputs three times (plans
   parsed, instance files written); ``setup_s`` is the median import time
   of three fresh interpreters plus the median build time;
2. timed pass: whole rounds of every op, untraced, until ``--seconds`` have
   passed; each op is bounded by a SIGALRM time limit, and its output must
   repeat byte for byte in every round;
3. peak memory (``ru_maxrss``) is read here, before anything else runs;
4. traced round: the set-up and every op once more, with spans recorded
   around the library's public functions (see tracer.py); the outputs must
   match the timed pass;
5. independent check of every op's output (see oracle.py).

Every time is reported in reference seconds (see reference.py): the wall
time scaled by the speed of the host, measured by a fixed kernel run right
before and right after it, so that the drift of a shared host does not
read as a change of the program.  The record keeps the wall times too.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from the traced round.  Every metric is printed as
``name value unit`` and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A run record
with versions, sizes, per-op shapes and every span is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
OP_LIMIT_S = 20.0  # per-op time limit; ops are sized to take well under a second
RUN_LIMIT_S = 140.0  # no op starts later than this after start-up
SETUP_REPEATS = 3


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"over the {OP_LIMIT_S:g} s op limit")


class OpStats:
    """What one op did during a run."""

    def __init__(self, op):
        self.op = op
        self.latencies: list[float] = []  # reference seconds, one per good run in the timed pass
        self.wall: list[float] = []  # the same runs' wall seconds
        self.errors: list[str] = []  # one per failed run in the timed pass
        self.problems: list[str] = []  # why the op as a whole failed (traced round, check)
        self.output: bytes | None = None  # canonical output of the first good run
        self.raw = None  # that run's return value
        self.shape: dict[str, int] = {}

    def attempt(self, deadline: float) -> tuple[float, str | None]:
        """Run the op once: (seconds, error or None).  Every good output must
        equal the first one."""
        if time.perf_counter() > deadline:
            return 0.0, "not started: run time limit reached"
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = time.perf_counter()
        try:
            raw = self.op.run()
        except Exception as exc:  # any failure of one op is counted and the run goes on
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        try:
            out = self.op.output(raw)
        except (OSError, RuntimeError) as exc:
            return seconds, f"{type(exc).__name__}: {exc}"
        if self.output is None:
            self.output, self.raw = out, raw
        elif out != self.output:
            return seconds, "output differs from its first run"
        return seconds, None

    @property
    def failed_runs(self) -> int:
        return len(self.errors) + (len(self.latencies) if self.problems else 0)


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[max(0, math.ceil(pct * len(xs) / 100) - 1)]


def import_seconds(clock) -> float:
    """Time to import the library and the workload definitions in a fresh
    interpreter, as the set-up of a first run pays it, in reference seconds."""
    code = (f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
            "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                           timeout=60, check=True)
    return float(child.stdout) * clock.scale()


def git_head() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_pass(stats: list[OpStats], seconds: float, deadline: float,
               clock) -> tuple[float, int]:
    """Whole rounds of every op until `seconds` have passed: (busy reference
    seconds, rounds)."""
    busy = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        for st in stats:
            dt, err = st.attempt(deadline)
            ref = dt * clock.scale()
            busy += ref
            if err:
                st.errors.append(err)
            else:
                st.latencies.append(ref)
                st.wall.append(dt)
        rounds += 1
        now = time.perf_counter()
        if now - start >= seconds or now > deadline:
            return busy, rounds


def traced_round(workload, stats, seed, smoke, workdir, deadline, clock):
    """Set-up and one run of every op with the tracer installed: (tracer, ops
    per reference second)."""
    from tracer import Tracer

    tracer = Tracer()
    busy = 0.0
    ok = 0
    tracer.install()
    try:
        workload.setup(seed, smoke, workdir)
        tracer.scale[-1] = clock.scale()
        for i, st in enumerate(stats):
            tracer.op = i
            dt, err = st.attempt(deadline)
            tracer.scale[i] = clock.scale()
            busy += dt * tracer.scale[i]
            if err:
                st.problems.append(f"traced round: {err}")
            else:
                ok += 1
    finally:
        tracer.uninstall()
    return tracer, ok / busy if busy else 0.0


def check_outputs(stats: list[OpStats], tracer) -> tuple[int, int]:
    """Independent check of every op's output: (edges output, whole-graph outputs)."""
    import oracle

    edges = full_graph = 0
    for i, st in enumerate(stats):
        if st.output is None:
            continue
        if st.op.kind == "plan":
            verdict = oracle.check_plan(st.raw, tracer.captures.get(i, []))
        elif st.op.kind == "spanner":
            verdict = oracle.check_spanner_files(**st.op.check)
        else:
            verdict = oracle.check_lp(**st.op.check)
        st.problems += verdict.problems
        st.shape = verdict.shape
        edges += verdict.edges
        full_graph += verdict.full_graph_outputs
    return edges, full_graph


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, list[str]]:
    """One run of one workload: (result object, printed lines)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from reference import Clock

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    clock = Clock()
    import_s = statistics.median(import_seconds(clock) for _ in range(SETUP_REPEATS))
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workload.setup(seed, smoke, workdir)
            build_s.append((time.perf_counter() - t0) * clock.scale())
        stats = [OpStats(op) for op in ops]
        busy, rounds = timed_pass(stats, seconds, deadline, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer, traced_rate = traced_round(workload, stats, seed, smoke, workdir, deadline,
                                           clock)
        edges_total, full_graph = check_outputs(stats, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(st.latencies) + len(st.errors) for st in stats)
    failed = sum(st.failed_runs for st in stats)
    samples = [dt for st in stats if not st.problems for dt in st.latencies]
    ops_per_s = len(samples) / busy if busy else 0.0
    wall = [dt for st in stats if not st.problems for dt in st.wall]
    end_to_end = {
        "setup_s": (import_s + statistics.median(build_s), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1000 if samples else 0.0, "ms"),
        "op_tail_ms": (percentile(samples, workload.tail_pct) * 1000 if samples else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "edges_total": (edges_total, "edges"),
    }
    layers = tracer.layer_metrics()
    layers["health.full_graph_outputs"] = (full_graph, "count")
    layers["trace.overhead_ratio"] = (traced_rate / ops_per_s if ops_per_s else 0.0, "ratio")
    idle = [m for m in workload.exercises if not layers[m][0]]
    digest = hashlib.sha256()
    for st in stats:
        digest.update(st.op.name.encode() + b"\0" + (st.output or b"FAILED") + b"\0")
    digest = digest.hexdigest()

    beyond = len(samples) * (100 - workload.tail_pct) // 100
    notes = {"op_p50_ms": f"{len(samples)} ops",
             "op_tail_ms": f"p{workload.tail_pct} of {len(samples)} ops, {beyond} beyond it"}
    fail_ratio = failed / attempted if attempted else 1.0
    shown = layers if trace else end_to_end
    lines = [f"workload {name} seed {seed} ops {len(stats)} rounds {rounds} "
             f"trace {int(trace)}{' smoke' if smoke else ''}"]
    for key, (value, unit) in shown.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{key:<34} {value:.6g} {unit}{note}")
    lines.append(f"{'fail_ratio':<34} {fail_ratio:.6g} ratio  ({failed} of {attempted} ops)")
    for st in stats:
        lines += [f"FAILED {st.op.name}: {p}" for p in (st.errors[:1] + st.problems)[:3]]
    lines += [f"FAILED workload health: {m} is 0, so the workload no longer exercises "
              f"its layer" for m in idle]
    wall_clock = {"ops_per_s": len(wall) / sum(wall),
                  "op_p50_ms": statistics.median(wall) * 1000,
                  "op_tail_ms": percentile(wall, workload.tail_pct) * 1000} if wall else {}
    if wall_clock:
        lines.append("wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()))
    lines.append(f"digest sha256:{digest}")

    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "sizes": workload.smoke_sizes if smoke else workload.sizes,
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(), "WSPANNER_WORKERS": os.environ.get("WSPANNER_WORKERS"),
        "workers": 1, "rounds": rounds, "attempted": attempted, "failed": failed,
        "digest": digest,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()} | {"fail_ratio": fail_ratio},
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "wall_clock": wall_clock,
        "ops": [{"name": st.op.name, **st.shape, "runs": len(st.latencies),
                 "median_ms": statistics.median(st.latencies) * 1000 if st.latencies else None,
                 "wall_median_ms": statistics.median(st.wall) * 1000 if st.wall else None,
                 "errors": st.errors[:3], "problems": st.problems[:3]} for st in stats],
        "spans": tracer.spans,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    lines.append(f"record {path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0 and not idle,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Every workload, one at a time, each in a fresh child process."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        if child.returncode or not json.loads(child.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wspanner" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'wspanner'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
