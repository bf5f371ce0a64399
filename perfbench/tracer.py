"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces each probed public function, in every loaded
``wspanner`` module that binds it, with a wrapper that records a span (name,
start, end, parent span, op) and, for some functions, counts taken from the
arguments or the result.  ``uninstall`` puts the original functions back,
so untraced runs execute the library untouched.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

_SOLVER_SPANS = ("subsetwise", "pairwise", "bench.d_sweep")


def _verify(t, a, result):
    t.counts["core.verify.pairs"] += len(a["pairs"])
    t.counts["core.verify.violations"] += len(result)


def _pairwise(t, a, result):
    report = result[1]
    t.counts["pairwise.passes"] += report.passes
    t.counts["pairwise.fallbacks"] += report.fallback
    t.counts["pairwise.patched_edges"] += report.patched
    t.counts["pairwise.sampled_vertices"] += sum(report.sample_counts)


def _lmp(t, a, result):
    t.counts["pairwise.lmp.found"] += result is not None


def _subsetwise(t, a, result):
    t.counts["subsetwise.records"] += len(result.records)
    t.counts["subsetwise.bought"] += sum(r.bought for r in result.records)


def _clustering(t, a, result):
    t.counts["subsetwise.clusters"] += len(result.clusters)
    t.counts["health.zero_cluster_clusterings"] += not result.clusters


def _multilevel(t, a, result):
    t.capture(("multilevel", a["inst"], result))


def _exact(t, a, result):
    t.counts["exact.solved"] += 1
    t.capture(("exact", a["inst"], result))


def _lp(t, a, result):
    t.counts["exact.lp_bytes"] += len(result.encode("utf-8"))


def _rungs(t, a, result):
    t.counts["bench.d_sweep.rungs"] += len(result[1])


def _dijkstra(t, a, result):
    # Single-source searches, keyed by the innermost open span.
    t.counts[f"{t.current()}.rows"] += 1


# (module, function, span name or None for a count-only probe, hook on the result)
PROBES = (
    ("generate", "generate", "generate", None),
    ("generate", "generate_terminals", "generate", None),
    ("core", "build_path_table", "core.path_table", None),
    ("core", "dijkstra_distances", None, _dijkstra),
    ("core", "verify_spanner", "core.verify", _verify),
    ("pairwise", "pairwise_spanner_run", "pairwise", _pairwise),
    ("pairwise", "d_light_init", "pairwise.d_light", None),
    ("pairwise", "limited_missing_path", "pairwise.lmp", _lmp),
    ("subsetwise", "subsetwise_2w_run", "subsetwise", _subsetwise),
    ("subsetwise", "build_clustering", None, _clustering),
    ("subsetwise", "path_value", "subsetwise.path_value", None),
    ("multilevel", "multilevel_roundup", "multilevel", _multilevel),
    ("multilevel", "multilevel_naive", "multilevel", _multilevel),
    ("exact", "exact_optimum", "exact", _exact),
    ("exact", "build_ilp", "exact.ilp", None),
    ("exact", "emit_lp", "exact.ilp", _lp),
    ("bench", "run_instance", "bench.run_instance", None),
    ("bench", "d_sweep", "bench.d_sweep", _rungs),
    ("cli", "main", "cli.main", None),
    ("core", "parse_graph_text", "cli.io", None),
    ("core", "write_graph_text", "cli.io", None),
    ("generate", "parse_terminals_text", "cli.io", None),
    ("generate", "write_terminals_text", "cli.io", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, op index, start, end]
        self.counts: Counter = Counter()
        self.captures: dict[int, list] = defaultdict(list)
        self.scale: dict[int, float] = {}  # op index -> reference seconds per wall second
        self.op = -1  # index of the running op; -1 during set-up
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "op"

    def capture(self, item) -> None:
        self.captures[self.op].append(item)

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if name is not None:
                parent = self._stack[-1] if self._stack else -1
                self._stack.append(len(self.spans))
                span = [name, parent, self.op, time.perf_counter(), None]
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[4] = time.perf_counter()
                    self._stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return probe

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "wspanner" or key.startswith("wspanner."))]
        for mod_name, fn_name, span, hook in PROBES:
            original = getattr(sys.modules[f"wspanner.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit) aggregated over every recorded span;
        times are in reference seconds, by the scale of each span's op."""
        child = [0.0] * len(self.spans)
        for name, parent, op, start, end in self.spans:
            if parent >= 0:
                child[parent] += (end - start) * self.scale.get(op, 1.0)
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        gate = retry = 0.0
        solved = 0
        for i, (name, parent, op, start, end) in enumerate(self.spans):
            dur = (end - start) * self.scale.get(op, 1.0)
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "core.verify":
                if parent_name == "pairwise":
                    retry += dur
                else:
                    gate += dur
            if name in _SOLVER_SPANS and parent_name == "multilevel":
                solved += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "generate.calls": (calls["generate"], "count"),
            "generate.s": (total["generate"], "s"),
            "core.path_table.calls": (calls["core.path_table"], "count"),
            "core.path_table.s": (total["core.path_table"], "s"),
            "core.path_table.rows": (c["core.path_table.rows"], "count"),
            "core.verify.calls": (calls["core.verify"], "count"),
            "core.verify.s": (total["core.verify"], "s"),
            "core.verify.gate_s": (gate, "s"),
            "core.verify.retry_s": (retry, "s"),
            "core.verify.pairs": (c["core.verify.pairs"], "count"),
            "core.verify.violations": (c["core.verify.violations"], "count"),
            "pairwise.calls": (calls["pairwise"], "count"),
            "pairwise.self_s": (own["pairwise"], "s"),
            "pairwise.d_light.s": (total["pairwise.d_light"], "s"),
            "pairwise.lmp.calls": (calls["pairwise.lmp"], "count"),
            "pairwise.lmp.s": (total["pairwise.lmp"], "s"),
            "pairwise.lmp.found_ratio": (ratio(c["pairwise.lmp.found"], calls["pairwise.lmp"]),
                                         "ratio"),
            "pairwise.passes": (c["pairwise.passes"], "count"),
            "pairwise.fallbacks": (c["pairwise.fallbacks"], "count"),
            "pairwise.patched_edges": (c["pairwise.patched_edges"], "edges"),
            "pairwise.sampled_vertices": (c["pairwise.sampled_vertices"], "count"),
            "subsetwise.calls": (calls["subsetwise"], "count"),
            "subsetwise.self_s": (own["subsetwise"], "s"),
            "subsetwise.clusters": (c["subsetwise.clusters"], "count"),
            "subsetwise.path_value.calls": (calls["subsetwise.path_value"], "count"),
            "subsetwise.path_value.s": (total["subsetwise.path_value"], "s"),
            "subsetwise.bought_ratio": (ratio(c["subsetwise.bought"], c["subsetwise.records"]),
                                        "ratio"),
            "multilevel.calls": (calls["multilevel"], "count"),
            "multilevel.self_s": (own["multilevel"], "s"),
            "multilevel.levels_solved": (solved, "count"),
            "exact.calls": (calls["exact"], "count"),
            "exact.s": (total["exact"], "s"),
            "exact.refused_ratio": (ratio(calls["exact"] - c["exact.solved"], calls["exact"]),
                                    "ratio"),
            "exact.ilp.s": (total["exact.ilp"], "s"),
            "exact.lp_bytes": (c["exact.lp_bytes"], "bytes"),
            "bench.run_instance.self_s": (own["bench.run_instance"], "s"),
            "bench.d_sweep.rungs": (c["bench.d_sweep.rungs"], "count"),
            "cli.io.s": (total["cli.io"], "s"),
            "cli.main.self_s": (own["cli.main"], "s"),
            "health.zero_cluster_clusterings": (c["health.zero_cluster_clusterings"], "count"),
        }
