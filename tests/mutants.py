"""A register of mutants that the test suite must kill, and its runner.

Run from the root of a checkout (it needs pytest and the test extras):

    python tests/mutants.py    # the no-op control, then every mutant

Each entry names a file under ``src/``, an anchor text that occurs exactly
once in it, the text that replaces it, and the test ids that must fail with
the mutant in place (a parametrized test counts as failing when one of its
cases fails).  The runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to one temporary directory per worker (two of them), and each worker
takes the next entry, applies its mutant to its own copy, runs the entry's
tests there in a fresh interpreter that writes no bytecode, and restores the
file.  Verdicts are printed in register order, whichever worker finishes
first.  First comes a no-op control, an anchor replaced by itself, run
against every test id of the register: it must survive, which shows that
those tests pass on the unchanged tree and that a replacement that changes
nothing is reported.  The runner exits non-zero when a mutant survives,
when the control is killed, when an anchor is missing or occurs more than
once, or when pytest cannot run an entry's tests.

Known equivalent mutants, kept out of the register because no test can
kill them:
- ``d >= limit`` for ``d > limit`` in ``core._settle``, whose only finite
  limit is ``path_value``'s: the vertices in the bucket at the limit
  already hold their exact distance, and their edges would only set
  entries above the limit, which ``path_value`` never counts as beaten;
- ``PathTable.path`` answering through a parent walk per read instead of
  its cached tuples (``test_runs_on_any_pair_order_match_pair_by_pair_reads``
  runs the pairwise constructions that way and compares outputs);
- no stale-entry skip in ``core._settle``: a stale entry relaxes nothing,
  since every edge from it was already relaxed from a smaller distance;
- any pair order within a level of the exact search.

A change that adds a fast path or an oracle adds its mutants here; a
refactor that moves an anchor re-anchors its entry.  Kill lists name
deterministic tests where one kills the mutant: a hypothesis test that
fails shrinks its example first, which can take minutes.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # entries run at once, each in its own copy of the tree


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    kills: tuple[str, ...]


PAIRWISE = "src/wspanner/pairwise.py"
SUBSETWISE = "src/wspanner/subsetwise.py"
CORE = "src/wspanner/core.py"
BENCH = "src/wspanner/bench.py"
CLI = "src/wspanner/cli.py"
EXACT = "src/wspanner/exact.py"
GENERATE = "src/wspanner/generate.py"
SEEDING = "src/wspanner/seeding.py"
MULTILEVEL = "src/wspanner/multilevel.py"
REFERENCE = "tests/test_pairwise.py::test_run_matches_plain_reference_on_every_repair"
SUB2W_REFERENCE = "tests/test_subsetwise.py::test_audit_replay_matches_run_where_clusters_form"
OFF_CANONICAL = ("tests/test_core.py::"
                 "test_check_searches_the_subgraph_only_for_pairs_off_their_canonical_path")
ONE_H = "tests/test_subsetwise.py::test_one_subgraph_adjacency_per_run_and_none_without_clusters"
GROWS = "tests/test_core.py::test_subgraph_builds_its_lists_at_its_first_search_and_grows_them_after"
ONE_INDEX = "tests/test_bench.py::test_instance_walks_each_terminal_pair_list_once"
SHARED_WALKS = "tests/test_bench.py::test_exact_solves_of_an_instance_walk_each_pair_once"
WIDEN = "tests/test_exact.py::TestExactOptimum::test_budgets_on_one_graph_walk_again_only_to_widen"
KEPT = "tests/test_exact.py::TestKeptAnswers::"
GRAPH = "tests/test_core.py::TestWeightedGraph::"
EXACT_TIE_BREAK = ("tests/test_exact.py::TestExactOptimum::test_triangle_two_levels",
                   "tests/test_golden.py::test_exact_level_sets_digest[er-12-l1-global]")

CONTROL = Mutant("no-op control", CORE, "    def leaving(", "    def leaving(", ())

REGISTER = (
    Mutant("pairwise missing edges counted against H at the sweep's start", PAIRWISE,
           "    for i in pt.leaving(pairs, h):\n"
           "        missing = [e for e in pt.path(*pairs[i]) if e not in h]\n",
           "    start = set(h)\n"
           "    for i in pt.leaving(pairs, h):\n"
           "        missing = [e for e in pt.path(*pairs[i]) if e not in start]\n",
           (REFERENCE, "tests/test_pairwise.py::TestPairwiseSpanner::"
                       "test_pair_covered_by_earlier_buys_is_not_repaired")),
    Mutant("no sweep repairs", PAIRWISE,
           "            h.update(missing)\n            continue\n",
           "            h.update(missing)\n            continue\n        continue\n",
           (REFERENCE, "tests/test_golden.py::test_pairwise_output_digest")),
    Mutant("no p2w trees after the sweep", PAIRWISE,
           "    if algo is PairwiseAlgo.P2W:\n        for r in _sample(",
           "    if False:\n        for r in _sample(",
           (REFERENCE,)),
    Mutant("pairwise pass seeds its stream before its first sample", PAIRWISE,
           "n, pt, rng = g.n, g.paths, None", "n, pt, rng = g.n, g.paths, stream(seed, ROLE_PAIRWISE, 0)",
           ("tests/test_pairwise.py::test_a_pass_seeds_its_stream_only_when_it_samples",)),
    Mutant("pairwise sweep repair seeds a fresh stream for every sample", PAIRWISE,
           "sample = _sample(rng := rng or stream(", "sample = _sample(rng := stream(",
           ("tests/test_pairwise.py::test_every_sample_of_a_pass_draws_from_its_one_stream",)),
    Mutant("pairwise stream kept across runs", PAIRWISE,
           "n, pt, rng = g.n, g.paths, None",
           'n, pt, rng = g.n, g.paths, vars(_pass).setdefault("rng", stream(seed, ROLE_PAIRWISE, 0))',
           ("tests/test_pairwise.py::TestPairwiseSpanner::test_deterministic_given_seed",
            "tests/test_golden.py::test_pairwise_output_digest")),
    Mutant("p4w search skip inverted", PAIRWISE,
           "if not h.issuperset(pt.path(r, r_prime) or ()):",
           "if h.issuperset(pt.path(r, r_prime) or ()):",
           (REFERENCE,)),
    Mutant("missing[:ell - 1]", PAIRWISE,
           "h.update(missing[:ell])", "h.update(missing[:ell - 1])",
           (REFERENCE,)),
    Mutant("p8w repair without its connectivity test", PAIRWISE,
           "elif len(sample) >= 2 and g.is_connected:", "elif len(sample) >= 2:",
           (REFERENCE,)),
    Mutant("pairwise pre-scan skipped on a disconnected graph", PAIRWISE,
           "if not g.is_connected:", "if False:",
           ("tests/test_pairwise.py::TestPairwiseSpanner::"
            "test_first_disconnected_pair_after_connected_ones_is_named",
            "tests/test_cli.py::test_exact_rejects_a_disconnected_terminal_pair[spanner-p2w]",
            "tests/test_cli.py::test_exact_rejects_a_disconnected_terminal_pair[spanner-p4w]",
            "tests/test_cli.py::test_exact_rejects_a_disconnected_terminal_pair[spanner-p8w]",
            "tests/test_cli.py::test_exact_rejects_a_disconnected_terminal_pair[multilevel-p2w]")),
    Mutant("sub2w without its re-test", SUBSETWISE,
           "    for i in left:\n"
           "        u, v = pairs[i]\n"
           "        new = [e for e in pt.path(u, v) if e not in h.edges]\n",
           "    start = set(h.edges)\n"
           "    for i in left:\n"
           "        u, v = pairs[i]\n"
           "        new = [e for e in pt.path(u, v) if e not in start]\n",
           (SUB2W_REFERENCE,
            "tests/test_subsetwise.py::test_pair_covered_by_an_earlier_buy_asks_no_path_value")),
    Mutant("path_value searches H only to the nearest cluster", SUBSETWISE,
           "limit=max(along.values())", "limit=min(along.values())",
           ("tests/test_subsetwise.py::TestPathValue::test_cluster_past_the_nearest_one_is_searched_for",
            SUB2W_REFERENCE)),
    Mutant("cluster_of numbered from 1", SUBSETWISE,
           "enumerate(self.clusters):", "enumerate(self.clusters, start=1):",
           ("tests/test_subsetwise.py::test_clustering_matches_rescan_oracle",
            SUB2W_REFERENCE)),
    Mutant("cluster_of one index low", SUBSETWISE,
           "out[v] = idx\n", "out[v] = idx - 1\n",
           ("tests/test_subsetwise.py::test_clustering_matches_rescan_oracle",
            SUB2W_REFERENCE)),
    Mutant("sub2w does not grow H's adjacency after a buy", SUBSETWISE,
           "            h.add(new)\n", "            h.edges.update(new)\n",
           (SUB2W_REFERENCE, ONE_H)),
    Mutant("path_value reads the path of the pair (u, x)", SUBSETWISE,
           "(path := g.paths.path(u, v))", "(path := g.paths.path(u, x))",
           ("tests/test_subsetwise.py::TestPathValue::test_counts_unreachable_cluster_member",
            SUB2W_REFERENCE)),
    Mutant("Subgraph.add updates only the set", CORE,
           "        if self._adj is not None:\n            self._link(new)\n", "",
           (GROWS, ONE_H)),
    Mutant("Subgraph builds its lists at construction", CORE,
           "self.g, self.edges, self._adj = g, set(edges), None\n",
           "self.g, self.edges, self._adj = g, set(edges), [[] for _ in range(g.n)]\n"
           "        self._link(self.edges)\n",
           (GROWS, ONE_H)),
    Mutant("Subgraph.add links an edge it already holds", CORE,
           "new = [e for e in edges if e not in self.edges]", "new = list(edges)",
           (GROWS,)),
    Mutant("pair index keys reversed", CORE,
           "index[(p, y) if p < y else (y, p)].append(i)",
           "index[(y, p) if p < y else (p, y)].append(i)",
           (OFF_CANONICAL, "tests/test_core.py::test_leaving_builds_path_tuples_only_for_pairs_it_returns")),
    Mutant("pair index walk stops one edge early", CORE,
           "while (p := parent[y]) >= 0:", "while (p := parent[y]) >= 0 and parent[p] >= 0:",
           (OFF_CANONICAL,
            "tests/test_core.py::TestVerifySpanner::test_tied_path_off_the_canonical_one_passes")),
    Mutant("pair index rebuilt on every call", CORE,
           "index = self._indexes.get(key)", "index = None",
           (ONE_INDEX,)),
    Mutant("pair index stored before it is filled", CORE,
           "            index = defaultdict(list)\n",
           "            index = defaultdict(list)\n"
           "            if key in self._indexes:\n"
           "                self._indexes[key] = index\n",
           ("tests/test_core.py::TestVerifySpanner::"
            "test_pair_outside_the_graph_raises_on_every_call",)),
    Mutant("table hands out a new pair tuple on every call", CORE,
           "        pairs = self._pairs.get(key := frozenset(terminals))\n",
           "        return tuple(terminal_pairs(frozenset(terminals)))\n",
           (ONE_INDEX, "tests/test_core.py::test_table_hands_out_one_pair_tuple_per_terminal_set")),
    Mutant("leaving keeps the index of any sequence", CORE,
           "            if key in self._indexes:\n                self._indexes[key] = index\n",
           "            self._indexes[key] = index\n",
           ("tests/test_core.py::test_leaving_answers_a_list_changed_in_place_for_its_new_contents",
            "tests/test_core.py::"
            "test_leaving_keeps_no_index_for_a_sequence_the_table_did_not_hand_out")),
    Mutant("leaving builds the tuples of the pairs it returns", CORE,
           "        return sorted(set().union(*map(index.__getitem__, index.keys() - h)))\n",
           "        left = sorted(set().union(*map(index.__getitem__, index.keys() - h)))\n"
           "        return [i for i in left if self.path(*pairs[i]) is not None]\n",
           ("tests/test_core.py::test_leaving_builds_path_tuples_only_for_pairs_it_returns",
            "tests/test_core.py::test_global_check_builds_no_path_tuple")),
    Mutant("table never fetches a second row", CORE,
           "        row = self._rows.get(s)\n",
           "        row = next(iter(self._rows.values()), None)\n",
           ("tests/test_golden.py::test_pairwise_output_digest",
            "tests/test_core.py::test_path_table_computes_only_the_rows_it_is_asked_for")),
    Mutant("row ties go to the largest-id parent", CORE,
           "elif nd > dist[y] or x > parent[y]:", "elif nd > dist[y] or x < parent[y]:",
           ("tests/test_core.py::TestPathTable::test_equal_weight_ties_take_smaller_predecessor",)),
    Mutant("path tuples built without being stored", CORE,
           "        t, (dist, parent, edges) = self._row(u, v)\n",
           "        t, (dist, parent, edges) = self._row(u, v)\n        edges = list(edges)\n",
           ("tests/test_core.py::test_each_canonical_edge_tuple_is_built_once",)),
    Mutant("row range check without its lower bound", CORE,
           "        if s < 0 or t >= self._n:\n", "        if t >= self._n:\n",
           ("tests/test_core.py::test_path_outside_the_graph_is_a_one_line_value_error",)),
    Mutant("light_first without its weight key (by neighbor id)", CORE,
           "sorted(self.edges, key=itemgetter(2))", "self.edges",
           (GRAPH + "test_light_first_orders_by_weight_then_neighbor_id",
            "tests/test_golden.py::test_pairwise_output_digest")),
    Mutant("adj filled in reverse edge order", CORE,
           "for u, v, w in self.edges:\n            lists[u].append((v, w))",
           "for u, v, w in reversed(self.edges):\n            lists[u].append((v, w))",
           (GRAPH + "test_adjacency_sorted_by_neighbor",
            GRAPH + "test_adjacency_of_a_middle_vertex_takes_its_lower_neighbors_first")),
    Mutant("edge check accepts a bool weight", CORE,
           "if not (type(w) is int or _is_int(w)) or w < 1:",
           "if not (type(w) is int or isinstance(w, int)) or w < 1:",
           (GRAPH + "test_rejects_bool_weight",
            GRAPH + "test_edge_check_message_and_precedence[bool-weight]")),
    Mutant("parse without its three-token line check", CORE,
           "ok = next((i for i, parts in enumerate(rows) if len(parts) != 3), m)", "ok = m",
           ("tests/test_core.py::TestGraphText::test_parse_names_the_first_malformed_edge_line",
            "tests/test_cli.py::test_spanner_rejects_malformed_text_files[bad-edge-line]")),
    Mutant("limit without its disconnected check", CORE,
           "        if (d := g.paths.dist(u, v)) == UNREACHABLE:\n"
           "            raise ValueError(f\"terminal pair ({u},{v}) is disconnected\")\n",
           "        d = g.paths.dist(u, v)\n",
           ("tests/test_core.py::"
            "test_limit_of_a_pair_the_graph_does_not_connect_is_a_one_line_value_error",
            "tests/test_exact.py::TestBuildIlp::test_disconnected_pair_raises",
            "tests/test_exact.py::TestExactOptimum::test_disconnected_pair_raises",
            "tests/test_cli.py::test_exact_rejects_a_disconnected_terminal_pair",
            "tests/test_cli.py::test_emit_ilp_rejects_a_disconnected_terminal_pair_and_writes_no_file")),
    Mutant("limit drops the allowance", CORE,
           "return d + self.allowance(g, u, v)", "return d",
           ("tests/test_exact.py::TestBuildIlp::test_local_mode_tightens_rhs",
            "tests/test_core.py::TestVerifySpanner::test_local_budget_uses_pair_max_weight")),
    Mutant("generate records a disconnected verdict", GENERATE,
           'object.__setattr__(g, "is_connected", True)',
           'object.__setattr__(g, "is_connected", False)',
           ("tests/test_generate.py::TestGenerate::"
            "test_a_generated_graph_keeps_its_connectivity_verdict",
            "tests/test_generate.py::TestGenerate::test_connected_simple_weighted")),
    Mutant("GeneratorSpec's WS bound made strict", GENERATE,
           "self.n <= WS_K", "self.n < WS_K",
           ("tests/test_generate.py::TestGenerate::test_spec_rejects_bad_parameters_at_construction",
            "tests/test_generate.py::TestGenerate::test_rejects_bad_parameters")),
    Mutant("MultiLevelInstance without its nesting test", MULTILEVEL,
           "if i > 1 and not s <= sets[i - 2]:", "if False:",
           ("tests/test_cli.py::test_spanner_and_multilevel_reject_a_non_nested_sidecar_alike",)),
    Mutant("pick draws through rng.sample", SEEDING,
           "    pool = list(items)\n",
           "    return rng.sample(list(items), k)\n    pool = list(items)\n",
           ("tests/test_seeding.py::test_library_draws_only_random",)),
    Mutant("pick is Sattolo's shuffle (j never equals i)", SEEDING,
           "j = i + int(rng.random() * (len(pool) - i))",
           "j = i + int(rng.random() * (len(pool) - i - 1))",
           ("tests/test_seeding.py::test_pick_reaches_every_order",)),
    Mutant("bounded-miss reconstruction scans neighbours in reverse", PAIRWISE,
           "        for u, w in adj[x]:\n", "        for u, w in reversed(adj[x]):\n",
           ("tests/test_pairwise.py::TestLimitedMissingPath::"
            "test_reconstruction_prefers_the_smaller_predecessor_on_a_full_tie",)),
    Mutant("SizeCaps accepts a negative cap", EXACT,
           " or value < 0:", ":",
           ("tests/test_bench.py::TestPlanDict::test_negative_cap_rejected",
            "tests/test_cli.py::test_run_rejects_a_negative_cap_before_any_instance",
            "tests/test_cli.py::test_exact_rejects_a_negative_cap_flag")),
    Mutant("SizeCaps checks its first field only", EXACT,
           "for f in fields(self))", "for f in fields(self)[:1])",
           ("tests/test_bench.py::TestPlanDict::test_negative_cap_rejected[max_work]",
            "tests/test_cli.py::test_run_rejects_a_negative_cap_before_any_instance")),
    Mutant("exact bound test made >=", EXACT,
           "if total + (untouched + 1) // 2 > best_sparsity:",
           "if total + (untouched + 1) // 2 >= best_sparsity:",
           EXACT_TIE_BREAK),
    Mutant("exact tie-break reversed", EXACT,
           "key < best_rates", "key > best_rates",
           EXACT_TIE_BREAK),
    Mutant("exact bound rounded up one more", EXACT,
           "(untouched + 1) // 2", "(untouched + 2) // 2",
           EXACT_TIE_BREAK),
    Mutant("exact walk's distance test made strict", EXACT,
           "weight + w + to_v[y] <= limit", "weight + w + to_v[y] < limit",
           ("tests/test_golden.py::test_exact_level_sets_digest[ge-9-l1-local]",
            "tests/test_golden.py::test_exact_level_sets_digest[ba-12-l1-local]")),
    Mutant("exact walk reads the row of v", EXACT,
           "pt.row(u)[0])", "pt.row(v)[0])",
           ("tests/test_exact.py::TestExactOptimum::test_reads_only_the_rows_of_smaller_pair_ends",
            "tests/test_exact.py::TestExactOptimum::test_triangle_local")),
    Mutant("exact never walks a pair again at a larger limit", EXACT,
           "if top < limit:", "if top < 0:",
           (WIDEN,)),
    Mutant("exact filter drops the paths on the limit", EXACT,
           "if p[3] <= limit]", "if p[3] < limit]",
           (WIDEN, "tests/test_golden.py::test_exact_level_sets_digest[ge-9-l1-local]")),
    Mutant("exact keeps its walks and answers in a strong store", EXACT,
           "_KEPT: WeakKeyDictionary = WeakKeyDictionary()", "_KEPT: WeakKeyDictionary = {}",
           ("tests/test_exact.py::TestExactOptimum::test_kept_walks_are_freed_with_the_graph",)),
    Mutant("exact keeps no walk or answer between calls", EXACT,
           "walked, answers = _KEPT.setdefault(pt, ({}, {}))", "walked, answers = {}, {}",
           (SHARED_WALKS,)),
    Mutant("exact serves a kept answer without the containment test", EXACT,
           "all(wider[p] >= limit for p, limit in limits.items())", "True",
           (KEPT + "test_narrower_answer_never_serves_a_wider_budget",)),
    Mutant("exact serves a kept answer without the fit test", EXACT,
           "any(w <= limits[p] and mask & level == mask for _, mask, _, w in walked[p][1])", "True",
           (KEPT + "test_wider_answer_missing_the_narrower_budget_leads_to_a_search",)),
    Mutant("exact tests a kept answer's fit on level 1 only", EXACT,
           "zip(level_masks, inst.terminal_sets)", "zip(level_masks[:1], inst.terminal_sets)",
           (KEPT + "test_two_level_answer_fitting_level_1_only_leads_to_a_search",)),
    Mutant("exact fit test drops the paths on the limit", EXACT,
           "any(w <= limits[p]", "any(w < limits[p]",
           (KEPT + "test_fitting_wider_answer_is_returned_as_the_same_object",)),
    Mutant("exact keys its kept answers without the terminal sets", EXACT,
           ".setdefault(inst.terminal_sets, [])", ".setdefault((), [])",
           (KEPT + "test_instances_of_other_terminal_sets_never_serve_each_other",)),
    Mutant("exact keeps no answer", EXACT,
           "kept.append((limits, level_masks, answer))", "pass",
           (KEPT + "test_fitting_wider_answer_is_returned_as_the_same_object",)),
    Mutant("exact search closure left in its cycle", EXACT,
           "    del search  #", "    #",
           (KEPT + "test_a_solve_leaves_nothing_for_the_collector",)),
    Mutant("exact walk closure left in its cycle", EXACT,
           "    del walk  #", "    #",
           (KEPT + "test_a_solve_leaves_nothing_for_the_collector",)),
    Mutant("p8w repairs keep their sample's pair tuple in the path table", PAIRWISE,
           "subsetwise_2w(g, sample, one_off=True)", "subsetwise_2w(g, sample)",
           ("tests/test_bench.py::"
            "test_p8w_sweep_repairs_leave_only_the_level_pair_tuples_in_the_table",)),
    Mutant("run_instance solves the narrowest budget first", BENCH,
           "key=lambda p: p[1].budget.c, reverse=True)", "key=lambda p: p[1].budget.c)",
           (SHARED_WALKS,)),
    Mutant("validity gate checks the first level only", BENCH,
           "enumerate(inst.terminal_sets, start=1):", "enumerate(inst.terminal_sets[:1], start=1):",
           ("tests/test_bench.py::TestRunPlan::test_validity_failure_on_an_upper_level_aborts",)),
    Mutant("plan checks its model names only", BENCH,
           "        for model, n in product(self.models, self.sizes):\n"
           "            GeneratorSpec(model, n, 0)\n",
           "        from .generate import Model\n"
           "        for model in self.models:\n"
           "            Model(model)\n",
           ("tests/test_bench.py::TestPlanDict::test_impossible_cell_rejected_by_from_dict",
            "tests/test_cli.py::test_run_rejects_an_impossible_last_cell_before_any_instance")),
    Mutant("plan skips the n >= levels + 1 check", BENCH,
           "            TerminalSelection(tsm, levels, 0).check_size(n)\n",
           "            TerminalSelection(tsm, levels, 0)\n",
           ("tests/test_bench.py::TestPlanDict::test_impossible_cell_rejected_by_from_dict"
            "[n-3-levels-3]",
            "tests/test_cli.py::test_run_rejects_an_impossible_last_cell_before_any_instance"
            "[n-3-levels-3]")),
    Mutant("multilevel solves its tags in ascending order", MULTILEVEL,
           "reversed(list(tagged_sets))", "list(tagged_sets)",
           ("tests/test_multilevel.py::TestRoundup::test_three_levels_use_powers_one_two_four",
            "tests/test_multilevel.py::"
            "test_tags_solve_highest_first_each_with_the_higher_outputs_free")),
    Mutant("pairwise init without the free edges", PAIRWISE,
           "    h.update(free)\n", "",
           ("tests/test_pairwise.py::test_free_edges_start_h_as_in_the_plain_reference",
            "tests/test_bench.py::TestDSweep::test_every_rung_starts_from_the_free_edges")),
    Mutant("d_sweep does not forward the free edges", BENCH,
           "PairwiseParams(algo, d_override=d, seed=seed), free)",
           "PairwiseParams(algo, d_override=d, seed=seed))",
           ("tests/test_bench.py::TestDSweep::test_every_rung_starts_from_the_free_edges",)),
    Mutant("pairwise solver handle does not forward the free edges", BENCH,
           "PairwiseParams(palgo, seed=level_seed), free)", "PairwiseParams(palgo, seed=level_seed))",
           ("tests/test_bench.py::TestRunPlan::"
            "test_solver_handle_starts_pairwise_h_from_the_free_edges",)),
    Mutant("multilevel CLI without the validity gate", CLI,
           '"valid": not _verify_levels(inst, spanner),', '"valid": True,',
           ("tests/test_cli.py::test_multilevel_with_a_broken_upper_level_is_invalid_and_exits_1",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed_ids(output: str) -> set[str]:
    """Test ids that pytest's short summary (-rfE) reports as failed or in error."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.add(line[len(tag):].split(" - ", 1)[0])
    return out


def _failed(test_id: str, failed: set[str]) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def _run(tree: Path, mutant: Mutant, kills: tuple[str, ...]) -> tuple[str, str]:
    """(verdict, detail) of one mutant against the given test ids: killed,
    survived or broken (anchor not unique, or pytest did not run the tests)."""
    target = tree / mutant.file
    original = target.read_text(encoding="utf-8")
    count = original.count(mutant.anchor)
    if count != 1:
        return "broken", f"anchor occurs {count} times in {mutant.file}"
    if not kills:
        return "broken", "no test ids to run"
    target.write_text(original.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *kills],
            cwd=tree, env=env, capture_output=True, text=True)
    finally:
        target.write_text(original, encoding="utf-8")
    if proc.returncode == 0:
        return "survived", "every listed test passed"
    failed = _failed_ids(proc.stdout)
    if proc.returncode != 1 or not failed:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "broken", f"pytest exited {proc.returncode}: " + " | ".join(tail)
    passed = [t for t in kills if not _failed(t, failed)]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(failed)} failed"


def main() -> int:
    every_test = tuple(dict.fromkeys(t for m in REGISTER for t in m.kills))
    entries = [(CONTROL, every_test, "survived")] + [(m, m.kills, "killed") for m in REGISTER]
    problems = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="wspanner-mutants-") as tmp:
        trees: queue.SimpleQueue = queue.SimpleQueue()  # the copies no worker is using
        for i in range(WORKERS):
            _copy_tree(Path(tmp) / str(i))
            trees.put(Path(tmp) / str(i))

        def run(entry):
            tree = trees.get()
            try:
                return _run(tree, entry[0], entry[1])
            finally:
                trees.put(tree)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for (mutant, _, wanted), (verdict, detail) in zip(entries, pool.map(run, entries)):
                ok = verdict == wanted
                problems += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {verdict:8} {mutant.name} ({detail})", flush=True)
    print(f"{len(REGISTER)} mutants and the control in {time.perf_counter() - start:.1f} s "
          f"with {WORKERS} workers; {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
