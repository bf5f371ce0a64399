import csv
import json
import re

import pytest

from wspanner import bench, cli
from wspanner.bench import ResultRow, rows_to_csv
from wspanner.cli import main
from wspanner.core import parse_graph_text, terminal_pairs, write_graph_text
from wspanner.exact import SizeCaps
from wspanner.generate import (
    GeneratorSpec,
    Model,
    generate,
    parse_terminals_text,
    write_terminals_text,
)
from wspanner.subsetwise import build_clustering, subsetwise_2w_run


@pytest.fixture
def instance_files(tmp_path):
    prefix = tmp_path / "inst"
    assert main(["gen", "--model", "er", "--n", "12", "--seed", "4", "--levels", "2",
                 "--tsm", "exp", "--out", str(prefix)]) == 0
    return prefix.with_suffix(".graph"), prefix.with_suffix(".terminals")


def test_gen_writes_parseable_files(instance_files):
    graph_path, terms_path = instance_files
    g = parse_graph_text(graph_path.read_text())
    sets = parse_terminals_text(terms_path.read_text())
    assert g.n == 12 and g.is_connected
    assert len(sets) == 2 and set(sets[1]) <= set(sets[0])


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for prefix in (a, b):
        main(["gen", "--model", "ws", "--n", "14", "--seed", "9", "--out", str(prefix)])
    assert a.with_suffix(".graph").read_text() == b.with_suffix(".graph").read_text()
    assert a.with_suffix(".terminals").read_text() == b.with_suffix(".terminals").read_text()


@pytest.mark.parametrize("algo", ["sub2w", "p2w", "p4w", "p8w"])
def test_spanner_subcommand(algo, instance_files, tmp_path):
    graph_path, terms_path = instance_files
    out = tmp_path / f"span_{algo}"
    code = main(["spanner", "--algo", algo, "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["valid"] is True
    h = parse_graph_text(out.with_suffix(".graph").read_text())
    assert report["edges"] == len(h.edges)
    if algo == "sub2w":
        assert "buy_audit" in report
    else:
        assert report["passes"] == 1 and "missing_trace" not in report


def test_spanner_d_override(instance_files, tmp_path):
    graph_path, terms_path = instance_files
    out = tmp_path / "span_d1"
    assert main(["spanner", "--algo", "p2w", "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--d", "1", "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["d"] == 1


def test_spanner_sub2w_buy_audit_is_the_record_list(tmp_path):
    """One audit entry per terminal pair of the level spanner runs by default
    (S_1), in terminal_pairs order, with exactly the record's fields.  On ER
    n=30 with every vertex a terminal no cluster forms, so H is all of g and
    every pair is bought at cost 0 and value 0; on BA n=40 with unit weights
    clusters form, so the sweep values some path above 0."""
    g = generate(GeneratorSpec(Model.ER, 30, 2))
    assert build_clustering(g, 30).clusters == ()
    (tmp_path / "er30.graph").write_text(write_graph_text(g))
    (tmp_path / "er30.terminals").write_text(write_terminals_text([range(30)]))
    assert main(["gen", "--model", "ba", "--n", "40", "--seed", "7", "--weight-hi", "1",
                 "--out", str(tmp_path / "ba40")]) == 0
    audits = {}
    for name in ("er30", "ba40"):
        prefix, out = tmp_path / name, tmp_path / f"audit_{name}"
        assert main(["spanner", "--algo", "sub2w", "--graph", str(prefix.with_suffix(".graph")),
                     "--terminals", str(prefix.with_suffix(".terminals")),
                     "--out", str(out)]) == 0
        audit = audits[name] = json.loads(out.with_suffix(".json").read_text())["buy_audit"]
        g = parse_graph_text(prefix.with_suffix(".graph").read_text())
        terminals = parse_terminals_text(prefix.with_suffix(".terminals").read_text())[0]
        assert [tuple(entry["pair"]) for entry in audit] == terminal_pairs(terminals)
        assert all(entry.keys() == {"pair", "cost", "value", "bought"} for entry in audit)
        records = subsetwise_2w_run(g, terminals).records
        assert audit == [{"pair": list(r.pair), "cost": r.cost, "value": r.value,
                          "bought": r.bought} for r in records]
    assert all(entry["cost"] == 0 and entry["value"] == 0 and entry["bought"] is True
               for entry in audits["er30"])
    assert len(audits["er30"]) == 30 * 29 // 2
    assert any(entry["value"] > 0 for entry in audits["ba40"])


def test_spanner_sub2w_rejects_a_d_override(instance_files, tmp_path, capsys):
    graph_path, terms_path = instance_files
    out = tmp_path / "sub2w_d"
    code = main(["spanner", "--algo", "sub2w", "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--d", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: --d ") and err.count("\n") == 1
    assert not out.with_suffix(".json").exists()


def test_multilevel_subcommand(instance_files, tmp_path, capsys):
    graph_path, terms_path = instance_files
    out = tmp_path / "ml"
    files = ["--graph", str(graph_path), "--terminals", str(terms_path)]
    assert main(["multilevel", "--algo", "sub2w", *files, "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["levels"] == 2 and summary["valid"] is True
    level1 = parse_graph_text((tmp_path / "ml.level1.graph").read_text())
    level2 = parse_graph_text((tmp_path / "ml.level2.graph").read_text())
    assert level2.weight_map.keys() <= level1.weight_map.keys()
    assert summary["level_sizes"] == [len(level1.edges), len(level2.edges)]
    assert summary["sparsity"] == sum(summary["level_sizes"])
    # without --out the same summary goes to stdout
    capsys.readouterr()
    assert main(["multilevel", "--algo", "sub2w", *files]) == 0
    assert json.loads(capsys.readouterr().out) == summary


def test_multilevel_with_a_broken_upper_level_is_invalid_and_exits_1(instance_files, monkeypatch,
                                                                     capsys):
    # Level 1 gets the whole graph and passes; level 2 gets nothing, so only
    # a check of every level, as in run_instance's gate, catches it.
    def upper_level_broken(algo, seed, **kwargs):
        return lambda g, terminals, level, free: set(g.weight_map) if level == 1 else set()

    monkeypatch.setattr(cli, "make_solver", upper_level_broken)
    graph_path, terms_path = instance_files
    capsys.readouterr()
    assert main(["multilevel", "--algo", "p2w", "--graph", str(graph_path),
                 "--terminals", str(terms_path)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["valid"] is False and summary["level_sizes"][1] == 0


def test_exact_and_emit_ilp(tmp_path, capsys):
    prefix = tmp_path / "tiny"
    assert main(["gen", "--model", "er", "--n", "7", "--seed", "2", "--levels", "1",
                 "--tsm", "exp", "--out", str(prefix)]) == 0
    capsys.readouterr()
    for mode in ("global", "local"):
        assert main(["exact", "--graph", str(prefix.with_suffix('.graph')),
                     "--terminals", str(prefix.with_suffix('.terminals')),
                     "--mode", mode, "--c", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["sparsity"] >= 1
    lp_path = tmp_path / "model.lp"
    assert main(["emit-ilp", "--graph", str(prefix.with_suffix('.graph')),
                 "--terminals", str(prefix.with_suffix('.terminals')),
                 "--mode", "local", "--c", "2", "--out", str(lp_path)]) == 0
    text = lp_path.read_text()
    assert text.startswith("Minimize\n") and text.endswith("End\n")


def test_exact_refuses_oversized(instance_files, capsys):
    graph_path, terms_path = instance_files  # 12 vertices, > 14 edges, 2 levels
    code = main(["exact", "--graph", str(graph_path), "--terminals", str(terms_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert re.fullmatch(r"wspanner: error: \d+ edges exceeds the cap of 14 for 2 level\(s\)\n", err)


def test_exact_cap_flag_admits_nothing_past_the_work_budget(tmp_path, capsys):
    # The flags raise only the edge caps: (levels+1)**m <= max_work still has
    # to hold, which no single-level m above 22 and no multi-level m above 14
    # meets at the default budget.
    caps = SizeCaps()
    assert 2 ** 22 <= caps.max_work < 2 ** 23 and 3 ** 14 <= caps.max_work < 3 ** 15
    prefix = tmp_path / "er40"
    assert main(["gen", "--model", "er", "--n", "40", "--seed", "5", "--levels", "1",
                 "--tsm", "exp", "--out", str(prefix)]) == 0
    capsys.readouterr()
    code = main(["exact", "--graph", str(prefix.with_suffix(".graph")),
                 "--terminals", str(prefix.with_suffix(".terminals")), "--mode", "local",
                 "--cap-single", "200"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: search space (2**132) exceeds the work budget\n"


def test_exact_rejects_a_negative_cap_flag(instance_files, capsys):
    graph_path, terms_path = instance_files
    code = main(["exact", "--graph", str(graph_path), "--terminals", str(terms_path),
                 "--cap-single", "-3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: size cap max_edges_single must be an integer >= 0, got -3\n"


def test_run_rejects_a_negative_cap_before_any_instance(tmp_path, capsys, monkeypatch):
    # Before the check such a plan ran, exited 0 and left every row's
    # exact_sparsity empty.
    calls = []
    run_instance = bench.run_instance
    monkeypatch.setattr(bench, "run_instance",
                        lambda plan, task: calls.append(task) or run_instance(plan, task))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"models": ["er"], "sizes": [8], "levels": [2], "tsms": ["exp"],
                                     "algorithms": ["sub2w", "p2w"], "seeds_per_cell": 1,
                                     "exact": True, "caps": {"max_work": -5}}))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: size cap max_work must be an integer >= 0, got -5\n"
    assert calls == [] and not (tmp_path / "results").exists()


def test_run_and_summarize(tmp_path, capsys):
    plan = {
        "models": ["er"], "sizes": [10], "levels": [1], "tsms": ["linear"],
        "algorithms": ["sub2w", "p2w"], "seeds_per_cell": 2, "base_seed": 5,
        "exact": True, "caps": {"max_edges_single": 22},  # admits both draws' 21 and 22 edges
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "results"
    assert main(["run", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
    with open(out_dir / "rows.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # every row has an exact optimum, and it is no larger than the row's output
    assert len(rows) == 4
    assert all(r["exact_sparsity"] and int(r["exact_sparsity"]) <= int(r["sparsity"])
               for r in rows)
    summary_path = tmp_path / "summary.csv"
    assert main(["summarize", "--in", str(out_dir / "rows.csv"), "--group", "n",
                 "--out", str(summary_path)]) == 0
    lines = summary_path.read_text().splitlines()
    assert lines[0] == "group,value,algorithm,metric,count,min,mean,max"
    # header + (n=10) x {p2w, sub2w} x {experimental_ratio, relative_sparsity}
    assert len(lines) == 5
    # without --out the same text goes to stdout
    capsys.readouterr()
    assert main(["summarize", "--in", str(out_dir / "rows.csv"), "--group", "n"]) == 0
    assert capsys.readouterr().out == summary_path.read_text()


def test_run_rejects_a_misspelled_plan_key(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"models": ["er"], "sizes": [10], "levels": [1],
                                     "tsms": ["linear"], "algorithms": ["p2w"],
                                     "d_sweeps": True}))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: ") and "d_sweeps" in err and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def test_run_rejects_fewer_than_one_worker(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"models": ["er"], "sizes": [10], "levels": [1],
                                     "tsms": ["linear"], "algorithms": ["p2w"]}))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results"),
                 "--workers", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: workers must be >= 1, got 0\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("extra,name", [
    ({"seeds_per_cell": "3"}, "seeds_per_cell"), ({"seeds_per_cell": True}, "seeds_per_cell"),
    ({"sizes": [20.5]}, "sizes"), ({"base_seed": "x"}, "base_seed"), ({"exact": "yes"}, "exact"),
    ({"models": "er"}, "models"), ({"caps": {"max_work": 1.5}}, "max_work"),
], ids=["str-for-int", "bool-for-int", "float-in-list", "str-seed", "str-for-bool",
        "str-for-list", "float-cap"])
def test_run_rejects_a_plan_value_of_the_wrong_type(extra, name, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"models": ["er"], "sizes": [10], "levels": [1],
                                     "tsms": ["linear"], "algorithms": ["p2w"]} | extra))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: ") and name in err and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def test_run_rejects_the_removed_budget_modes_key(tmp_path, capsys):
    # Every algorithm has one budget, so "algorithms" alone picks what a plan runs.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"models": ["er"], "sizes": [10], "levels": [1],
                                     "tsms": ["linear"], "algorithms": ["sub2w", "p2w"],
                                     "budget_modes": ["global"]}))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "wspanner: error: unknown plan key(s): budget_modes\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("level", [0, 3])
def test_spanner_level_out_of_range_is_a_clean_error(level, instance_files, capsys):
    graph_path, terms_path = instance_files
    code = main(["spanner", "--algo", "p2w", "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--level", str(level)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"wspanner: error: level {level} out of range 1..2\n"


@pytest.mark.parametrize("algo", ["sub2w", "p2w"])
def test_spanner_on_a_one_terminal_level_is_a_clean_error(algo, instance_files, tmp_path, capsys):
    graph_path, _ = instance_files
    terms_path = tmp_path / "one.terminals"
    terms_path.write_text("0 1 2\n3\n")
    code = main(["spanner", "--algo", algo, "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--level", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("algo,message", [("sub2w", "need at least two terminals"),
                                           ("p2w", "pairs must be nonempty")])
def test_spanner_on_a_nested_one_terminal_level_is_a_clean_error(algo, message, instance_files,
                                                                 tmp_path, capsys):
    # The sidecar passes the instance's checks, so the construction refuses it.
    graph_path, _ = instance_files
    terms_path = tmp_path / "one.terminals"
    terms_path.write_text("0 1 2\n1\n")
    code = main(["spanner", "--algo", algo, "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--level", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"wspanner: error: {message}\n"


def test_missing_graph_file_is_a_clean_error(tmp_path, capsys):
    code = main(["spanner", "--algo", "p2w", "--graph", str(tmp_path / "absent.graph"),
                 "--terminals", str(tmp_path / "absent.terminals")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: ") and "absent.graph" in err


def test_repeated_calls_do_not_carry_flags_over(instance_files, tmp_path):
    graph_path, terms_path = instance_files
    base = ["spanner", "--algo", "p4w", "--graph", str(graph_path), "--terminals", str(terms_path)]
    runs = [[], ["--d", "2", "--seed", "7", "--level", "2"], []]
    reports, graphs = [], []
    for k, flags in enumerate(runs):
        out = tmp_path / f"run{k}"
        assert main(base + flags + ["--out", str(out)]) == 0
        reports.append(json.loads(out.with_suffix(".json").read_text()))
        graphs.append(out.with_suffix(".graph").read_text())
    assert reports[1]["d"] == 2 and reports[0]["d"] != 2
    assert reports[1] != reports[0] and graphs[1] != graphs[0]
    assert reports[2] == reports[0] and graphs[2] == graphs[0]


@pytest.mark.parametrize("algo", ["p2w", "sub2w"])
@pytest.mark.parametrize("vertex", [99, -1])
def test_spanner_terminal_outside_the_graph_is_a_clean_error(algo, vertex, instance_files,
                                                             tmp_path, capsys):
    graph_path, _ = instance_files
    terms_path = tmp_path / "outside.terminals"
    terms_path.write_text(f"{vertex} 3 5\n")
    code = main(["spanner", "--algo", algo, "--graph", str(graph_path),
                 "--terminals", str(terms_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wspanner: error: ") and err.count("\n") == 1


def test_summarize_rejects_a_file_that_is_not_rows_csv(instance_files, tmp_path, capsys):
    graph_path, _ = instance_files
    other = tmp_path / "other.csv"
    other.write_text("instance_id,n\nx,3\n")
    for path in (graph_path, other):
        code = main(["summarize", "--in", str(path), "--out", str(tmp_path / "summary.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("wspanner: error: ") and err.count("\n") == 1
        assert "missing columns" in err and "sparsity" in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("column,cell,message", [
    ("valid", "yes", "'yes' is not true or false"),
    ("valid", "", "'' is not true or false"),
    ("sparsity", "12.5", "invalid literal for int"),
    ("experimental_ratio", "x", "could not convert string to float"),
], ids=["valid-yes", "valid-empty", "float-for-int", "text-for-float"])
def test_summarize_rejects_a_cell_rows_csv_never_writes(column, cell, message, tmp_path, capsys):
    row = ResultRow("er-n10-l1-linear-r0", "er", 10, 14, 1, "linear", "p2w", "local", 20, 18,
                    20 / 18, 1.0, 3.5, 7, True)
    lines = rows_to_csv([row, row]).splitlines()
    idx = lines[0].split(",").index(column)
    cells = lines[2].split(",")
    cells[idx] = cell
    lines[2] = ",".join(cells)
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("\n".join(lines) + "\n")
    code = main(["summarize", "--in", str(rows_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"wspanner: error: {rows_path} line 3, column {column}: ")
    assert message in err and err.count("\n") == 1


def test_gen_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "er", "--n", "6"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_spanner_reads_a_graph_file_with_a_trailing_blank_line(instance_files, tmp_path):
    # So does a copy with the same edges, endpoints swapped and in reverse
    # order, under the same header: both give the plain file's output bytes.
    graph_path, terms_path = instance_files
    header, *lines = graph_path.read_text().splitlines()
    swapped = [f"{v} {u} {w}" for u, v, w in map(str.split, reversed(lines))]
    (tmp_path / "padded.graph").write_text(graph_path.read_text() + "\n")
    (tmp_path / "swapped.graph").write_text("\n".join([header, *swapped]) + "\n")
    for name in ("plain", "padded", "swapped"):
        path = graph_path if name == "plain" else tmp_path / f"{name}.graph"
        assert main(["spanner", "--algo", "p2w", "--graph", str(path), "--terminals",
                     str(terms_path), "--out", str(tmp_path / name)]) == 0
    for name in ("padded", "swapped"):
        for suffix in (".graph", ".json"):
            assert ((tmp_path / name).with_suffix(suffix).read_bytes()
                    == (tmp_path / "plain").with_suffix(suffix).read_bytes())


@pytest.mark.parametrize("graph,terminals,message", [
    ("", "0 1\n", "empty graph text"),
    ("\n \n", "0 1\n", "empty graph text"),
    ("3\n0 1 1\n", "0 1\n", "expected header 'n m', got '3'"),
    ("2 1\n0 1\n", "0 1\n", "bad edge line '0 1'"),
    ("2 1\n0 1 1\n", "\n", "empty terminals text"),
    ("2 2\n0 1 1\n1 0 2\n", "0 1\n", "parallel edge (0, 1)"),
], ids=["empty-graph", "blank-graph", "bad-header", "bad-edge-line", "empty-terminals",
        "parallel-edge"])
def test_spanner_rejects_malformed_text_files(graph, terminals, message, tmp_path, capsys):
    (tmp_path / "g.graph").write_text(graph)
    (tmp_path / "g.terminals").write_text(terminals)
    code = main(["spanner", "--algo", "p2w", "--graph", str(tmp_path / "g.graph"),
                 "--terminals", str(tmp_path / "g.terminals")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"wspanner: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["exact"], ["emit-ilp", "--out", "g.lp"],
    *[["spanner", "--algo", algo] for algo in ("p2w", "p4w", "p8w")],
    ["multilevel", "--algo", "p2w"],
], ids=["exact", "emit-ilp", "spanner-p2w", "spanner-p4w", "spanner-p8w", "multilevel-p2w"])
def test_exact_rejects_a_disconnected_terminal_pair(argv, tmp_path, capsys, monkeypatch):
    # The exact optimum, the ILP and the pairwise constructions all refuse
    # the pair with ErrorBudget.limit's message.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.graph").write_text("4 2\n0 1 1\n2 3 1\n")
    (tmp_path / "g.terminals").write_text("0 2\n")
    code = main([*argv, "--graph", "g.graph", "--terminals", "g.terminals"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: terminal pair (0,2) is disconnected\n"


def test_emit_ilp_rejects_a_disconnected_terminal_pair_and_writes_no_file(tmp_path, capsys):
    (tmp_path / "g.graph").write_text("4 2\n0 1 1\n2 3 1\n")
    (tmp_path / "g.terminals").write_text("0 2\n")
    code = main(["emit-ilp", "--graph", str(tmp_path / "g.graph"),
                 "--terminals", str(tmp_path / "g.terminals"), "--out", str(tmp_path / "g.lp")])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not (tmp_path / "g.lp").exists()
    assert err == "wspanner: error: terminal pair (0,2) is disconnected\n"


@pytest.mark.parametrize("plan,message", [
    ([], "plan must be a JSON object"),
    *[({axis: []}, "plan needs at least one model, size, level count, and tsm")
      for axis in ("models", "sizes", "levels", "tsms")],
    ({"strategy": "greedy"}, "unknown strategy 'greedy'"),
    ({"seeds_per_cell": 0}, "seeds_per_cell must be >= 1"),
    ({"algorithms": ["qspanner"]}, "unknown algorithm 'qspanner'"),
], ids=["not-an-object", "no-models", "no-sizes", "no-levels", "no-tsms", "unknown-strategy",
        "zero-seeds", "unknown-algorithm"])
def test_run_rejects_a_plan_it_cannot_run(plan, message, tmp_path, capsys):
    if isinstance(plan, dict):
        plan = {"models": ["er"], "sizes": [10], "levels": [1], "tsms": ["linear"],
                "algorithms": ["p2w"]} | plan
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"wspanner: error: {message}\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("algo", ["p2w", "sub2w"])
def test_spanner_and_multilevel_reject_a_non_nested_sidecar_alike(algo, instance_files, tmp_path,
                                                                  capsys):
    graph_path, _ = instance_files
    terms_path = tmp_path / "loose.terminals"
    terms_path.write_text("0 1 2\n3 4\n")
    files = ["--algo", algo, "--graph", str(graph_path), "--terminals", str(terms_path)]
    errors = []
    for argv in (["spanner", *files, "--level", "2"], ["multilevel", *files]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        errors.append(err)
    assert errors == ["wspanner: error: terminal set 2 is not contained in set 1\n"] * 2


@pytest.mark.parametrize("vertex", [99, -1])
def test_spanner_terminal_outside_the_graph_has_one_message_for_every_algorithm(
        vertex, instance_files, tmp_path, capsys):
    graph_path, _ = instance_files
    terms_path = tmp_path / "outside.terminals"
    terms_path.write_text(f"{vertex} 3 5\n")
    errors = set()
    for algo in ("sub2w", "p2w", "p4w", "p8w"):
        assert main(["spanner", "--algo", algo, "--graph", str(graph_path),
                     "--terminals", str(terms_path)]) == 2
        errors.add(capsys.readouterr().err)
    assert errors == {"wspanner: error: terminal set 1 references a vertex outside the graph\n"}


def test_gen_checks_its_level_count_before_it_draws_a_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate", lambda spec: pytest.fail("a graph was drawn"))
    code = main(["gen", "--model", "er", "--n", "12", "--levels", "0",
                 "--out", str(tmp_path / "inst")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "wspanner: error: levels must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cells,message", [
    ({"models": ["er", "ws"], "sizes": [500, 6]}, "WS needs n > K=6, got n=6"),
    ({"models": ["er", "ba"], "sizes": [40, 5]}, "BA needs n > m=5, got n=5"),
    ({"sizes": [40, 1]}, "need n >= 2"),
    ({"levels": [2, 0]}, "levels must be >= 1"),
    ({"sizes": [40, 3], "levels": [2, 3]}, "need n >= levels + 1, got n=3, levels=3"),
], ids=["ws-6", "ba-5", "n-1", "levels-0", "n-3-levels-3"])
def test_run_rejects_an_impossible_last_cell_before_any_instance(cells, message, tmp_path, capsys,
                                                                monkeypatch):
    calls = []
    run_instance = bench.run_instance
    monkeypatch.setattr(bench, "run_instance",
                        lambda plan, task: calls.append(task) or run_instance(plan, task))
    plan = {"models": ["er"], "sizes": [40], "levels": [2], "tsms": ["exp"],
            "algorithms": ["sub2w", "p2w", "p4w", "p8w"], "seeds_per_cell": 2} | cells
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code = main(["run", "--plan", str(plan_path), "--out", str(tmp_path / "results")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"wspanner: error: {message}\n"
    assert calls == [] and not (tmp_path / "results").exists()
