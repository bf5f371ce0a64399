import json
import re

import pytest

from wspanner.bench import ResultRow, rows_to_csv
from wspanner.cli import main
from wspanner.core import parse_graph_text
from wspanner.generate import parse_terminals_text


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
    assert g.n == 12 and g.is_connected()
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


def test_multilevel_subcommand(instance_files, tmp_path):
    graph_path, terms_path = instance_files
    out = tmp_path / "ml"
    assert main(["multilevel", "--algo", "sub2w", "--graph", str(graph_path),
                 "--terminals", str(terms_path), "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["levels"] == 2
    level1 = parse_graph_text((tmp_path / "ml.level1.graph").read_text())
    level2 = parse_graph_text((tmp_path / "ml.level2.graph").read_text())
    assert level2.edge_set <= level1.edge_set
    assert summary["sparsity"] == len(level1.edges) + len(level2.edges)


def test_exact_and_emit_ilp(tmp_path, capsys):
    prefix = tmp_path / "tiny"
    main(["gen", "--model", "er", "--n", "7", "--seed", "2", "--levels", "1",
          "--tsm", "exp", "--out", str(prefix)])
    code = main(["exact", "--graph", str(prefix.with_suffix('.graph')),
                 "--terminals", str(prefix.with_suffix('.terminals')),
                 "--mode", "global", "--c", "2"])
    out = capsys.readouterr().out
    if code == 0:
        assert "sparsity" in out
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


def test_run_and_summarize(tmp_path, capsys):
    plan = {
        "models": ["er"], "sizes": [10], "levels": [1], "tsms": ["linear"],
        "algorithms": ["sub2w", "p2w"], "seeds_per_cell": 2, "base_seed": 5,
        "exact": True,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "results"
    assert main(["run", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "rows.csv").exists()
    summary_path = tmp_path / "summary.csv"
    assert main(["summarize", "--in", str(out_dir / "rows.csv"), "--group", "n",
                 "--out", str(summary_path)]) == 0
    lines = summary_path.read_text().splitlines()
    assert lines[0].startswith("group,")
    assert len(lines) == 3  # header + (n=10) x {p2w, sub2w}


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
