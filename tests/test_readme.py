"""The README's library quick start and CLI tour run as written, and the
facts it restates from the code match the code."""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import wspanner
from wspanner.bench import ALGO_BUDGETS, CSV_COLUMNS
from wspanner.exact import SizeCaps

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_cli_tour_runs(tmp_path):
    # In a fresh interpreter that cannot import numpy, so that a numpy import
    # on any subcommand's path fails the tour.
    section = _section("CLI quick tour")
    tour = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")
    plan = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "plan.json").write_text(plan, encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in tour.splitlines() if line.startswith("wspanner ")]
    assert [argv[0] for argv in commands] == [
        "gen", "spanner", "multilevel", "gen", "exact", "emit-ilp", "run", "summarize"]
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from wspanner.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv} exited non-zero')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_budget_table_matches_the_algorithm_budgets():
    rows = re.findall(r"^\| `(\w+)` \| (global|local) `\+(\d+)W(\(u, v\))?` \|$",
                      _section("What's inside"), re.MULTILINE)
    assert {algo: (mode, int(c)) for algo, mode, c, _ in rows} == {
        algo: (b.mode.value, b.c) for algo, b in ALGO_BUDGETS.items()}
    assert all((pair == "") == (mode == "global") for _, mode, _, pair in rows)


def test_module_table_names_importable_modules_and_their_public_names():
    rows = re.findall(r"^\| `wspanner\.(\w+)` \| ((?:`\w+`(?:, )?)+)", _section("What's inside"),
                      re.MULTILINE)
    assert [module for module, _ in rows] == [
        "core", "generate", "subsetwise", "pairwise", "multilevel", "exact", "bench", "cli"]
    for module, names in rows:
        imported = importlib.import_module(f"wspanner.{module}")
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(imported, name), f"wspanner.{module} has no {name}"


def test_rows_csv_columns_match_the_writer():
    columns = re.search(r"fixed column order\n`([\w,]+)`", _section("CLI quick tour")).group(1)
    assert tuple(columns.split(",")) == CSV_COLUMNS


def test_export_sentence_and_quick_start_imports_are_the_top_level_names():
    section = _section("Library quick start")
    imported = re.search(r"from wspanner import \((.*?)\)", section, re.DOTALL).group(1)
    also = re.search(r"exports the names above plus (.*?);", section, re.DOTALL).group(1)
    named = re.findall(r"\w+", imported) + re.findall(r"`(\w+)`", also)
    public = {name for name, value in vars(wspanner).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(named) == sorted(public)


def test_size_cap_section_matches_the_defaults_and_the_work_budget():
    section = " ".join(_section("Size caps for the exact solver").split())
    single, multi = map(int, re.search(
        r"at most (\d+) edges for single-level and (\d+) edges for multi-level", section).groups())
    work = int(re.search(r"with `max_work` ([\d,]+) by default", section).group(1).replace(",", ""))
    assert SizeCaps() == SizeCaps(single, multi, work)
    # a cap above k admits nothing more when (levels + 1)**(k + 1) edges' work, at one or two levels, exceeds max_work
    for flag, base in (("--cap-single", 2), ("--cap-multi", 3)):
        k = int(re.search(rf"`{flag}` above (\d+) admits nothing more", section).group(1))
        assert base ** k <= work < base ** (k + 1)
