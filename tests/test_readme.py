"""The README's library quick start and CLI tour run as written."""

import re
import shlex
from pathlib import Path

from wspanner.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_cli_tour_runs(tmp_path, monkeypatch, capsys):
    section = _section("CLI quick tour")
    tour = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")
    plan = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.json").write_text(plan, encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in tour.splitlines() if line.startswith("wspanner ")]
    assert [argv[0] for argv in commands] == [
        "gen", "spanner", "multilevel", "gen", "exact", "emit-ilp", "run", "summarize"]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
