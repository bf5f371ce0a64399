"""The README's library quick start and CLI tour run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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
