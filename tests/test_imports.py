"""Every name a library module imports is used in that module, and the CLI
imports none of the test-only dependencies.

The package ``__init__`` is skipped: its imports are the re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wspanner"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node references.

    A name counts as used when it appears as a bare name or as the base of an
    attribute chain (``heapq.heappush`` uses ``heapq``); ``from __future__``
    imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("from collections import deque\nimport heapq\nfrom typing import Iterable\n"
              "def f(xs: Iterable[int]):\n    return heapq.nsmallest(1, xs)\n")
    assert unused_imports(source) == ["deque (line 1)"]


def test_cli_import_leaves_out_test_only_dependencies():
    # scipy alone would add about 0.3 s and 30 MB to every CLI start-up, and
    # numpy about 0.15 s and 13 MB
    code = ("import sys, wspanner.cli; "
            "print(sorted({'numpy', 'scipy', 'hypothesis'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
