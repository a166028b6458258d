"""Static checks on the package source, since no linter is a dependency.

Every name a module in ``src/gainbeam`` imports is read by that module or
listed in its ``__all__``. An import statement marked ``# noqa: F401`` on
one of its lines is exempt: it keeps a name for code that looks it up from
outside, such as the harness's grid functions that the benchmark tracer
wraps.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gainbeam"


def unused_imports(source: str) -> list:
    """Names imported in ``source`` that it never reads and does not export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import (\n    pi,\n    tau,\n)\n"
        "from json import dumps\n"
        "import numpy.linalg\n"
        "__all__ = ['dumps']\n"
        "def f(x):\n    import re\n    numpy = x\n    return pi\n"
    )
    assert unused_imports(source) == ["numpy", "os", "re", "tau"]
