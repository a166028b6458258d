"""Static checks on the package source, since no linter is a dependency.

Every name a module in ``src/gainbeam`` imports is read by that module or
listed in its ``__all__``. An import statement marked ``# noqa: F401`` on
one of its lines is exempt: it keeps a name for code that looks it up from
outside, such as the harness's grid functions that the benchmark tracer
wraps.

Every module-level private function, class or constant in ``src/gainbeam``
is read by some module there, so a helper whose last caller is deleted
goes with it.
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


def dead_helpers(sources: list) -> list:
    """Module-level private functions, classes and constants of ``sources`` that none reads.

    A name is read where it is loaded, taken as an attribute or imported
    from a module; a function's or class's reads of its own name do not count.
    """
    trees = [ast.parse(source) for source in sources]

    def reads(node) -> list:
        names = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.append(n.id)
            elif isinstance(n, ast.Attribute):
                names.append(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.extend(a.name for a in n.names)
        return names

    every = [name for tree in trees for name in reads(tree)]
    dead = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined, own = [node.name], reads(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined, own = [t.id for t in targets if isinstance(t, ast.Name)], []
        else:
            continue
        dead.extend(
            name for name in defined
            if name.startswith("_") and not name.startswith("__")
            and every.count(name) == own.count(name)
        )
    return sorted(dead)


def test_every_private_helper_is_read():
    assert dead_helpers([p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]) == []


def test_the_check_finds_a_dead_helper():
    a = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__all__ = ['public']\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _called():\n    return _USED\n"
        "def _shared():\n    pass\n"
        "def _as_attribute():\n    pass\n"
        "class _Orphan:\n    def _method(self):\n        pass\n"
        "def public():\n    return _called()\n"
    )
    b = "from . import a\nfrom .a import _shared\n\ndef g():\n    return a._as_attribute()\n"
    assert dead_helpers([a, b]) == ["_Orphan", "_UNUSED", "_recursive"]
