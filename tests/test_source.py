"""Static checks on the package source, since no linter is a dependency.

Every name a module in ``src/gainbeam`` imports is read by that module or
listed in its ``__all__``; a computed ``__all__``, such as the package's,
excuses none. An import statement marked ``# noqa: F401`` on one of its
lines is exempt: it keeps a name for code that looks it up from outside,
such as the harness's grid functions that the benchmark tracer wraps.

The package exports ``__version__`` and each re-exported module's
``__all__``, which hold the 51 names it exported when its list was
written out by hand.

Every module-level private function, class or constant in ``src/gainbeam``
is read by some module there, so a helper whose last caller is deleted
goes with it.

No module in ``src/gainbeam`` has a ``global`` statement: state that a
function sets goes to its callers as arguments.

No module in ``src/gainbeam`` imports process or thread machinery
(``multiprocessing``, ``concurrent.futures``, ``signal``, ``threading``,
``subprocess``), at any depth: gainbeam runs in the caller's one process
and thread.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gainbeam

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
            try:
                exported = set(ast.literal_eval(node.value))
            except ValueError:
                # a computed __all__ cannot be read here, so it excuses no import
                exported = set()
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
    computed = "from json import dumps\nfrom . import a\n__all__ = ['dumps'] + a.__all__\n"
    assert unused_imports(computed) == ["dumps"]


# the 51 names of gainbeam.__all__ when it was written out by hand; each stays exported
EXPORTS = (
    "__version__ PhysicalConstants DEFAULT_CONSTANTS PotentialSample Potential PtTanhGaussian "
    "QuadraticLinear FreeSpace hermitian_variant GaussianParams Trajectory rhs "
    "center_acceleration widths integrate reconstruct_wavefunction b_evolution forcing_ratio "
    "OscillatorSolution center_solution reduced_forcing_center_solution adaptive_simpson "
    "width_drift_rate quadratic_trajectory GridSpec GridState GridObservables GridRun "
    "propagate observables renormalized_intensity ObservableSeries ComparisonReport "
    "ScenarioResult FilterReport run_scenario compare filter_experiment ScenarioConfig "
    "FilterConfig InitialBeam GaussianSettings GridSettings load_scenario load_filter "
    "scenario_library WidthCollapseError NumericalAbortError ConfigError "
    "BoundaryContaminationWarning NarrowGridWarning"
).split()


def test_package_exports_each_module_all():
    assert len(EXPORTS) == 51 and set(EXPORTS) <= set(gainbeam.__all__)
    namespace = {}
    exec("from gainbeam import *", namespace)
    assert all(name in namespace for name in gainbeam.__all__)
    # the modules that __init__.py star-imports, in its order
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    modules = [
        importlib.import_module(f"gainbeam.{node.module}") for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and [a.name for a in node.names] == ["*"]
    ]
    assert len(modules) == 8
    assert [m.__name__ for m in modules if "__all__" not in vars(m)] == []
    assert gainbeam.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]


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


def global_statements(source: str) -> list:
    """Line numbers of the ``global`` statements in ``source``, at any depth."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Global))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statement(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_global_statement():
    source = (
        "_state = None\n"
        "def setup(x):\n    global _state\n    _state = x\n"
        "class C:\n    def m(self):\n        def inner():\n            global _state, _other\n"
        "def outer():\n    n = 0\n    def bump():\n        nonlocal n\n"
        "# global _state\n"
    )
    assert global_statements(source) == [3, 8]


PROCESS_MODULES = ("multiprocessing", "concurrent.futures", "signal", "threading", "subprocess")


def process_imports(source: str) -> list:
    """(line, module) of each import of process or thread machinery in ``source``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.extend(
            (node.lineno, name) for name in names
            if any(name == m or name.startswith(m + ".") for m in PROCESS_MODULES)
        )
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_or_thread_imports(path):
    assert process_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_process_import():
    source = (
        "import os, threading\n"
        "from concurrent import futures\n"
        "import concurrent\n"
        "from . import signal\n"
        "def write():\n    from multiprocessing.pool import Pool\n"
        "    import subprocess as sp\n"
        "class C:\n    def m(self):\n        from signal import SIGINT\n"
        "import signals\n"
        "# import multiprocessing\n"
    )
    assert process_imports(source) == [
        (1, "threading"), (2, "concurrent.futures"), (6, "multiprocessing.pool"),
        (6, "multiprocessing.pool.Pool"), (7, "subprocess"), (10, "signal"), (10, "signal.SIGINT"),
    ]
