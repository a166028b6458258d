"""The names the benchmark's tracer patches exist, and are restored.

``bench/tracing.install`` replaces gainbeam functions and methods by name
for a traced pass. Deleting or renaming one of them in ``src`` breaks the
benchmark; this test makes it fail the test suite as well.
"""

import importlib
import inspect
import os

import numpy as np

from gainbeam import cli, closed_forms, config, harness, outputs

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# every namespace install patches
OWNERS = (np.fft, closed_forms, config.ScenarioConfig, config.FilterConfig, cli, harness)


def test_tracing_install_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.install(tracing.Tracer()):
        patched = [
            (owner, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        ]
    assert {name for _, name in patched} >= {
        "fft", "adaptive_simpson", "build_potential", "from_dict", "run_scenario", "integrate",
        "write_csv", "write_heatmap_csv", "write_manifest", "compare",
    }
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items())


def test_writers_take_the_output_path_first():
    # the tracer counts bytes written by stat-ing each writer's args[0]
    for writer in (outputs.write_csv, outputs.write_heatmap_csv, outputs.write_manifest):
        first = next(iter(inspect.signature(writer).parameters.values()))
        assert first.name == "path"
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
