"""What the benchmark reads of gainbeam exists, and patched names are restored.

``bench/tracing.install`` replaces gainbeam functions and methods by name
for a traced pass, and ``bench/layers.py`` and ``bench/workloads.py`` read
trajectories and filter reports by attribute. Deleting or renaming one of
them in ``src`` breaks the benchmark; these tests make it fail the test
suite as well.
"""

import importlib
import inspect
import os

import numpy as np
import pytest

from gainbeam import cli, closed_forms, config, dynamics, grid, harness, outputs
from gainbeam.potentials import QuadraticLinear

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


def test_trajectory_reads():
    # bench/layers.py tabulates columns() by TRAJECTORY_COLUMNS and sizes a
    # heatmap by len(traj.samples) against traj.zs
    initial = dynamics.GaussianParams(q=1.0, p=0.0, b=1j)
    traj = dynamics.integrate(initial, QuadraticLinear(1.0, 1.0), 0.1, dz=1e-3, sample_stride=10)
    columns = traj.columns()
    assert set(columns) >= set(harness.TRAJECTORY_COLUMNS)
    assert all(len(columns[name]) == 11 for name in harness.TRAJECTORY_COLUMNS)
    assert len(traj.samples) == 11
    assert np.array_equal(traj.zs, columns["z"])


@pytest.mark.parametrize("other", ["grid", "oracle"])
def test_records_read_as_the_series(other):
    # bench/workloads.py reads z, mean_q, norm, x and intensity off
    # series[name]; records[name] gives the same values, its rows through
    # intensity_rows(x, hbar, rows), and a trajectory's columns() are
    # TRAJECTORY_COLUMNS in order
    cfg = config.ScenarioConfig.from_dict({
        "schema_version": 1,
        "name": "contract",
        "potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
        "initial": {"q0": 0.3, "p0": -0.2, "b0": [0.1, 1.0]},
        "propagators": ["gaussian", other],
        "z_max": 0.1,
        "gaussian": {"dz": 1e-3},
        "grid": {"half_width": 8.0, "n_points": 256, "dz": 1e-3},
        "sample_stride": 10,
        "constants": {"hbar": 0.5, "n_zero": 1.0},
    })
    result = harness.run_scenario(cfg)
    assert result.records.keys() == result.series.keys() == {"gaussian", other}
    for name, series in result.series.items():
        record = result.records[name]
        for column in ("z", "mean_q", "norm"):
            assert np.array_equal(getattr(record, column), getattr(series, column))
        for rows in (slice(None), slice(2, 5), np.array([10, 0, 3])):
            got = record.intensity_rows(series.x, cfg.constants.hbar, rows)
            assert np.array_equal(got, series.intensity[rows])
    assert tuple(result.records["gaussian"].columns()) == harness.TRAJECTORY_COLUMNS


def test_filter_report_reads():
    # bench/workloads.py checks report.z, report.centers, report.pairs and
    # report.config.widths
    cfg = config.FilterConfig(name="contract", widths=(0.5j, 1j, 2j), z_max=0.01, dz=1e-3,
                              probe_z=(0.01,))
    report = harness.filter_experiment(cfg)
    assert report.config is cfg
    assert len(report.pairs) == 3
    assert report.z.shape == (11,)
    assert report.centers.shape == (3, 11)


def test_grid_run_counts_its_samples():
    # bench/tracing.py counts the grid's samples as len(propagate(...))
    spec = grid.GridSpec(8.0, 256)
    state = dynamics.reconstruct_wavefunction(dynamics.GaussianParams(q=0.0, p=0.0, b=1j), spec)
    for z_max, stride in ((0.1, 10), (0.1, 30), (0.05, 10**9)):
        run = grid.propagate(state, QuadraticLinear(1.0, 1.0), z_max, dz=1e-3, sample_stride=stride)
        assert len(run) == len(grid.schedule(z_max, 1e-3, stride)[2])

