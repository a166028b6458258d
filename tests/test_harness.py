import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainbeam.closed_forms import width_drift_rate
from gainbeam.config import (
    FilterConfig,
    GaussianSettings,
    GridSettings,
    InitialBeam,
    ScenarioConfig,
)
from gainbeam.dynamics import GaussianParams, integrate
from gainbeam.errors import BoundaryContaminationWarning, ConfigError, NarrowGridWarning
from gainbeam.grid import schedule
from gainbeam.harness import (
    ObservableSeries,
    _shared_samples,
    compare,
    filter_experiment,
    run_scenario,
)
from gainbeam.outputs import read_manifest_config, write_heatmap_csv
from gainbeam.potentials import PhysicalConstants
from gainbeam.scenarios import scenario_library


def small_config(**overrides):
    base = dict(
        name="unit",
        potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
        initial=InitialBeam(q0=0.0, p0=-1.0, b0=1j),
        propagators=("gaussian", "oracle"),
        z_max=1.0,
        gaussian=GaussianSettings(dz=1e-3),
        grid=GridSettings(half_width=8.0, n_points=256, dz=1e-3),
        sample_stride=100,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        d = small_config().to_dict()
        d["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            ScenarioConfig.from_dict(d)
        d = small_config().to_dict()
        d["initial"]["typo"] = 2
        with pytest.raises(ConfigError, match="unknown keys"):
            ScenarioConfig.from_dict(d)
        d = small_config().to_dict()
        d["potential"]["mu"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            ScenarioConfig.from_dict(d)

    def test_schema_version_required(self):
        d = small_config().to_dict()
        del d["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioConfig.from_dict(d)
        d = small_config().to_dict()
        d["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioConfig.from_dict(d)

    def test_width_must_be_normalizable(self):
        with pytest.raises(ConfigError, match="Im b0"):
            InitialBeam(q0=0.0, p0=0.0, b0=1.0 - 0.5j)

    def test_oracle_needs_quadratic(self):
        with pytest.raises(ConfigError, match="oracle"):
            small_config(
                potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 10.0}
            )

    def test_unknown_propagator(self):
        with pytest.raises(ConfigError, match="propagator"):
            small_config(propagators=("gaussian", "exact"))

    def test_default_grid_width(self):
        cfg = ScenarioConfig(
            name="d",
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 10.0},
            initial=InitialBeam(0.0, 0.0, 1j),
        )
        assert cfg.grid.half_width == 80.0
        cfg = ScenarioConfig(
            name="d",
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
            initial=InitialBeam(0.0, 0.0, 1j),
            propagators=("gaussian",),
        )
        assert cfg.grid.half_width == 20.0

    def test_roundtrip_dict(self):
        cfg = small_config()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_overrides(self):
        cfg = small_config().with_overrides(z_max=2.0, dz=5e-4, grid_points=512)
        assert cfg.z_max == 2.0
        assert cfg.gaussian.dz == 5e-4
        assert cfg.grid.dz == 5e-4
        assert cfg.grid.n_points == 512


class TestCompare:
    def make_series(self, q_offset=0.0, norm_factor=1.0):
        z = np.linspace(0, 5, 11)
        return ObservableSeries(
            z=z,
            mean_q=np.sin(z) + q_offset,
            norm=np.exp(0.1 * z) * norm_factor,
        )

    def test_self_comparison_is_zero(self):
        a = self.make_series()
        rep = compare(a, a)
        assert rep.sup_q_error == 0.0
        assert rep.sup_norm_rel_error == 0.0

    def test_constant_offset(self):
        rep = compare(self.make_series(q_offset=0.25), self.make_series())
        assert rep.sup_q_error == pytest.approx(0.25)

    def test_relative_norm_error(self):
        rep = compare(self.make_series(norm_factor=1.01), self.make_series())
        assert rep.sup_norm_rel_error == pytest.approx(0.01)

    def test_mismatched_sampling_rejected(self):
        a = self.make_series()
        b = self.make_series()
        b.z = b.z + 0.1
        with pytest.raises(ValueError, match="mismatched sampling"):
            compare(a, b)


class TestRunScenario:
    def test_oracle_and_gaussian_agree(self):
        result = run_scenario(small_config())
        rep = result.reports[("gaussian", "oracle")]
        assert rep.sup_q_error < 1e-10
        assert rep.sup_norm_rel_error < 1e-10
        assert rep.renormalized_intensity_l2 < 1e-10

    def test_oracle_on_hermitian_potential(self):
        # hermitian: true runs the closed forms with gamma = 0: no gain, no loss
        cfg = small_config(
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0, "hermitian": True},
            initial=InitialBeam(q0=0.5, p0=0.3, b0=0.5 + 1.2j),
        )
        result = run_scenario(cfg)
        assert result.reports[("gaussian", "oracle")].sup_q_error <= 1e-9
        assert np.all(result.series["oracle"].norm == 1.0)

    def test_trajectories_record_the_step_taken(self):
        # z_max = 1 at dz = 0.3 takes three steps of 1/3
        result = run_scenario(small_config(gaussian=GaussianSettings(dz=0.3), sample_stride=1))
        assert result.records["gaussian"].dz == 1.0 / 3
        assert result.records["oracle"].dz == 1.0 / 3

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_gaussian_intensity_is_the_closed_form(self, hbar):
        # every row of an RK4 or oracle heatmap is the renormalized |psi|^2
        # of the ansatz, sqrt(Im B / (pi hbar)) exp(-Im B (x - q)^2 / hbar)
        cfg = small_config(
            initial=InitialBeam(q0=0.4, p0=-0.6, b0=0.3 + 0.9j),
            heatmap=True,
            constants=PhysicalConstants(hbar=hbar),
        )
        result = run_scenario(cfg)
        x = cfg.grid_spec().positions()
        for name in ("gaussian", "oracle"):
            traj = result.records[name]
            want = np.empty((len(traj.z), len(x)))
            for row, q, im_b in zip(want, traj.q.tolist(), traj.im_b.tolist()):
                u = x - q
                row[:] = math.sqrt(im_b / (math.pi * hbar)) * np.exp(-im_b * u * u / hbar)
            series = result.series[name]
            assert np.array_equal(series.x, x)
            assert np.array_equal(series.intensity, want)
            # the series reads its rows from the trajectory, for a slice or an index array
            for sel in (slice(1, None, 2), np.array([0, 2, len(traj.z) - 1])):
                assert np.array_equal(traj.intensity_rows(x, hbar, sel), series.rows(sel))

    def test_grid_comparison_on_quadratic(self):
        cfg = small_config(propagators=("gaussian", "grid"), z_max=2.0)
        result = run_scenario(cfg)
        rep = result.reports[("gaussian", "grid")]
        assert rep.sup_q_error < 1e-6
        assert rep.sup_norm_rel_error < 1e-6

    def test_grid_comparison_at_small_hbar(self):
        # the ansatz and its intensity carry hbar, as the grid and the norm equation do
        cfg = small_config(
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 0.2},
            initial=InitialBeam(q0=1.0, p0=0.0, b0=1j),
            propagators=("gaussian", "grid"),
            z_max=2.0,
            grid=GridSettings(half_width=10.0, n_points=1024, dz=1e-3),
            constants=PhysicalConstants(hbar=0.5),
        )
        rep = run_scenario(cfg).reports[("gaussian", "grid")]
        assert rep.sup_q_error <= 1e-6
        assert rep.sup_norm_rel_error <= 1e-6
        assert rep.renormalized_intensity_l2 <= 1e-6

    def test_single_propagator_no_report(self):
        result = run_scenario(small_config(propagators=("gaussian",)))
        assert result.reports == {}

    def test_abort_recorded_not_raised(self, tmp_path):
        # a huge gain slope overflows the grid propagator; the gaussian
        # propagator (log-norm state) survives and the abort is reported
        cfg = small_config(
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 100.0},
            propagators=("gaussian", "grid"),
            z_max=3.0,
            gaussian=GaussianSettings(dz=1e-3),
            grid=GridSettings(half_width=8.0, n_points=256, dz=1e-2),
            sample_stride=10,
        )
        result = run_scenario(cfg, out_dir=str(tmp_path / "abort"))
        assert [a.propagator for a in result.aborts] == ["grid"]
        assert result.aborts[0].z_reached is not None
        assert "gaussian" in result.series
        manifest = (tmp_path / "abort" / "manifest.txt").read_text()
        assert "aborts" in manifest

    def test_records_hold_every_selected_propagator(self, tmp_path):
        # the abort above with the oracle too: the grid's partial run is its
        # record, and grid_observables.csv holds that record's columns
        cfg = small_config(
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 100.0},
            propagators=("gaussian", "grid", "oracle"),
            z_max=3.0,
            grid=GridSettings(half_width=8.0, n_points=256, dz=1e-2),
            sample_stride=10,
        )
        with pytest.warns(BoundaryContaminationWarning):
            result = run_scenario(cfg, out_dir=str(tmp_path))
        assert list(result.records) == ["gaussian", "oracle", "grid"]
        assert [a.propagator for a in result.aborts] == ["grid"]
        grid = result.records["grid"]
        assert 0 < len(grid) < len(schedule(3.0, 1e-2, 10)[2])
        for name, record in result.records.items():
            assert result.series[name].z is record.z
        header, *rows = (tmp_path / "grid_observables.csv").read_text().splitlines()
        assert header == "z,norm,mean_q,mean_p,delta_q,edge_mass"
        assert list(grid.columns()) == header.split(",")
        table = np.array([row.split(",") for row in rows], dtype=float)
        assert np.array_equal(table, np.column_stack(list(grid.columns().values())))

    def test_width_collapse_recorded_as_abort(self):
        # a wide beam on the flank of a narrow, strong gain profile: V_I'' > 0
        # drives Im B through zero within a few steps
        cfg = small_config(
            potential={"kind": "pt_tanh_gaussian", "gamma": 50.0, "omega": 1.0, "eta": 0.3},
            initial=InitialBeam(q0=1.0, p0=0.0, b0=0.05j),
            propagators=("gaussian",),
        )
        result = run_scenario(cfg)
        [abort] = result.aborts
        assert abort.propagator == "gaussian" and "Im B" in abort.reason
        assert 0.0 < abort.z_reached < 0.01
        assert result.series["gaussian"].z[0] == 0.0

    def test_oracle_going_non_finite_is_an_abort(self):
        # Im b0 = 1e-300 passes the width rule, but the closed forms' width
        # forcing (|b0|^2 - omega^2) / (2 omega Im b0) then overflows their products
        cfg = small_config(
            potential={"kind": "quadratic_linear", "omega": 0.25, "gamma": 0.5},
            initial=InitialBeam(q0=0.0, p0=0.0, b0=1e-300j),
            propagators=("oracle",),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_scenario(cfg)
        [abort] = result.aborts
        assert abort.propagator == "oracle" and "non-finite" in abort.reason
        assert abort.z_reached == 0.0
        assert len(result.series["oracle"].z) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        gaussian_dz=st.floats(1e-3, 0.1),
        grid_dz=st.floats(1e-3, 0.1),
        z_max=st.floats(0.01, 1.0),
        stride=st.integers(1, 50),
    )
    def test_any_two_schedules_share_both_ends(self, gaussian_dz, grid_dz, z_max, stride):
        # why run_scenario needs no check that two propagators share samples
        cfg = small_config(
            propagators=("gaussian", "grid"),
            z_max=z_max,
            gaussian=GaussianSettings(dz=gaussian_dz),
            grid=GridSettings(half_width=8.0, n_points=256, dz=grid_dz),
            sample_stride=stride,
        )
        ia, ib = _shared_samples(cfg, "gaussian", "grid")
        assert (ia[0], ib[0]) == (0, 0)
        assert ia[-1] == len(schedule(z_max, gaussian_dz, stride)[2]) - 1
        assert ib[-1] == len(schedule(z_max, grid_dz, stride)[2]) - 1

    def test_unequal_steps_compare_at_both_ends(self):
        # 500 and 714 steps: no sample between the ends sits at the same z
        cfg = small_config(
            propagators=("gaussian", "grid"),
            z_max=0.5,
            gaussian=GaussianSettings(dz=1e-3),
            grid=GridSettings(half_width=8.0, n_points=512, dz=7e-4),
            sample_stride=7,
        )
        rep = run_scenario(cfg).reports[("gaussian", "grid")]
        assert rep.samples[:, 0].tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("q0, norm0", [(0.0, 1e-300), (1e3, 1.0)])
    def test_beam_off_the_grid_is_config_error(self, q0, norm0):
        # |psi|^2 of the initial field underflows everywhere on the grid
        cfg = small_config(
            initial=InitialBeam(q0=q0, p0=0.0, b0=1j, norm0=norm0), propagators=("grid",)
        )
        with pytest.raises(ConfigError, match="puts no"):
            run_scenario(cfg)

    def test_non_finite_initial_field_is_config_error(self):
        # hbar 1e-300 overflows the narrow beam's prefactor and phase to inf/nan
        cfg = small_config(
            initial=InitialBeam(q0=0.0, p0=0.0, b0=1e10j),
            propagators=("grid",),
            grid=GridSettings(half_width=20.0, n_points=256, dz=1e-3),
            constants=PhysicalConstants(hbar=1e-300),
        )
        with pytest.raises(ConfigError, match="non-finite on the grid: constants.hbar"):
            run_scenario(cfg)

    def test_overflowing_initial_intensity_is_config_error(self):
        # psi peaks near 1e160, which is finite, but |psi|^2 overflows
        cfg = small_config(
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 5.0},
            initial=InitialBeam(q0=0.0, p0=-1.0, b0=1j, norm0=1e160),
            propagators=("gaussian", "grid"),
        )
        with pytest.raises(ConfigError, match="initial.norm0 is too large"):
            run_scenario(cfg)

    def test_outputs_written(self, tmp_path):
        import os

        cfg = small_config(propagators=("gaussian", "oracle"), heatmap=True)
        result = run_scenario(cfg, out_dir=str(tmp_path / "out"))
        names = {os.path.basename(p) for p in result.files}
        assert names == {
            "gaussian_trajectory.csv",
            "oracle_trajectory.csv",
            "gaussian_heatmap.csv",
            "oracle_heatmap.csv",
            "comparison_gaussian_vs_oracle.csv",
            "manifest.txt",
        }

    def test_deterministic_outputs(self, tmp_path):
        from pathlib import Path

        cfg = small_config(heatmap=True)
        r1 = run_scenario(cfg, out_dir=str(tmp_path / "a"))
        r2 = run_scenario(cfg, out_dir=str(tmp_path / "b"))
        assert len(r1.files) == len(r2.files)
        for p1, p2 in zip(sorted(r1.files), sorted(r2.files)):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_manifest_roundtrip(self, tmp_path):
        cfg = small_config(heatmap=True)
        run_scenario(cfg, out_dir=str(tmp_path / "a"))
        parsed = read_manifest_config(tmp_path / "a" / "manifest.txt")
        assert parsed == cfg
        run_scenario(parsed, out_dir=str(tmp_path / "b"))
        for name in ("gaussian_trajectory.csv", "comparison_gaussian_vs_oracle.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = small_config()
        result = run_scenario(cfg, out_dir=str(tmp_path / "fmt"))
        raw = (tmp_path / "fmt" / "gaussian_trajectory.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["z", "q", "p", "re_b", "im_b", "norm", "alpha", "delta_q", "delta_p"]
        # 17 significant digits round-trip doubles exactly
        cols = result.records["gaussian"].columns()
        last = lines[-1].split(",")
        assert float(last[1]) == cols["q"][-1]
        assert float(last[5]) == cols["norm"][-1]

    def test_csv_widths_are_physical(self, tmp_path):
        # the trajectory CSVs scale the hbar = 1 widths of Trajectory.columns()
        # by sqrt(hbar); the grid measures its delta_q from |psi|^2
        hbar, b0 = 0.25, 0.3 + 1j
        tables, results = {}, {}
        for other in ("grid", "oracle"):
            cfg = small_config(
                initial=InitialBeam(q0=0.5, p0=0.0, b0=b0), propagators=("gaussian", other),
                z_max=0.1, constants=PhysicalConstants(hbar=hbar),
            )
            results[other] = run_scenario(cfg, out_dir=str(tmp_path / other))
            for path in (tmp_path / other).glob("*_*.csv"):
                header, *rows = path.read_text().splitlines()
                columns = np.array([row.split(",") for row in rows], dtype=float).T
                tables[other, path.stem] = dict(zip(header.split(","), columns))
        gaussian = tables["grid", "gaussian_trajectory"]
        grid = tables["grid", "grid_observables"]
        assert gaussian["delta_q"][0] == pytest.approx(grid["delta_q"][0], rel=1e-6)
        assert gaussian["delta_p"][0] == pytest.approx(
            math.sqrt(hbar) * abs(b0) / math.sqrt(2 * b0.imag), rel=1e-15
        )
        for name in ("gaussian_trajectory", "oracle_trajectory"):
            table = tables["oracle", name]
            traj = results["oracle"].records[name.split("_")[0]]
            assert traj.mean_q is traj.q
            for width in ("delta_q", "delta_p"):
                # the CSV's %.17g text reads back as the same double
                assert np.array_equal(table[width], traj.columns(hbar)[width])
                assert np.array_equal(table[width], math.sqrt(hbar) * traj.columns()[width])
            root = np.sqrt(2 * table["im_b"])
            assert np.allclose(table["delta_q"], np.sqrt(hbar) / root, rtol=1e-15, atol=0)
            assert np.allclose(
                table["delta_p"], np.sqrt(hbar) * np.hypot(table["re_b"], table["im_b"]) / root,
                rtol=1e-15, atol=0,
            )


def whole_matrix_l2(series_a, series_b):
    """The per-sample intensity L2 of compare, from the whole matrices at once."""
    diff = series_a.intensity - series_b.intensity
    diff *= diff
    return np.sqrt(diff.sum(axis=1) * (series_a.x[1] - series_a.x[0]))


class TestIntensityRows:
    @pytest.mark.parametrize("samples", [2, 16, 17, 301])
    @pytest.mark.parametrize("other", ["oracle", "grid"])
    def test_blocked_comparison_keeps_every_bit(self, tmp_path, samples, other):
        # compare and the heatmap writer form the rows 16 at a time
        cfg = small_config(
            propagators=("gaussian", other), z_max=(samples - 1) * 1e-3, sample_stride=1,
            heatmap=True,
        )
        result = run_scenario(cfg, out_dir=str(tmp_path / "blocks"))
        series = result.series
        assert len(series[other].z) == samples
        want = whole_matrix_l2(series["gaussian"], series[other])
        assert np.array_equal(result.reports[("gaussian", other)].samples[:, 3], want)
        for name, s in series.items():
            whole = tmp_path / f"{name}_whole.csv"
            write_heatmap_csv(whole, s.x, s.z, s.intensity)
            assert whole.read_bytes() == (tmp_path / "blocks" / f"{name}_heatmap.csv").read_bytes()

    def test_restricted_comparison_keeps_every_bit(self):
        # 500 and 714 steps, as in test_unequal_steps_compare_at_both_ends, but
        # a stride of 1: the shared samples are a strict subset on both sides
        cfg = small_config(
            propagators=("gaussian", "grid"),
            z_max=0.5,
            gaussian=GaussianSettings(dz=1e-3),
            grid=GridSettings(half_width=8.0, n_points=512, dz=7e-4),
            sample_stride=1,
        )
        result = run_scenario(cfg)
        ia, ib = _shared_samples(cfg, "gaussian", "grid")
        gaussian, grid = result.series["gaussian"], result.series["grid"]
        assert 2 < len(ia) < min(len(gaussian.z), len(grid.z))
        for s, indices in ((gaussian, ia), (grid, ib)):
            assert np.array_equal(s.restricted(indices).intensity, s.intensity[indices])
        want = whole_matrix_l2(gaussian.restricted(ia), grid.restricted(ib))
        assert np.array_equal(result.reports[("gaussian", "grid")].samples[:, 3], want)
        assert gaussian.restricted(range(len(gaussian.z))) is gaussian

    def test_kept_results_hold_columns_only(self):
        # fig7's beams: 4096 points, 301 samples; a 301 x 4096 matrix is 9.4 MiB
        lib = scenario_library()
        configs = [
            replace(lib[name], z_max=3.0, sample_stride=10)
            for name in ("fig7-top", "fig7-mid", "fig7-bottom")
        ]
        tracemalloc.start()
        try:
            results = [run_scenario(cfg) for cfg in configs]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 * 2**20 and peak < 8 * 2**20, (held, peak)
        for result in results:
            for series in result.series.values():
                assert series.intensity.shape == (301, 4096)
                assert np.array_equal(series.intensity, series.intensity)
        single = run_scenario(small_config(propagators=("gaussian",)))
        assert single.series["gaussian"].intensity is None

    def test_grid_alone_keeps_no_matrix(self, tmp_path):
        # with no heatmap and no comparison the grid allocates no intensity matrix
        cfg = replace(
            scenario_library()["fig2a"], propagators=("grid",), z_max=3.0, sample_stride=10
        )
        tracemalloc.start()
        try:
            result = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        assert result.series["grid"].intensity is None
        run_scenario(cfg, out_dir=str(tmp_path / "alone"))
        run_scenario(replace(cfg, heatmap=True), out_dir=str(tmp_path / "heatmap"))
        alone, heatmap = (tmp_path / d / "grid_observables.csv" for d in ("alone", "heatmap"))
        assert alone.read_bytes() == heatmap.read_bytes()


class TestScenarioLibrary:
    def test_pinned_entries(self):
        lib = scenario_library()
        fig6 = lib["fig6-mid"]
        assert fig6.initial == InitialBeam(q0=0.0, p0=-1.0, b0=1j)
        assert fig6.potential["kind"] == "pt_tanh_gaussian"
        assert fig6.potential["eta"] == 10.0
        assert fig6.potential["gamma"] == 1.0
        assert fig6.potential["omega"] == 1.0
        fig4 = lib["fig4-top"]
        assert fig4.initial == InitialBeam(q0=-4.0, p0=0.0, b0=1j)
        assert fig4.potential["eta"] == 10.0
        fig2 = lib["fig2a"]
        assert fig2.initial == InitialBeam(q0=1.0, p0=0.0, b0=1j)
        assert fig2.potential["eta"] == 5.0

    def test_expected_families(self):
        lib = scenario_library()
        for name in (
            "fig2a", "fig2b", "fig2c", "fig2d", "fig2a-alt",
            "fig4-top", "fig4-bottom", "fig4-top-hermitian",
            "fig5-top", "fig5-bottom-hermitian",
            "fig6-top", "fig6-mid", "fig6-bottom",
            "fig7-top", "fig7-mid", "fig7-bottom",
        ):
            assert name in lib
            assert lib[name].name == name

    def test_hermitian_variants_marked(self):
        lib = scenario_library()
        assert lib["fig4-top-hermitian"].potential["hermitian"] is True
        assert lib["fig4-top"].potential["hermitian"] is False

    def test_all_builtins_complete_cleanly(self):
        # every built-in runs at default settings without width collapse,
        # numerical aborts, or boundary/narrow-grid warnings (slow: the
        # grid propagator covers z = 30 for each gain-loss scenario)
        lib = scenario_library()
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryContaminationWarning)
            warnings.simplefilter("error", NarrowGridWarning)
            for name in sorted(lib):
                result = run_scenario(lib[name])
                assert not result.aborts, f"{name} aborted: {result.aborts}"
                for prop in lib[name].propagators:
                    assert prop in result.series, f"{name} missing {prop}"


class TestFilterExperiment:
    def test_identical_widths_never_separate(self):
        cfg = FilterConfig(
            name="same", widths=(1j, 1j), z_max=0.05, dz=1e-4, probe_z=(0.01,)
        )
        report = filter_experiment(cfg)
        pair = report.pairs[0]
        assert pair.predicted_rate == 0.0
        assert pair.measured_rates[0.01] == 0.0
        assert pair.resolvability_z is None

    def test_predicted_rate(self):
        cfg = FilterConfig(
            name="pair", widths=(0.5j, 2j), z_max=0.02, dz=1e-4, probe_z=(0.001, 0.01)
        )
        report = filter_experiment(cfg)
        pair = report.pairs[0]
        assert pair.predicted_rate == pytest.approx(1.5)
        assert pair.measured_rates[0.01] == pytest.approx(1.5, rel=0.05)
        assert pair.measured_rates[0.001] == pytest.approx(1.5, rel=0.005)

    def test_resolvability_distance(self):
        cfg = FilterConfig(
            name="res", widths=(0.5j, 2j), z_max=3.0, dz=1e-3, probe_z=(0.1,)
        )
        report = filter_experiment(cfg)
        pair = report.pairs[0]
        assert pair.resolvability_z is not None
        # separation must actually exceed the summed widths there
        idx = int(round(pair.resolvability_z / cfg.dz))
        sep = abs(report.centers[0][idx] - report.centers[1][idx])
        assert sep > report.widths[0][idx] + report.widths[1][idx]

    def test_resolvability_uses_physical_widths(self):
        # the separation is physical, so the widths it is held against are
        # too: sqrt(hbar) / sqrt(2 Im B), not the hbar = 1 delta_q column
        hbar = 0.25
        cfg = FilterConfig(
            name="hbar", widths=(0.5j, 2j), z_max=2.0, dz=1e-3, probe_z=(0.1,),
            constants=PhysicalConstants(hbar=hbar),
        )
        report = filter_experiment(cfg)
        pair = report.pairs[0]
        assert pair.resolvability_z == pytest.approx(1.33, abs=1e-9)
        idx = int(round(pair.resolvability_z / cfg.dz))
        sep = np.abs(report.centers[0] - report.centers[1])
        assert sep[idx] > report.widths[0][idx] + report.widths[1][idx]
        assert np.all(sep[1:idx] <= report.widths[0][1:idx] + report.widths[1][1:idx])
        for i, b0 in enumerate(cfg.widths):
            traj = integrate(
                GaussianParams(0.0, 0.0, b0), cfg.build_potential(), 2.0, dz=1e-3,
                constants=cfg.constants,
            )
            physical = np.sqrt(hbar / (2 * traj.im_b))
            assert np.allclose(report.widths[i], physical, rtol=1e-15, atol=0)

    def test_works_on_tanh_potential(self):
        cfg = FilterConfig(
            name="tanh",
            widths=(0.5j, 2j),
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 10.0},
            z_max=0.02,
            dz=1e-4,
            probe_z=(0.01,),
        )
        report = filter_experiment(cfg)
        assert report.pairs[0].measured_rates[0.01] == pytest.approx(1.5, rel=0.05)

    def test_probe_off_grid_rejected(self):
        with pytest.raises(ConfigError, match="probe_z"):
            FilterConfig(name="bad", widths=(0.5j, 2j), z_max=1.0, dz=3e-4, probe_z=(0.001,))

    @pytest.mark.parametrize("probe", [1e-300, 5e-324])
    def test_probe_on_step_zero_rejected(self, probe):
        with pytest.raises(ConfigError, match="probe_z"):
            FilterConfig(name="bad", widths=(0.5j, 2j), z_max=1.0, dz=1e-3, probe_z=(probe,))

    def test_needs_two_widths(self):
        with pytest.raises(ConfigError, match="two widths"):
            FilterConfig(name="one", widths=(1j,))

    def test_outputs(self, tmp_path):
        cfg = FilterConfig(
            name="out", widths=(0.5j, 1j, 2j), z_max=0.02, dz=1e-3, probe_z=(0.01,)
        )
        report = filter_experiment(cfg, out_dir=str(tmp_path))
        assert len(report.pairs) == 3
        assert (tmp_path / "filter_rates.csv").exists()
        assert (tmp_path / "filter_separations.csv").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_manifest_roundtrip(self, tmp_path):
        cfg = FilterConfig(
            name="rt",
            widths=(0.5j, 0.3 + 1j),
            q0=0.2,
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 5.0},
            z_max=0.02,
            dz=1e-3,
            probe_z=(0.01,),
        )
        filter_experiment(cfg, out_dir=str(tmp_path / "a"))
        parsed = read_manifest_config(tmp_path / "a" / "manifest.txt")
        assert parsed == cfg
        filter_experiment(parsed, out_dir=str(tmp_path / "b"))
        for name in ("filter_rates.csv", "filter_separations.csv", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def loop_pairs(config, report):
    """The per-pair loop filter_experiment ran before its one pass over all pairs.

    Each pair as (index_a, index_b, predicted_rate, measured_rates,
    resolvability_z), read off the report's z, centers and widths.
    """
    slope = config.build_potential().sample(config.q0).dv_imag
    _, dz_eff, _ = schedule(config.z_max, config.dz, 1)
    probe_indices = {probe: round(probe / dz_eff) for probe in config.probe_z}
    zs, centers, beam_widths = report.z, report.centers, report.widths
    pairs = []
    for i, j in combinations(range(len(config.widths)), 2):
        separation = np.abs(centers[i] - centers[j])
        predicted = abs(
            width_drift_rate(config.widths[i], slope) - width_drift_rate(config.widths[j], slope)
        )
        measured = {
            probe: float(separation[idx] / zs[idx]) for probe, idx in probe_indices.items()
        }
        resolvable = separation > (beam_widths[i] + beam_widths[j])
        resolvable[0] = False
        hit = np.flatnonzero(resolvable)
        pairs.append((i, j, predicted, measured, float(zs[hit[0]]) if len(hit) else None))
    return pairs


# gamma up to 20 makes some pairs resolvable within z = 0.1, the rest never
@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(
        st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0)), min_size=2, max_size=4
    ),
    hbar=st.sampled_from([0.25, 1.0]),
    kind=st.sampled_from([
        {"kind": "quadratic_linear", "omega": 1.0},
        {"kind": "pt_tanh_gaussian", "omega": 1.0, "eta": 10.0},
    ]),
    gamma=st.floats(0.5, 20.0),
    q0=st.floats(-1.0, 1.0),
    probe_steps=st.lists(st.integers(1, 100), min_size=1, max_size=3),
)
def test_filter_pairs_match_the_per_pair_loop(widths, hbar, kind, gamma, q0, probe_steps):
    cfg = FilterConfig(
        name="pairs", widths=tuple(widths), q0=q0, potential={**kind, "gamma": gamma},
        z_max=0.1, dz=1e-3, probe_z=tuple(k * 1e-3 for k in probe_steps),
        constants=PhysicalConstants(hbar=hbar),
    )
    report = filter_experiment(cfg)
    got = [
        (p.index_a, p.index_b, p.predicted_rate, p.measured_rates, p.resolvability_z)
        for p in report.pairs
    ]
    assert got == loop_pairs(cfg, report)
