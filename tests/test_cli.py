import json
import math
import os
import stat
import tempfile
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainbeam import cli
from gainbeam.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main


def write_config(path, **overrides):
    doc = {
        "schema_version": 1,
        "name": "cli-unit",
        "potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
        "initial": {"q0": 0.0, "p0": -1.0, "b0": [0.0, 1.0]},
        "propagators": ["gaussian", "oracle"],
        "z_max": 1.0,
        "gaussian": {"dz": 1e-3},
        "grid": {"half_width": 8.0, "n_points": 256, "dz": 1e-3},
        "sample_stride": 100,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "manifest.txt").exists()
        assert (out / "gaussian_trajectory.csv").exists()
        text = capsys.readouterr().out
        assert "gaussian vs oracle" in text

    def test_output_files_follow_umask(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == EXIT_OK
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert len(modes) == 4 and set(modes.values()) == {0o644}, modes

    def test_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", surprise=1)
        assert main(["run", str(cfg), "--quiet"]) == EXIT_CONFIG

    def test_numerical_abort(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "quadratic_linear", "omega": 1.0, "gamma": 100.0},
            propagators=["grid"],
            z_max=3.0,
            grid={"half_width": 8.0, "n_points": 256, "dz": 1e-2},
            sample_stride=10,
        )
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        assert "ABORT" in capsys.readouterr().out

    def test_oracle_abort_exits_numeric(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "quadratic_linear", "omega": 0.25, "gamma": 0.5},
            initial={"q0": 0.0, "p0": 0.0, "b0": [0.0, 1e-300]},
            propagators=["oracle"],
        )
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
        assert "ABORT oracle: closed forms became non-finite" in capsys.readouterr().out
        assert '"propagator": "oracle"' in (out / "manifest.txt").read_text()

    # 2 omega Im b0 and omega^2 Im b0 underflow to 0 for these accepted values
    @pytest.mark.parametrize("omega", [1e-30, 1e-13])
    def test_oracle_divisor_underflow_exits_numeric(self, tmp_path, capsys, omega):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "quadratic_linear", "omega": omega, "gamma": 0.5},
            initial={"q0": 0.0, "p0": 0.0, "b0": [0.0, 1e-300]},
            propagators=["oracle"],
        )
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert "ABORT oracle: closed forms became non-finite" in out
        assert err == ""

    # hbar 1e-300 overflows the grid's potential factor (b0 = i), a recorded
    # abort, and for a narrow beam (b0 = 1e10 i) the reconstructed field's
    # phase and prefactor, whose NaN mass is a config error
    @pytest.mark.parametrize(
        "im_b0, code, err",
        [(1.0, EXIT_NUMERIC, ""), (1e10, EXIT_CONFIG, "config error: the initial beam")],
        ids=["factors", "field"],
    )
    def test_tiny_hbar_grid_warns_nothing(self, tmp_path, capsys, im_b0, code, err):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 5.0},
            initial={"q0": 0.0, "p0": 0.0, "b0": [0.0, im_b0]},
            propagators=["grid"],
            z_max=0.01,
            grid={"half_width": 20.0, "n_points": 256, "dz": 1e-3},
            constants={"hbar": 1e-300},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == code
        assert [str(w.message) for w in caught] == []
        # nothing on stderr but the config error's one line
        stderr = capsys.readouterr().err
        assert stderr.startswith(err) and stderr.count("\n") == bool(err)

    # numpy overflows on each of these (in V, the initial phase, the
    # ansatz's intensity or the norm error): the checks downstream decide
    # the exit code, and nothing warns
    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"potential": {"kind": "quadratic_linear", "omega": 1e154, "gamma": 0.5},
              "initial": {"q0": 0.0, "p0": 0.0, "b0": [0.0, 1.0]}}, EXIT_CONFIG),
            ({"grid": {"half_width": 1e200, "n_points": 256, "dz": 1e-3}}, EXIT_CONFIG),
            ({"grid": {"half_width": 1e200, "n_points": 256, "dz": 1e-3},
              "propagators": ["gaussian", "grid", "oracle"]}, EXIT_CONFIG),
            ({"potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1e154},
              "propagators": ["gaussian", "grid", "oracle"]}, EXIT_NUMERIC),
            ({"potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": -1e154},
              "propagators": ["gaussian", "grid", "oracle"]}, EXIT_NUMERIC),
            # psi is finite, but |psi|^2 overflows on the grid
            ({"initial": {"q0": 0.5, "p0": 0.0, "b0": [0.0, 1.0], "norm0": 1e154},
              "propagators": ["gaussian", "grid"]}, EXIT_CONFIG),
            # V'' = 1e308 at x = 0, a curvature no step resolves
            ({"potential": {"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1e154,
                            "eta": 5.0}}, EXIT_CONFIG),
            ({"potential": {"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0,
                            "eta": 1e-154}}, EXIT_OK),
        ],
        ids=["omega-1e154", "half-width-1e200", "half-width-1e200-all", "gamma-1e154",
             "gamma--1e154", "norm0-1e154", "tanh-omega-1e154", "tanh-eta-1e-154"],
    )
    def test_extreme_inputs_warn_nothing(self, tmp_path, capsys, overrides, code):
        doc = {
            "initial": {"q0": 0.5, "p0": 0.0, "b0": [0.0, 1.0]},
            "propagators": ["grid"],
            "z_max": 0.02,
            "grid": {"half_width": 20.0, "n_points": 256, "dz": 1e-3},
            "sample_stride": 5,
        }
        cfg = write_config(tmp_path / "cfg.json", **(doc | overrides))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == code
        assert [str(w.message) for w in caught] == []
        stderr = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert stderr.startswith("config error:") and stderr.count("\n") == 1
        else:
            assert stderr == ""

    def test_unresolved_curvature_names_the_step(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1e154, "eta": 5.0},
            initial={"q0": 0.5, "p0": 0.0, "b0": [0.0, 1.0]},
            propagators=["grid"],
            z_max=0.02,
            grid={"half_width": 20.0, "n_points": 256, "dz": 1e-3},
        )
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        stderr = capsys.readouterr().err
        assert stderr.startswith("config error:") and "grid.dz" in stderr

    def test_overflowing_peak_gives_finite_heatmap_row(self, tmp_path):
        # Im B / (pi hbar) = 3e309 overflows; its root, the z = 0 peak, does not
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 5.0},
            initial={"q0": 0.0, "p0": 0.0, "b0": [0.0, 1e10]},
            constants={"hbar": 1e-300},
            propagators=["gaussian"],
            heatmap=True,
            z_max=0.01,
            grid={"half_width": 20.0, "n_points": 256, "dz": 1e-3},
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # Im B collapses at z = 0.0005
            assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
        lines = (out / "gaussian_heatmap.csv").read_text().splitlines()
        x = [float(c) for c in lines[0].split(",")[1:]]
        row = [float(c) for c in lines[1].split(",")]
        assert row[0] == 0.0 and len(row) == 257
        peak = x.index(0.0) + 1
        assert row[peak] == pytest.approx(math.sqrt(1e10 / math.pi) / 1e-150, rel=1e-15)
        assert row[1:peak] + row[peak + 1:] == [0.0] * 255

    def test_width_collapse_exits_numeric(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            potential={"kind": "pt_tanh_gaussian", "gamma": 50.0, "omega": 1.0, "eta": 0.3},
            initial={"q0": 1.0, "p0": 0.0, "b0": [0.0, 0.05]},
            propagators=["gaussian"],
        )
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_NUMERIC
        assert "ABORT gaussian: Im B reached" in capsys.readouterr().out
        assert '"propagator": "gaussian"' in (out / "manifest.txt").read_text()

    def test_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", str(cfg), "--out-dir", str(blocker / "sub")])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_overrides_reach_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert (
            main(
                [
                    "run", str(cfg), "--out-dir", str(out),
                    "--z-max", "2.0", "--dz", "0.002", "--grid-points", "512", "--quiet",
                ]
            )
            == EXIT_OK
        )
        manifest = (out / "manifest.txt").read_text()
        assert "config.z_max = 2.0" in manifest
        assert "config.gaussian.dz = 0.002" in manifest
        assert "config.grid.n_points = 512" in manifest


@pytest.mark.parametrize("command", ["run", "run-builtin", "filter"])
@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB")])
def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch, command, error):
    def fail(config, out_dir=None):
        raise error

    monkeypatch.setattr(cli, "run_scenario", fail)
    monkeypatch.setattr(cli, "filter_experiment", fail)
    if command == "filter":
        doc = {"schema_version": 1, "name": "oom", "widths": [[0.0, 0.5], [0.0, 2.0]],
               "z_max": 0.01, "dz": 1e-3, "probe_z": [0.01]}
        target = tmp_path / "filter.json"
        target.write_text(json.dumps(doc))
    else:
        target = write_config(tmp_path / "cfg.json") if command == "run" else "fig2a"
    assert main([command, str(target), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: the run does not fit in memory")
    assert captured.err.count("\n") == 1
    assert str(error) in captured.err


class TestBuiltins:
    def test_list(self, capsys):
        assert main(["list"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "fig6-mid" in text and "fig2a" in text and "fig7-top" in text

    def test_unknown_builtin(self, capsys):
        assert main(["run-builtin", "fig99"]) == EXIT_CONFIG
        assert "unknown built-in" in capsys.readouterr().err

    def test_run_builtin_with_overrides(self, tmp_path):
        out = tmp_path / "b"
        code = main(
            [
                "run-builtin", "fig7-top", "--out-dir", str(out),
                "--z-max", "1.0", "--quiet",
            ]
        )
        assert code == EXIT_OK
        assert (out / "oracle_trajectory.csv").exists()


class TestFilterCommand:
    def test_filter_run(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "cli-filter",
            "widths": [[0.0, 0.5], [0.0, 2.0]],
            "q0": 0.0,
            "p0": 0.0,
            "z_max": 0.02,
            "dz": 1e-4,
            "probe_z": [0.001, 0.01],
        }
        cfg = tmp_path / "filter.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "f"
        assert main(["filter", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "filter_rates.csv").exists()
        assert "predicted rate 1.5" in capsys.readouterr().out

    def test_probe_off_grid_fails_before_integrating(self, tmp_path, capsys):
        # 200000 steps per beam: checked only after the integration, this
        # probe would cost seconds before the command failed
        doc = {
            "schema_version": 1,
            "name": "cli-probe",
            "widths": [[0.0, 0.5], [0.0, 2.0]],
            "z_max": 20.0,
            "dz": 1e-4,
            "probe_z": [0.00015],
        }
        cfg = tmp_path / "filter.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "f"
        start = time.perf_counter()
        assert main(["filter", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        assert "probe_z" in capsys.readouterr().err

    def test_filter_bad_config(self, tmp_path):
        cfg = tmp_path / "filter.json"
        cfg.write_text(json.dumps({"schema_version": 1, "name": "x", "widths": [[0, 1]]}))
        assert main(["filter", str(cfg)]) == EXIT_CONFIG



# Scenario documents for the fuzz: ordinary values, then up to three leaves
# set to an edge of their range. z_max <= 0.05, dz >= 1e-4 and
# n_points <= 512 keep every run below 500 steps on at most 512 points.
POTENTIAL_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("quadratic_linear"), "omega": st.floats(0.1, 3.0),
         "gamma": st.floats(-3.0, 3.0), "hermitian": st.booleans()}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("pt_tanh_gaussian"), "gamma": st.floats(-3.0, 3.0),
         "omega": st.floats(0.1, 3.0), "eta": st.floats(0.5, 10.0), "hermitian": st.booleans()}
    ),
    st.fixed_dictionaries({"kind": st.just("free_space"), "hermitian": st.booleans()}),
)
ORDINARY_DOCS = st.fixed_dictionaries(
    {
        "schema_version": st.just(1),
        "name": st.just("cli-fuzz"),
        "potential": POTENTIAL_DOCS,
        "initial": st.fixed_dictionaries(
            {
                "q0": st.floats(-3.0, 3.0),
                "p0": st.floats(-3.0, 3.0),
                "b0": st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0)).map(list),
                "norm0": st.floats(0.1, 3.0),
                "alpha0": st.floats(-3.0, 3.0),
            }
        ),
        "propagators": st.lists(
            st.sampled_from(["gaussian", "grid", "oracle"]), min_size=1, max_size=3, unique=True
        ),
        "z_max": st.floats(1e-3, 0.05),
        "gaussian": st.fixed_dictionaries({"dz": st.floats(1e-4, 0.05)}),
        "grid": st.fixed_dictionaries(
            {
                "half_width": st.floats(4.0, 40.0),
                "n_points": st.sampled_from([256, 512]),
                "dz": st.floats(1e-4, 0.05),
            }
        ),
        "constants": st.fixed_dictionaries({"hbar": st.floats(0.1, 3.0), "n_zero": st.just(1.0)}),
        "sample_stride": st.integers(1, 50),
        "heatmap": st.booleans(),
    }
)
# 1e154 squares to a finite 1e308, but x^2 omega^2 overflows on a grid
NUMBER_EDGES = (0.0, -1.0, 5e-324, 1e-300, 1e154, 1e300)
# edges of the fields whose ordinary range bounds the work of a run
EDGES = {
    "z_max": (0.0, -0.01, 5e-324, 1e-300),
    "dz": (0.0, -1e-3, 5e-324, 1e300),
    "n_points": (0, 1, 255, 300),
    "sample_stride": (0, 10**6),
}


def _numeric_leaves(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if key != "schema_version":
                yield prefix + (key,)


def _set_edges(draw, doc):
    leaves = list(_numeric_leaves(doc))
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(leaves))
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = draw(st.sampled_from(EDGES.get(key, NUMBER_EDGES)))
    return doc


@st.composite
def scenario_docs(draw):
    return _set_edges(draw, draw(ORDINARY_DOCS))


def _exit_code(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return main([command, cfg, "--out-dir", os.path.join(tmp, "out"), "--quiet"])


ZERO_NORM = {
    "schema_version": 1,
    "name": "cli-fuzz",
    "potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
    "initial": {"q0": 0.0, "p0": -1.0, "b0": [0.0, 1.0], "norm0": 0.0},
    "propagators": ["gaussian", "grid"],
    "z_max": 0.01,
    "grid": {"half_width": 8.0, "n_points": 256, "dz": 1e-3},
}


# V = omega^2 x^2 / 2 is non-finite on this grid: a config error
OMEGA_OVERFLOW = {
    "schema_version": 1,
    "name": "cli-fuzz",
    "potential": {"kind": "quadratic_linear", "omega": 1e154, "gamma": 0.5},
    "initial": {"q0": 0.0, "p0": 0.0, "b0": [0.0, 1.0]},
    "propagators": ["grid"],
    "z_max": 0.02,
    "grid": {"half_width": 20.0, "n_points": 256, "dz": 1e-3},
}


@settings(max_examples=150, deadline=None)
@example(doc=ZERO_NORM)
@example(doc=OMEGA_OVERFLOW)
@given(doc=scenario_docs())
def test_run_exits_with_a_code_on_any_document(doc):
    assert _exit_code("run", doc) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO)


# Filter documents for the same fuzz: at most 50 steps per beam, every
# probe on a step, then up to three leaves set to an edge.
@st.composite
def filter_docs(draw):
    dz = draw(st.sampled_from([5e-4, 1e-3, 2e-3]))
    n_steps = draw(st.integers(1, 50))
    probes = draw(st.lists(st.integers(1, n_steps), min_size=1, max_size=3, unique=True))
    doc = {
        "schema_version": 1,
        "name": "filter-fuzz",
        "widths": draw(
            st.lists(
                st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0)).map(list),
                min_size=2, max_size=4,
            )
        ),
        "q0": draw(st.floats(-3.0, 3.0)),
        "p0": draw(st.floats(-3.0, 3.0)),
        "potential": draw(POTENTIAL_DOCS),
        "z_max": n_steps * dz,
        "dz": dz,
        "probe_z": [k * dz for k in sorted(probes)],
        "constants": {"hbar": draw(st.floats(0.1, 3.0)), "n_zero": 1.0},
    }
    return _set_edges(draw, doc)


@settings(max_examples=150, deadline=None)
@given(doc=filter_docs())
def test_filter_exits_with_a_code_on_any_document(doc):
    assert _exit_code("filter", doc) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO)
