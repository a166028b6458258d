import json
import os
import stat
import time

import pytest

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
