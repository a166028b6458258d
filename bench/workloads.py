"""What one pass of each workload does, and how its output is checked.

Each workload has three steps, run by ``worker.py`` in a fresh process:

* ``setup(inputs, work_dir)`` -- import gainbeam, validate the configs,
  build the potentials, the ``GridSpec``, the potential on the grid and
  the initial field: everything before the first propagation step;
* ``run(state, out_dir)`` -- the timed pass, through gainbeam's public
  entry points (looked up on their modules at call time, so a traced
  pass sees the patched versions);
* ``check(state, result, ref, out_dir)`` -- outside the timed region:
  compares the pass's output with the pinned references and returns the
  error metrics and the list of failed checks.

gainbeam is imported inside ``setup`` so that its import counts as
set-up time.
"""

import json
import os

import numpy as np

# Checks on the program's output; any failure marks the pass failed.
GAUSSIAN_VS_ORACLE_TOL = 1e-9   # sup |q| error of RK4 against the closed forms
ORACLE_VS_ODE_TOL = 1e-9        # closed forms against the DOP853 reference
RK4_VS_ODE_TOL = 1e-8           # RK4 at dz=1e-3 against the DOP853 reference
GRID_VS_REFERENCE_TOL = 1e-4    # Strang at dz=1e-3 against the sixth-order reference
Z_TOL = 1e-9
# Added to every error metric, so that 6e-12 -> 9e-12 (RK4 against the
# closed forms on quadratic-gaussian, where err_q is ~6e-12,
# err_norm_rel ~4e-12 and err_intensity_l2 ~1.5e-12) does not read as a
# 50% regression, while growth there beyond ~1.5x (err_q), ~1.8x
# (err_norm_rel) or ~2.5x (err_intensity_l2) still exceeds the 0.2
# bound. On the grid workloads the errors are ~1e-7 to ~1e-6 and the
# floor is negligible.
ERROR_FLOOR = 1e-11


def _prepare(cfg, gainbeam):
    """Potential, grid and initial field of one scenario: the work before stepping."""
    potential = cfg.build_potential()
    initial = gainbeam.GaussianParams(
        q=cfg.initial.q0, p=cfg.initial.p0, b=cfg.initial.b0,
        norm=cfg.initial.norm0, alpha=cfg.initial.alpha0,
    )
    if "grid" in cfg.propagators:
        spec = cfg.grid_spec()
        potential.value(spec.positions())
        gainbeam.reconstruct_wavefunction(initial, spec)


def _scenario_setup(inputs, work_dir):
    import gainbeam
    from gainbeam.config import ScenarioConfig

    configs = [ScenarioConfig.from_dict(doc) for doc in inputs["scenarios"]]
    for cfg in configs:
        _prepare(cfg, gainbeam)
    state = {"configs": configs}
    if inputs.get("filter") is not None:
        from gainbeam.config import FilterConfig

        state["filter"] = FilterConfig.from_dict(inputs["filter"])
        state["filter"].build_potential()
    return state


def _cli_setup(inputs, work_dir):
    import gainbeam
    from gainbeam import cli

    path = os.path.join(work_dir, "scenario.json")
    cfg = cli.load_scenario(path)
    _prepare(cfg, gainbeam)
    return {"configs": [cfg], "path": path}


def _scenarios_run(state, out_dir):
    from gainbeam import harness

    results = [
        harness.run_scenario(cfg, out_dir=os.path.join(out_dir, f"s{i}"))
        for i, cfg in enumerate(state["configs"])
    ]
    report = None
    if "filter" in state:
        report = harness.filter_experiment(state["filter"], out_dir=os.path.join(out_dir, "filter"))
    return {"results": results, "filter": report}


def _cli_run(state, out_dir):
    from gainbeam import cli

    return {"exit_code": cli.main(["run", state["path"], "--heatmap", "--out-dir", out_dir, "--quiet"])}


class Checks:
    """Collects failed checks and error maxima of one pass."""

    def __init__(self):
        self.failures = []
        self.errors = {"err_q": 0.0, "err_norm_rel": 0.0, "err_intensity_l2": 0.0}

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def within(self, value, tol, what):
        return self.require(bool(value <= tol), f"{what} = {value:.3e} exceeds {tol:.0e}")

    def error(self, name, value):
        self.errors[name] = max(self.errors[name], float(value))

    def metrics(self):
        return {name: ERROR_FLOOR + value for name, value in self.errors.items()}


def _rel(a, b):
    return np.abs(np.asarray(a) - b) / np.abs(b)


def _same_z(checks, z, z_ref, what):
    return checks.require(
        np.shape(z) == np.shape(z_ref) and np.max(np.abs(np.asarray(z) - z_ref)) <= Z_TOL,
        f"{what}: sample z values differ from the reference schedule",
    )


def _check_against_ode(checks, z, q, norm, ref, prefix, tol, what):
    if _same_z(checks, z, ref[prefix + "z"], what):
        checks.within(np.max(np.abs(q - ref[prefix + "q"])), tol, f"{what} sup|q - DOP853|")
        checks.within(np.max(_rel(norm, ref[prefix + "norm"])), tol, f"{what} sup rel norm vs DOP853")


def _grid_errors(checks, z, norm, mean_q, intensity, ref, prefix, what):
    """Error metrics of grid output against the split-step reference."""
    if not _same_z(checks, z, ref[prefix + "z"], what):
        return
    if not checks.require(np.shape(intensity) == ref[prefix + "intensity"].shape,
                          f"{what}: intensity shape {np.shape(intensity)}"):
        return
    dx = ref[prefix + "x"][1] - ref[prefix + "x"][0]
    diff = intensity - ref[prefix + "intensity"]
    errors = {
        "err_q": np.max(np.abs(mean_q - ref[prefix + "mean_q"])),
        "err_norm_rel": np.max(_rel(norm, ref[prefix + "norm"])),
        "err_intensity_l2": np.mean(np.sqrt((diff * diff).sum(axis=1) * dx)),
    }
    for name, value in errors.items():
        if checks.within(value, GRID_VS_REFERENCE_TOL, f"{what} {name}"):
            checks.error(name, value)


def _check_files(checks, result, names):
    present = {os.path.basename(p) for p in result.files if os.path.exists(p)}
    checks.require(len(present) == len(result.files), "a listed output file is missing")
    checks.require(set(names) <= present, f"missing outputs: {sorted(set(names) - present)}")


def _check_manifest(checks, path, expected):
    from gainbeam.outputs import read_manifest_config

    try:
        recorded = read_manifest_config(path).to_dict()
    except (OSError, ValueError) as exc:
        checks.failures.append(f"manifest {path} unreadable: {exc}")
        return
    checks.require(recorded == expected.to_dict(), f"manifest {path} does not round-trip the config")


def _scenarios_check(state, out, ref, out_dir):
    checks = Checks()
    for i, (cfg, result) in enumerate(zip(state["configs"], out["results"])):
        what = f"scenario {cfg.name}"
        checks.require(not result.aborts, f"{what} aborted: {result.aborts}")
        names = ["manifest.txt"] + [f"{p}_trajectory.csv" for p in cfg.propagators if p != "grid"]
        if "grid" in cfg.propagators:
            names.append("grid_observables.csv")
        _check_files(checks, result, names)
        _check_manifest(checks, os.path.join(out_dir, f"s{i}", "manifest.txt"), cfg)
        if "gaussian" not in result.series:
            checks.failures.append(f"{what}: no gaussian series")
            continue
        g = result.series["gaussian"]
        if "oracle" in cfg.propagators:
            report = result.reports.get(("gaussian", "oracle"))
            if checks.require(report is not None, f"{what}: no gaussian vs oracle report"):
                checks.within(report.sup_q_error, GAUSSIAN_VS_ORACLE_TOL, f"{what} gaussian vs oracle")
            o = result.series.get("oracle")
            if not checks.require(o is not None, f"{what}: no oracle series"):
                continue
            _check_against_ode(checks, o.z, o.mean_q, o.norm, ref, f"s{i}.gaussian.",
                               ORACLE_VS_ODE_TOL, f"{what} oracle")
            if _same_z(checks, g.z, o.z, f"{what} gaussian vs oracle"):
                dx = g.x[1] - g.x[0]
                diff = g.intensity - o.intensity
                checks.error("err_q", np.max(np.abs(g.mean_q - o.mean_q)))
                checks.error("err_norm_rel", np.max(_rel(g.norm, o.norm)))
                checks.error("err_intensity_l2", np.mean(np.sqrt((diff * diff).sum(axis=1) * dx)))
        else:
            _check_against_ode(checks, g.z, g.mean_q, g.norm, ref, f"s{i}.gaussian.",
                               RK4_VS_ODE_TOL, f"{what} gaussian")
        if "grid" in cfg.propagators:
            s = result.series.get("grid")
            if checks.require(s is not None, f"{what}: no grid series"):
                _grid_errors(checks, s.z, s.norm, s.mean_q, s.intensity, ref, f"s{i}.grid.", what)
    report = out["filter"]
    if report is not None:
        n = len(report.config.widths)
        checks.require(len(report.pairs) == n * (n - 1) // 2, "filter: wrong pair count")
        if _same_z(checks, report.z, ref["f.z"], "filter"):
            checks.within(np.max(np.abs(report.centers - ref["f.q"])), ORACLE_VS_ODE_TOL,
                          "filter sup|q - DOP853|")
        for name in ("filter_rates.csv", "filter_separations.csv", "manifest.txt"):
            checks.require(os.path.exists(os.path.join(out_dir, "filter", name)), f"filter: no {name}")
    return checks


def read_csv(path):
    """Header and float rows of a CSV written by gainbeam; raises ValueError if ragged."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.read().splitlines()
    if any(line.count(",") != len(header) - 1 for line in lines):
        raise ValueError(f"{path}: rows do not match the {len(header)}-column header")
    values = np.array(",".join(lines).split(","), dtype=float) if lines else np.empty(0)
    return header, values.reshape(len(lines), len(header))


def _cli_check(state, out, ref, out_dir):
    checks = Checks()
    cfg = state["configs"][0]
    if not checks.require(out["exit_code"] == 0, f"CLI exit code {out['exit_code']}"):
        return checks
    names = ("manifest.txt", "gaussian_trajectory.csv", "grid_observables.csv",
             "gaussian_heatmap.csv", "grid_heatmap.csv", "comparison_gaussian_vs_grid.csv")
    missing = [n for n in names if not os.path.exists(os.path.join(out_dir, n))]
    if not checks.require(not missing, f"CLI outputs missing: {missing}"):
        return checks
    _check_manifest(checks, os.path.join(out_dir, "manifest.txt"), cfg.with_overrides(heatmap=True))
    try:
        _, traj = read_csv(os.path.join(out_dir, "gaussian_trajectory.csv"))
        _, obs = read_csv(os.path.join(out_dir, "grid_observables.csv"))
        heatmaps = {n: read_csv(os.path.join(out_dir, f"{n}_heatmap.csv")) for n in ("gaussian", "grid")}
    except ValueError as exc:
        checks.failures.append(str(exc))
        return checks
    n_rows = len(ref["s0.grid.z"])
    dx = cfg.grid_spec().spacing
    for name, (header, table) in heatmaps.items():
        if not checks.require(table.shape == (n_rows, cfg.grid.n_points + 1) and len(header) == table.shape[1],
                              f"{name} heatmap has shape {table.shape}"):
            return checks
        checks.within(np.max(np.abs(table[:, 1:].sum(axis=1) * dx - 1.0)), 1e-9,
                      f"{name} heatmap row integral - 1")
    _check_against_ode(checks, traj[:, 0], traj[:, 1], traj[:, 5], ref, "s0.gaussian.",
                       RK4_VS_ODE_TOL, "CLI gaussian")
    grid = heatmaps["grid"][1]
    checks.require(np.array_equal(grid[:, 0], obs[:, 0]), "grid heatmap and observables disagree on z")
    _grid_errors(checks, obs[:, 0], obs[:, 1], obs[:, 2], grid[:, 1:], ref, "s0.grid.", "CLI grid")
    return checks


WORKLOADS = {
    "tanh-grid": (_scenario_setup, _scenarios_run, _scenarios_check),
    "quadratic-gaussian": (_scenario_setup, _scenarios_run, _scenarios_check),
    "heatmap-cli": (_cli_setup, _cli_run, _cli_check),
}


def grid_work(inputs: dict):
    """(steps, points) of the grid propagations one pass asks for."""
    steps, points = 0, 0
    for doc in inputs["scenarios"]:
        if "grid" in doc["propagators"]:
            steps += max(1, round(doc["z_max"] / doc["grid"]["dz"]))
            points = doc["grid"]["n_points"]
    return steps, points


def write_inputs(inputs: dict, work_dir: str):
    """inputs.json for the worker, and the first scenario as scenario.json for the CLI."""
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    with open(os.path.join(work_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs["scenarios"][0], fh)

