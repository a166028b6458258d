"""Scenario runner: propagate, export, and cross-compare.

A scenario selects up to three propagators for the same potential and
initial beam:

* ``gaussian`` -- RK4 on the five Gaussian parameters;
* ``grid``     -- split-operator solution of the full wave equation;
* ``oracle``   -- closed forms (quadratic_linear potentials only).

Each propagator yields an observable series on its sampled z values;
pairs of propagators are compared on the z values they share. Outputs are
CSV files plus a manifest that can reconstruct the configuration exactly.
"""

import math
import os
from dataclasses import asdict, dataclass, replace
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .closed_forms import quadratic_trajectory, width_drift_rate
from .config import FilterConfig, ScenarioConfig, build_potential
from .dynamics import GaussianParams, Trajectory, integrate, reconstruct_wavefunction
from .errors import ConfigError, NumericalAbortError
# bench/tracing.py wraps observables and renormalized_intensity by name here
from .grid import GridRun, observables, propagate, renormalized_intensity, schedule  # noqa: F401
from .outputs import write_csv, write_heatmap_csv, write_manifest

__all__ = [
    "ObservableSeries",
    "ComparisonReport",
    "PropagatorAbort",
    "ScenarioResult",
    "run_scenario",
    "compare",
    "FilterPair",
    "FilterReport",
    "filter_experiment",
]

NORM_FLOOR_FACTOR = 1e-12

TRAJECTORY_COLUMNS = ("z", "q", "p", "re_b", "im_b", "norm", "alpha", "delta_q", "delta_p")
GRID_COLUMNS = ("z", "norm", "mean_q", "mean_p", "delta_q", "edge_mass")


@dataclass
class ObservableSeries:
    """Beam observables on a set of z samples, from any propagator."""

    z: np.ndarray
    mean_q: np.ndarray
    norm: np.ndarray
    intensity: np.ndarray | None = None
    x: np.ndarray | None = None

    def restricted(self, indices) -> "ObservableSeries":
        # indices are increasing and distinct, so all of them is the series
        # itself, whose arrays are then read in place rather than copied
        if len(indices) == len(self.z):
            return self
        return replace(self, **{
            name: value[indices] for name, value in vars(self).items()
            if name != "x" and value is not None
        })


def _physical_columns(traj: Trajectory, hbar: float) -> dict:
    """``traj.columns()`` with the widths delta_q and delta_p times sqrt(hbar), as measured."""
    cols = traj.columns()
    scale = math.sqrt(hbar)
    for name in ("delta_q", "delta_p"):
        cols[name] = scale * cols[name]
    return cols


def _observe_trajectory(traj: Trajectory, config, with_intensity: bool):
    hbar = config.constants.hbar
    cols = _physical_columns(traj, hbar)
    intensity = x = None
    if with_intensity:
        x = config.grid_spec().positions()
        # renormalized |psi|^2 of the ansatz in closed form (norm-independent),
        # sqrt(Im B / (pi hbar)) exp(-Im B (x - q)^2 / hbar), one row per sample
        im_b, u = traj.im_b[:, None], x - traj.q[:, None]
        # a grid far wider than the beam overflows the exponent to -inf: intensity 0
        with np.errstate(over="ignore"):
            intensity = -im_b * u * u / hbar
            np.exp(intensity, out=intensity)
            intensity *= np.sqrt(im_b / (math.pi * hbar))
    series = ObservableSeries(cols["z"], cols["q"], cols["norm"], intensity, x)
    return series, TRAJECTORY_COLUMNS, np.column_stack([cols[c] for c in TRAJECTORY_COLUMNS])


def _observe_grid(run: GridRun, config, with_intensity: bool):
    series = ObservableSeries(
        run.z, run.mean_q, run.norm,
        intensity=run.intensity if with_intensity else None,
        x=run.final.spec.positions() if with_intensity else None,
    )
    return series, GRID_COLUMNS, np.column_stack([getattr(run, name) for name in GRID_COLUMNS])


@dataclass
class ComparisonReport:
    """Sup metrics over the shared z samples of two observable series."""

    sup_q_error: float
    sup_norm_rel_error: float
    renormalized_intensity_l2: float
    samples: np.ndarray  # columns: z, q_error, norm_rel_error, intensity_l2

    def to_dict(self) -> dict:
        return {
            "sup_q_error": self.sup_q_error,
            "sup_norm_rel_error": self.sup_norm_rel_error,
            "renormalized_intensity_l2": self.renormalized_intensity_l2,
        }


def compare(series_a: ObservableSeries, series_b: ObservableSeries) -> ComparisonReport:
    """Quantify the difference between two propagations of the same beam.

    Requires identical z samples. The norm error is relative to the
    second series, with the denominator floored at 1e-12 times its
    largest norm; the intensity metric is the per-sample L2 norm of the
    renormalized-intensity difference, averaged over samples (NaN when
    either series carries no intensity data).
    """
    if series_a.z.shape != series_b.z.shape or not np.allclose(
        series_a.z, series_b.z, rtol=0.0, atol=1e-12
    ):
        raise ValueError("mismatched sampling: series must share their z values")
    q_err = np.abs(series_a.mean_q - series_b.mean_q)
    floor = NORM_FLOOR_FACTOR * float(np.max(np.abs(series_b.norm)))
    denom = np.maximum(np.abs(series_b.norm), max(floor, np.finfo(float).tiny))
    # norms near overflow give an inf or nan error, which the report shows
    with np.errstate(over="ignore", invalid="ignore"):
        norm_err = np.abs(series_a.norm - series_b.norm) / denom
    if (
        series_a.intensity is not None
        and series_b.intensity is not None
        and series_a.x is not None
        and series_b.x is not None
        and np.array_equal(series_a.x, series_b.x)
    ):
        dx = series_a.x[1] - series_a.x[0]
        diff = series_a.intensity - series_b.intensity
        diff *= diff
        l2 = np.sqrt(diff.sum(axis=1) * dx)
    else:
        l2 = np.full(series_a.z.shape, np.nan)
    table = np.column_stack([series_a.z, q_err, norm_err, l2])
    mean_l2 = float(np.mean(l2)) if not np.all(np.isnan(l2)) else math.nan
    return ComparisonReport(
        sup_q_error=float(q_err.max()),
        sup_norm_rel_error=float(norm_err.max()),
        renormalized_intensity_l2=mean_l2,
        samples=table,
    )


@dataclass
class PropagatorAbort:
    propagator: str
    reason: str
    z_reached: float


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    series: dict
    reports: dict
    aborts: list
    trajectories: dict
    out_dir: str | None
    files: list


def _run_gaussian(config: ScenarioConfig, initial: GaussianParams, potential):
    return integrate(
        initial,
        potential,
        config.z_max,
        dz=config.gaussian.dz,
        sample_stride=config.sample_stride,
        constants=config.constants,
    )


def _run_oracle(config: ScenarioConfig, initial: GaussianParams, potential):
    # built from the validated dict, not taken from config.build_potential():
    # the closed forms read omega and gamma, which an instrumented potential
    # need not expose
    quad = build_potential(config.potential)
    _, dz_eff, steps = _schedule(config, "oracle")
    zs = [k * dz_eff for k in steps]
    traj = quadratic_trajectory(initial, quad, zs, hbar=config.constants.hbar)
    traj.dz = dz_eff
    return traj


def _run_grid(config: ScenarioConfig, initial: GaussianParams, potential):
    state = reconstruct_wavefunction(initial, config.grid_spec(), constants=config.constants)
    return propagate(
        state, potential, config.z_max,
        dz=config.grid.dz, sample_stride=config.sample_stride, constants=config.constants,
    )


class _Propagator(NamedTuple):
    run: Callable  # (config, initial, potential) -> Trajectory or GridRun; aborts carry .partial
    observe: Callable  # (record, config, with_intensity) -> (series, header, rows)
    step: str  # config section whose dz sets the sample schedule
    csv: str


# in run order; also the order of the output files
_PROPAGATORS = {
    "gaussian": _Propagator(
        _run_gaussian, _observe_trajectory, "gaussian", "gaussian_trajectory.csv"
    ),
    "oracle": _Propagator(_run_oracle, _observe_trajectory, "gaussian", "oracle_trajectory.csv"),
    "grid": _Propagator(_run_grid, _observe_grid, "grid", "grid_observables.csv"),
}


def _schedule(config: ScenarioConfig, name: str):
    dz = getattr(config, _PROPAGATORS[name].step).dz
    return schedule(config.z_max, dz, config.sample_stride)


def _shared_samples(config: ScenarioConfig, name_a: str, name_b: str):
    """Indices of the samples of two propagators that sit at the same z.

    Sample k of a run with n steps sits at z = k z_max / n, so two samples
    coincide exactly when k_a n_b = k_b n_a.
    """
    n_a, _, k_a = _schedule(config, name_a)
    n_b, _, k_b = _schedule(config, name_b)
    index_b = {k * n_a: j for j, k in enumerate(k_b)}
    ia = [i for i, k in enumerate(k_a) if k * n_b in index_b]
    return ia, [index_b[k_a[i] * n_b] for i in ia]


def run_scenario(config: ScenarioConfig, out_dir: str | None = None) -> ScenarioResult:
    """Run every propagator selected by the config; write outputs if out_dir given.

    Width collapse and numerical overflow in one propagator do not fail
    the run: they are recorded as aborts (with the z reached) and any
    partial data is still exported. A propagator's ValueError (say, a
    potential non-finite on the grid) is raised as ConfigError.
    """
    potential = config.build_potential()
    initial = GaussianParams(
        q=config.initial.q0,
        p=config.initial.p0,
        b=config.initial.b0,
        norm=config.initial.norm0,
        alpha=config.initial.alpha0,
    )
    with_intensity = config.heatmap or len(config.propagators) >= 2

    trajectories: dict = {}
    series: dict = {}
    tables: dict = {}
    aborts: list = []
    for name, prop in _PROPAGATORS.items():
        if name not in config.propagators:
            continue
        try:
            record = prop.run(config, initial, potential)
        except NumericalAbortError as exc:
            aborts.append(PropagatorAbort(name, str(exc), exc.z))
            record = exc.partial
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        series[name], header, rows = prop.observe(record, config, with_intensity)
        tables[name] = (header, rows)
        if isinstance(record, Trajectory):
            trajectories[name] = record

    reports: dict = {}
    aborted = {a.propagator for a in aborts}
    compared = [p for p in config.propagators if p not in aborted]
    for name_a, name_b in combinations(compared, 2):
        # every schedule samples step 0 and step n, so z = 0 and z_max are always shared
        ia, ib = _shared_samples(config, name_a, name_b)
        reports[(name_a, name_b)] = compare(
            series[name_a].restricted(ia), series[name_b].restricted(ib)
        )

    files: list = []
    if out_dir is not None:
        outputs = [(_PROPAGATORS[name].csv, write_csv, table) for name, table in tables.items()]
        if config.heatmap:
            outputs += [
                (f"{name}_heatmap.csv", write_heatmap_csv, (s.x, s.z, s.intensity))
                for name, s in series.items() if s.intensity is not None
            ]
        outputs += [
            (f"comparison_{name_a}_vs_{name_b}.csv", write_csv,
             (("z", "q_error", "norm_rel_error", "intensity_l2"), rep.samples))
            for (name_a, name_b), rep in reports.items()
        ]
        derived = {}
        for name in tables:
            n_steps, dz_eff, _ = _schedule(config, name)
            derived[_PROPAGATORS[name].step] = {"n_steps": n_steps, "dz_eff": dz_eff}
        if "grid" in derived:
            derived["grid"]["spacing"] = config.grid_spec().spacing
        report_data = {"aborts": [asdict(a) for a in aborts]}
        for (name_a, name_b), rep in reports.items():
            report_data[f"{name_a}_vs_{name_b}"] = rep.to_dict()
        files = _write_run(out_dir, config, outputs, derived, report_data)
    return ScenarioResult(
        config=config,
        series=series,
        reports=reports,
        aborts=aborts,
        trajectories=trajectories,
        out_dir=out_dir,
        files=files,
    )


def _write_run(out_dir, config, outputs, derived=None, report=None):
    """Write each (file name, writer, args) of outputs in order, then manifest.txt.

    The writers take the path first; returns the paths written, manifest last.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for name, writer, args in outputs:
        files.append(os.path.join(out_dir, name))
        writer(files[-1], *args)
    files.append(os.path.join(out_dir, "manifest.txt"))
    write_manifest(files[-1], config, __version__, derived, report)
    return files


@dataclass
class FilterPair:
    index_a: int
    index_b: int
    predicted_rate: float
    measured_rates: dict
    resolvability_z: float | None


@dataclass
class FilterReport:
    config: FilterConfig
    z: np.ndarray
    centers: np.ndarray  # (n_beams, n_samples)
    widths: np.ndarray  # (n_beams, n_samples) physical delta_q, sqrt(hbar / (2 Im B))
    pairs: list


def filter_experiment(config: FilterConfig, out_dir: str | None = None) -> FilterReport:
    """Separate co-located beams by width-dependent drift.

    Every beam starts from the same (q0, p0) and is propagated with the
    Gaussian dynamics. For each pair the report holds the predicted
    short-distance separation rate slope * (1/Im b_a - 1/Im b_b) -- where
    slope is the gain derivative at q0 -- the measured rate
    |q_a(z) - q_b(z)| / z at each probe distance, and the first z at
    which the separation exceeds the summed physical widths sqrt(hbar / (2 Im B)).
    """
    potential = config.build_potential()
    slope = potential.sample(config.q0).dv_imag

    trajectories = [
        integrate(
            GaussianParams(q=config.q0, p=config.p0, b=b0), potential, config.z_max,
            dz=config.dz, sample_stride=1, constants=config.constants,
        )
        for b0 in config.widths
    ]
    zs, dz = trajectories[0].z, trajectories[0].dz
    centers = np.array([t.q for t in trajectories])
    hbar = config.constants.hbar
    beam_widths = np.array([_physical_columns(t, hbar)["delta_q"] for t in trajectories])
    del trajectories  # freed before the pair arrays, which take as much memory again

    # every pair (a[k], b[k]) at once, in the order of itertools.combinations
    b0 = np.array(config.widths)
    a, b = np.triu_indices(len(b0), 1)
    separations = np.abs(centers[a] - centers[b])
    drift = width_drift_rate(b0, slope)
    predicted = np.abs(drift[a] - drift[b])
    # FilterConfig has checked that every probe lands on a step
    probes = sorted(set(config.probe_z))
    steps = [round(probe / dz) for probe in probes]
    rates = separations[:, steps] / zs[steps]
    # z = 0 is left out: the beams start at one point
    resolved = separations[:, 1:] > beam_widths[a, 1:] + beam_widths[b, 1:]
    first_z = np.where(resolved.any(axis=1), zs[1:][resolved.argmax(axis=1)], math.nan)
    pairs = [
        FilterPair(i, j, rate, dict(zip(probes, measured)), None if math.isnan(z) else z)
        for i, j, rate, measured, z in zip(
            a.tolist(), b.tolist(), predicted.tolist(), rates.tolist(), first_z.tolist()
        )
    ]
    if out_dir is not None:
        # a row per pair and probe
        n = len(probes)
        rows = np.column_stack([
            np.repeat(np.column_stack([a, b, b0.imag[a], b0.imag[b]]), n, axis=0),
            np.tile(probes, len(a)), np.repeat(predicted, n), rates.ravel(), np.repeat(first_z, n),
        ])
        rate_header = (
            "beam_a", "beam_b", "im_b0_a", "im_b0_b", "probe_z",
            "predicted_rate", "measured_rate", "resolvability_z",
        )
        separation_header = ["z"] + [f"separation_{i}_{j}" for i, j in zip(a, b)]
        # no derived or report section: a filter manifest holds the config only
        _write_run(out_dir, config, [
            ("filter_rates.csv", write_csv, (rate_header, rows)),
            ("filter_separations.csv", write_csv,
             (separation_header, np.column_stack([zs, separations.T]))),
        ])
    return FilterReport(config=config, z=zs, centers=centers, widths=beam_widths, pairs=pairs)
