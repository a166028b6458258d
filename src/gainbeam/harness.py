"""Scenario runner: propagate, export, and cross-compare.

A scenario selects up to three propagators for the same potential and
initial beam:

* ``gaussian`` -- RK4 on the five Gaussian parameters;
* ``grid``     -- split-operator solution of the full wave equation;
* ``oracle``   -- closed forms (quadratic_linear potentials only).

Each propagator returns a record of its sampled z values, a Trajectory
or a GridRun, both read one way: ``columns(hbar)`` and ``intensity_rows(x,
hbar, rows)``. Pairs of propagators are compared on the z values they
share. Outputs are CSV files plus a manifest that can reconstruct the
configuration exactly.
"""

import math
import os
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, combinations
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .closed_forms import quadratic_trajectory, width_drift_rate
from .config import FilterConfig, ScenarioConfig, build_potential
from .dynamics import GaussianParams, integrate, reconstruct_wavefunction
from .errors import ConfigError, NumericalAbortError
# bench/tracing.py wraps observables and renormalized_intensity by name here
from .grid import observables, propagate, renormalized_intensity, schedule  # noqa: F401
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

# bench/layers.py tabulates Trajectory.columns() in this order
TRAJECTORY_COLUMNS = ("z", "q", "p", "re_b", "im_b", "norm", "alpha", "delta_q", "delta_p")


# rows of an intensity formed at once where they are read: 512 KiB at 4096 points
_BLOCK_ROWS = 16


def _blocks(n: int):
    """Slices that cut n rows into blocks of ``_BLOCK_ROWS``."""
    return (slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS))


class ObservableSeries:
    """Beam observables on a set of z samples, from any propagator.

    ``intensity`` is a row source: a function from a row selection (a slice
    or an index array) to those rows of the renormalized intensity on the
    positions ``x``, or None: a record's ``intensity_rows`` at x. The
    ``intensity`` attribute forms all rows on each read.
    """

    def __init__(self, z, mean_q, norm, intensity: Callable | None = None, x=None):
        self.z, self.mean_q, self.norm, self.x = z, mean_q, norm, x
        self.rows = intensity

    @property
    def intensity(self) -> np.ndarray | None:
        return None if self.rows is None else self.rows(slice(None))

    def restricted(self, indices) -> "ObservableSeries":
        # indices are increasing and distinct, so all of them is the series itself
        if len(indices) == len(self.z):
            return self
        indices = np.asarray(indices, dtype=np.intp)
        return ObservableSeries(
            self.z[indices], self.mean_q[indices], self.norm[indices],
            None if self.rows is None else lambda sel: self.rows(indices[sel]), self.x,
        )


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
    either series carries no intensity data). The rows are formed and
    differenced ``_BLOCK_ROWS`` at a time, and each row's sum is the one
    the whole matrices would give.
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
    l2 = np.full(series_a.z.shape, np.nan)
    if (
        series_a.rows is not None
        and series_b.rows is not None
        and series_a.x is not None
        and series_b.x is not None
        and np.array_equal(series_a.x, series_b.x)
    ):
        for block in _blocks(len(l2)):
            diff = series_a.rows(block) - series_b.rows(block)
            diff *= diff
            l2[block] = diff.sum(axis=1)
        l2 = np.sqrt(l2 * (series_a.x[1] - series_a.x[0]))
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
    records: dict  # propagator name -> Trajectory or GridRun, an aborted run's partial too
    out_dir: str | None
    files: list


def _with_intensity(config: ScenarioConfig) -> bool:
    """Whether a run reads intensity rows: for a heatmap or a comparison."""
    return config.heatmap or len(config.propagators) >= 2


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
        state, potential, config.z_max, dz=config.grid.dz, sample_stride=config.sample_stride,
        constants=config.constants, intensity=_with_intensity(config),
    )


class _Propagator(NamedTuple):
    run: Callable  # (config, initial, potential) -> Trajectory or GridRun; aborts carry .partial
    step: str  # config section whose dz sets the sample schedule
    csv: str


# in run order; also the order of the output files
_PROPAGATORS = {
    "gaussian": _Propagator(_run_gaussian, "gaussian", "gaussian_trajectory.csv"),
    "oracle": _Propagator(_run_oracle, "gaussian", "oracle_trajectory.csv"),
    "grid": _Propagator(_run_grid, "grid", "grid_observables.csv"),
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
    beam, hbar = config.initial, config.constants.hbar
    initial = GaussianParams(beam.q0, beam.p0, beam.b0, beam.norm0, beam.alpha0)

    records: dict = {}
    aborts: list = []
    for name, prop in _PROPAGATORS.items():
        if name not in config.propagators:
            continue
        try:
            records[name] = prop.run(config, initial, potential)
        except NumericalAbortError as exc:
            aborts.append(PropagatorAbort(name, str(exc), exc.z))
            records[name] = exc.partial
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    x = config.grid_spec().positions() if _with_intensity(config) else None
    series = {
        name: ObservableSeries(
            r.z, r.mean_q, r.norm, None if x is None else partial(r.intensity_rows, x, hbar), x
        )
        for name, r in records.items()
    }

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
        outputs = []
        for name, record in records.items():
            cols = record.columns(hbar)
            table = np.column_stack([*cols.values()])
            outputs.append((_PROPAGATORS[name].csv, write_csv, (list(cols), table)))
        if config.heatmap:
            outputs += [
                (f"{name}_heatmap.csv", write_heatmap_csv,
                 (s.x, s.z, chain.from_iterable(map(s.rows, _blocks(len(s.z))))))
                for name, s in series.items()
            ]
        outputs += [
            (f"comparison_{name_a}_vs_{name_b}.csv", write_csv,
             (("z", "q_error", "norm_rel_error", "intensity_l2"), rep.samples))
            for (name_a, name_b), rep in reports.items()
        ]
        derived = {}
        for name in records:
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
        records=records,
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
    beam_widths = np.array([t.columns(config.constants.hbar)["delta_q"] for t in trajectories])
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
