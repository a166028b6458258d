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
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .closed_forms import quadratic_trajectory, width_drift_rate
from .config import FilterConfig, ScenarioConfig
from .dynamics import GaussianParams, Trajectory, integrate, reconstruct_wavefunction
from .errors import ConfigError, NumericalAbortError, WidthCollapseError
from .grid import observables, propagate, renormalized_intensity, schedule
from .outputs import write_csv, write_heatmap_csv, write_manifest
from .potentials import QuadraticLinear

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

    label: str
    z: np.ndarray
    mean_q: np.ndarray
    mean_p: np.ndarray
    norm: np.ndarray
    delta_q: np.ndarray
    edge_mass: np.ndarray | None = None
    intensity: np.ndarray | None = None
    x: np.ndarray | None = None

    def restricted(self, indices) -> "ObservableSeries":
        return ObservableSeries(
            label=self.label,
            z=self.z[indices],
            mean_q=self.mean_q[indices],
            mean_p=self.mean_p[indices],
            norm=self.norm[indices],
            delta_q=self.delta_q[indices],
            edge_mass=None if self.edge_mass is None else self.edge_mass[indices],
            intensity=None if self.intensity is None else self.intensity[indices],
            x=self.x,
        )


def _gaussian_intensity(params: GaussianParams, x: np.ndarray) -> np.ndarray:
    # renormalized |psi|^2 of the ansatz in closed form (norm-independent)
    im_b = params.b.imag
    u = x - params.q
    return math.sqrt(im_b / math.pi) * np.exp(-im_b * u * u)


def _observe_trajectory(traj: Trajectory, label: str, config, with_intensity: bool):
    cols = traj.columns()
    intensity = None
    x = None
    if with_intensity:
        x = config.grid_spec().positions()
        intensity = np.array([_gaussian_intensity(g, x) for _, g in traj.samples])
    series = ObservableSeries(
        label=label,
        z=cols["z"],
        mean_q=cols["q"],
        mean_p=cols["p"],
        norm=cols["norm"],
        delta_q=cols["delta_q"],
        intensity=intensity,
        x=x,
    )
    return series, TRAJECTORY_COLUMNS, np.column_stack([cols[c] for c in TRAJECTORY_COLUMNS])


def _observe_grid(samples, label: str, config, with_intensity: bool):
    # partial samples from an aborted run may hold near-overflow amplitudes;
    # observables then degrade to inf/nan without spamming warnings
    with np.errstate(over="ignore", invalid="ignore"):
        obs = [observables(state, config.constants) for _, state in samples]
        intensity = None
        x = None
        if with_intensity:
            x = samples[0][1].spec.positions()
            intensity = np.array([renormalized_intensity(state) for _, state in samples])
    series = ObservableSeries(
        label=label,
        z=np.array([z for z, _ in samples]),
        mean_q=np.array([o.mean_q for o in obs]),
        mean_p=np.array([o.mean_p for o in obs]),
        norm=np.array([o.norm for o in obs]),
        delta_q=np.array([o.delta_q for o in obs]),
        edge_mass=np.array([o.edge_mass for o in obs]),
        intensity=intensity,
        x=x,
    )
    return series, GRID_COLUMNS, np.column_stack([getattr(series, c) for c in GRID_COLUMNS])


@dataclass
class ComparisonReport:
    """Sup metrics over the shared z samples of two observable series."""

    label_a: str
    label_b: str
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
    norm_err = np.abs(series_a.norm - series_b.norm) / denom
    if (
        series_a.intensity is not None
        and series_b.intensity is not None
        and series_a.x is not None
        and series_b.x is not None
        and series_a.x.shape == series_b.x.shape
        and np.array_equal(series_a.x, series_b.x)
    ):
        dx = series_a.x[1] - series_a.x[0]
        diff = series_a.intensity - series_b.intensity
        l2 = np.sqrt((diff * diff).sum(axis=1) * dx)
    else:
        l2 = np.full(series_a.z.shape, np.nan)
    table = np.column_stack([series_a.z, q_err, norm_err, l2])
    mean_l2 = float(np.mean(l2)) if not np.all(np.isnan(l2)) else math.nan
    return ComparisonReport(
        label_a=series_a.label,
        label_b=series_b.label,
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
    grid_samples: list | None
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
    # built from the validated dict: the closed forms read omega and gamma,
    # which a hermitian variant or an instrumented potential does not expose
    quad = QuadraticLinear(
        omega=config.potential["omega"],
        gamma=0.0 if config.potential["hermitian"] else config.potential["gamma"],
    )
    _, dz_eff, steps = _schedule(config, "oracle")
    zs = [k * dz_eff for k in steps]
    samples = quadratic_trajectory(initial, quad, zs, hbar=config.constants.hbar)
    return Trajectory(samples=samples, dz=config.gaussian.dz, potential=quad.describe())


def _run_grid(config: ScenarioConfig, initial: GaussianParams, potential):
    return propagate(
        reconstruct_wavefunction(initial, config.grid_spec()),
        potential,
        config.z_max,
        dz=config.grid.dz,
        sample_stride=config.sample_stride,
        constants=config.constants,
    )


class _Propagator(NamedTuple):
    run: Callable  # (config, initial, potential) -> samples; an abort carries .partial
    observe: Callable  # (samples, label, config, with_intensity) -> (series, header, rows)
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
    partial data is still exported.
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

    raw: dict = {}
    series: dict = {}
    tables: dict = {}
    aborts: list = []
    for name, prop in _PROPAGATORS.items():
        if name not in config.propagators:
            continue
        try:
            raw[name] = prop.run(config, initial, potential)
        except (WidthCollapseError, NumericalAbortError) as exc:
            aborts.append(PropagatorAbort(name, str(exc), exc.z))
            raw[name] = exc.partial
        series[name], header, rows = prop.observe(raw[name], name, config, with_intensity)
        tables[name] = (header, rows)

    reports: dict = {}
    aborted = {a.propagator for a in aborts}
    compared = [p for p in config.propagators if p not in aborted]
    for name_a, name_b in combinations(compared, 2):
        ia, ib = _shared_samples(config, name_a, name_b)
        if len(ia) < 2:
            raise ConfigError(
                f"propagators {name_a!r} and {name_b!r} share fewer than two z samples; "
                "align their dz and sample_stride"
            )
        reports[(name_a, name_b)] = compare(
            series[name_a].restricted(ia), series[name_b].restricted(ib)
        )

    files: list = []
    if out_dir is not None:
        files = _write_outputs(config, series, tables, reports, aborts, out_dir)
    return ScenarioResult(
        config=config,
        series=series,
        reports=reports,
        aborts=aborts,
        trajectories={n: r for n, r in raw.items() if isinstance(r, Trajectory)},
        grid_samples=raw.get("grid"),
        out_dir=out_dir,
        files=files,
    )


def _write_outputs(config, series, tables, reports, aborts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    files = []

    def emit(name):
        path = os.path.join(out_dir, name)
        files.append(path)
        return path

    for name, (header, rows) in tables.items():
        write_csv(emit(_PROPAGATORS[name].csv), header, rows)
    if config.heatmap:
        for name, s in series.items():
            if s.intensity is not None:
                write_heatmap_csv(emit(f"{name}_heatmap.csv"), s.x, s.z, s.intensity)
    for (name_a, name_b), report in reports.items():
        write_csv(
            emit(f"comparison_{name_a}_vs_{name_b}.csv"),
            ("z", "q_error", "norm_rel_error", "intensity_l2"),
            report.samples,
        )

    derived = {}
    for name in tables:
        n_steps, dz_eff, _ = _schedule(config, name)
        derived[_PROPAGATORS[name].step] = {"n_steps": n_steps, "dz_eff": dz_eff}
    if "grid" in derived:
        derived["grid"]["spacing"] = config.grid_spec().spacing
    report_data = {
        "aborts": [
            {"propagator": a.propagator, "reason": a.reason, "z_reached": a.z_reached}
            for a in aborts
        ]
    }
    for (name_a, name_b), rep in reports.items():
        report_data[f"{name_a}_vs_{name_b}"] = rep.to_dict()
    write_manifest(emit("manifest.txt"), config, __version__, derived, report_data)
    return files


@dataclass
class FilterPair:
    index_a: int
    index_b: int
    b0_a: complex
    b0_b: complex
    predicted_rate: float
    measured_rates: dict
    resolvability_z: float | None


@dataclass
class FilterReport:
    config: FilterConfig
    z: np.ndarray
    centers: np.ndarray  # (n_beams, n_samples)
    widths: np.ndarray  # (n_beams, n_samples) current delta_q
    pairs: list


def filter_experiment(config: FilterConfig, out_dir: str | None = None) -> FilterReport:
    """Separate co-located beams by width-dependent drift.

    Every beam starts from the same (q0, p0) and is propagated with the
    Gaussian dynamics. For each pair the report holds the predicted
    short-distance separation rate slope * (1/Im b_a - 1/Im b_b) -- where
    slope is the gain derivative at q0 -- the measured rate
    |q_a(z) - q_b(z)| / z at each probe distance, and the first z at
    which the separation exceeds the sum of the two current beam widths.
    """
    potential = config.build_potential()
    slope = potential.sample(config.q0).dv_imag

    trajectories = []
    for b0 in config.widths:
        initial = GaussianParams(q=config.q0, p=config.p0, b=b0)
        trajectories.append(
            integrate(
                initial,
                potential,
                config.z_max,
                dz=config.dz,
                sample_stride=1,
                constants=config.constants,
            )
        )
    zs = trajectories[0].zs
    centers = np.array([t.columns()["q"] for t in trajectories])
    beam_widths = np.array([t.columns()["delta_q"] for t in trajectories])

    probe_indices = {}
    for probe in config.probe_z:
        idx = int(round(probe / trajectories[0].dz))
        if idx >= len(zs) or abs(zs[idx] - probe) > 1e-9:
            raise ConfigError(
                f"probe_z {probe} does not land on the sample grid (dz={trajectories[0].dz})"
            )
        probe_indices[probe] = idx

    pairs = []
    for i, j in combinations(range(len(config.widths)), 2):
        separation = np.abs(centers[i] - centers[j])
        predicted = abs(
            width_drift_rate(config.widths[i], slope)
            - width_drift_rate(config.widths[j], slope)
        )
        measured = {
            probe: float(separation[idx] / zs[idx]) for probe, idx in probe_indices.items()
        }
        resolvable = separation > (beam_widths[i] + beam_widths[j])
        resolvable[0] = False
        hit = np.flatnonzero(resolvable)
        pairs.append(
            FilterPair(
                index_a=i,
                index_b=j,
                b0_a=config.widths[i],
                b0_b=config.widths[j],
                predicted_rate=predicted,
                measured_rates=measured,
                resolvability_z=float(zs[hit[0]]) if len(hit) else None,
            )
        )

    report = FilterReport(
        config=config, z=zs, centers=centers, widths=beam_widths, pairs=pairs
    )
    if out_dir is not None:
        _write_filter_outputs(report, out_dir)
    return report


def _write_filter_outputs(report: FilterReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    config = report.config
    rows = []
    for pair in report.pairs:
        for probe, rate in sorted(pair.measured_rates.items()):
            rows.append(
                (
                    pair.index_a,
                    pair.index_b,
                    pair.b0_a.imag,
                    pair.b0_b.imag,
                    probe,
                    pair.predicted_rate,
                    rate,
                    math.nan if pair.resolvability_z is None else pair.resolvability_z,
                )
            )
    write_csv(
        os.path.join(out_dir, "filter_rates.csv"),
        (
            "beam_a", "beam_b", "im_b0_a", "im_b0_b", "probe_z",
            "predicted_rate", "measured_rate", "resolvability_z",
        ),
        rows,
    )
    header = ["z"] + [
        f"separation_{p.index_a}_{p.index_b}" for p in report.pairs
    ]
    table = np.column_stack(
        [report.z]
        + [np.abs(report.centers[p.index_a] - report.centers[p.index_b]) for p in report.pairs]
    )
    write_csv(os.path.join(out_dir, "filter_separations.csv"), header, table)
    write_manifest(
        os.path.join(out_dir, "manifest.txt"), config.to_dict(), __version__, None, None
    )
