"""Seeded inputs of the three workloads, and their error references.

The program under test only ever sees the documents built here: scenario
and filter configurations in the ``gainbeam`` JSON schema. Every seeded
value stays inside a range where all propagators run without aborts.

Why these workloads:

* ``tanh-grid`` -- fig2a-style run (gaussian + grid, tanh potential,
  4096 points, dz=1e-3, z=30). The split-operator grid does about 80% of
  the work and the Gaussian RK4 about 10%: splitting and fused-step
  changes show here.
* ``quadratic-gaussian`` -- three fig7-style gaussian + oracle runs and a
  four-width filter experiment (dz=1e-4). No FFT and no grid: RK4, the
  ``Potential.sample`` calls behind it and the pure-Python Simpson
  quadrature of the oracle do the work. Adaptive-step, array-potential
  and batching changes show here; grid changes must not.
* ``heatmap-cli`` -- the CLI on a generated JSON file with ``--heatmap``
  (z=3, sample_stride=10): light stepping, heavy sampling and writing of
  two 301 x 4096 heatmaps. A grid or sampling change that costs the
  write path shows here.
"""

import random

import numpy as np

import reference

TANH = {"kind": "pt_tanh_gaussian", "gamma": 1.0, "omega": 1.0, "eta": 5.0, "hermitian": False}
QUADRATIC = {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0, "hermitian": False}
# (q0, p0, Im b0) of the fig7 top, mid and bottom beams
FIG7 = ((0.0, -1.0, 0.5), (0.0, -1.0, 2.0), (-4.0, 0.0, 1.0))
FILTER_WIDTHS = (0.5, 1.0, 2.0, 4.0)


def _tanh_beam(rng) -> dict:
    # The Strang error reported for these runs moves by ~15% (quartile
    # spread) across seeds at +-0.1 around q0=1, b0=i, and by ~5% at
    # +-0.025; +-0.015 keeps that seed-to-seed spread well inside the
    # error metrics' bound.
    return {
        "q0": rng.uniform(0.985, 1.015),
        "p0": rng.uniform(-0.015, 0.015),
        "b0": [rng.uniform(-0.015, 0.015), rng.uniform(0.985, 1.015)],
    }


def _scenario(name, potential, initial, propagators, z_max, n_points, stride, half_width):
    return {
        "schema_version": 1,
        "name": name,
        "potential": dict(potential),
        "initial": initial,
        "propagators": list(propagators),
        "z_max": z_max,
        "gaussian": {"dz": 1e-3},
        "grid": {"half_width": half_width, "n_points": n_points, "dz": 1e-3},
        "sample_stride": stride,
        "heatmap": False,
    }


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """Configuration documents of one workload, drawn from ``seed``.

    ``small`` shrinks distances and grids for a quick smoke pass; the
    physics and the checks stay the same.
    """
    rng = random.Random(f"{workload}/{seed}")
    n_points = 256 if small else 4096
    if workload == "tanh-grid":
        z_max, stride = (0.3, 10) if small else (30.0, 100)
        scenario = _scenario(f"tanh-grid-{seed}", TANH, _tanh_beam(rng),
                             ("gaussian", "grid"), z_max, n_points, stride, 40.0)
        return {"workload": workload, "scenarios": [scenario]}
    if workload == "heatmap-cli":
        z_max = 0.1 if small else 3.0
        scenario = _scenario(f"heatmap-cli-{seed}", TANH, _tanh_beam(rng),
                             ("gaussian", "grid"), z_max, n_points, 10, 40.0)
        return {"workload": workload, "scenarios": [scenario]}
    if workload != "quadratic-gaussian":
        raise ValueError(f"unknown workload {workload!r}")
    scenarios = []
    for i, (q0, p0, im_b0) in enumerate(FIG7):
        initial = {
            "q0": q0 + rng.uniform(-0.1, 0.1),
            "p0": p0 + rng.uniform(-0.1, 0.1),
            "b0": [rng.uniform(-0.05, 0.05), im_b0 * rng.uniform(0.9, 1.1)],
        }
        z_max, stride = (1.0, 10) if small else (30.0, 100)
        scenarios.append(_scenario(f"quadratic-{i}-{seed}", QUADRATIC, initial,
                                   ("gaussian", "oracle"), z_max, n_points, stride, 20.0))
    filt = {
        "schema_version": 1,
        "name": f"filter-{seed}",
        "widths": [[0.0, w * rng.uniform(0.9, 1.1)] for w in FILTER_WIDTHS],
        "q0": rng.uniform(-0.1, 0.1),
        "p0": rng.uniform(-0.1, 0.1),
        "potential": dict(QUADRATIC),
        "z_max": 0.05 if small else 1.0,
        "dz": 1e-4,
        "probe_z": [1e-3, 1e-2],
    }
    return {"workload": workload, "scenarios": scenarios, "filter": filt}


def sample_count(z_max: float, dz: float, stride: int) -> int:
    """Sample intervals of a run whose stride divides its step count."""
    n = round(z_max / dz)
    if n % stride:
        raise ValueError("generated inputs keep sample_stride a divisor of the step count")
    return n // stride


def build_reference(inputs: dict) -> dict:
    """Error references of a workload, keyed ``s<i>.<field>`` and ``f.<field>``."""
    ref = {}
    for i, sc in enumerate(inputs["scenarios"]):
        n = sample_count(sc["z_max"], sc["gaussian"]["dz"], sc["sample_stride"])
        zs = np.linspace(0.0, sc["z_max"], n + 1)
        for key, arr in reference.gaussian_reference(sc["potential"], sc["initial"], zs).items():
            ref[f"s{i}.gaussian.{key}"] = arr
        if "grid" in sc["propagators"]:
            grid = sc["grid"]
            n = sample_count(sc["z_max"], grid["dz"], sc["sample_stride"])
            g = reference.grid_reference(sc["potential"], sc["initial"], grid["half_width"],
                                         grid["n_points"], sc["z_max"], n)
            for key, arr in g.items():
                ref[f"s{i}.grid.{key}"] = arr
    filt = inputs.get("filter")
    if filt is not None:
        n = sample_count(filt["z_max"], filt["dz"], 1)
        zs = np.linspace(0.0, filt["z_max"], n + 1)
        beams = [
            reference.gaussian_reference(
                filt["potential"], {"q0": filt["q0"], "p0": filt["p0"], "b0": w}, zs)
            for w in filt["widths"]
        ]
        ref["f.z"] = zs
        ref["f.q"] = np.array([b["q"] for b in beams])
    return ref


def reference_path(inputs: dict) -> str:
    return reference.cached(inputs["workload"], inputs, lambda: build_reference(inputs))
