"""Layer microbenchmarks and the baseline table of ROADMAP aim 1.

    python3 bench/layers.py [--write bench/results/BENCH_<name>.json]

Times, single-threaded and in this one process:

* the end-to-end rows of the baseline table: the tier-1 test suite,
  ``run_scenario("fig2a")`` with its grid share, ``integrate`` on the
  tanh potential (z=30, dz=1e-3) with its ``sample`` calls,
  ``run_scenario("fig7-top")`` with its ``quadratic_trajectory`` share,
  and one 4096-point ``np.fft.fft``;
* the five layers: ``Potential.sample``/``value``, one Gaussian RHS
  evaluation (``dynamics.rhs``), one split-operator step (``propagate``
  over n steps divided by n), ``observables``, and CSV/manifest writing.

Each timing is the median of several repeats. ``--write`` stores the
table with machine information (CPU, nproc, Python, numpy) as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import gainbeam  # noqa: E402
import tracing  # noqa: E402
from gainbeam import dynamics, grid, harness, outputs  # noqa: E402


def timed(fn, repeats: int = 5) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median microseconds per call of ``fn`` over batches of ``calls`` calls."""
    def batch():
        for _ in range(calls):
            fn()
    return 1e6 * timed(batch, repeats) / calls


def scenario_row(lib, name, layer_span) -> tuple:
    """Untraced time of one built-in scenario, with a traced run's time in one layer."""
    total = timed(lambda: harness.run_scenario(lib[name]), 1)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        tracer.active = True
        harness.run_scenario(lib[name])
        tracer.active = False
    layer = tracer.summary()[layer_span]["total"]
    return (f"run_scenario({name})", total, "s", f"{layer_span} {layer:.2f} s (traced run)")


def baseline_rows() -> list:
    lib = gainbeam.scenario_library()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    summary = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    rows = [("tier-1 suite", time.perf_counter() - start, "s", summary)]

    rows.append(scenario_row(lib, "fig2a", "grid.propagate"))

    fig2a = lib["fig2a"]
    potential = fig2a.build_potential()
    initial = gainbeam.GaussianParams(q=fig2a.initial.q0, p=fig2a.initial.p0, b=fig2a.initial.b0)
    integrate_s = timed(lambda: dynamics.integrate(initial, potential, 30.0, dz=1e-3), 3)
    sample_us = per_call(lambda: potential.sample(1.0), 20000)
    rows.append(("integrate, tanh, z=30, dz=1e-3", integrate_s, "s",
                 f"120000 sample() calls at {sample_us:.2f} us each"))

    rows.append(scenario_row(lib, "fig7-top", "closed_forms.quadratic_trajectory"))

    psi = np.exp(-np.linspace(-5, 5, 4096) ** 2).astype(complex)
    rows.append(("np.fft.fft, 4096 points", per_call(lambda: np.fft.fft(psi), 2000), "us", ""))
    return rows


def layer_rows() -> list:
    lib = gainbeam.scenario_library()
    tanh = lib["fig2a"].build_potential()
    quad = lib["fig7-top"].build_potential()
    spec = lib["fig2a"].grid_spec()
    x = spec.positions()
    initial = gainbeam.GaussianParams(q=1.0, p=0.0, b=1j)
    sample = tanh.sample(1.0)
    state = dynamics.reconstruct_wavefunction(initial, spec)
    n_steps = 2000
    step_s = timed(lambda: grid.propagate(state, tanh, n_steps * 1e-3, dz=1e-3,
                                          sample_stride=n_steps), 3)
    traj = dynamics.integrate(initial, tanh, 30.0, dz=1e-3, sample_stride=100)
    columns = traj.columns()
    table = np.column_stack([columns[name] for name in harness.TRAJECTORY_COLUMNS])
    heat = np.tile(grid.renormalized_intensity(state), (len(traj.samples), 1))
    zs = traj.zs

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        csv_ms = 1e3 * timed(lambda: outputs.write_csv(
            os.path.join(tmp, "t.csv"), harness.TRAJECTORY_COLUMNS, table))
        heat_s = timed(lambda: outputs.write_heatmap_csv(os.path.join(tmp, "h.csv"), x, zs, heat), 3)
        manifest_ms = 1e3 * timed(lambda: outputs.write_manifest(
            os.path.join(tmp, "manifest.txt"), lib["fig2a"], gainbeam.__version__, {}, {}))

    return [
        ("Potential.sample, pt_tanh_gaussian", per_call(lambda: tanh.sample(1.0), 20000), "us", ""),
        ("Potential.sample, quadratic_linear", per_call(lambda: quad.sample(1.0), 20000), "us", ""),
        ("Potential.value, 4096 points", per_call(lambda: tanh.value(x), 500), "us", ""),
        ("dynamics.rhs, one evaluation", per_call(lambda: dynamics.rhs(initial, sample), 20000), "us", ""),
        ("one split-operator step, 4096 points", 1e6 * step_s / n_steps, "us",
         f"propagate over {n_steps} steps / {n_steps}"),
        ("grid.observables, 4096 points", per_call(lambda: grid.observables(state), 500), "us", ""),
        ("write_csv, 301 x 9 trajectory", csv_ms, "ms", ""),
        ("write_heatmap_csv, 301 x 4096", heat_s, "s", ""),
        ("write_manifest", manifest_ms, "ms", ""),
    ]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", default=None, help="write the table as JSON to this path")
    args = parser.parse_args(argv)

    info = machine()
    sections = {"baseline": baseline_rows(), "layers": layer_rows()}
    print(f"machine: {info['cpu']}, nproc {info['nproc']}, Python {info['python']}, "
          f"numpy {info['numpy']}")
    for title, rows in sections.items():
        print(f"\n{title}")
        for what, value, unit, note in rows:
            print(f"  {what:<40} {value:>10.4g} {unit:<3} {note}")
    if args.write:
        doc = {
            "machine": info,
            "date": time.strftime("%Y-%m-%d"),
            "command": "python3 bench/layers.py",
            **{title: [{"what": w, "value": v, "unit": u, "note": n} for w, v, u, n in rows]
               for title, rows in sections.items()},
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.write)), exist_ok=True)
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
