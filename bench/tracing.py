"""In-memory span recorder for a traced pass, and the patches it needs.

Spans are recorded from outside the program: ``install`` replaces
gainbeam's public functions with timing wrappers where the harness and
the CLI look them up (``harness`` imports ``integrate``, ``propagate``,
``observables``, ``quadratic_trajectory`` and the writers by name, so
they are patched in the ``gainbeam.harness`` namespace). Counts are kept
at the same boundaries: RHS evaluations through a counting ``Potential``
proxy, FFTs by wrapping ``numpy.fft.fft``/``ifft``, quadrature integrand
calls by wrapping the integrand handed to ``adaptive_simpson``, and
bytes/files by stat-ing each file a writer produced.

A span is ``[name, start, end, parent index]``; its self time is its
duration minus the durations of its direct children. A count belongs to
the innermost open span.
"""

import contextlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from gainbeam import cli, closed_forms, config, harness
from gainbeam.potentials import Potential


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []

    def count(self, counter: str, n: int = 1, owner: str | None = None):
        if owner is None:
            owner = self.spans[self._stack[-1]][0] if self._stack else ""
        self.counts[(owner, counter)] += n

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs once it closes."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result
        return traced

    def counting(self, counter: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.count(counter)
            return fn(*args, **kwargs)
        return counted

    def summary(self) -> dict:
        """Per span name: total time (outermost spans only), self time and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self"] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["total"] += end - start
        return dict(out)

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                "counts": [{"span": o, "counter": c, "value": v} for (o, c), v in self.counts.items()],
            }, fh)


class CountingPotential(Potential):
    """Forwards to a potential, counting ``sample`` and timing ``value``."""

    def __init__(self, inner: Potential, tracer: Tracer):
        self.inner = inner
        self.sample = tracer.counting("sample", inner.sample)
        self.value = tracer.wrap("potentials.value", inner.value)

    def describe(self) -> dict:
        return self.inner.describe()


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch gainbeam and numpy.fft for the duration of the block."""
    def record_samples(args, result):
        tracer.count("samples", len(result), owner="grid.propagate")

    def record_file(args, result):
        tracer.count("bytes_written", os.path.getsize(args[0]), owner="outputs")
        tracer.count("files_written", owner="outputs")

    def counting_potentials(build):
        return lambda self: CountingPotential(build(self), tracer)

    def counting_quadrature(quad):
        def counted(f, a, b, abs_tol=1e-10):
            return quad(tracer.counting("integrand_evals", f), a, b, abs_tol)
        return counted

    def traced_classmethod(name, method):
        return classmethod(tracer.wrap(name, method.__func__))

    patches = [
        (np.fft, "fft", tracer.counting("fft", np.fft.fft)),
        (np.fft, "ifft", tracer.counting("fft", np.fft.ifft)),
        (closed_forms, "adaptive_simpson", counting_quadrature(closed_forms.adaptive_simpson)),
        (config.ScenarioConfig, "build_potential",
         counting_potentials(config.ScenarioConfig.build_potential)),
        (config.FilterConfig, "build_potential",
         counting_potentials(config.FilterConfig.build_potential)),
        (config.ScenarioConfig, "from_dict",
         traced_classmethod("config.load", config.ScenarioConfig.__dict__["from_dict"])),
        (config.FilterConfig, "from_dict",
         traced_classmethod("config.load", config.FilterConfig.__dict__["from_dict"])),
        (cli, "load_scenario", tracer.wrap("config.load", cli.load_scenario)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
    ]
    for module in (harness, cli):
        patches += [
            (module, "run_scenario", tracer.wrap("harness.run_scenario", harness.run_scenario)),
            (module, "filter_experiment",
             tracer.wrap("harness.filter_experiment", harness.filter_experiment)),
        ]
    for attr, name, after in (
        ("integrate", "dynamics.integrate", None),
        ("reconstruct_wavefunction", "dynamics.reconstruct_wavefunction", None),
        ("propagate", "grid.propagate", record_samples),
        ("observables", "grid.observables", None),
        ("renormalized_intensity", "grid.renormalized_intensity", None),
        ("quadratic_trajectory", "closed_forms.quadratic_trajectory", None),
        ("compare", "harness.compare", None),
        ("write_csv", "outputs.write_csv", record_file),
        ("write_heatmap_csv", "outputs.write_heatmap_csv", record_file),
        ("write_manifest", "outputs.write_manifest", record_file),
    ):
        patches.append((harness, attr, tracer.wrap(name, getattr(harness, attr), after)))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, grid_steps: int, grid_points: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``grid_steps`` and ``grid_points`` describe the grid work the pass's
    inputs ask for (0 when the workload runs no grid).
    """
    spans = tracer.summary()

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self", 0.0)

    counts = tracer.counts
    rhs_calls = counts[("dynamics.integrate", "sample")]
    samples = counts[("grid.propagate", "samples")]
    return {
        "grid.propagate_s": (self_time("grid.propagate"), "s"),
        "grid.us_per_step": (1e6 * total("grid.propagate") / grid_steps if grid_steps else 0.0, "us"),
        "grid.fft_calls": (counts[("grid.propagate", "fft")], "count"),
        "grid.observables_s": (total("grid.observables") + total("grid.renormalized_intensity"), "s"),
        "grid.samples": (samples, "count"),
        "grid.sample_bytes": (16 * samples * grid_points, "bytes"),
        "dynamics.integrate_s": (total("dynamics.integrate"), "s"),
        "dynamics.rhs_calls": (rhs_calls, "count"),
        "dynamics.us_per_rhs": (1e6 * total("dynamics.integrate") / rhs_calls if rhs_calls else 0.0, "us"),
        "closed_forms.quadratic_trajectory_s": (total("closed_forms.quadratic_trajectory"), "s"),
        "closed_forms.integrand_evals": (
            counts[("closed_forms.quadratic_trajectory", "integrand_evals")], "count"),
        "harness.filter_experiment_self_s": (self_time("harness.filter_experiment"), "s"),
        "harness.compare_s": (total("harness.compare"), "s"),
        "harness.run_scenario_self_s": (self_time("harness.run_scenario"), "s"),
        "outputs.write_s": (
            total("outputs.write_csv") + total("outputs.write_heatmap_csv")
            + total("outputs.write_manifest"), "s"),
        "outputs.bytes_written": (counts[("outputs", "bytes_written")], "bytes"),
        "outputs.files_written": (counts[("outputs", "files_written")], "count"),
        "config.load_s": (total("config.load"), "s"),
        "potentials.value_ms": (1e3 * total("potentials.value"), "ms"),
        "cli.main_self_s": (self_time("cli.main"), "s"),
    }

