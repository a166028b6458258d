"""gainbeam benchmark: three workloads, error beside time, one traced run per layer.

    python3 bench/run.py --workload tanh-grid --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the ``src/gainbeam`` next to this directory
and exits with code 2 if there is none. Workloads (see ``inputs.py`` for
why each was chosen): ``tanh-grid``, ``quadratic-gaussian`` and
``heatmap-cli``. ``--seed`` draws the inputs; the program sees only the
generated configuration files.

A run first builds (or loads from ``bench/.cache``) the error references
of its inputs, then repeats passes for ``--seconds`` seconds. Every pass
runs in a fresh single-threaded process (``worker.py``), so set-up time
includes importing gainbeam and peak memory is that pass's own. Each
pass is checked (see ``workloads.py``). ``attempted`` counts the
passes; one that crashes or fails a check counts in ``failed`` and makes
``correct`` false, and so does a crashed set-up sample, which is not a
pass and counts in neither.

``--trace 0`` reports the end-to-end metrics, as medians over passes:

* ``wall_s`` -- one pass, from the first public call to its return;
* ``setup_s`` -- import, config validation, potential, ``GridSpec``,
  potential on the grid and initial field, up to the first step; taken
  in every pass and in 8 more set-up-only processes;
* ``peak_rss_mb`` -- peak resident memory of the pass's process;
* ``err_q``, ``err_norm_rel``, ``err_intensity_l2`` -- error of the
  workload's main propagator against its reference, plus a round-off
  floor of 1e-11 (see ``workloads.ERROR_FLOOR``).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (spans recorded by ``tracing.py``)
and ``trace.overhead_frac``, the traced over the untraced median wall
time minus one. Span dumps go to ``bench/out/traces``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit with its sample count, and
``fail_frac``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# single process, single thread: nproc is 2 and passes must not compete
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a pass takes under 10 s on a 2-core machine; a run must end within 180 s
PASS_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0
SETUP_SAMPLES = 8

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_q": "x",
    "err_norm_rel": "ratio",
    "err_intensity_l2": "L2",
}


def run_pass(work_dir, ref_path, env, *flags):
    """(record, failure message) of one pass in a fresh process."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), work_dir, ref_path, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {PASS_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"pass exited with code {proc.returncode}: {tail}"
    record = json.loads(lines[-1])
    if record.get("failures"):
        return record, "; ".join(record["failures"])
    return record, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def describe(name, values, unit):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return f"  {name:<38} {med:>14.6g} {unit:<6} median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink the inputs for a quick smoke pass")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gainbeam", "__init__.py")):
        print(f"no gainbeam sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in THREAD_VARS})
    import workloads

    if args.workload == "all":
        return max(run_workload(name, args) for name in workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(workloads.WORKLOADS)}")
    return run_workload(args.workload, args)


def run_workload(workload, args) -> int:
    """Measure one workload; print its table and its JSON line."""
    import inputs
    import workloads

    env = dict(os.environ)
    start = time.perf_counter()
    generated = inputs.make_inputs(workload, args.seed, small=args.small)
    tag = f"{workload}-seed{args.seed}{'-small' if args.small else ''}"
    work_dir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    try:
        workloads.write_inputs(generated, work_dir)
        ref_path = inputs.reference_path(generated)
        print(f"{tag}: reference ready after {time.perf_counter() - start:.1f} s")
        plain, traced, failures, durations, setups = [], [], [], [], []
        setup_failures = []
        if args.trace == 0:
            # set-up is short and noisy: sample it in extra processes too
            for _ in range(SETUP_SAMPLES):
                record, failure = run_pass(work_dir, ref_path, env, "--setup-only")
                if failure is not None:
                    setup_failures.append(failure)
                if record is not None:
                    setups.append(record["setup_s"])
        measure_start = time.perf_counter()
        passes = 0
        while True:
            tracing = args.trace == 1 and passes % 2 == 1
            flags = (["--trace", os.path.join(OUT_DIR, "traces", f"{tag}-pass{passes}.json")]
                     if tracing else [])
            t = time.perf_counter()
            record, failure = run_pass(work_dir, ref_path, env, *flags)
            durations.append(time.perf_counter() - t)
            passes += 1
            if failure is not None:
                failures.append(failure)
            if record is not None:
                (traced if tracing else plain).append(record)
                if not tracing:
                    setups.append(record["setup_s"])
            elapsed = time.perf_counter() - measure_start
            have_all = plain and (traced or args.trace == 0)
            if have_all and elapsed + 0.5 * statistics.median(durations) >= args.seconds:
                break
            if time.perf_counter() - start + 1.5 * max(durations) > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in failures:
        print(f"  FAILED: {failure}")
    for failure in setup_failures:
        print(f"  FAILED set-up sample: {failure}")
    if not plain or (args.trace == 1 and not traced):
        print(f"{tag}: no pass completed; nothing measured", file=sys.stderr)
        return 1

    metrics = {}
    print(f"{tag}: {passes} passes ({len(plain)} untraced, {len(traced)} traced), "
          f"{len(setups) - len(plain)} set-up samples, {len(failures)} of {passes} passes failed")
    walls = [r["wall_s"] for r in plain]
    if args.trace == 0:
        for name, unit in END_TO_END_UNITS.items():
            if name == "setup_s":
                values = setups
            else:
                values = [r["errors"][name] if name.startswith("err_") else r[name] for r in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(describe(name, values, unit))
    else:
        for name in traced[0]["layers"]:
            values = [r["layers"][name][0] for r in traced]
            unit = traced[0]["layers"][name][1]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(describe(name, values, unit))
        overhead = statistics.median([r["wall_s"] for r in traced]) / statistics.median(walls) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        print(f"  {'trace.overhead_frac':<38} {overhead:>14.6g} ratio  traced {len(traced)} vs untraced {len(plain)}")
        layer_self = {name: statistics.median([r["layers"][name][0] for r in traced])
                      for name in traced[0]["layers"] if name.endswith("_s")}
        top = max(layer_self, key=layer_self.get)
        print(f"  largest layer self time: {top} ({layer_self[top]:.4g} s)")
    print(f"  {'fail_frac':<38} {len(failures) / passes:>14.6g} ratio  {len(failures)}/{passes} passes")
    print(json.dumps({
        "correct": not failures and not setup_failures,
        "attempted": passes,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
