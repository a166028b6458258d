"""One pass of a workload in a fresh process; prints its record as one JSON line.

    python3 bench/worker.py <work dir> <reference .npz> [--trace <trace file> | --setup-only]

The work directory holds ``inputs.json`` (and ``scenario.json`` for the
CLI workload). The pass writes its outputs under ``<work dir>/pass`` and
removes them after checking. With ``--trace`` the pass runs with
gainbeam's public calls patched (see ``tracing.py``); spans are recorded
from the end of set-up to the end of the run and written to the trace
file at exit. With ``--setup-only`` it stops after set-up
and prints only ``setup_s``.
"""

import atexit
import contextlib
import json
import os
import resource
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv) -> int:
    work_dir, ref_path = argv[0], argv[1]
    trace_path = argv[3] if argv[2:3] == ["--trace"] else None
    sys.path.insert(0, SRC_DIR)
    import workloads

    with open(os.path.join(work_dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    setup, run, check = workloads.WORKLOADS[inputs["workload"]]
    out_dir = os.path.join(work_dir, "pass")
    shutil.rmtree(out_dir, ignore_errors=True)

    tracer = None
    with contextlib.ExitStack() as stack:
        if trace_path is not None:
            import tracing

            tracer = stack.enter_context(tracing.install(tracing.Tracer()))
            atexit.register(tracer.dump, trace_path)
        start = time.perf_counter()
        state = setup(inputs, work_dir)
        setup_s = time.perf_counter() - start
        if not imported_from_checkout():
            return 3
        if argv[2:3] == ["--setup-only"]:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            # spans and counts cover the program's run only, not the set-up above
            tracer.active = True
        start = time.perf_counter()
        out = run(state, out_dir)
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.active = False

    record = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        steps, points = workloads.grid_work(inputs)
        record["layers"] = tracing.layer_metrics(tracer, steps, points)
        from layers import per_call

        potential = state["configs"][0].build_potential()
        record["layers"]["potentials.sample_us"] = (per_call(lambda: potential.sample(1.0), 20000), "us")

    import numpy as np

    with np.load(ref_path) as data:
        ref = {name: data[name] for name in data.files}
    checks = check(state, out, ref, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    record["errors"] = checks.metrics()
    record["failures"] = checks.failures
    print(json.dumps(record))
    return 0


def imported_from_checkout() -> bool:
    import gainbeam

    if os.path.abspath(gainbeam.__file__).startswith(SRC_DIR + os.sep):
        return True
    print(f"gainbeam imported from {gainbeam.__file__}, not from {SRC_DIR}", file=sys.stderr)
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
