"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py -q

Small-size smoke passes of every workload, traced and untraced; the
printed metrics match ``BENCHMARK.json`` by name and unit; a corrupted
output counts as a failed pass; the runner refuses to run without the
gainbeam sources; and the grid error reference is converged. Each runner
test runs ``bench/run.py`` in a subprocess, and the copies some of them
need live under ``bench/out``.
"""

import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(root, workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def copy_root():
    """A fresh directory under bench/out, removed afterwards."""
    path = os.path.join(BENCH_DIR, "out", f"selftest-{uuid.uuid4().hex[:8]}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def copy_tree(dest, with_sources=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("out", ".cache", "__pycache__")
    shutil.copytree(BENCH_DIR, os.path.join(dest, "bench"), ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


@pytest.mark.parametrize("workload", [w["name"] for w in load_spec()["workloads"]])
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_pass_prints_every_declared_metric(workload, trace):
    spec = load_spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    stdout, result = last_json(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert name in "\n".join(stdout.splitlines()[:-1])
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac" in stdout and " 0/" in stdout


def test_corrupted_output_counts_as_failed_pass(copy_root):
    copy_tree(copy_root)
    # truncate the grid heatmap after the CLI wrote it, in the copy only
    with open(os.path.join(copy_root, "bench", "workloads.py"), "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_setup, _run, _check = WORKLOADS['heatmap-cli']\n\n\n"
            "def _truncating_run(state, out_dir):\n"
            "    out = _run(state, out_dir)\n"
            "    path = os.path.join(out_dir, 'grid_heatmap.csv')\n"
            "    with open(path, encoding='utf-8') as fh:\n"
            "        lines = fh.readlines()\n"
            "    with open(path, 'w', encoding='utf-8') as fh:\n"
            "        fh.writelines(lines[:-1])\n"
            "    return out\n\n\n"
            "WORKLOADS['heatmap-cli'] = (_setup, _truncating_run, _check)\n"
        )
    stdout, result = last_json(run_bench(copy_root, "heatmap-cli", 0))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "heatmap has shape" in stdout
    frac = [line for line in stdout.splitlines() if line.strip().startswith("fail_frac")]
    assert frac and float(frac[0].split()[1]) == pytest.approx(result["failed"] / result["attempted"])


def test_refuses_to_run_without_sources(copy_root):
    copy_tree(copy_root, with_sources=False)
    proc = run_bench(copy_root, "tanh-grid", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def grid_errors(z, norm, mean_q, intensity, ref):
    import workloads

    checks = workloads.Checks()
    workloads._grid_errors(checks, z, norm, mean_q, intensity,
                           {f"g.{key}": value for key, value in ref.items()}, "g.", "grid")
    assert not checks.failures
    return checks.errors


def test_grid_reference_is_converged():
    """Halving the reference step moves it by far less than the program's own error."""
    import inputs
    import reference

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gainbeam import harness
    from gainbeam.config import ScenarioConfig

    doc = inputs.make_inputs("heatmap-cli", 5)["scenarios"][0]
    grid = doc["grid"]
    n = inputs.sample_count(doc["z_max"], grid["dz"], doc["sample_stride"])
    args = (doc["potential"], doc["initial"], grid["half_width"], grid["n_points"], doc["z_max"], n)
    ref = reference.grid_reference(*args)
    half = reference.grid_reference(*args, max_step=reference.GRID_REF_STEP / 2)
    program = harness.run_scenario(ScenarioConfig.from_dict(doc)).series["grid"]

    refinement = grid_errors(half["z"], half["norm"], half["mean_q"], half["intensity"], ref)
    error = grid_errors(program.z, program.norm, program.mean_q, program.intensity, ref)
    for name, value in error.items():
        assert refinement[name] < 1e-3 * value, (name, refinement[name], value)
