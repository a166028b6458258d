"""CSV writers: the number format, row checks and atomic replacement."""

import math
import os

import numpy as np
import pytest

from gainbeam.config import FilterConfig
from gainbeam.harness import filter_experiment
from gainbeam.outputs import atomic_write_text, write_csv, write_heatmap_csv

VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 0.1,
    7, np.int64(-3), np.float64(2.5),
]


def expected(v) -> str:
    return f"{float(v):.17g}"


def read_lines(path):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.endswith("\n") and not text.endswith("\n\n")
    return text[:-1].split("\n")


def test_csv_cells_are_17_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(v, -v) for v in VALUES] + [np.array([0.1, 1e-300])])
    lines = read_lines(path)
    assert lines[0] == "a,b"
    want = [f"{expected(v)},{expected(-v)}" for v in VALUES] + ["0.10000000000000001,1e-300"]
    assert lines[1:] == want


def test_heatmap_header_and_cells(tmp_path):
    path = tmp_path / "h.csv"
    x = np.array(VALUES, dtype=float)
    zs = np.array([0.0, 0.1, 5e-324])
    matrix = np.array([np.roll(x, k) for k in range(len(zs))])
    write_heatmap_csv(path, x, zs, matrix)
    lines = read_lines(path)
    assert lines[0] == "z," + ",".join(expected(v) for v in x)
    assert lines[1:] == [
        ",".join([expected(z)] + [expected(v) for v in row]) for z, row in zip(zs, matrix)
    ]


def test_unresolved_pair_written_as_nan(tmp_path):
    config = FilterConfig(
        name="short", widths=(0.5j, 2j), q0=0.0, p0=0.0, z_max=0.02, dz=1e-4, probe_z=(0.01,)
    )
    report = filter_experiment(config, out_dir=str(tmp_path))
    assert report.pairs[0].resolvability_z is None
    lines = read_lines(tmp_path / "filter_rates.csv")
    assert lines[1].split(",")[:2] == ["0", "1"]
    assert lines[1].split(",")[-1] == "nan"


def test_lines_streamed_from_any_iterable(tmp_path):
    path = tmp_path / "m.txt"
    atomic_write_text(path, (f"{k}\n" for k in range(3)))
    assert path.read_text() == "0\n1\n2\n"
    atomic_write_text(path, "one string\n")
    assert path.read_text() == "one string\n"


def failing_rows():
    yield (1.0, 2.0)
    raise RuntimeError("source failed")


@pytest.mark.parametrize(
    "write, error, match",
    [
        (lambda p: write_csv(p, ("a", "b"), [(1.0, 2.0), (3.0,)]), ValueError, "row 1"),
        (lambda p: write_csv(p, ("a", "b"), [(1.0, 2.0, 3.0)]), ValueError, "row 0"),
        (lambda p: write_csv(p, ("a", "b"), failing_rows()), RuntimeError, "source failed"),
        (
            lambda p: write_heatmap_csv(p, np.zeros(3), [0.0, 1.0], np.zeros((2, 4))),
            ValueError,
            "row 0",
        ),
        (
            lambda p: write_heatmap_csv(p, np.zeros(3), [0.0, 1.0], np.zeros((3, 3))),
            ValueError,
            "argument 2 is longer",
        ),
    ],
    ids=["short_row", "long_row", "source_raises", "heatmap_row", "heatmap_z"],
)
def test_rejected_write_leaves_target_alone(tmp_path, write, error, match):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises(error, match=match):
        write(path)
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def use_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable to the writer and count its forks."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1, 2, 3, 301])
def test_heatmap_blocks_match_one_block(tmp_path, monkeypatch, rows):
    x = np.array(VALUES, dtype=float)
    zs = np.linspace(0.0, 3.0, rows)
    matrix = np.random.default_rng(rows).random((rows, x.size)) * x
    path = tmp_path / "h.csv"
    use_cpus(monkeypatch, 1)
    write_heatmap_csv(path, x, zs, matrix)
    one_block = path.read_bytes()
    for cpus in (2, 3, 8):
        forks = use_cpus(monkeypatch, cpus)
        path.write_bytes(b"")
        write_heatmap_csv(path, x, zs, matrix)
        assert path.read_bytes() == one_block
        assert len(forks) == min(cpus, rows) - 1
    assert os.listdir(tmp_path) == ["h.csv"]
    assert_no_child_left()


class PoisonedRows(np.ndarray):
    """A matrix whose rows starting with -1 raise the error in ``poison`` from tolist."""

    poison = RuntimeError("poisoned row")

    def tolist(self):
        if self.ndim == 1 and self[0] == -1.0:
            raise self.poison
        return super().tolist()


@pytest.mark.parametrize(
    "row, poison, match",
    [
        (3, RuntimeError("poisoned row"), "rows 2-3 failed: RuntimeError: poisoned row"),
        (0, KeyboardInterrupt(), None),
        (0, RuntimeError("poisoned row"), "poisoned row"),
    ],
    ids=["child_raises", "parent_interrupted", "parent_raises"],
)
def test_failed_block_leaves_target_alone(tmp_path, monkeypatch, row, poison, match):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    matrix = np.ones((4, 512))
    matrix[row, 0] = -1.0
    matrix = matrix.view(PoisonedRows)
    monkeypatch.setattr(PoisonedRows, "poison", poison)
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(type(poison), match=match):
        write_heatmap_csv(path, np.zeros(512), np.arange(4.0), matrix)
    assert len(forks) == 1
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["t.csv"]
    assert_no_child_left()
