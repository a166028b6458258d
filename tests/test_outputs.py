"""CSV writers: the number format, row checks and atomic replacement."""

import math
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from gainbeam import outputs
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


def assert_nothing_left(directory, name):
    """Only ``name`` is in ``directory``, and no thread or child process outlived the write."""
    assert os.listdir(directory) == [name]
    assert threading.active_count() == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1, 2, 3, 9, 301])
def test_heatmap_blocks_match_one_block(tmp_path, monkeypatch, rows):
    x = np.array(VALUES, dtype=float)
    zs = np.linspace(0.0, 3.0, rows)
    matrix = np.random.default_rng(rows).random((rows, x.size)) * x
    path = tmp_path / "h.csv"
    use_cpus(monkeypatch, 1)
    write_heatmap_csv(path, x, zs, matrix)
    one_block = path.read_bytes()
    blocks = -(-rows // outputs._BLOCK_ROWS)
    for cpus in (2, 3, 8):
        forks = use_cpus(monkeypatch, cpus)
        path.write_bytes(b"")
        write_heatmap_csv(path, x, zs, matrix)
        assert path.read_bytes() == one_block
        # one worker per CPU, but no more than there are blocks, and no pool for one block
        workers = min(cpus, blocks)
        assert len(forks) == (workers if workers > 1 else 0)
    assert_nothing_left(tmp_path, "h.csv")


def test_every_write_fans_out(tmp_path, monkeypatch):
    matrix = np.random.default_rng(0).random((12, 64))
    forks = use_cpus(monkeypatch, 2)
    for k in (1, 2):
        write_heatmap_csv(tmp_path / "h.csv", np.zeros(64), np.arange(12.0), matrix)
        assert len(forks) == 2 * k
        assert_nothing_left(tmp_path, "h.csv")


class PoisonedRows(np.ndarray):
    """A matrix whose rows starting with -1 go to ``poison`` from tolist, where they are formatted."""

    @staticmethod
    def poison(row):
        pass

    def tolist(self):
        if self.ndim == 1 and self[0] == -1.0:
            self.poison(self)
        return super().tolist()


def poisoned(row):
    """Twelve rows, three blocks, with ``row`` poisoned."""
    matrix = np.ones((12, 512))
    matrix[row, 0] = -1.0
    return matrix.view(PoisonedRows)


def raise_(exc):
    raise exc


def assert_in_worker(writer_pid):
    # a poison that signals or kills its own process must never run in pytest's
    assert os.getpid() != writer_pid, "the block was formatted in the writer's process"


def signal_writer(writer_pid, signum):
    """A poison that sends ``signum`` to the writer, then holds its block back a second."""
    assert_in_worker(writer_pid)
    os.kill(writer_pid, signum)
    time.sleep(1.0)


@pytest.mark.parametrize(
    "row, poison, error, match",
    [
        (0, lambda pid: raise_(RuntimeError("poisoned row")), RuntimeError, "poisoned row"),
        (11, lambda pid: raise_(RuntimeError("poisoned row")), RuntimeError, "poisoned row"),
        (5, lambda pid: signal_writer(pid, signal.SIGINT), KeyboardInterrupt, None),
        (5, lambda pid: signal_writer(pid, signal.SIGUSR1), RuntimeError, "writer failed"),
    ],
    ids=["first_block_raises", "last_block_raises", "writer_interrupted", "writer_raises"],
)
def test_failed_block_leaves_target_alone(tmp_path, monkeypatch, row, poison, error, match):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    pid = os.getpid()
    monkeypatch.setattr(PoisonedRows, "poison", staticmethod(lambda row: poison(pid)))
    forks = use_cpus(monkeypatch, 2)
    old = signal.signal(signal.SIGUSR1, lambda *_: raise_(RuntimeError("writer failed")))
    try:
        with pytest.raises(error, match=match):
            write_heatmap_csv(path, np.zeros(512), np.arange(12.0), poisoned(row))
    finally:
        signal.signal(signal.SIGUSR1, old)
    assert len(forks) == 2
    assert path.read_bytes() == b"old,bytes\n"
    assert_nothing_left(tmp_path, "t.csv")


def test_failure_drops_the_blocks_not_started(tmp_path, monkeypatch):
    # 40 blocks whose rows each take 50 ms, and the first block raises at once
    log = tmp_path / "formatted"
    os.mkdir(log)
    matrix = np.ones((40 * outputs._BLOCK_ROWS, 512))
    matrix[:, 0] = -1.0
    matrix[:, 1] = np.arange(len(matrix))

    def slow_row(row):
        if row[1] == 0:
            raise RuntimeError("poisoned row")
        (log / str(int(row[1]))).touch()
        time.sleep(0.05)

    monkeypatch.setattr(PoisonedRows, "poison", staticmethod(slow_row))
    use_cpus(monkeypatch, 2)
    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="poisoned row"):
        write_heatmap_csv(path, np.zeros(512), np.arange(len(matrix)), matrix.view(PoisonedRows))
    # the blocks running or queued when it failed may finish; the rest are cancelled
    assert len(os.listdir(log)) <= 10 * outputs._BLOCK_ROWS
    assert not path.exists()


def test_killed_worker_is_an_error(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    pid = os.getpid()

    def kill_worker(row):
        assert_in_worker(pid)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(PoisonedRows, "poison", staticmethod(kill_worker))
    use_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        write_heatmap_csv(path, np.zeros(512), np.arange(12.0), poisoned(11))
    assert path.read_bytes() == b"old,bytes\n"
    assert_nothing_left(tmp_path, "t.csv")


def test_workers_ignore_interrupts(tmp_path, monkeypatch):
    # a terminal's Ctrl-C reaches the whole process group; the writer alone acts on it
    pid = os.getpid()

    def interrupt_worker(row):
        assert_in_worker(pid)
        os.kill(os.getpid(), signal.SIGINT)

    matrix = poisoned(11)
    path = tmp_path / "h.csv"
    write_heatmap_csv(path, np.zeros(512), np.arange(12.0), matrix)
    one_block = path.read_bytes()
    monkeypatch.setattr(PoisonedRows, "poison", staticmethod(interrupt_worker))
    use_cpus(monkeypatch, 2)
    try:
        write_heatmap_csv(path, np.zeros(512), np.arange(12.0), matrix)
    except KeyboardInterrupt:
        pytest.fail("an interrupted worker stopped the write")
    assert path.read_bytes() == one_block
    assert_nothing_left(tmp_path, "h.csv")
