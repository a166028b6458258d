"""CSV writers: the number format, row checks and atomic replacement."""

import math
import os
import threading
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainbeam import outputs
from gainbeam.config import FilterConfig
from gainbeam.harness import filter_experiment
from gainbeam.outputs import write_csv, write_heatmap_csv

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
        (lambda p: write_csv(p, (), [(), ()]), ValueError, "header is empty"),
        (
            lambda p: write_heatmap_csv(p, np.zeros(0), [0.0, 1.0], np.zeros((2, 0))),
            ValueError,
            "header is empty",
        ),
    ],
    ids=["short_row", "long_row", "source_raises", "heatmap_row", "heatmap_z", "no_columns",
         "heatmap_no_points"],
)
def test_rejected_write_leaves_target_alone(tmp_path, write, error, match):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises(error, match=match):
        write(path)
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def reference(row) -> str:
    """One CSV line as Python's %-formatting writes it, the bytes every writer must match."""
    return ",".join("%.17g" % v for v in row) + "\n"


def formatted(rows, width) -> str:
    """The text the writers stream for ``rows``, block by block."""
    return b"".join(outputs._table(outputs._Workspace(), rows, width)).decode()


def test_random_bit_patterns_match_python():
    # every float64: signs, subnormals, both extremes of the exponent, inf and nan
    bits = np.random.default_rng(7).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    table = bits.view(np.float64).reshape(-1, 8)
    assert formatted(table, 8) == "".join(map(reference, table.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([1000000000000000.25, 1000000000000000.75, -0.0, math.nan])
def test_any_floats_match_python(values):
    assert formatted([values], len(values)) == reference(values)


def neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


BOUNDARY = [
    0.0, math.inf, math.nan, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308,
    # the switches between fixed and exponent form, at 1e-4 and 1e17
    *neighbours(1e-4), *neighbours(1e-5), *neighbours(1e16), *neighbours(1e17),
    # doubles just below a power of ten: those of 1e-305, 1e-14 and 1e98 round
    # up into it at 17 digits, carrying out of the 17th
    9.999999999999999e22, 1e-305, 1e-14, 1e98, 1e220,
    # exact ties at the 18th digit, which round to even
    1000000000000000.25, 1000000000000000.75, 1000000000000001.25, 0.5, 2.5,
    *(float(2**53 + d) for d in range(-4, 5)), float(2**54 + 2), float(2**63),
    *(v for k in range(-323, 309) for v in neighbours(float(10**k) if k >= 0 else 1 / 10**-k)),
]


def test_boundary_values_match_python():
    values = BOUNDARY + [-v for v in BOUNDARY]
    # one column, and rows of 7 that mix fixed and exponent forms
    assert formatted([[v] for v in values], 1) == "".join(reference([v]) for v in values)
    rows = [values[i:i + 7] for i in range(0, len(values) - 6, 7)]
    assert formatted(rows, 7) == "".join(map(reference, rows))


def test_cell_types_match_python(tmp_path):
    row = (7, True, False, np.int64(-3), np.float32(0.1), 2**70, np.uint64(2**64 - 1), -5)
    path = tmp_path / "t.csv"
    rows = [row, np.array(row[:4] * 2), np.float32([0.1] * 8)]
    write_csv(path, ["c"] * len(row), rows)
    assert read_lines(path)[1:] == [reference(r)[:-1] for r in rows]


@pytest.mark.parametrize("cell", ["1.5", 1j, None], ids=["str", "complex", "None"])
def test_cells_that_are_no_real_numbers_raise(tmp_path, cell):
    with pytest.raises(TypeError) as raised:
        "%.17g" % cell
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises(TypeError, match=str(raised.value)):
        write_csv(path, ("a", "b"), [(1.0, 2.0), (1.0, cell)])
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["t.csv"]


# rows of 4097 cells, two to a block, and of 257, many to a block: one below,
# at and one above a block, and more; and rows wider than a block
@pytest.mark.parametrize("points, rows", [
    *(pytest.param(4096, rows, id=str(rows)) for rows in (1, 2, 3, 9, 301)),
    *(pytest.param(256, outputs._BLOCK // 257 + d, id=f"256x{outputs._BLOCK // 257 + d}")
      for d in (-1, 0, 1)),
    pytest.param(outputs._BLOCK, 2, id=f"{outputs._BLOCK}x2"),
])
def test_heatmap_chunks_match_python(tmp_path, points, rows):
    # every row starts with VALUES
    rng = np.random.default_rng(rows)
    x = np.linspace(-20.0, 20.0, points, endpoint=False)
    zs = np.linspace(0.0, 3.0, rows)
    matrix = rng.random((rows, x.size)) * np.exp(-800.0 * rng.random((rows, x.size)))
    matrix[:, :len(VALUES)] = np.array(VALUES, dtype=float)
    path = tmp_path / "h.csv"
    write_heatmap_csv(path, x, zs, matrix)
    lines = [reference([z, *row]) for z, row in zip(zs, matrix.tolist())]
    assert path.read_text() == "z," + reference(x) + "".join(lines)


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "rows"])
def test_row_wider_than_a_block_matches_python(tmp_path, as_list):
    # each row spans three blocks, a newline in the third
    rng = np.random.default_rng(3)
    table = rng.random((3, 2 * outputs._BLOCK + 5)) * 10.0 ** rng.integers(-30, 30, (3, 1))
    table[:, -len(VALUES):] = np.array(VALUES, dtype=float)
    path = tmp_path / "t.csv"
    write_csv(path, ["c"] * table.shape[1], table.tolist() if as_list else table)
    assert read_lines(path)[1:] == [reference(row)[:-1] for row in table.tolist()]


def fail_in_second_block(monkeypatch, error, calls_before):
    """Make the formatter raise ``error`` on the second block after ``calls_before`` others."""
    blocks = []
    format_block = outputs._format_block

    def second_block_fails(ws, n, ends):
        blocks.append(n)
        if len(blocks) == calls_before + 2:
            raise error
        return format_block(ws, n, ends)

    monkeypatch.setattr(outputs, "_format_block", second_block_fails)
    return blocks


@pytest.mark.parametrize("error", [RuntimeError("block failed"), KeyboardInterrupt()],
                         ids=["raises", "interrupted"])
@pytest.mark.parametrize("heatmap", [False, True], ids=["csv", "heatmap"])
def test_failure_in_second_chunk_leaves_target_alone(tmp_path, monkeypatch, error, heatmap):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old,bytes\n")
    # the heatmap's header is formatted first, in one block, then its rows two to a block
    blocks = fail_in_second_block(monkeypatch, error, calls_before=heatmap)
    with pytest.raises(type(error)):
        if heatmap:
            write_heatmap_csv(path, np.zeros(4096), np.arange(20.0), np.ones((20, 4096)))
        else:
            write_csv(path, ("a", "b"), np.ones((40000, 2)))
    assert blocks == ([4096, 8194, 8194] if heatmap else [8194, 8194])
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_writes_fork_no_process_and_start_no_thread(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("the writer forked")

    monkeypatch.setattr(os, "fork", no_fork)
    threads = threading.active_count()
    matrix = np.random.default_rng(0).random((301, 4096))
    write_heatmap_csv(tmp_path / "h.csv", np.zeros(4096), np.arange(301.0), matrix)
    write_csv(tmp_path / "t.csv", ("a", "b"), matrix[:, :2])
    assert threading.active_count() == threads
    assert len(read_lines(tmp_path / "h.csv")) == 302
