"""CSV and manifest writers.

All numeric output uses 17 significant digits so doubles round-trip
losslessly; newlines are Unix; CSV rows are formatted and written one at a
time, so memory does not grow with the row count; files are written
atomically (temp file in the target directory, then rename) so concurrent
scenario runs never see a partial file. Heatmap rows are formatted in
blocks of a few rows by a pool of forked workers, one per usable CPU, and
written in order, so the bytes are those of a one-process write.
"""

import json
import os
import threading
from itertools import chain

import numpy as np

from .config import FilterConfig, ScenarioConfig

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_heatmap_csv",
    "write_manifest",
    "read_manifest_config",
]

MANIFEST_FORMAT = "gainbeam-manifest/1"


def atomic_write_text(path, text):
    """Write ``text``, one string or an iterable of lines, to ``path`` atomically.

    The lines are streamed into a temp file in the target directory, which
    then replaces ``path``; on any exception the temp file is removed and
    an existing ``path`` keeps its bytes.
    """
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # opened like any new file, mode 0o666 less the umask (tempfile.mkstemp
    # would leave 0o600); O_EXCL never reuses an existing name
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _number_lines(rows, width: int):
    """Yield each row as one CSV line of ``width`` numbers, formatted as it is reached.

    ``"%.17g" % v`` is byte for byte ``f"{float(v):.17g}"``, for ints, +-0,
    +-inf, nan and subnormals too. A row of another length is a ValueError.
    """
    line = ",".join(["%.17g"] * width) + "\n"
    for i, row in enumerate(rows):
        cells = tuple(row.tolist() if isinstance(row, np.ndarray) else row)
        if len(cells) != width:
            raise _length_error(i, len(cells), width)
        yield line % cells


def _length_error(i: int, n: int, width: int) -> ValueError:
    return ValueError(f"row {i} has {n} values, expected {width}")


def write_csv(path, header, rows):
    lines = _number_lines(rows, len(header))
    atomic_write_text(path, chain([",".join(header) + "\n"], lines))


# rows per task of the heatmap pool: a few share each task's overhead, and lines still stream
_BLOCK_ROWS = 4


def write_heatmap_csv(path, x, zs, matrix):
    """Matrix of renormalized intensity: rows are z samples, columns grid points.

    A pool of forked workers, one per usable CPU, formats the rows, a few
    per task; this process streams the lines in order into the target, so
    the bytes are those of a one-process write. Where fork is missing, one
    CPU is usable or other threads are live, this process formats every
    row. zs and every row are checked before any fork.
    """
    width = len(x) + 1
    header = "z," + next(_number_lines([x], len(x)))
    rows = list(zip(zs, matrix, strict=True))
    for i, (_, row) in enumerate(rows):
        if len(row) + 1 != width:
            raise _length_error(i, len(row) + 1, width)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = min(len(os.sched_getaffinity(0)), -(-len(rows) // _BLOCK_ROWS))
    if workers <= 1:
        atomic_write_text(path, chain([header], map(_heatmap_line, rows)))
        return
    # only a write that forks needs these; `import gainbeam` does not load them
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # an interrupt is the writer's to handle: it cancels the pool's work
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"), initializer=signal.signal,
                               initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        lines = pool.map(_heatmap_line, rows, chunksize=_BLOCK_ROWS)
        atomic_write_text(path, chain([header], lines))
    finally:
        # after a failure, the rows not yet started are dropped, not formatted
        pool.shutdown(cancel_futures=True)


def _heatmap_line(pair) -> str:
    """The CSV line of one heatmap row: its z, then its intensities."""
    z, row = pair
    return next(_number_lines([(z, *row.tolist())], len(row) + 1))


def _flatten(prefix: str, value, out: list):
    if isinstance(value, dict):
        for k in value:
            _flatten(f"{prefix}.{k}", value[k], out)
    else:
        out.append((prefix, json.dumps(value)))


def write_manifest(path, config: ScenarioConfig | FilterConfig, tool_version: str,
                   derived: dict | None = None, report: dict | None = None):
    """Key-value manifest holding everything needed to repeat the run.

    ``config.*`` keys reconstruct the configuration exactly (see
    :func:`read_manifest_config`); ``derived.*`` and ``report.*`` keys are
    informational only.
    """
    pairs: list = []
    _flatten("config", config.to_dict(), pairs)
    for section, data in (("derived", derived), ("report", report)):
        if data:
            _flatten(section, data, pairs)
    lines = [f"format = {MANIFEST_FORMAT}", f"tool = gainbeam/{tool_version}"]
    lines.extend(f"{key} = {val}" for key, val in pairs)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _unflatten(pairs: dict) -> dict:
    root: dict = {}
    for key, value in pairs.items():
        parts = key.split(".")
        node = root
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return root


def read_manifest_config(path) -> ScenarioConfig | FilterConfig:
    """Reconstruct the configuration recorded in a manifest.

    A recorded config with ``widths`` is a FilterConfig, any other a
    ScenarioConfig.
    """
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if key.startswith("config."):
                pairs[key[len("config."):]] = json.loads(raw.strip())
    if not pairs:
        raise ValueError(f"no config entries found in manifest {path}")
    recorded = _unflatten(pairs)
    cls = FilterConfig if "widths" in recorded else ScenarioConfig
    return cls.from_dict(recorded)
