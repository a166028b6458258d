"""CSV and manifest writers.

All numeric output uses 17 significant digits so doubles round-trip
losslessly; newlines are Unix; CSV rows are formatted and written one at a
time, so memory does not grow with the row count; files are written
atomically (temp file in the target directory, then rename) so concurrent
scenario runs never see a partial file. Heatmap rows are formatted on every
usable CPU, in contiguous blocks by forked children, with the same bytes.
"""

import json
import os
import tempfile
import threading
from contextlib import ExitStack
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


def _target_dir(path) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    return directory


def atomic_write_text(path, text):
    """Write ``text``, one string or an iterable of lines, to ``path`` atomically.

    The lines are streamed into a temp file in the target directory, which
    then replaces ``path``; on any exception the temp file is removed and
    an existing ``path`` keeps its bytes.
    """
    if isinstance(text, str):
        text = (text,)
    directory = _target_dir(path)
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


def write_heatmap_csv(path, x, zs, matrix):
    """Matrix of renormalized intensity: rows are z samples, columns grid points.

    The rows are split into one contiguous block per usable CPU. Forked
    children format every block but the first into unnamed files in the
    target directory while this process streams the first; it then appends
    the children's blocks in order, so the bytes are those of one block.
    The lengths of zs and of every row are checked before any fork.
    """
    width = len(x) + 1
    header = "z," + next(_number_lines([x], len(x)))
    pairs = list(zip(zs, matrix, strict=True))
    for i, (_, row) in enumerate(pairs):
        if len(row) + 1 != width:
            raise _length_error(i, len(row) + 1, width)

    def lines(start, stop):
        return _number_lines(((z, *row.tolist()) for z, row in pairs[start:stop]), width)

    first, *rest = _row_blocks(len(pairs))
    children, running = [], set()
    with ExitStack() as stack:
        stack.callback(_kill, running)
        for start, stop in rest:
            spill = stack.enter_context(tempfile.TemporaryFile(dir=_target_dir(path)))
            children.append((_fork_block(spill, lines(start, stop), running), spill, start, stop))
        tails = (_block_text(*child, running) for child in children)
        atomic_write_text(path, chain([header], lines(*first), chain.from_iterable(tails)))


def _row_blocks(n_rows: int) -> list:
    """[start, stop) row ranges, one per usable CPU, or one range where fork is unsafe."""
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = len(os.sched_getaffinity(0))
    workers = max(1, min(workers, n_rows))
    bounds = [n_rows * k // workers for k in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def _fork_block(spill, lines, running: set) -> int:
    """Fork a child that writes ``lines`` to ``spill`` and leaves through os._exit.

    The child inherits the parent's buffered handles (sys.stdout, say), so
    it must never run Python's exit path, which would flush them a second
    time. It exits 0 once the block is complete; on any
    exception the spill holds the error text instead and it exits 1. SIGINT
    is blocked across the fork: the child keeps it blocked, and the parent
    unblocks it once the pid is in ``running``, so an interrupt reaches only
    the parent, which then kills the child.
    """
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(spill.fileno(), "w", encoding="utf-8", newline="\n",
                          closefd=False) as out:
                    try:
                        out.writelines(lines)
                        status = 0
                    except BaseException as exc:
                        out.seek(0)
                        out.truncate()
                        out.write(f"{type(exc).__name__}: {exc}")
            finally:
                os._exit(status)
        running.add(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return pid


def _kill(pids: set):
    """SIGKILL and reap every child still in ``pids``."""
    if pids:
        import signal  # only a write that forked needs it; `import gainbeam` does not load it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _block_text(pid: int, spill, start: int, stop: int, running: set):
    """Wait for the child formatting rows [start, stop) and yield its block in pieces."""
    _, status = os.waitpid(pid, 0)
    running.discard(pid)
    spill.seek(0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        # status 1 leaves the child's error text; a signal (code < 0) may leave part of the block
        reason = spill.read(2000).decode(errors="replace") if code == 1 else f"exit status {code}"
        raise RuntimeError(f"formatting heatmap rows {start}-{stop - 1} failed: {reason}")
    while piece := spill.read(1 << 20):
        yield piece.decode()


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
