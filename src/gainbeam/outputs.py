"""CSV and manifest writers.

All numeric output uses 17 significant digits so doubles round-trip
losslessly; newlines are Unix; files are written atomically (temp file in
the target directory, then rename) so concurrent scenario runs never see a
partial file. One process formats the cells in blocks of whole rows of
at most 8194 cells (two heatmap rows), numpy giving each cell the bytes of
Python's ``"%.17g" % v`` (Python formats the non-finite cells and those too
near a rounding tie). Every block of a write is formatted in one workspace
allocated for that write, 32 byte slots a cell, and its bytes go straight
to the file, so memory does not grow with the row count.
"""

import functools
import json
import math
import mmap
import os
import sys
from itertools import chain

import numpy as np

from .config import FilterConfig, ScenarioConfig

__all__ = [
    "write_csv",
    "write_heatmap_csv",
    "write_manifest",
    "read_manifest_config",
]

MANIFEST_FORMAT = "gainbeam-manifest/1"


def _atomic_write(path, blocks):
    """Write an iterable of bytes to ``path`` atomically.

    The blocks are streamed into a temp file in the target directory, which
    then replaces ``path``; on any exception the temp file is removed and
    an existing ``path`` keeps its bytes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # opened like any new file, mode 0o666 less the umask (tempfile.mkstemp
    # would leave 0o600); O_EXCL never reuses an existing name
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# cells per formatted block, two heatmap rows of 4097: each of the formatter's
# arrays then takes 64 KB, and one op's operands stay in cache
_BLOCK = 2 * 4097
_WORD = np.dtype("<u8")  # 8 byte slots, the first the lowest byte, so shifts move along the text


class _Workspace:
    """Every array :func:`_format_block` works in, for up to ``_BLOCK`` cells, allocated
    once per write: ``text``, each cell's 32 byte slots, which ``bytearray.translate``
    reads in place, and one array whose rows are the float64, int64, word and bool
    temporaries. ``cells`` (float row 0) holds the block being formatted."""

    def __init__(self):
        self.text = bytearray(32 * _BLOCK)
        self.words = np.frombuffer(self.text, _WORD).reshape(_BLOCK, 4)
        rows = np.empty((25, _BLOCK))
        self.floats, self.ints = rows[:11], rows[11:22].view(np.int64)
        self.temps, self.flags = rows[22:24].view(_WORD), rows[24].view(bool).reshape(8, -1)[:2]
        self.cells = self.floats[0]


def _table(ws: _Workspace, rows, width: int, zs=None):
    """Yield the CSV bytes of ``rows``, ``width`` cells each, one block at a time; with
    ``zs``, a row is its z and ``width - 1`` cells of ``rows``. Blocks hold whole rows,
    of at most ``_BLOCK`` cells; a wider row takes blocks of its own."""
    if width < 1:
        raise ValueError("the header is empty: a CSV needs at least one column")
    for cells in _row_blocks(ws, rows, width, zs):
        for start in range(0, cells.size, _BLOCK):
            n = min(_BLOCK, cells.size - start)
            if width > _BLOCK:
                ws.cells[:n] = cells[start:start + n]
            yield _format_block(ws, n, slice((width - 1 - start) % width, n, width))


def _row_blocks(ws: _Workspace, rows, width: int, zs):
    """Yield runs of whole rows as their float64 cells, flat: views of ``ws.cells``, or one
    row at a time if it is wider than ``_BLOCK``. Each row's length is checked."""
    per = max(1, _BLOCK // width)
    block = (ws.cells[:per * width] if width <= _BLOCK else np.empty(width)).reshape(per, width)
    if zs is None and isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
        if len(rows) and rows.shape[1] != width:
            raise ValueError(f"row 0 has {rows.shape[1]} values, expected {width}")
        for start in range(0, len(rows), per):
            part = rows[start:start + per]
            block[:len(part)] = part
            yield block[:len(part)].ravel()
        return
    j = 0
    for i, row in enumerate(rows if zs is None else zip(zs, rows, strict=True)):
        if zs is None:
            block[j] = _cells(i, row, width)
        else:
            z, row = row
            block[j, 0] = z
            block[j, 1:] = _cells(i, row, width - 1)
        j += 1
        if j == per:
            yield block.ravel()
            j = 0
    if j:
        yield block[:j].ravel()


def _cells(i: int, row, width: int) -> np.ndarray:
    """Row ``i`` as an array of ``width`` numbers, converted as ``"%.17g"`` converts them."""
    cells = np.asarray(row)
    if cells.dtype.kind not in "biuf":
        # math.ldexp(v, 0) is v as a double, and raises for a str, complex or None
        cells = np.array([math.ldexp(v, 0) for v in row])
    if len(cells) != width:
        raise ValueError(f"row {i} has {len(cells)} values, expected {width}")
    return cells


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_EMIN = -1073  # np.frexp's exponent of 5e-324 = 0.5 * 2**-1073
_COMMA = ord(",") << 56  # the separator, in a cell's last slot
_NEWLINE = (ord(",") ^ ord("\n")) << 56  # what turns it into a newline


def _words(strings) -> np.ndarray:
    """One word per string of up to 8 bytes, zero-padded."""
    return np.array([list(s.ljust(8, b"\0")) for s in strings], np.uint8).view(_WORD).ravel()


@functools.cache
def _tables() -> tuple:
    """Tables for :func:`_format_block`, built on first use; Python's int / int rounds correctly."""
    # 10**k = (hi + lo) * 2**s, hi and lo correctly rounded, for each k = 16 - E
    ks = range(-292, 341)
    pows = []
    for k in ks:
        s = (10 ** max(k, 0)).bit_length() - (10 ** max(-k, 0)).bit_length()
        num, den = 10 ** max(k, 0) << max(-s, 0), 10 ** max(-k, 0) << max(s, 0)
        n, d = (num / den).as_integer_ratio()
        pows.append((num / den, (num * d - n * den) / (den * d), s))
    # per binary exponent e of np.frexp (|v| = m * 2**e, m in [0.5, 1)): E0 with
    # 10**E0 <= 2**(e-1) < 10**(E0+1), exact in float since (e - 1) log10(2)
    # stays 4e-4 or more from every integer on this range but 0 at e = 1
    e = np.arange(_EMIN, 1025)
    e0 = np.floor((e - 1) * math.log10(2)).astype(np.int64)
    # the least double >= 10**(E0+1): |v| >= it iff the decimal exponent E is E0 + 1
    least = []
    for j in range(-323, 309):
        num, den = 10 ** max(j, 0), 10 ** max(-j, 0)
        n, d = (num / den).as_integer_ratio()
        least.append(num / den if n * den >= num * d else math.nextafter(num / den, math.inf))
    # 2**e * 10**(16-E) as a double-double, hi split in halves, for E = E0 (even
    # index) and E0 + 1 (odd): the scale that takes m to the 17-digit integer
    hi, lo, s = np.array(pows)[(16 - (e0[:, None] + np.arange(2))).ravel() - ks.start].T
    s = s.astype(int) + np.repeat(e, 2)
    hi, lo = np.ldexp(hi, s), np.ldexp(lo, s)
    hi_a = _SPLIT * hi - (_SPLIT * hi - hi)
    # one word per 4-digit chunk, its digits in slots 0-3, and in slots 4-7
    four = np.arange(10000)
    chunk = np.zeros((10000, 8), np.uint8)
    for n, p in enumerate((1000, 100, 10, 1)):
        chunk[:, n] = four // p % 10 + 48
    low = chunk.view(_WORD)[:, 0]
    # 23 times each 4-digit chunk's trailing zeros, and for the zero chunk a
    # value above every count (see _format_block)
    zeros = 23 * sum(four % p == 0 for p in (10, 100, 1000, 10000))
    zeros[0] = 2**62
    # a cell's 32 byte slots, 4 words: sign, "0." and up to three zeros, the
    # first digit and a dot slot; 16 digits; a slot for the last digit, which
    # a dot among the 16 shifts one slot on, "e+XXX" and the separator. Which
    # digits show and where the dots go follows from nd (digits left once
    # trailing zeros go) and decpt in [-4, 18], the exponent form at either
    # end: the layout (17 - nd) * 23 + decpt + 4. Per layout, masks of the
    # 16 digits that show and of those after a dot among them, and that dot
    head = np.zeros((17, 23, 8), np.uint8)
    show, move, dot = np.zeros((3, 17, 23, 16), np.uint8)
    for nd in range(1, 18):
        for decpt in range(-4, 19):
            exponent, lead, at = decpt in (-4, 18), -3 <= decpt <= 0, (17 - nd, decpt + 4)
            shown = np.arange(16) < (nd if exponent or lead else max(nd, decpt)) - 1
            if lead:
                head[at][1:3 - decpt] = list(b"0." + b"0" * -decpt)
            if nd > 1 and exponent or nd > decpt == 1:
                head[at][7] = ord(".")
            show[at] = 0xFF * shown
            if nd > decpt >= 2:
                move[at] = 0xFF * (shown & (np.arange(16) >= decpt - 1))
                dot[at][decpt - 1] = ord(".")
    show, move, dot = (t.reshape(-1, 2, 8).view(_WORD)[..., 0] for t in (show, move, dot))
    # word 0 per layout, sign and first digit; per decimal exponent E, word 3
    # and the layout's decpt column
    digit = _words([bytes(6) + bytes([d]) for d in b"0123456789"])
    first = head.reshape(-1, 1, 8).view(_WORD) | _words([b"", b"-"])[:, None] | digit
    exp10 = np.arange(-324, 309)
    tail = _words([(b"\0" + (b"e%+03d" % x if x <= -5 or x >= 17 else b"")).ljust(7, b"\0") + b","
                   for x in exp10])
    tables = (e0, np.array(least)[e0 + 323 + 1], hi_a, hi - hi_a, lo, low, low << 32, zeros,
              first.ravel(), show[:, 0], show[:, 1], move, dot, move.any(axis=1), tail,
              np.clip(exp10, -5, 17) + 5)
    # each table gets an anonymous map of its own: kept for the run on malloc's
    # heap, it could split a free block there, which then grows instead
    maps = [np.frombuffer(mmap.mmap(-1, t.nbytes), t.dtype).reshape(t.shape) for t in tables]
    for kept, t in zip(maps, tables):
        kept[...] = t
    return maps


def _format_block(ws: _Workspace, n: int, ends: slice) -> bytes:
    """The CSV bytes of the float64 cells ``ws.cells[:n]``, byte for byte ``"%.17g" % v``
    each and a comma, or a newline at the cells ``ends`` selects.

    With |v| = m * 2**e and E the decimal exponent (one compare with a tabled
    threshold), the 17 digits are m * 2**e * 10**(16-E) rounded to nearest.
    Dekker's exact product of m and the double-double scale (Veltkamp split,
    no FMA; Numer. Math. 18 (1971) 224) forms it as a double p plus a rest r
    within 1e-14 of the exact product in [1e16, 1e17): the scale's error is
    below 2**-105 of it, and the roundings of m * lo and of r below 2e-15 and
    3e-15. Rounding r is therefore exact unless r lies within 1e-6 of a half;
    Python formats those cells, inf and nan, so no tie is decided here
    (compare Adams, "Ryu revisited", OOPSLA 2019). Tables fill each cell's
    32 byte slots by the ``%g`` rules: exponent form iff decpt <= -4 or decpt
    > 17 (decpt = E + 1), no trailing zeros, at least two exponent digits; a
    dot among the last 16 digits is placed by shifting the digits after it
    one slot on. A missing character is a zero byte, which one
    ``bytearray.translate`` deletes. The arrays are rows of ``ws``, but for
    the few cells that have such a dot or that Python formats.
    """
    (e0, least, hi_a, hi_b, lo, low, high, zeros, first,
     show, show_2, move, dot, split, tail, column) = _tables()
    v, a, m, t, h1, h2, h3, p, s1, s2, r = ws.floats[:, :n]
    i, exp10, digits, q1, q2, c1, c2, c3, c4, trailing, layout = ws.ints[:, :n]
    u1, u2 = ws.temps[:, :n]
    ok, flag = ws.flags[:, :n]
    words = ws.words[:n]
    # ok marks the cells numpy formats: finite, and (below) not near a tie
    np.abs(v, out=a)
    np.less(a, math.inf, out=ok)
    # a non-finite cell, which Python formats, takes the largest double's path
    np.fmin(a, sys.float_info.max, out=a)
    np.frexp(a, out=(m, i))
    i -= _EMIN
    # every take clips: with the default mode="raise", numpy buffers out= in a temporary
    least.take(i, out=t, mode="clip")
    np.greater_equal(a, t, out=flag)
    e0.take(i, out=exp10, mode="clip")
    exp10 += flag
    i += i
    i += flag
    hi_a.take(i, out=h1, mode="clip")
    hi_b.take(i, out=h2, mode="clip")
    lo.take(i, out=h3, mode="clip")
    np.add(h1, h2, out=p)
    p *= m
    # m = s1 + s2, halves of 26 bits
    np.multiply(m, _SPLIT, out=t)
    np.subtract(t, m, out=s2)
    np.subtract(t, s2, out=s1)
    np.subtract(m, s1, out=s2)
    # r = (((s1 h1 - p) + s1 h2 + s2 h1) + s2 h2) + m lo, in that order
    np.multiply(s1, h1, out=r)
    r -= p
    for x, y in ((s1, h2), (s2, h1), (s2, h2), (m, h3)):
        np.multiply(x, y, out=t)
        r += t
    np.rint(r, out=h1)
    np.subtract(r, h1, out=t)
    np.abs(t, out=t)
    np.less_equal(t, 0.5 - 1e-6, out=flag)
    ok &= flag
    np.copyto(digits, p, casting="unsafe")
    np.copyto(q1, h1, casting="unsafe")
    digits += q1
    np.equal(digits, 10**17, out=flag)
    np.copyto(digits, 10**16, where=flag)
    exp10 += flag
    np.equal(a, 0.0, out=flag)
    np.copyto(exp10, 0, where=flag)
    # the index of E in the tables per decimal exponent
    exp10 += 324
    # digits = d0 c1 c2 c3 c4: a leading digit and four 4-digit chunks
    _divmod(digits, 10**8, q1, q2)
    _divmod(q1, 10**8, digits, c4)
    _divmod(c4, 10**4, c1, c2)
    _divmod(q2, 10**4, c3, c4)
    # 23 times the trailing zeros: a zero chunk adds 4 to those before it,
    # any other gives its own count, below 4
    trailing.fill(0)
    for c in (c1, c2, c3, c4):
        trailing += 23 * 4
        zeros.take(c, out=q2, mode="clip")
        np.minimum(trailing, q2, out=trailing)
    column.take(exp10, out=layout, mode="clip")
    layout += trailing
    np.signbit(v, out=flag)
    np.multiply(layout, 2, out=q2)
    q2 += flag
    q2 *= 10
    q2 += digits
    # a take into a strided out costs more than a take and a strided copy
    first.take(q2, out=u1, mode="clip")
    words[:, 0] = u1
    # words 1 and 2: the 16 digits, those that show
    for w, c_low, c_high, shown in ((1, c1, c2, show), (2, c3, c4, show_2)):
        low.take(c_low, out=u1, mode="clip")
        high.take(c_high, out=u2, mode="clip")
        u1 |= u2
        shown.take(layout, out=u2, mode="clip")
        np.bitwise_and(u1, u2, out=words[:, w])
    tail.take(exp10, out=u1, mode="clip")
    words[:, 3] = u1
    # a dot among the 16 digits: those after it move one slot on, the last
    # of word 1 into word 2 and the last of word 2 into word 3
    split.take(layout, out=flag, mode="clip")
    if flag.any():
        at = np.flatnonzero(flag)
        kind = layout[at]
        region = words[at, 1:]
        moved = region[:, :2] & move[kind]
        region[:, :2] ^= moved
        region[:, :2] |= moved << 8 | dot[kind]
        region[:, 1:] |= moved >> 56
        words[at, 1:] = region
    marked = None
    if not ok.all():
        # a cell Python formats is a marker byte and its separator, the marker then replaced
        marked = np.flatnonzero(~ok)
        words[marked] = [1, 0, 0, _COMMA]
    words[ends, 3] ^= _NEWLINE
    text = (ws.text if n == _BLOCK else ws.text[:32 * n]).translate(None, b"\0")
    if marked is None:
        return text
    parts, cells = text.split(b"\x01"), [b"%.17g" % x for x in v[marked].tolist()]
    return b"".join(chain.from_iterable(zip(parts, cells))) + parts[-1]


def _divmod(x, d: int, q, r):
    """q, r = divmod(x, d) for int64 ``x`` >= 0, ``q`` and ``r`` other arrays than ``x``:
    numpy divides by a constant with a multiply, but np.divmod and np.remainder
    divide in hardware, several times slower."""
    np.floor_divide(x, d, out=q)
    np.multiply(q, d, out=r)
    np.subtract(x, r, out=r)


def write_csv(path, header, rows):
    table = _table(_Workspace(), rows, len(header))
    _atomic_write(path, chain([(",".join(header) + "\n").encode()], table))


def write_heatmap_csv(path, x, zs, rows):
    """Renormalized intensity, a row per z sample and a column per grid point.

    ``rows`` is any iterable of rows of len(x) values, a 2-D array or a
    generator, read one row at a time beside ``zs`` (their counts must agree)."""
    ws = _Workspace()
    header = b"z," + b"".join(_table(ws, [x], len(x)))
    _atomic_write(path, chain([header], _table(ws, rows, len(x) + 1, zs)))


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
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])


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
