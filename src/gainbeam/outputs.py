"""CSV and manifest writers.

All numeric output uses 17 significant digits so doubles round-trip
losslessly; newlines are Unix; files are written atomically (temp file in
the target directory, then rename) so concurrent scenario runs never see a
partial file. One process formats the cells in chunks of at most 2560,
numpy giving each cell the bytes of Python's ``"%.17g" % v`` (Python formats
the non-finite cells and those too near a rounding tie), so memory does not
grow with the row count.
"""

import functools
import json
import math
import mmap
import os
from itertools import chain, islice, starmap

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


# cells per formatted chunk (a heatmap row of 4097 is two): the formatter's
# arrays then take a few hundred KB and stay in cache
_CHUNK = 2560


def _chunks(rows, width: int):
    """Yield ``(cells, last)`` per run of at most ``_CHUNK`` cells of ``rows``: their
    float64 values, and which of them end a row. Each row's length is checked."""
    step = max(1, _CHUNK // width)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
        if len(rows) and rows.shape[1] != width:
            raise ValueError(f"row 0 has {rows.shape[1]} values, expected {width}")
        blocks = (np.asarray(rows[i:i + step], dtype=float) for i in range(0, len(rows), step))
    else:
        numbered = enumerate(rows)
        batches = iter(lambda: list(islice(numbered, step)), [])
        blocks = (np.array([_cells(i, row, width) for i, row in b], dtype=float) for b in batches)
    for block in blocks:
        parts = -(-block.size // _CHUNK)
        last = np.tile(np.arange(width) == width - 1, len(block))
        yield from zip(np.array_split(block.ravel(), parts), np.array_split(last, parts))


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


def _words(strings) -> np.ndarray:
    """One uint64 per string of up to 8 bytes, zero-padded: the same bytes in either byte order."""
    return np.array([list(s.ljust(8, b"\0")) for s in strings], np.uint8).view(np.uint64).ravel()


@functools.cache
def _tables() -> tuple:
    """Tables for :func:`_csv_text`, built on first use; Python's int / int rounds correctly."""
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
    # one word per 4-digit chunk: its digits, each followed by an empty dot slot
    four = np.arange(10000)
    chunk = np.zeros((10000, 8), np.uint8)
    for n, p in enumerate((1000, 100, 10, 1)):
        chunk[:, 2 * n] = four // p % 10 + 48
    zeros = sum(four % p == 0 for p in (10, 100, 1000, 10000))
    # a cell's 48 byte slots, 6 words: sign, "0." and up to three zeros; 17 digits,
    # each followed by a dot slot; "e+XXX" and the separator. Which digits show
    # and what fills the other slots follows from nd (digits left once trailing
    # zeros go) and decpt in [-4, 18], the exponent form at either end
    mask, fill = np.zeros((2, 17, 23, 40), np.uint8)
    for nd in range(1, 18):
        for decpt in range(-4, 19):
            exponent, lead, cells = decpt in (-4, 18), -3 <= decpt <= 0, fill[nd - 1, decpt + 4]
            shown = nd if exponent or lead else max(nd, decpt)
            mask[nd - 1, decpt + 4, 6:6 + 2 * shown:2] = 0xFF
            if lead:
                cells[1:3 - decpt] = list(b"0." + b"0" * -decpt)
            if nd > 1 and exponent or nd > decpt >= 1:
                cells[7 if exponent else 5 + 2 * decpt] = ord(".")
    mask, fill = (t.reshape(-1, 40).view(np.uint64) for t in (mask, fill))
    # word 0 per layout, sign and first digit; word 5 per exponent and separator
    digit = _words([bytes(6) + bytes([d]) for d in b"0123456789"])
    first = fill[:, :1, None] | _words([b"", b"-"])[:, None] | digit
    seps = (b",", b"\n")
    tail = _words([*seps, *(b"e%+03d%s" % (x, sep) for x in range(-324, 309) for sep in seps)])
    tables = (e0, np.array(least)[e0 + 323 + 1], hi_a, hi - hi_a, lo, chunk.view(np.uint64)[:, 0],
              zeros, first.ravel(), mask[:, 1:].T, fill[:, 1:].T, tail)
    # each table gets an anonymous map of its own: kept for the run on malloc's
    # heap, it could split a free block there, which then grows instead
    maps = [np.frombuffer(mmap.mmap(-1, t.nbytes), t.dtype).reshape(t.shape) for t in tables]
    for kept, t in zip(maps, tables):
        kept[...] = t
    return maps


def _csv_text(v: np.ndarray, last: np.ndarray) -> str:
    """The CSV text of float64 cells ``v``, byte for byte ``"%.17g" % v`` each and a comma,
    or a newline where ``last`` is set.

    With |v| = m * 2**e and E the decimal exponent (one compare with a tabled
    threshold), the 17 digits are m * 2**e * 10**(16-E) rounded to nearest.
    Dekker's exact product of m and the double-double scale (Veltkamp split,
    no FMA; Numer. Math. 18 (1971) 224) forms it as a double p plus a rest r
    within 1e-14 of the exact product in [1e16, 1e17): the scale's error is
    below 2**-105 of it, and the roundings of m * lo and of r below 2e-15 and
    3e-15. Rounding r is therefore exact unless r lies within 1e-6 of a half;
    Python formats those cells, inf and nan, so no tie is decided here
    (compare Adams, "Ryu revisited", OOPSLA 2019). Tables fill each cell's
    byte slots by the ``%g`` rules: exponent form iff decpt <= -4 or decpt >
    17 (decpt = E + 1), no trailing zeros, at least two exponent digits. A
    missing character is a zero byte, which one ``bytes.translate`` deletes.
    """
    e0, least, *scale, chunk, zeros, first, mask, fill, tail = _tables()
    a = np.abs(v)
    finite = np.isfinite(a)
    m, e = np.frexp(np.where(finite, a, 1.0))
    i = e - _EMIN
    big = a >= least.take(i)
    exp10 = e0.take(i) + big
    hi_a, hi_b, lo = (t.take(2 * i + big) for t in scale)
    p = m * (hi_a + hi_b)
    m_a = _SPLIT * m - (_SPLIT * m - m)
    m_b = m - m_a
    r = (((m_a * hi_a - p) + m_a * hi_b + m_b * hi_a) + m_b * hi_b) + m * lo
    k = np.rint(r)
    by_python = ~finite | (np.abs(r - k) > 0.5 - 1e-6)
    digits = p.astype(np.int64) + k.astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    exp10 += carry
    exp10[a == 0] = 0
    # digits = d0 c1 c2 c3 c4: a leading digit and four 4-digit chunks
    high, low = np.divmod(digits, 10**8)
    d0, high = np.divmod(high, 10**8)
    chunks = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    trailing = zeros.take(chunks[0])
    for c in chunks[1:]:
        trailing = np.where(c == 0, trailing + 4, zeros.take(c))
    decpt = exp10 + 1
    layout = (16 - trailing) * 23 + np.clip(decpt, -4, 18) + 4
    words = np.empty((v.size, 6), np.uint64)
    words[:, 0] = first.take((layout * 2 + np.signbit(v)) * 10 + d0)
    for n, c in enumerate(chunks):
        words[:, n + 1] = (chunk.take(c) & mask[n].take(layout)) | fill[n].take(layout)
    exponent = ((decpt <= -4) | (decpt > 17)) & ~by_python
    words[:, 5] = tail.take(exponent * 2 * (exp10 + 325) + last)
    # a cell Python formats is a marker byte and its separator, the marker then replaced
    words[by_python, :5] = [1, 0, 0, 0, 0]
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if not by_python.any():
        return text
    parts, cells = text.split("\x01"), ["%.17g" % x for x in v[by_python].tolist()]
    return "".join(chain.from_iterable(zip(parts, cells))) + parts[-1]


def write_csv(path, header, rows):
    lines = starmap(_csv_text, _chunks(rows, len(header)))
    atomic_write_text(path, chain([",".join(header) + "\n"], lines))


def write_heatmap_csv(path, x, zs, matrix):
    """Matrix of renormalized intensity: rows are z samples, columns grid points."""
    header = "z," + "".join(starmap(_csv_text, _chunks([x], len(x))))
    rows = (np.concatenate(([z], row)) for z, row in zip(zs, matrix, strict=True))
    atomic_write_text(path, chain([header], starmap(_csv_text, _chunks(rows, len(x) + 1))))


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
