"""CSV/JSON file formats and run manifests. Plumbing, no physics.

CSV numbers are FLOAT_FMT text, ``'%.12g' % v``, which CPython rounds
correctly from the binary value (Gay, "Correctly rounded binary-decimal and
decimal-binary conversions", 1990). ``write_columns_csv`` produces the same
bytes with a numpy kernel, ``_format_rows``, instead of one ``%`` call per
row:

1. Mantissa. With X = floor(log10|x|), corrected once, s = |x| 10^(11-X)
   lies in [1e11, 1e12), and M = rint(s) holds the 12 significant digits,
   carried to X + 1 when M reaches 1e12. s takes one multiplication by 10^k
   (k >= 0) or one division by 10^-k (k < 0), the power correctly rounded,
   so s is within 2^-52 s < 3e-4 of the exact value. M is therefore the
   correctly rounded mantissa wherever the fraction of s is more than 1e-3
   from 1/2.
2. Exact fallback. The values within that 1e-3 tie margin, and NaN, +-inf
   and nonzero |x| outside [1e-290, 1e290), are formatted by FLOAT_FMT
   itself, one value at a time: about 0.2% of random values. This is a
   per-value escape, not a second writer. Zero takes X = 0 and M = 0.
3. Digits. M splits into three 4-digit groups by floor division in floats.
   That is exact for integers below 10^12: M / 10^k is an integer, or has a
   fraction of at least 10^-k while its rounding error is at most
   10^(12-k) 2^-53. The same holds for the test whether any digit follows
   the decimal point, M / 10^(11-p) against its floor.
4. Words. Each value becomes five NUL-padded 8-byte words from lookup
   tables: the sign and, for -4 <= X < 0, "0." and -X-1 zeros; three digit
   groups with the digits on the even bytes, trailing zeros blanked in the
   groups that end the number, the integer-part zeros OR-ed back in fixed
   notation, and the "." on the odd byte after digit p (p = X in fixed
   notation, 0 in scientific) where digits follow it; then "e+XX" in
   scientific notation and the separator. Dropping the NULs leaves the
   text of the rows.
"""
from __future__ import annotations

import csv
import functools
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.12g"
#: rows formatted per write; bounds the words and text held at once. At 5
#: columns the kernel's float temporaries are then 80 kB, under glibc's 128 kB
#: mmap threshold, so no chunk faults in fresh pages (with 4096 rows a 5-column
#: write ran about 1.3x slower on a 2-CPU x86-64 Linux machine)
CHUNK_ROWS = 2048

_LO, _HI = 1e-290, 1e290  # |x| the kernel formats; others take FLOAT_FMT
_TIE = 0.499  # |s - M| above this is within 1e-3 of a tie
_X = np.arange(-291, 292)  # decimal exponents the kernel can meet
_NX = _X.size


@functools.cache
def _tables():
    """The kernel's lookup tables, built by array operations on first use."""
    groups = np.zeros((2, 10, 10, 10, 10, 8), np.uint8)  # [full, stripped], digits, bytes
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    groups[..., 0] = ascii_digits[:, None, None, None]
    groups[..., 2] = ascii_digits[:, None, None]
    groups[..., 4] = ascii_digits[:, None]
    groups[..., 6] = ascii_digits
    groups[1, :, :, :, 0, 6] = 0  # stripped: trailing zeros blanked, 0000 empty
    groups[1, :, :, 0, 0, 4] = 0
    groups[1, :, 0, 0, 0, 2] = 0
    groups[1, 0, 0, 0, 0, 0] = 0

    fixed = (_X >= 0) & (_X < 12)
    small = (_X >= -4) & (_X < 0)  # 0.000ddd: the prefix holds the point
    point = np.where(fixed, _X, 0)  # the digit the point follows
    powers = np.array([float(10 ** k) for k in range(303)])  # correctly rounded
    modulus = np.where(small, 1.0, powers[11 - point])  # the digits after it
    zeros = fixed[:, None] & (np.arange(12) <= _X[:, None])  # integer-part digits
    marks = np.zeros((_NX, 2, 12, 2), np.uint8)  # X, has_point, digit, odd byte
    marks[:, :, :, 0] = 48 * zeros[:, None]
    marks[np.arange(_NX), 1, point, 1] = 46
    marks = marks.reshape(_NX, 2, 3, 8).view(np.uint64)[..., 0]
    marks = marks.transpose(2, 0, 1).reshape(3, -1)  # group j, 2 (X - _X[0]) + has_point

    scale = powers[np.abs(11 - _X)]
    zero_point = [b"0.000", b"0.00", b"0.0", b"0."]  # X = -4 .. -1
    prefix = np.array([[b""] * _NX, [b"-"] * _NX], "S8")  # by sign, X
    prefix[:, small] = [zero_point, [b"-" + z for z in zero_point]]
    exps = ["" if -4 <= x < 12 else "e%+03d" % x for x in _X.tolist()]
    suffix = np.array([[e + "," for e in exps], [e + "\r\n" for e in exps]], "S8")  # by last, X
    return (groups.view(np.uint64).ravel(), marks, modulus,
            np.where(_X <= 11, scale, 1.0), np.where(_X <= 11, 1.0, scale),
            prefix.view(np.uint64).ravel(), suffix.view(np.uint64).ravel())


def _format_rows(values: np.ndarray) -> bytearray:
    """FLOAT_FMT text of a (rows, k) float64 array: ','-separated, CRLF-ended rows."""
    groups, marks, modulus, mul, div, prefix, suffix = _tables()
    rows, k = values.shape
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _LO) & (a < _HI)  # False on 0, NaN and inf
    zero = a == 0.0
    a[~fast] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp) - _X[0]
    s = a * mul[xi] / div[xi]  # one of the two is 1
    off = (s >= 1e12).astype(np.intp) - (s < 1e11)  # log10 near a power of ten
    fix = np.flatnonzero(off)
    if fix.size:
        xi[fix] += off[fix]
        s[fix] = a[fix] * mul[xi[fix]] / div[xi[fix]]
    mant = np.rint(s)
    fast &= np.abs(s - mant) <= _TIE
    carry = mant >= 1e12
    mant[carry] = 1e11
    xi += carry
    mant[zero] = 0.0  # with X = 0 from a = 1, the words spell "0" (or "-0")
    fast |= zero
    g1 = np.floor(mant / 1e8)
    rest = mant - g1 * 1e8
    g2 = np.floor(rest / 1e4)
    g3 = rest - g2 * 1e4
    after = mant / modulus[xi]
    mark = 2 * xi + (after != np.floor(after))
    tail3 = g3 == 0
    tail2 = tail3 & (g2 == 0)
    text = bytearray(40 * x.size)
    words = np.frombuffer(text, np.uint64).reshape(-1, 5)
    words[:, 0] = prefix[xi + _NX * np.signbit(x)]
    words[:, 1] = groups[g1.astype(np.intp) + 10000 * tail2] | marks[0, mark]
    words[:, 2] = groups[g2.astype(np.intp) + 10000 * tail3] | marks[1, mark]
    words[:, 3] = groups[g3.astype(np.intp) + 10000] | marks[2, mark]
    last = np.where(np.arange(k) == k - 1, _NX, 0)
    words[:, 4] = suffix[(xi.reshape(rows, k) + last).ravel()]
    slow = np.flatnonzero(~fast)
    if slow.size:
        seps = np.where(slow % k == k - 1, "\r\n", ",").tolist()
        exact = [FLOAT_FMT % v + sep for v, sep in zip(x[slow].tolist(), seps)]
        words[slow] = np.array(exact, "S40").view(np.uint64).reshape(-1, 5)
    return text.translate(None, b"\0")


def write_columns_csv(path, header: list[str], columns: list) -> None:
    """Header through csv.writer, then FLOAT_FMT rows with csv's CRLF line ends.

    A formatted number never needs quoting, so rows are formatted
    CHUNK_ROWS at a time by _format_rows (see the module docstring) and each
    chunk is written as soon as it is ready. Columns must be 1-D integer,
    boolean or floating arrays (TypeError otherwise); integers and booleans
    are formatted as ``%`` formats them, through float.
    """
    cols = [np.asarray(c) for c in columns]
    for c in cols:
        if c.ndim != 1 or c.dtype.kind not in "biuf":
            raise TypeError(f"a CSV column must be 1-D real numbers, not {c.dtype} {c.shape}")
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    n = len(cols[0]) if cols else 0
    chunk = np.empty((min(n, CHUNK_ROWS), len(cols)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, n, CHUNK_ROWS):
            rows = min(CHUNK_ROWS, n - i)
            for j, c in enumerate(cols):
                chunk[:rows, j] = c[i:i + rows]
            fh.write(_format_rows(chunk[:rows]).decode("ascii"))


def read_columns_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def write_spectrum_csv(path, detuning_mhz, transmission) -> None:
    write_columns_csv(path, ["detuning_mhz", "transmission"], [detuning_mhz, transmission])


def write_saturation_csv(path, power_w, t_atoms, t_empty) -> None:
    write_columns_csv(
        path, ["power_w", "transmission_atoms", "transmission_empty"],
        [power_w, t_atoms, t_empty],
    )


def write_timeseries_csv(path, series) -> None:
    write_columns_csv(
        path,
        ["time_s", "heater_detuning_mhz", "resonance_offset_mhz", "p_circ_w",
         "probe_transmission"],
        [series.time_s, series.heater_detuning_hz / 1e6, series.resonance_offset_hz / 1e6,
         series.p_circ_w, series.probe_transmission],
    )


def write_residuals_csv(path, x, yobs, ymodel) -> None:
    write_columns_csv(
        path, ["x", "yobs", "ymodel", "residual"], [x, yobs, ymodel, np.asarray(yobs) - ymodel]
    )


def read_dataset_csv(path):
    """First column x, second yobs, optional column named 'sigma'."""
    cols = read_columns_csv(path)
    names = list(cols)
    if len(names) < 2:
        raise ValueError(f"{path}: need at least two columns, got {names}")
    sigma = cols.get("sigma")
    return cols[names[0]], cols[names[1]], sigma


def write_json(path, obj) -> None:
    """Standard JSON: a NaN or infinite float raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def build_manifest(command: str, resolved: dict, inputs: list, outputs: list) -> dict:
    from . import __version__

    return {
        "command": command,
        "resolved": resolved,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def manifest_path(output_path) -> Path:
    p = Path(output_path)
    return p.with_name(p.name + ".manifest.json")
