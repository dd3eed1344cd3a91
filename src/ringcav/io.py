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
5. Constant runs. A column whose values in a chunk all have one float64 bit
   pattern (-0.0 and 0.0 differ, and so do two NaN payloads; the first and
   last rows are compared first, so a varying column costs no pass) is
   constant there. Each run of adjacent constant columns is formatted once
   by FLOAT_FMT, with its separators, NUL-padded to whole words and
   broadcast down the chunk's rows; steps 1-4 run on the varying columns
   only, and the suffix that ends a row goes to the last column only if it
   varies. The strip then scans the constant values' text, 14-16 bytes a
   value in the lock and saturation records, instead of 40. A lock record
   repeats the loop's fixed-point state once the loop settles, so 79-80% of
   the step and hold records' values are in such columns.

Working set. A write formats CHUNK_VALUES values at a time, in whole rows,
into scratch arrays allocated once for the write (``_scratch``; every ufunc
writes through ``out=``), and drops the NULs _PIECE bytes at a time,
writing each stripped piece to the file. A chunk with constant columns
gathers its varying values into one float array and lays its rows out in
the float arrays once the kernel is done with them, so it uses no other
memory. Only a chunk's constant runs' text and exact-fallback lists, and
``bytearray.translate``'s result, under 100 kB, per piece, are allocated
per chunk. When each chunk allocated and freed its own temporaries, about
1.1 MB at 5 columns, glibc's malloc could return the heap top to the kernel
after every chunk, whenever that exceeded its dynamic trim threshold (about
twice the largest array freed before; 407 kB arrays in ``lock --mode
scan-both``), and the next chunk faulted the pages in again: 13.7k of that
command's 14.7k minor faults during compute came from its two CSV writes. With the fixed working set the command takes
about 1.7k, none of them per chunk (2-CPU x86-64 Linux, glibc 2.36).
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.12g"
#: values formatted per chunk, in whole rows: 2048 rows of a 5-column time
#: series, as many _format_rows calls (about 50 us of fixed cost each) as
#: 2048-row chunks make there, and fewer on narrower writes
CHUNK_VALUES = 10240
#: bytes of text NUL-stripped at a time: below glibc's smallest mmap threshold
#: and its top pad, both 128 KiB, so translate's result, allocated at its
#: input's size, is never a fresh mapping nor trimmed away after each piece
_PIECE = 102400

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


def _scratch(size: int):
    """The kernel's working set for chunks of up to size values, allocated once per write.

    The words, five per value; the piece of text being stripped; five float,
    four index and two word arrays; four masks.
    """
    return (np.empty((size, 5), np.uint64), bytearray(min(40 * size, _PIECE)),
            np.empty((5, size)), np.empty((4, size), np.intp), np.empty((2, size), np.uint64),
            np.empty((4, size), bool))


def _column_runs(values: np.ndarray, same: np.ndarray) -> list:
    """A chunk's runs of adjacent varying and constant columns, in column order.

    A column is constant where every row holds the first row's float64 bits,
    so -0.0 and 0.0 differ, and so do two NaN payloads; the first and last
    rows are compared first, so a varying column costs no pass. Each run is
    (first column, stop column, text): text is None on a varying run, and on
    a constant run its FLOAT_FMT text with the separators, NUL-padded to
    whole uint64 words.
    """
    rows, k = values.shape
    bits = values.view(np.uint64)
    ends = bits[::rows - 1 or 1].tolist()
    constant = {j for j, (a, z) in enumerate(zip(ends[0], ends[-1]))
                if a == z and np.equal(bits[:, j], a, out=same).all()}
    if not constant:
        return [(0, k, None)]
    runs, c0 = [], 0
    for is_constant, group in itertools.groupby(range(k), constant.__contains__):
        c1 = c0 + len(list(group))
        text = None
        if is_constant:
            text = ",".join(FLOAT_FMT % v for v in values[0, c0:c1].tolist())
            text = (text + ("\r\n" if c1 == k else ",")).encode()
            text = np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64)
        runs.append((c0, c1, text))
        c0 = c1
    return runs


def _format_rows(values: np.ndarray, scratch) -> Iterator[bytearray]:
    """FLOAT_FMT text of a (rows, k) float64 array: ','-separated, CRLF-ended rows.

    Yields the text piece by piece, each from _PIECE bytes of the words.
    Every intermediate goes into scratch (see _scratch): a chunk allocates
    only its constant runs' text, the exact-fallback lists and the stripped
    pieces.
    """
    words, piece, f, _, _, b = scratch
    rows, k = values.shape
    runs = _column_runs(values, b[0, :rows])
    kv = sum(c1 - c0 for c0, c1, text in runs if text is None)
    if kv:
        _value_words(values, runs, kv, scratch)
    layout = words[:rows * kv]
    if kv < k:  # each row: the kernel's words of the varying runs between the constant runs'
        kernel = layout.reshape(rows, 5 * kv)
        parts, v = [], 0
        for c0, c1, text in runs:
            if text is None:
                text, v = kernel[:, v:v + 5 * (c1 - c0)], v + 5 * (c1 - c0)
            parts.append(text)
        # in the float arrays, which the kernel is done with: a constant value's text and
        # separator take at most 20 bytes, so a row takes at most 5 k words
        width = sum(part.shape[-1] for part in parts)
        layout = f.view(np.uint64).reshape(-1)[:rows * width].reshape(rows, width)
        start = 0
        for part in parts:
            layout[:, start:start + part.shape[-1]] = part  # a constant run broadcasts down
            start += part.shape[-1]
    text = memoryview(layout).cast("B")
    for start in range(0, len(text), _PIECE):
        piece[:] = text[start:start + _PIECE]  # a shorter piece keeps the allocation
        yield piece.translate(None, b"\0")


def _value_words(values: np.ndarray, runs: list, kv: int, scratch) -> None:
    """The five words of each value of the varying runs, kv columns, into scratch's words.

    The values, in row order, are those of the chunk itself when every column
    varies, or else gathered into a float array of the working set. The last
    varying column's suffixes end a row only if it is the row's last column.
    """
    groups, marks, modulus, mul, div, prefix, suffix = _tables()
    words, _, f, i, u, b = scratch
    rows, k = values.shape
    m = rows * kv
    f0, f1, f2, f3, f4 = f[:, :m]
    xi, mark, idx, step = i[:, :m]
    u0, u1 = u[:, :m]
    fast, b1, b2, b3 = b[:, :m]
    x = values.ravel()
    if kv < k:  # gathered into f4, which is written only after x's last read
        x = f4
        np.concatenate([values[:, c0:c1] for c0, c1, text in runs if text is None], axis=1,
                       out=x.reshape(rows, kv))

    a = np.abs(x, out=f0)
    np.greater_equal(a, _LO, out=fast)
    fast &= np.less(a, _HI, out=b1)  # False on 0, NaN and inf
    zero = np.equal(a, 0.0, out=b2)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=b1))
    np.copyto(xi, np.floor(np.log10(a, out=f1), out=f1), casting="unsafe")
    xi -= _X[0]
    # every index is in range; take's default mode, "raise", would copy into out
    s = np.take(mul, xi, out=f1, mode="clip")
    s *= a
    s /= np.take(div, xi, out=f2, mode="clip")  # one of the two is 1
    high = np.greater_equal(s, 1e12, out=b1)  # log10 near a power of ten
    low = np.less(s, 1e11, out=b3)
    fix = np.flatnonzero(high | low)
    if fix.size:
        xi[fix] += high[fix].astype(np.intp) - low[fix]
        s[fix] = a[fix] * mul[xi[fix]] / div[xi[fix]]
    mant = np.rint(s, out=f2)
    tie = np.abs(np.subtract(s, mant, out=f1), out=f1)
    fast &= np.less_equal(tie, _TIE, out=b1)
    carry = np.greater_equal(mant, 1e12, out=b1)
    np.copyto(mant, 1e11, where=carry)
    xi += carry
    np.copyto(mant, 0.0, where=zero)  # with X = 0 from a = 1, the words spell "0" (or "-0")
    fast |= zero
    np.multiply(np.signbit(x, out=b1), _NX, out=idx)
    idx += xi
    slow = np.flatnonzero(np.logical_not(fast, out=b1))
    exact = x[slow].tolist()
    g1 = np.floor(np.divide(mant, 1e8, out=f0), out=f0)
    rest = np.subtract(mant, np.multiply(g1, 1e8, out=f1), out=f1)
    g2 = np.floor(np.divide(rest, 1e4, out=f3), out=f3)
    g3 = np.subtract(rest, np.multiply(g2, 1e4, out=f4), out=rest)
    after = np.divide(mant, np.take(modulus, xi, out=f4, mode="clip"), out=f4)
    np.multiply(xi, 2, out=mark)
    mark += np.not_equal(after, np.floor(after, out=f2), out=b1)
    tail3 = np.equal(g3, 0.0, out=b2)
    tail2 = np.logical_and(tail3, np.equal(g2, 0.0, out=b3), out=b3)
    words[:m, 0] = np.take(prefix, idx, out=u0, mode="clip")
    for j, (g, tail) in enumerate(((g1, tail2), (g2, tail3), (g3, None))):
        np.copyto(idx, g, casting="unsafe")
        # the last group is always stripped; a ufunc's where= is several times slower
        idx += 10000 if tail is None else np.multiply(tail, 10000, out=step)
        np.bitwise_or(np.take(groups, idx, out=u0, mode="clip"),
                      np.take(marks[j], mark, out=u1, mode="clip"), out=words[:m, j + 1])
    np.copyto(idx, xi)
    last = kv - 1 if runs[-1][2] is None else -1  # the varying column that ends a row, if any
    if last >= 0:
        idx.reshape(rows, kv)[:, -1] += _NX  # its suffixes
    words[:m, 4] = np.take(suffix, idx, out=u0, mode="clip")
    if slow.size:
        seps = np.where(slow % kv == last, "\r\n", ",").tolist()
        text = [FLOAT_FMT % v + sep for v, sep in zip(exact, seps)]
        words[slow] = np.array(text, "S40").view(np.uint64).reshape(-1, 5)


def write_columns_csv(path, header: list[str], columns: list) -> None:
    """Header through csv.writer, then FLOAT_FMT rows with csv's CRLF line ends.

    A formatted number never needs quoting, so rows are formatted by
    _format_rows (see the module docstring), CHUNK_VALUES values' worth of
    whole rows at a time in one working set allocated for the write, and each
    chunk's bytes go to the file as soon as they are ready. Columns must be
    1-D integer, boolean or floating arrays (TypeError otherwise); integers
    and booleans are formatted as ``%`` formats them, through float.
    """
    cols = [np.asarray(c) for c in columns]
    for c in cols:
        if c.ndim != 1 or c.dtype.kind not in "biuf":
            raise TypeError(f"a CSV column must be 1-D real numbers, not {c.dtype} {c.shape}")
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    n = len(cols[0]) if cols else 0
    step = max(1, CHUNK_VALUES // max(1, len(cols)))
    chunk = np.empty((min(n, step), len(cols)))
    scratch = _scratch(chunk.size)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()  # the rows go to the binary buffer underneath, after the header
        for i in range(0, n, step):
            rows = min(step, n - i)
            for j, c in enumerate(cols):
                chunk[:rows, j] = c[i:i + rows]
            fh.buffer.writelines(_format_rows(chunk[:rows], scratch))


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
