"""Peak finding on sampled spectra.

Feature positions are located as local maxima of a signal on a grid, with a
minimum prominence that rejects both tiny ripples (1% of full scale) and
noise spikes (4x a robust noise estimate), then refined by a three-point
quadratic fit around each sample maximum.

In this undercoupled all-pass geometry the cavity resonance is a transmission
dip, so the split normal modes appear as transmission minima; splitting is
therefore measured on the extinction signal 1 - T.
"""
from __future__ import annotations

import numpy as np

PROMINENCE_FRACTION = 0.01

# MAD-to-sigma for a normal (0.6745) times sqrt(6), the std of the second
# difference of white noise
_SECOND_DIFF_NORM = 0.6745 * np.sqrt(6.0)


def _median(x):
    """np.median of a non-empty 1-d float array, bit for bit.

    np.median's NaN check reads np.ma, which imports numpy.ma on first use
    (10-15 ms in a fresh process). This takes the same partition and the
    same mean of the middle one or two values, and checks the NaN itself.
    """
    x = np.asarray(x, dtype=float)
    h = x.size // 2
    even = x.size % 2 == 0
    part = np.partition(x, [h - 1, h, -1] if even else [h, -1])
    if np.isnan(part[-1]):
        return part[-1]
    # np.mean sums from +0.0, so a median of -0.0 reads +0.0
    return (0.0 + part[h - 1] + part[h]) / 2.0 if even else 0.0 + part[h]


def noise_scale(y) -> float:
    """Robust per-sample noise sigma, from the median second difference.

    Smooth curves have second differences of order curvature * dx^2, so this
    stays near zero for clean model output and near sigma for white noise.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return 0.0
    d2 = np.abs(np.diff(y, n=2))
    return float(_median(d2) / _SECOND_DIFF_NORM)


def _noise_prominence_floor(y) -> float:
    # a pure-noise peak can stand prominence ~ peak-to-valley of the sample
    # extremes, about 2 sigma sqrt(2 ln n); add 2 sigma of margin
    n = max(len(y), 3)
    return (2.0 * np.sqrt(2.0 * np.log(n)) + 2.0) * noise_scale(y)


def _quadratic_refine(x, y, idx):
    # vertex of the parabola through the three samples around idx
    if idx == 0 or idx == len(x) - 1:
        return float(x[idx])
    y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[idx])
    shift = 0.5 * (y0 - y2) / denom
    return float(x[idx] + shift * (x[idx] - x[idx - 1]))


def find_peaks(y, prominence: float):
    """Indices of the local maxima of y whose prominence is at least prominence.

    Same indices as scipy.signal.find_peaks(y, prominence=prominence)[0]. A
    run of equal samples is a maximum when both neighbouring runs are lower,
    at the middle of the run (rounded down); endpoints never are. Walking
    from a maximum to either side, a walk ends at the first higher sample
    (or NaN, or the end of y); the maximum is kept when both walks pass a
    sample v with y[peak] - v >= prominence.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be 1-d")
    n = y.size
    if n < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    level = y[starts]
    run = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[run] + starts[run + 1] - 1) // 2
    # hi[j][i] and lo[j][i] hold the max and min of padded[i : i + 2**j]; the
    # NaN at either end stops every walk there
    padded = np.concatenate(([np.nan], y, [np.nan]))
    hi, lo = [padded], [padded]
    while 2 ** len(hi) <= n:
        h = 2 ** (len(hi) - 1)
        hi.append(np.maximum(hi[-1][:-h], hi[-1][h:]))
        lo.append(np.minimum(lo[-1][:-h], lo[-1][h:]))
    # all walks at once, left (sign -1) and right (+1) of every peak: step
    # over the next 2**j samples, largest j first, when none is above the
    # peak. Blocks of falling size add up to any walk length, so each walk
    # ends just before its first higher sample, with low its minimum.
    m = peaks.size
    sign = np.repeat([-1, 1], m)
    edge = np.concatenate((peaks, peaks)) + 1
    top = padded[edge]
    low = top
    for j in range(len(hi) - 1, -1, -1):
        h = 2 ** j
        block = np.clip(np.where(sign > 0, edge + 1, edge - h), 0, hi[j].size - 1)
        take = hi[j][block] <= top
        edge = edge + take * sign * h
        low = np.where(take, np.minimum(low, lo[j][block]), low)
    # scipy's comparison; low <= top - prominence rounds differently
    dropped = top - low >= prominence
    return peaks[dropped[:m] & dropped[m:]]


def find_local_maxima(x, y):
    """Refined positions of local maxima of y(x) above the prominence cut.

    Returns an array of x-positions, ascending. Endpoints never count as
    maxima; the prominence threshold is PROMINENCE_FRACTION of max-min or
    the extreme-value floor of the estimated noise, whichever is larger.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    full_scale = float(np.max(y) - np.min(y))
    if full_scale == 0.0:
        return np.empty(0)
    prominence = max(PROMINENCE_FRACTION * full_scale, _noise_prominence_floor(y))
    idx = find_peaks(y, prominence)
    return np.array([_quadratic_refine(x, y, i) for i in idx])


def find_transmission_dips(x, transmission):
    """Positions of resonance features, i.e. local minima of the transmission."""
    t = np.asarray(transmission, dtype=float)
    return find_local_maxima(x, 1.0 - t)


def measure_splitting(x, transmission):
    """Separation of the two resonance dips of a split spectrum.

    Returns |x2 - x1| when find_transmission_dips finds exactly two dips;
    raises ValueError for any other count, since a splitting is then not
    defined.
    """
    dips = find_transmission_dips(x, transmission)
    if len(dips) != 2:
        raise ValueError(f"expected 2 resonance dips, found {len(dips)}")
    return float(abs(dips[1] - dips[0]))
