"""Thermal self-stability of the fiber ring and the active resonance lock.

Model: a heater laser circulating in the ring deposits a fraction of its
power in the fiber; the resulting temperature excursion shifts the cavity
resonance toward lower frequencies (red) with a single-pole response,

    d(offset)/dt = (shift_per_watt * absorption_fraction * P_circ - offset) / tau_th,

where P_circ is the Lorentzian buildup of the heater power at its current
detuning from the (shifted) resonance. The red shift makes downward frequency
scans dwell on resonance (the resonance retreats ahead of the laser) while
upward scans snap through, and it makes the blue side of the warm resonance a
stable operating point for a heater parked there.

The active lock regulates the resonance to a side-of-fringe setpoint of a
weak probe: an integral controller steers the heater laser frequency from the
probe transmission error, and holds it through a step in the resonance
position, given as its time and size. Integration is explicit Euler under the
dt < tau_th/10 contract. The controller integrates per unit time
(integral += gain_i * error * dt), so halving dt does not change the loop
dynamics.

All dynamical quantities here are frequencies in plain Hz relative to the
cold cavity resonance; none of the numbers are measured fiber properties,
they are demonstration values chosen to show the phenomenology.
"""
from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import LockLost, NonPositiveRate, StepTooCoarse
from .params import THERMAL_DEFAULTS, CavityParams

#: consecutive out-of-capture-range steps tolerated before declaring the lock lost
CAPTURE_PATIENCE = 100

#: cold linewidths by which lock_loop holds the warm resonance below the cold one
LOCK_OFFSET_LINEWIDTHS = 10.0

#: half-width of lock_loop's capture range around the setpoint, in bare-cavity dip depths
CAPTURE_BAND = 0.45

#: most integrator steps one run may take: 10**7 steps loop for several seconds
#: and fill 80 MB per recorded column; a longer run is refused before anything
#: is allocated
MAX_STEPS = 10 ** 7

#: widest resonance displacement, in cold linewidths, that a run accepts: the
#: heater's full-buildup thermal pull, and a lock's step. Within it, every
#: squared Lorentzian argument of a run stays finite wherever its span (scans)
#: or its controller's reach (lock_loop) is representable
MAX_SHIFT_LINEWIDTHS = 1e6


@dataclass(frozen=True)
class ThermalParams:
    """Fiber thermal response: relaxation time and static shift per absorbed watt.

    shift_per_watt is negative (heating lowers the resonance frequency);
    absorption_fraction is the fraction of circulating power absorbed.
    """

    tau_th: float = THERMAL_DEFAULTS["tau_th_s"]
    shift_per_watt: float = THERMAL_DEFAULTS["shift_per_watt"]
    absorption_fraction: float = THERMAL_DEFAULTS["absorption_fraction"]

    def __post_init__(self):
        if not (0 < self.tau_th < math.inf):
            raise NonPositiveRate(f"tau_th must be finite and > 0, got {self.tau_th!r}")
        if not (-math.inf < self.shift_per_watt < 0):
            raise ValueError(
                f"shift_per_watt must be finite and < 0 (red shift), got {self.shift_per_watt!r}")
        if not (0.0 <= self.absorption_fraction <= 1.0):
            raise ValueError(f"absorption_fraction must be in [0, 1], got {self.absorption_fraction!r}")

    @property
    def shift_coefficient(self) -> float:
        """Steady-state resonance shift per circulating watt (Hz/W), <= 0."""
        return self.shift_per_watt * self.absorption_fraction


@dataclass(frozen=True)
class LockConfig:
    """Lock-loop knobs.

    setpoint: target probe transmission on the fringe side; dt: integrator
    step, contract dt < tau_th/10 (default_lock_config derives both); gain_i:
    integral gain in Hz per unit transmission error per second (per-second,
    see module docstring); heater_power in W.
    """

    setpoint: float
    dt: float
    gain_i: float = THERMAL_DEFAULTS["gain_i"]
    heater_power: float = THERMAL_DEFAULTS["heater_power_w"]

    def __post_init__(self):
        for name in ("setpoint", "dt", "gain_i", "heater_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.dt > 0):
            raise NonPositiveRate(f"dt must be > 0, got {self.dt!r}")
        if not (self.heater_power >= 0):
            raise NonPositiveRate(f"heater_power must be >= 0, got {self.heater_power!r}")


def _check_dt(config: LockConfig, thermal: ThermalParams):
    if not (config.dt < thermal.tau_th / 10.0):
        raise StepTooCoarse(
            f"dt={config.dt!r} violates dt < tau_th/10 = {thermal.tau_th / 10.0!r}"
        )


def _step_count(duration_s: float, dt: float) -> int:
    """Steps of dt covering duration_s, both ends included; at most MAX_STEPS."""
    steps = duration_s / dt
    if not (steps <= MAX_STEPS - 1):
        count = math.ceil(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"{duration_s!r} s of integration at dt={dt!r} s needs {count} "
                         f"steps, more than MAX_STEPS={MAX_STEPS}")
    return int(math.ceil(steps)) + 1


def _check_wide(name: str, reach_hz: float, w: float):
    """Refuse a reach whose Lorentzian argument x = 2 reach / w has a non-finite (2x)^2."""
    x = 2.0 * reach_hz / w
    if not math.isfinite((2.0 * x) * (2.0 * x)):
        raise ValueError(f"{name} of {reach_hz!r} Hz is {reach_hz / w:.3g} linewidths, too "
                         f"wide: (2x)^2, x = 2 * {reach_hz!r} Hz / linewidth, is not finite")


def _check_shift(name: str, shift_hz: float, w: float):
    """Refuse a resonance displacement wider than MAX_SHIFT_LINEWIDTHS."""
    if not (abs(shift_hz) <= MAX_SHIFT_LINEWIDTHS * w):
        raise ValueError(f"{name} of {shift_hz!r} Hz is {abs(shift_hz) / w:.3g} linewidths, "
                         f"more than MAX_SHIFT_LINEWIDTHS={MAX_SHIFT_LINEWIDTHS:g}")


def buildup_factor(cavity: CavityParams) -> float:
    """Resonant circulating-to-input power ratio, 2 kappa_ex FSR / kappa^2."""
    return 2.0 * cavity.kappa_ex * cavity.fsr / cavity.kappa ** 2


def _lorentzian(detuning, peak, fwhm):
    """peak / (1 + (2 detuning / fwhm)^2), on floats or arrays alike."""
    x = 2.0 * detuning / fwhm
    return peak / (1.0 + x * x)


def _dip(detuning, depth, fwhm):
    """1 minus a Lorentzian of the given depth: the bare-cavity probe dip."""
    return 1.0 - _lorentzian(detuning, depth, fwhm)


def dip_depth(cavity: CavityParams) -> float:
    """On-resonance transmission drop of the bare cavity, 1 - (1 - 2 kex/k)^2."""
    return 1.0 - (1.0 - 2.0 * cavity.kappa_ratio) ** 2


def probe_transmission(probe_detuning_hz, cavity: CavityParams):
    """Bare-cavity Lorentzian dip seen by the weak probe."""
    out = _dip(np.asarray(probe_detuning_hz, dtype=float), dip_depth(cavity), cavity.fwhm_hz)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TimeSeries:
    """Simulation record; all arrays share one time axis."""

    time_s: np.ndarray
    heater_detuning_hz: np.ndarray
    resonance_offset_hz: np.ndarray
    p_circ_w: np.ndarray
    probe_transmission: np.ndarray
    metrics: dict


def _dwell_above(time_s, signal, threshold) -> float:
    """Total time signal > threshold, crossings linearly interpolated.

    Each interval's share is summed left to right from 0.0 by cumsum, the
    order of a plain running total.
    """
    t = np.asarray(time_s)
    s = np.asarray(signal)
    if len(t) < 2:
        return 0.0
    above = s > threshold
    a0, a1 = above[:-1], above[1:]
    part = np.empty(len(t))
    part[0] = 0.0
    share = part[1:]
    np.subtract(t[1:], t[:-1], out=share)
    i = np.flatnonzero(a0 != a1)
    frac = (threshold - s[i]) / (s[i + 1] - s[i])
    crossing = np.where(a1[i], 1.0 - frac, frac) * share[i]
    inside = np.logical_and(a0, a1)
    share[np.logical_not(inside, out=inside)] = 0.0
    share[i] = crossing
    return float(np.cumsum(part, out=part)[-1])


def scan_experiment(direction: str, scan_rate: float, span_hz: float,
                    thermal: ThermalParams, config: LockConfig,
                    cavity: CavityParams) -> TimeSeries:
    """Sweep the heater laser across the cold resonance and record the response.

    The laser moves linearly at scan_rate (Hz/s) over a window of span_hz
    centered on the cold resonance, from the top for direction="down" and
    from the bottom for direction="up". The returned metrics include
    dwell_s: the time spent above half the resonant buildup, the standard
    measure of how long the scan stayed coupled to the (pulled) resonance.

    Before it steps, a scan refuses (ValueError) a span whose (2x)^2, x =
    2 span / linewidth, is not finite and a full-buildup pull wider than
    MAX_SHIFT_LINEWIDTHS, and (StepTooCoarse) a step that moves the laser
    farther than the span. A scan that never rises above half buildup has no
    dwell to measure. It raises StepTooCoarse when the laser crossed the
    resonance (each step jumps past it), and ValueError when the heating
    pulled the resonance out of the window ahead of the laser.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    scan_rate, span_hz = scan_window(thermal, cavity, scan_rate, span_hz)
    _check_dt(config, thermal)
    if config.heater_power == 0.0:
        raise ValueError("heater_power is 0 W: there is no buildup for the scan to dwell on")
    dt = config.dt
    w = cavity.fwhm_hz
    peak = config.heater_power * buildup_factor(cavity)
    shift = thermal.shift_coefficient
    # the laser ends within 1.5 spans of the centre and the resonance within
    # MAX_SHIFT_LINEWIDTHS of the cold one, so every detuning's Lorentzian
    # argument stays below 2x, x = 2 span / linewidth, or below about 10**7
    _check_wide("span", span_hz, w)
    _check_shift("the heater's full-buildup pull", shift * peak, w)
    if not (scan_rate * dt <= span_hz):
        raise StepTooCoarse(f"one step of dt={dt!r} s at scan_rate={scan_rate!r} Hz/s moves "
                            f"the laser {scan_rate * dt!r} Hz, farther than the span of "
                            f"{span_hz!r} Hz")
    n = _step_count(span_hz / scan_rate, dt)
    sign = -1.0 if direction == "down" else 1.0
    nu_start = span_hz / 2.0 if direction == "down" else -span_hz / 2.0

    time_s = np.arange(n) * dt
    slope = sign * scan_rate
    heater_freq = nu_start + slope * time_s
    # the loop carries only the resonance offset, in the operation order of
    # _lorentzian and the explicit Euler step, and records it; the other
    # columns are derived from it below. nu_start + slope * (k * dt) is
    # heater_freq[k] exactly.
    rate = dt / thermal.tau_th
    rec = array("d", [0.0]) * n
    off = 0.0
    for k in range(n):
        rec[k] = off
        x = 2.0 * (nu_start + slope * (k * dt) - off) / w
        off = off + rate * (shift * (peak / (1.0 + x * x)) - off)
    offset = np.frombuffer(rec)
    detuning = heater_freq - offset
    p_circ = _lorentzian(detuning, peak, w)
    dwell = _dwell_above(time_s, p_circ, 0.5 * peak)
    if dwell == 0.0:
        if detuning.min() < 0.0 < detuning.max():
            raise StepTooCoarse(
                f"the {direction} scan never rose above half buildup at "
                f"scan_rate={scan_rate!r} Hz/s and dt={dt!r} s "
                f"({scan_rate * dt / w:.3g} linewidths per step): it has no dwell to measure"
            )
        raise ValueError(
            f"the {direction} scan never crossed the resonance, which the heating pulled "
            f"{-offset.min() / w:.3g} linewidths ahead, within its span of "
            f"{span_hz / w:.3g} linewidths: widen the span or lower the heater power"
        )
    metrics = {
        "dwell_s": dwell,
        "final_resonance_offset_hz": float(offset[-1]),
        "max_pull_hz": float(offset.min()),
    }
    return TimeSeries(
        time_s=time_s,
        heater_detuning_hz=detuning,
        resonance_offset_hz=offset,
        p_circ_w=p_circ,
        probe_transmission=probe_transmission(detuning, cavity),
        metrics=metrics,
    )


def scan_window(thermal: ThermalParams, cavity: CavityParams,
                scan_rate: float | None = None, span_hz: float | None = None):
    """(scan_rate, span_hz), checked; by default one cold linewidth per 10 tau_th over 60 linewidths."""
    w = cavity.fwhm_hz
    scan_rate = w / (10.0 * thermal.tau_th) if scan_rate is None else scan_rate
    span_hz = 60.0 * w if span_hz is None else span_hz
    if not (0 < scan_rate < math.inf):
        raise NonPositiveRate(f"scan_rate must be finite and > 0, got {scan_rate!r}")
    if not (3.0 * w <= span_hz < math.inf):
        raise ValueError(f"span {span_hz!r} Hz must be finite and cover >= 3 cold "
                         f"linewidths ({3 * w:.3g} Hz)")
    return scan_rate, span_hz


def scan_pair(thermal: ThermalParams, config: LockConfig, cavity: CavityParams,
              scan_rate: float | None = None, span_hz: float | None = None):
    """(down, up, ratio): mirrored scans over one scan_window and their dwell ratio down/up."""
    down = scan_experiment("down", scan_rate, span_hz, thermal, config, cavity)
    up = scan_experiment("up", scan_rate, span_hz, thermal, config, cavity)
    return down, up, down.metrics["dwell_s"] / up.metrics["dwell_s"]


def equilibrium_detuning(target_offset_hz: float, thermal: ThermalParams,
                         config: LockConfig, cavity: CavityParams) -> float:
    """Blue-side heater detuning whose steady state is target_offset_hz.

    Solves shift_coefficient * P_circ(detuning) = target on the stable
    branch (heater above the warm resonance, detuning > 0).
    """
    s = thermal.shift_coefficient
    if not (target_offset_hz < 0):
        raise ValueError("target offset must be < 0 (red shift only)")
    if s == 0.0:
        raise ValueError("shift coefficient is 0: no absorbed heater power moves the resonance")
    p_needed = target_offset_hz / s
    p_max = config.heater_power * buildup_factor(cavity)
    if p_needed > p_max:
        raise ValueError(
            f"target needs {p_needed:.3g} W circulating, max buildup is {p_max:.3g} W"
        )
    return 0.5 * cavity.fwhm_hz * math.sqrt(p_max / p_needed - 1.0)


def lock_loop(duration_s: float, thermal: ThermalParams, config: LockConfig,
              cavity: CavityParams, step=None) -> TimeSeries:
    """Closed-loop resonance stabilization to a side-of-fringe probe setpoint.

    Geometry: the cold resonance sits LOCK_OFFSET_LINEWIDTHS above the probe
    region; the heater holds the warm resonance half a linewidth below the
    fixed probe frequency (blue flank, transmission = setpoint). Each step
    the integral controller moves the heater laser by
    gain_i * (T_probe - setpoint) * dt, which reduces heating when the probe
    transmission is high (resonance too far red) and vice versa.

    step: optional (t0_s, size_hz), an exogenous perturbation that adds 0 Hz
    to the resonance position before t0_s and size_hz from t0_s on, both
    finite. Raises LockLost if the probe transmission stays outside
    setpoint +- CAPTURE_BAND * depth (the bare-cavity dip depth) for more
    than CAPTURE_PATIENCE consecutive steps. Refuses (ValueError) a step or a
    full-buildup heater pull wider than MAX_SHIFT_LINEWIDTHS, and a gain
    whose reach over the run, |gain_i| * dt per step, has a non-finite
    (2x)^2, x = 2 reach / linewidth.

    Before and after the step the loop integrates only until its float state
    (resonance offset, integral) reaches a fixed point, a step that leaves it
    unchanged, and repeats that state for the rest of the segment, raising
    LockLost at the step where the out-of-band streak would run out; the
    record is bit for bit the one the step-by-step loop makes.

    Metrics: rms transmission error, rms resonance error (Hz), re-lock time
    (duration of the out-of-band resonance excursion, 5% of a linewidth
    band, crossings interpolated), and the final resonance offset.
    """
    _check_dt(config, thermal)
    if not (0 < duration_s < math.inf):
        raise ValueError(f"duration must be finite and > 0, got {duration_s!r}")
    t0_s, size_hz = (0.0, 0.0) if step is None else step
    if not (math.isfinite(t0_s) and math.isfinite(size_hz)):
        raise ValueError(f"step time {t0_s!r} s and size {size_hz!r} Hz must be finite")
    w = cavity.fwhm_hz
    _check_shift("the step", size_hz, w)
    depth = dip_depth(cavity)
    if not (1.0 - depth < config.setpoint < 1.0):
        raise ValueError(
            f"setpoint {config.setpoint!r} outside the fringe ({1 - depth:.3f}, 1)"
        )
    target_offset = -LOCK_OFFSET_LINEWIDTHS * w
    # probe detuning from resonance realizing the setpoint, blue flank
    dp = 0.5 * w * math.sqrt(depth / (1.0 - config.setpoint) - 1.0)
    nu_probe = target_offset + dp
    peak = config.heater_power * buildup_factor(cavity)
    shift = thermal.shift_coefficient
    _check_shift("the heater's full-buildup pull", shift * peak, w)
    dh0 = equilibrium_detuning(target_offset, thermal, config, cavity)
    heater_base = target_offset + dh0
    capture_band = CAPTURE_BAND * depth

    dt = config.dt
    n = _step_count(duration_s, dt)
    # each step moves the heater by gain_i * err * dt, |err| < 1
    _check_wide("the integral's reach", abs(config.gain_i) * dt * n, w)
    time_s = np.arange(n) * dt

    # the loop carries only the resonance offset and the integral, in the
    # operation order of _dip, _lorentzian and the explicit Euler step, and
    # records the resonance position and the integral; every other column is
    # derived from them below. The step adds size_hz from k0, the first k
    # with k * dt >= t0_s (time_s[k] exactly; k * dt never decreases with k,
    # so bisect finds it). A step that leaves (off, integral) unchanged (==)
    # repeats at every later step of its segment; a NaN or cycling state
    # never does, and is integrated step by step.
    setpoint = config.setpoint
    gain_i = config.gain_i
    rate = dt / thermal.tau_th
    k0 = bisect.bisect_left(range(n), t0_s, key=lambda k: k * dt)
    res_rec = array("d", [0.0]) * n
    integral_rec = array("d", [0.0]) * n
    off = target_offset
    integral = 0.0
    out_of_band = 0
    for start, end, d_ext in ((0, k0, 0.0), (k0, n, size_hz)):
        for k in range(start, end):
            res_pos = off + d_ext
            x = 2.0 * (nu_probe - res_pos) / w
            err = (1.0 - depth / (1.0 + x * x)) - setpoint
            if abs(err) > capture_band:
                out_of_band += 1
                if out_of_band > CAPTURE_PATIENCE:
                    raise LockLost(
                        f"probe transmission out of capture range for {out_of_band} steps",
                        time_s=k * dt,
                    )
            else:
                out_of_band = 0
            last_off, last_integral = off, integral
            integral += gain_i * err * dt
            x = 2.0 * ((heater_base + integral) - res_pos) / w
            off = off + rate * (shift * (peak / (1.0 + x * x)) - off)
            res_rec[k] = res_pos
            integral_rec[k] = integral
            if off == last_off and integral == last_integral:
                break
        else:
            continue
        rest = end - k - 1
        if out_of_band:
            lost = k + CAPTURE_PATIENCE + 1 - out_of_band
            if lost < end:
                raise LockLost(
                    f"probe transmission out of capture range for {CAPTURE_PATIENCE + 1} steps",
                    time_s=lost * dt,
                )
            out_of_band += rest
        res_rec[k + 1:end] = array("d", [res_pos]) * rest
        integral_rec[k + 1:end] = array("d", [integral]) * rest

    offset_rec = np.frombuffer(res_rec)
    heater_freq = np.frombuffer(integral_rec)
    heater_freq += heater_base
    detuning = heater_freq - offset_rec
    p_circ = _lorentzian(detuning, peak, w)
    t_probe = _dip(nu_probe - offset_rec, depth, w)
    res_err = offset_rec - target_offset
    band = 0.05 * w
    abs_err = np.abs(res_err)
    metrics = {
        "rms_transmission_error": float(np.sqrt(np.mean((t_probe - config.setpoint) ** 2))),
        "rms_resonance_error_hz": float(np.sqrt(np.mean(res_err ** 2))),
        "relock_time_s": _dwell_above(time_s, abs_err, band),
        "final_resonance_offset_hz": float(offset_rec[-1]),
        "max_resonance_error_hz": float(abs_err.max()),
    }
    return TimeSeries(
        time_s=time_s,
        heater_detuning_hz=detuning,
        resonance_offset_hz=offset_rec,
        p_circ_w=p_circ,
        probe_transmission=t_probe,
        metrics=metrics,
    )


def default_lock_config(cavity: CavityParams, thermal: ThermalParams) -> LockConfig:
    """Demo lock configuration: mid-fringe setpoint, dt = tau_th/40.

    gain_i (verified stable) and heater_power keep LockConfig's defaults.
    """
    return LockConfig(setpoint=1.0 - dip_depth(cavity) / 2.0, dt=thermal.tau_th / 40.0)
