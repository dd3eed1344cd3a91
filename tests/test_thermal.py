import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, curve_fit

import oracles
from ringcav import thermal
from ringcav.errors import LockLost, NonPositiveRate, StepTooCoarse


@pytest.fixture(scope="module")
def therm():
    return thermal.ThermalParams()


@pytest.fixture(scope="module")
def config(cavity, therm):
    return thermal.default_lock_config(cavity, therm)


# one step of the loops' own helpers: the heater's Lorentzian buildup and an
# explicit-Euler relaxation of the resonance offset toward its heated value

def _p_circ(detuning_hz, heater_power, cavity):
    return thermal._lorentzian(detuning_hz, heater_power * thermal.buildup_factor(cavity),
                               cavity.fwhm_hz)


def _relax(offset, p_circ, therm, dt):
    return offset + (dt / therm.tau_th) * (therm.shift_coefficient * p_circ - offset)


def test_thermal_params_validation():
    with pytest.raises(NonPositiveRate):
        thermal.ThermalParams(tau_th=0.0)
    with pytest.raises(ValueError):
        thermal.ThermalParams(shift_per_watt=1e11)  # heating must shift red
    with pytest.raises(ValueError):
        thermal.ThermalParams(absorption_fraction=-0.1)
    thermal.ThermalParams(absorption_fraction=0.0)  # zero absorption allowed


def test_dt_invariant_enforced(cavity, therm, config):
    bad = replace(config, dt=therm.tau_th / 5.0)
    with pytest.raises(StepTooCoarse):
        thermal.lock_loop(0.01, therm, bad, cavity)
    with pytest.raises(StepTooCoarse):
        thermal.scan_experiment("down", 1e9, 300e6, therm, bad, cavity)


def test_buildup_factor_value(cavity):
    b = thermal.buildup_factor(cavity)
    assert b == pytest.approx(2.0 * cavity.kappa_ex * cavity.fsr / cavity.kappa ** 2, rel=1e-12)
    assert b == pytest.approx(4.702, abs=0.01)


def test_circulating_power_lorentzian(cavity):
    p0 = _p_circ(0.0, 2e-3, cavity)
    assert p0 == pytest.approx(2e-3 * thermal.buildup_factor(cavity), rel=1e-12)
    w = cavity.fwhm_hz
    p_half = _p_circ(w / 2.0, 2e-3, cavity)
    assert p_half == pytest.approx(p0 / 2.0, rel=1e-12)


def test_probe_transmission_dip_depth(cavity):
    t0 = thermal.probe_transmission(0.0, cavity)
    assert t0 == pytest.approx(1.0 - thermal.dip_depth(cavity), rel=1e-12)
    t_far = thermal.probe_transmission(100 * cavity.fwhm_hz, cavity)
    assert t_far == pytest.approx(1.0, abs=1e-3)


def test_relax_matches_exact_exponential(therm):
    # explicit Euler vs exact solution for constant drive, small dt
    dt = therm.tau_th / 400.0
    off = 0.0
    p = 1e-3
    for _ in range(400):
        off = _relax(off, p, therm, dt)
    exact = oracles.thermal_exact_step(0.0, p, therm.shift_coefficient, therm.tau_th,
                                       therm.tau_th)
    assert off == pytest.approx(exact, rel=2e-3)


def test_relax_time_constant_recovered(cavity, therm):
    # free decay from a displaced offset fits exp(-t/tau) with tau within 1%
    dt = therm.tau_th / 100.0
    n = 400
    offs = np.empty(n)
    off = -5e6
    for k in range(n):
        offs[k] = off
        off = _relax(off, 0.0, therm, dt)
    t = np.arange(n) * dt

    def model(t, tau):
        return -5e6 * np.exp(-t / tau)

    (tau_fit,), _ = curve_fit(model, t, offs, p0=[8e-3])
    assert tau_fit == pytest.approx(therm.tau_th, rel=0.01)


def test_relax_fixed_point(therm):
    # iterating at constant power converges to shift_coefficient * power
    dt = therm.tau_th / 40.0
    off = 0.0
    for _ in range(4000):
        off = _relax(off, 2e-3, therm, dt)
    assert off == pytest.approx(therm.shift_coefficient * 2e-3, rel=1e-9)


def test_equilibrium_detuning_is_equilibrium(cavity, therm, config):
    target = -10.0 * cavity.fwhm_hz
    dh = thermal.equilibrium_detuning(target, therm, config, cavity)
    assert dh > 0  # blue side of the warm resonance
    p = _p_circ(dh, config.heater_power, cavity)
    assert therm.shift_coefficient * p == pytest.approx(target, rel=1e-9)


def test_equilibrium_detuning_rejects_unreachable(cavity, therm, config):
    too_deep = therm.shift_coefficient * config.heater_power * thermal.buildup_factor(cavity) * 2.0
    with pytest.raises(ValueError):
        thermal.equilibrium_detuning(too_deep, therm, config, cavity)
    cold = replace(therm, absorption_fraction=0.0)
    with pytest.raises(ValueError, match="shift coefficient is 0"):
        thermal.equilibrium_detuning(-cavity.fwhm_hz, cold, config, cavity)


def test_warm_lock_point_is_stable_discrete_map(cavity, therm, config):
    # linearized one-step map of (offset) around the blue-side equilibrium
    # must have |slope| < 1 at the default dt
    target = -10.0 * cavity.fwhm_hz
    dh0 = thermal.equilibrium_detuning(target, therm, config, cavity)
    heater_freq = target + dh0

    def step_once(off):
        p = _p_circ(heater_freq - off, config.heater_power, cavity)
        return _relax(off, p, therm, config.dt)

    eps = 1.0  # Hz
    slope = (step_once(target + eps) - step_once(target - eps)) / (2 * eps)
    assert abs(slope) < 1.0


def test_scan_dwell_asymmetry(cavity, therm, config):
    down, up, ratio = thermal.scan_pair(therm, config, cavity)
    assert down.metrics["dwell_s"] > up.metrics["dwell_s"]
    assert ratio >= 2.0


def test_fast_scan_pair_is_too_coarse(cavity, therm, config):
    # at 1e11 Hz/s each step moves the heater about 6 linewidths: neither scan
    # rises above half buildup, and a dwell of 0 would divide the ratio
    with pytest.raises(StepTooCoarse, match=r"scan_rate=100000000000\.0 Hz/s and dt=0\.00025 s"):
        thermal.scan_pair(therm, config, cavity, scan_rate=1e11)


def test_step_cap_counts_both_ends():
    assert thermal._step_count(thermal.MAX_STEPS - 1, 1.0) == thermal.MAX_STEPS
    with pytest.raises(ValueError, match=f"needs {thermal.MAX_STEPS + 1} steps"):
        thermal._step_count(thermal.MAX_STEPS - 0.5, 1.0)


def test_scan_pulled_out_of_its_window_is_refused(cavity, therm, config):
    # 7.8 mW drags the resonance about 3.6 linewidths ahead of a down scan
    # that spans 3: the laser never reaches it, and the dwell would read 0
    hot = replace(config, heater_power=0.0078125)
    args = (cavity.fwhm_hz / therm.tau_th, 3.0 * cavity.fwhm_hz, therm, hot, cavity)
    with pytest.raises(ValueError, match="never crossed the resonance"):
        thermal.scan_experiment("down", *args)
    assert thermal.scan_experiment("up", *args).metrics["dwell_s"] > 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_lock_settings_must_be_finite(cavity, therm, config, bad):
    invalid = (ValueError, NonPositiveRate)  # both exit 2
    for field in ("tau_th", "shift_per_watt", "absorption_fraction"):
        with pytest.raises(invalid, match=field):
            replace(therm, **{field: bad})
    for field in ("setpoint", "dt", "gain_i", "heater_power"):
        with pytest.raises(invalid, match=f"{field} must be finite"):
            replace(config, **{field: bad})
    with pytest.raises(ValueError, match="duration must be finite"):
        thermal.lock_loop(bad, therm, config, cavity)
    for rate, span, name in ((bad, 300e6, "scan_rate"), (1e9, bad, "span")):
        with pytest.raises(invalid, match=name):
            thermal.scan_experiment("down", rate, span, therm, config, cavity)
    for step in ((bad, 1e6), (0.1, bad)):
        with pytest.raises(ValueError, match=r"step time .* s and size .* Hz must be finite"):
            thermal.lock_loop(0.1, therm, config, cavity, step=step)


def test_scan_zero_absorption_symmetric(cavity, config):
    cold = thermal.ThermalParams(absorption_fraction=0.0)
    down, up, ratio = thermal.scan_pair(cold, config, cavity)
    assert ratio == 1.0
    assert down.metrics["dwell_s"] == up.metrics["dwell_s"]


def test_scan_requires_span(cavity, therm, config):
    with pytest.raises(ValueError, match="span"):
        thermal.scan_experiment("down", 1e9, cavity.fwhm_hz, therm, config, cavity)
    with pytest.raises(ValueError, match="direction"):
        thermal.scan_experiment("sideways", 1e9, 300e6, therm, config, cavity)


def test_scan_down_pulls_resonance_red(cavity, therm, config):
    series = thermal.scan_experiment(
        "down", cavity.fwhm_hz / (10 * therm.tau_th), 60 * cavity.fwhm_hz,
        therm, config, cavity)
    assert series.metrics["max_pull_hz"] < -cavity.fwhm_hz  # pulled > 1 linewidth


def test_scan_timeseries_shapes(cavity, therm, config):
    series = thermal.scan_experiment("up", 4e9, 300e6, therm, config, cavity)
    n = series.time_s.size
    for name in ("heater_detuning_hz", "resonance_offset_hz", "p_circ_w", "probe_transmission"):
        assert getattr(series, name).shape == (n,)
    # the up scan starts at the bottom of the span, with the resonance not yet pulled
    assert series.resonance_offset_hz[0] == 0.0
    assert series.heater_detuning_hz[0] == pytest.approx(-150e6)


def test_lock_loop_holds_setpoint(cavity, therm, config):
    series = thermal.lock_loop(0.5, therm, config, cavity)
    m = series.metrics
    assert m["rms_transmission_error"] < 0.02
    assert abs(m["final_resonance_offset_hz"] - (-10 * cavity.fwhm_hz)) < 0.05 * cavity.fwhm_hz


def test_lock_loop_relocks_after_step(cavity, therm, config):
    series = thermal.lock_loop(0.4, therm, config, cavity, step=(0.1, 0.5 * cavity.fwhm_hz))
    m = series.metrics
    assert m["relock_time_s"] < 10.0 * therm.tau_th
    assert m["max_resonance_error_hz"] == pytest.approx(0.5 * cavity.fwhm_hz, rel=1e-9)
    assert abs(m["final_resonance_offset_hz"] - (-10 * cavity.fwhm_hz)) < 0.05 * cavity.fwhm_hz


def test_lock_lost_on_large_step(cavity, therm, config):
    with pytest.raises(LockLost) as exc_info:
        thermal.lock_loop(0.5, therm, config, cavity, step=(0.05, 30.0 * cavity.fwhm_hz))
    assert exc_info.value.time_s is not None
    assert exc_info.value.time_s >= 0.05


def test_lock_lost_at_excessive_gain(cavity, therm, config):
    # the loop starts at its fixed point, so instability needs a seed
    hot = replace(config, gain_i=1e12)
    with pytest.raises(LockLost):
        thermal.lock_loop(0.5, therm, hot, cavity, step=(0.02, 0.1 * cavity.fwhm_hz))


def test_lock_refuses_unrepresentable_detunings(cavity, therm, config):
    # each would overflow a squared Lorentzian argument in the derived columns
    w = cavity.fwhm_hz
    with pytest.raises(ValueError, match="the step of .* more than MAX_SHIFT_LINEWIDTHS=1e"):
        thermal.lock_loop(0.001, therm, config, cavity, step=(0.0, 1e300 * w))
    hot = replace(config, heater_power=1e300)
    with pytest.raises(ValueError, match="the heater's full-buildup pull of -inf Hz"):
        thermal.lock_loop(0.01, replace(therm, shift_per_watt=-1e300), hot, cavity)
    with pytest.raises(ValueError, match="the integral's reach of .* too wide"):
        thermal.lock_loop(0.01, therm, replace(config, gain_i=1e300), cavity)
    # a step of MAX_SHIFT_LINEWIDTHS runs, and loses the lock
    with pytest.raises(LockLost):
        thermal.lock_loop(0.05, therm, config, cavity,
                          step=(0.0, thermal.MAX_SHIFT_LINEWIDTHS * w))


def test_lock_deterministic(cavity, therm, config):
    a = thermal.lock_loop(0.2, therm, config, cavity)
    b = thermal.lock_loop(0.2, therm, config, cavity)
    np.testing.assert_array_equal(a.resonance_offset_hz, b.resonance_offset_hz)
    np.testing.assert_array_equal(a.probe_transmission, b.probe_transmission)
    assert a.metrics == b.metrics


def test_closed_loop_linearization_stable(cavity, therm, config):
    # two-state map (offset, integral): numerical Jacobian eigenvalues
    # inside the unit circle at the default operating point
    w = cavity.fwhm_hz
    depth = thermal.dip_depth(cavity)
    target = -10.0 * w
    dp = 0.5 * w * math.sqrt(depth / (1.0 - config.setpoint) - 1.0)
    nu_probe = target + dp
    heater_base = target + thermal.equilibrium_detuning(target, therm, config, cavity)

    def advance(state):
        off, integral = state
        t_p = thermal.probe_transmission(nu_probe - off, cavity)
        integral = integral + config.gain_i * (t_p - config.setpoint) * config.dt
        dh = heater_base + integral - off
        p = _p_circ(dh, config.heater_power, cavity)
        return np.array([_relax(off, p, therm, config.dt), integral])

    x0 = np.array([target, 0.0])
    jac = np.empty((2, 2))
    for j, eps in enumerate((1.0, 1.0)):
        e = np.zeros(2)
        e[j] = eps
        jac[:, j] = (advance(x0 + e) - advance(x0 - e)) / (2 * eps)
    eig = np.abs(np.linalg.eigvals(jac))
    assert np.all(eig < 1.0)


def test_dwell_interpolation_matches_analytic():
    # triangle crossing a threshold: exact overlap time is computable
    t = np.linspace(0.0, 1.0, 11)
    signal = 1.0 - 2.0 * np.abs(t - 0.5)  # peak 1 at t=0.5
    # signal > 0.5 for t in (0.25, 0.75): duration 0.5
    assert thermal._dwell_above(t, signal, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_default_config_mid_fringe(cavity, therm, config):
    assert config.setpoint == pytest.approx(1.0 - thermal.dip_depth(cavity) / 2.0, rel=1e-12)
    assert config.dt == pytest.approx(therm.tau_th / 40.0, rel=1e-12)


# ------------------------------------------------ replay of the per-step loops
#
# The loops below step the model through the helpers (_lorentzian as _p_circ,
# the explicit Euler step as _relax above, and probe_transmission), record
# every column as they go, and sum dwell times with a running total, one
# numpy scalar at a time. The package's loops carry only their state on plain
# floats, derive the other columns afterwards, and must reproduce the replay
# bit for bit.

def _dwell_loop(time_s, signal, threshold):
    t = np.asarray(time_s)
    s = np.asarray(signal)
    total = 0.0
    above = s > threshold
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        if above[i] and above[i + 1]:
            total += dt
        elif above[i] != above[i + 1]:
            frac = (threshold - s[i]) / (s[i + 1] - s[i])
            total += (1.0 - frac) * dt if above[i + 1] else frac * dt
    return total


def _replay_scan(direction, scan_rate, span_hz, therm, config, cavity):
    dt = config.dt
    n = int(math.ceil(span_hz / scan_rate / dt)) + 1
    sign = -1.0 if direction == "down" else 1.0
    nu_start = span_hz / 2.0 if direction == "down" else -span_hz / 2.0
    time_s = np.arange(n) * dt
    heater_freq = nu_start + sign * scan_rate * time_s
    offset, detuning, p_circ = np.empty(n), np.empty(n), np.empty(n)
    off = 0.0
    for k in range(n):
        d = heater_freq[k] - off
        pc = _p_circ(d, config.heater_power, cavity)
        detuning[k], p_circ[k], offset[k] = d, pc, off
        off = _relax(off, pc, therm, dt)
    half_buildup = 0.5 * config.heater_power * thermal.buildup_factor(cavity)
    metrics = {
        "dwell_s": _dwell_loop(time_s, p_circ, half_buildup),
        "final_resonance_offset_hz": float(offset[-1]),
        "max_pull_hz": float(offset.min()),
    }
    return thermal.TimeSeries(time_s, detuning, offset, p_circ,
                              thermal.probe_transmission(detuning, cavity), metrics)


def _replay_lock(duration_s, therm, config, cavity, step=None):
    w = cavity.fwhm_hz
    depth = thermal.dip_depth(cavity)
    target_offset = -10.0 * w
    nu_probe = target_offset + 0.5 * w * math.sqrt(depth / (1.0 - config.setpoint) - 1.0)
    heater_base = target_offset + thermal.equilibrium_detuning(target_offset, therm, config,
                                                               cavity)
    capture_band = 0.45 * depth
    dt = config.dt
    n = int(math.ceil(duration_s / dt)) + 1
    time_s = np.arange(n) * dt
    detuning, offset_rec, p_circ, t_probe = (np.empty(n) for _ in range(4))
    off, integral, out_of_band = target_offset, 0.0, 0
    # the step as a function of time, asked at each step's time_s[k]
    t0, size = (math.inf, 0.0) if step is None else step
    disturbance = lambda t: size if t >= t0 else 0.0
    for k in range(n):
        d_ext = float(disturbance(time_s[k]))
        res_pos = off + d_ext
        t_p = thermal.probe_transmission(nu_probe - res_pos, cavity)
        err = t_p - config.setpoint
        if abs(err) > capture_band:
            out_of_band += 1
            if out_of_band > thermal.CAPTURE_PATIENCE:
                raise LockLost(
                    f"probe transmission out of capture range for {out_of_band} steps",
                    time_s=float(time_s[k]),
                )
        else:
            out_of_band = 0
        integral += config.gain_i * err * dt
        nu_h = heater_base + integral
        dh = nu_h - res_pos
        pc = _p_circ(dh, config.heater_power, cavity)
        detuning[k], offset_rec[k], p_circ[k], t_probe[k] = dh, res_pos, pc, t_p
        off = _relax(off, pc, therm, dt)
    res_err = offset_rec - target_offset
    abs_err = np.abs(res_err)
    metrics = {
        "rms_transmission_error": float(np.sqrt(np.mean((t_probe - config.setpoint) ** 2))),
        "rms_resonance_error_hz": float(np.sqrt(np.mean(res_err ** 2))),
        "relock_time_s": _dwell_loop(time_s, abs_err, 0.05 * w),
        "final_resonance_offset_hz": float(offset_rec[-1]),
        "max_resonance_error_hz": float(abs_err.max()),
    }
    return thermal.TimeSeries(time_s, detuning, offset_rec, p_circ, t_probe, metrics)


_SERIES_ARRAYS = ("time_s", "heater_detuning_hz", "resonance_offset_hz", "p_circ_w",
                  "probe_transmission")


def _assert_same_series(got, want):
    for name in _SERIES_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert list(got.metrics) == list(want.metrics)
    for name, value in want.metrics.items():
        assert got.metrics[name] == value, name


@pytest.mark.parametrize("direction", ["up", "down"])
def test_scan_matches_step_by_step_replay(cavity, therm, config, direction):
    args = (direction, cavity.fwhm_hz / (4.0 * therm.tau_th), 60.0 * cavity.fwhm_hz,
            therm, config, cavity)
    series = thermal.scan_experiment(*args)
    assert series.metrics["dwell_s"] > 0.0
    _assert_same_series(series, _replay_scan(*args))


def test_lock_step_matches_step_by_step_replay(cavity, therm, config):
    step = (0.1, 0.4 * cavity.fwhm_hz)
    series = thermal.lock_loop(0.4, therm, config, cavity, step=step)
    assert series.metrics["relock_time_s"] > 0.0
    _assert_same_series(series, _replay_lock(0.4, therm, config, cavity, step=step))


def test_lock_hold_matches_step_by_step_replay(cavity, therm, config):
    _assert_same_series(thermal.lock_loop(0.2, therm, config, cavity),
                        _replay_lock(0.2, therm, config, cavity))


def test_lock_lost_matches_step_by_step_replay(cavity, therm, config):
    step = (0.05, 30.0 * cavity.fwhm_hz)
    with pytest.raises(LockLost) as got:
        thermal.lock_loop(0.5, therm, config, cavity, step=step)
    with pytest.raises(LockLost) as want:
        _replay_lock(0.5, therm, config, cavity, step=step)
    assert str(got.value) == str(want.value)
    assert got.value.time_s == want.value.time_s
    assert type(got.value.time_s) is float


@pytest.mark.parametrize("patience", [900, 1500, 1900, 1901, 10 ** 6])
@pytest.mark.parametrize("step_linewidths", [-2.0, 2.0, 30.0])
def test_lock_lost_after_settling_matches_replay(cavity, therm, config, monkeypatch,
                                                 patience, step_linewidths):
    # with no integral gain the heater stays put, and after the step at k0 = 100
    # the state reaches its float fixed point within about 830 steps: inside
    # the capture band for -2 linewidths, outside it for 2 and 30. There the
    # streak runs out after the loop stopped stepping: at 900 and 1500 steps,
    # on the last of the 2001 steps (30 linewidths at 1900), or never
    monkeypatch.setattr(thermal, "CAPTURE_PATIENCE", patience)
    frozen = replace(config, gain_i=0.0, dt=therm.tau_th / 20.0)
    step = (0.05, step_linewidths * cavity.fwhm_hz)
    got = _outcome(thermal.lock_loop, 1.0, therm, frozen, cavity, step=step)
    want = _outcome(_replay_lock, 1.0, therm, frozen, cavity, step=step)
    if step_linewidths > 0 and patience <= 1500:
        assert isinstance(want, LockLost)
    if isinstance(want, LockLost):
        assert isinstance(got, LockLost)
        assert str(got) == str(want)
        assert got.time_s == want.time_s
    else:
        _assert_same_series(got, want)


def _outcome(run, *args, **kwargs):
    """What a loop returns, or the LockLost it raises."""
    try:
        return run(*args, **kwargs)
    except LockLost as lost:
        return lost


# a step time on the default lock's integrator grid; at duration 0.5,
# step_at * duration is 2 * _GRID_T0 * 0.5 == _GRID_T0 exactly
_GRID_T0 = 200 * (thermal.ThermalParams().tau_th / 40.0)


@settings(max_examples=40, deadline=None)
@given(duration=st.floats(0.01, 0.5), step_linewidths=st.floats(0.0, 30.0),
       step_at=st.floats(0.0, 1.0), log_gain=st.floats(8.0, 11.0),
       heater_power=st.floats(1.2e-3, 8e-3))
@example(duration=0.5, step_linewidths=0.4, step_at=2 * _GRID_T0, log_gain=9.0,
         heater_power=2e-3)  # on a grid time
@example(duration=0.5, step_linewidths=0.4, step_at=2 * math.nextafter(_GRID_T0, 0.0),
         log_gain=9.0, heater_power=2e-3)  # one ulp below a grid time
@example(duration=0.5, step_linewidths=0.4, step_at=-0.5, log_gain=9.0,
         heater_power=2e-3)  # before the start
@example(duration=0.5, step_linewidths=0.4, step_at=2.0, log_gain=9.0,
         heater_power=2e-3)  # past the end
@example(duration=0.5, step_linewidths=2.0, step_at=0.4, log_gain=-math.inf,
         heater_power=2e-3)  # no integral gain: the heater never moves
def test_lock_matches_replay_on_drawn_settings(cavity, therm, config, duration,
                                               step_linewidths, step_at, log_gain,
                                               heater_power):
    # large steps and high gains lose the lock: the message and time must match too
    drawn = replace(config, gain_i=10.0 ** log_gain, heater_power=heater_power)
    step = (step_at * duration, step_linewidths * cavity.fwhm_hz)
    got = _outcome(thermal.lock_loop, duration, therm, drawn, cavity, step=step)
    want = _outcome(_replay_lock, duration, therm, drawn, cavity, step=step)
    if isinstance(want, LockLost):
        assert isinstance(got, LockLost)
        assert str(got) == str(want)
        assert got.time_s == want.time_s
    else:
        _assert_same_series(got, want)


@settings(max_examples=40, deadline=None)
@given(direction=st.sampled_from(["up", "down"]), tau_per_linewidth=st.floats(1.0, 40.0),
       span_linewidths=st.floats(3.0, 6.0), heater_power=st.floats(1e-4, 8e-3))
def test_scan_matches_replay_on_drawn_settings(cavity, therm, config, direction,
                                               tau_per_linewidth, span_linewidths,
                                               heater_power):
    # 1/40 to 1 linewidth per tau_th over 3 to 6 linewidths: at most 9601 steps
    args = (direction, cavity.fwhm_hz / (tau_per_linewidth * therm.tau_th),
            span_linewidths * cavity.fwhm_hz, therm,
            replace(config, heater_power=heater_power), cavity)
    want = _replay_scan(*args)
    if want.metrics["dwell_s"] > 0.0:
        _assert_same_series(thermal.scan_experiment(*args), want)
    else:  # a strong heater pulls the resonance out of a narrow window
        with pytest.raises(ValueError, match="never crossed the resonance"):
            thermal.scan_experiment(*args)


_DWELL_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, -0.0, 0.0, 1.0, np.nan, np.inf, -np.inf]),
)


def _same_float(a, b):
    if math.isnan(b):
        return math.isnan(a)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 40), integers=st.booleans())
@example(data=None, n=0, integers=False)
def test_dwell_above_matches_running_total(data, n, integers):
    # threshold 0.5 sits on the drawn plateaus; -0.0 and the infinities ride along
    if data is None:
        t, s = np.array([]), np.array([])
    elif integers:
        t = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                     dtype=np.int64)
        s = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     dtype=np.int64)
    else:
        t = np.sort(np.array(data.draw(st.lists(_DWELL_VALUES, min_size=n, max_size=n)),
                             dtype=float))
        s = np.array(data.draw(st.lists(_DWELL_VALUES, min_size=n, max_size=n)), dtype=float)
    threshold = 0.5 if not integers else 1.0
    with np.errstate(all="ignore"):
        got = thermal._dwell_above(t, s, threshold)
        want = _dwell_loop(t, s, threshold)
    assert type(got) is float
    assert _same_float(got, float(want))


def test_dwell_above_short_inputs():
    assert thermal._dwell_above([], [], 0.0) == 0.0
    assert thermal._dwell_above([1.0], [2.0], 0.0) == 0.0
    assert thermal._dwell_above([0.0, 2.0], [1.0, 1.0], 0.0) == 2.0
    assert thermal._dwell_above([0.0, 2.0], [-1.0, 1.0], 0.0) == 1.0
    # a running total starts at +0.0, so a lone -0.0 interval sums to +0.0
    assert math.copysign(1.0, thermal._dwell_above([0.0, -0.0], [1.0, 1.0], 0.0)) == 1.0
