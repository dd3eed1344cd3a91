"""Nonlinear least-squares estimation from spectra and saturation curves.

Three models are exposed, all evaluated in external units (x in MHz for
spectra, x in W for saturation curves, parameters as named below):

- "atomic_spectrum": locked-detuning transmission sweep of the coupled
  system at fixed input power; parameters cooperativity, gamma_perp_mhz,
  n_sat, input_power_w, plus cavity rates and scale/baseline nuisances.
- "empty_ring": all-pass ring comb over several FSRs in the
  (finesse, fsr_mhz, dip_transmission, nu0_mhz) parameterization.
- "saturation_curve": on-resonance transmission versus input power.

The optimizer is a bounded Levenberg-Marquardt loop in numpy
(least_squares below) with an analytic jacobian, behind a deterministic
multi-start loop: up to 8 jittered initializations in a fixed order, stopping
once 3 of them reach the best cost seen so far (after the stopping rules of
Boender and Rinnooy Kan, Math. Programming 37, 1987: stop once the best
minimum has been hit several times); best cost wins, ties broken by lowest
cooperativity. The loop scales the parameters by the column norms of the
jacobian (More, "The Levenberg-Marquardt algorithm: implementation and
theory", 1978), updates the damping from the gain ratio (Nielsen,
IMM-REP-1999-05) and projects each step onto the bounds (Kanzow, Yamashita
and Fukushima, J. Comput. Appl. Math., 2004). Unlike a trust-region
reflective solver, it can stop exactly on a bound (C = 0, zero input power,
gamma_perp_mhz = 2.6, n_sat = 1e4, dip_transmission = 0): a parameter on a
bound that the gradient pushes outward is held there for the next step.
Each model evaluation returns the values and their jacobian from one call,
on one code path: the cubic models differentiate the certified intensity
root implicitly, the ring model uses the closed-form derivatives of its
field and of its lineshape mapping; with no free parameters a call skips
only the derivatives. A non-finite jacobian column (at a double root, or at
dip_transmission = 0 where the ring goes as its square root) falls back to
a one-sided difference that steps into the bounds. Degenerate (flat)
parameter directions at the optimum are detected from the jacobian SVD and
reported by raising DegenerateFit.

The starts' jitter is numpy's PCG64 seed-0 uniform stream, computed in
Python integers (_seed0_jitter), so a fit imports no numpy.random.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import steady_state as ss
from .errors import DegenerateFit, ModelEvaluationFailed, NotConverged, RingcavError
from .params import (NOMINAL, CavityParams, EnsembleParams, cavity_from_dict, drive_from_dict,
                     ensemble_from_dict, is_finite, is_number)
from .peaks import _median, find_transmission_dips, measure_splitting
from .ring import _ring_transmission, ring_from_lineshape, ring_transmission
from .units import TWO_PI, mhz_to_rad

N_STARTS = 8
#: fit stops its starts once this many have reached the best cost so far
AGREEING_STARTS = 3
MAX_NFEV = 2000
#: scipy.optimize.least_squares' xtol, ftol and gtol, all at this value
TOL = 1e-14
#: singular-value ratio below which a parameter direction counts as flat
DEGENERACY_RATIO = 1e-7


@dataclass(frozen=True)
class Dataset:
    """Observed curve: abscissa x, normalized transmission yobs, optional sigma."""

    x: np.ndarray
    yobs: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "yobs", np.asarray(self.yobs, dtype=float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.yobs.shape:
            raise ValueError("x and yobs must be 1-d arrays of equal length")
        if self.sigma is not None and self.sigma.shape != self.x.shape:
            raise ValueError("sigma must match x in length")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.yobs)):
            raise ValueError("x and yobs must be finite")
        # a weight 1/sigma**2 outside this range overflows to inf or underflows to 0
        if self.sigma is not None and not np.all((self.sigma >= 1e-150) & (self.sigma <= 1e150)):
            raise ValueError("sigma must lie in [1e-150, 1e150]")

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.x)
        return 1.0 / (self.sigma * self.sigma)


@dataclass(frozen=True)
class FitSpec:
    """What to fit: model name, free parameter names, fixed values, bounds, init.

    A bounds pair's side may be None, JSON's null, for unbounded: it reads
    as -inf below and +inf above.
    """

    model: str
    free: tuple
    fixed: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; have {sorted(MODELS)}")
        if not (isinstance(self.free, (list, tuple)) and all(isinstance(n, str) for n in self.free)):
            raise ValueError(f"free must be a list of parameter names, got {self.free!r}")
        object.__setattr__(self, "free", tuple(self.free))
        repeated = sorted({name for name in self.free if self.free.count(name) > 1})
        if repeated:
            raise ValueError(f"free names {repeated} more than once")
        for label in ("fixed", "bounds", "init"):
            if not isinstance(getattr(self, label), dict):
                raise ValueError(f"{label} must map parameter names to values")
        for label in ("fixed", "init"):
            for name, value in getattr(self, label).items():
                if not is_number(value):
                    raise ValueError(f"{label} value for {name!r} must be a number, got {value!r}")
                if not is_finite(value):
                    raise ValueError(f"{label} value for {name!r} must be finite, got {value!r}")
        bounds = {}
        for name, pair in self.bounds.items():
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(v is None or is_number(v) for v in pair)):
                raise ValueError(f"bounds for {name!r} must be a pair of numbers or nulls, "
                                 f"got {pair!r}")
            lo, hi = pair
            bounds[name] = (-np.inf if lo is None else lo, np.inf if hi is None else hi)
        object.__setattr__(self, "bounds", bounds)
        overlap = set(self.free) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters both free and fixed: {sorted(overlap)}")
        universe = set(MODELS[self.model].defaults)
        bad = (set(self.free) | set(self.fixed) | set(self.bounds) | set(self.init)) - universe
        if bad:
            raise ValueError(f"unknown parameters for {self.model!r}: {sorted(bad)}")
        for name, (lo, hi) in self.bounds.items():
            if not (lo < hi):
                raise ValueError(f"empty bounds for {name!r}: ({lo!r}, {hi!r})")
            if name in self.init and not (lo <= self.init[name] <= hi):
                raise ValueError(f"init for {name!r} outside bounds")


@dataclass(frozen=True)
class FitResult:
    """Estimates plus diagnostics from one fit."""

    estimates: dict
    residual_rms: float
    covariance_proxy: dict  # 1-sigma from quadratic expansion at the optimum
    n_eval: int  # model evaluations, see fit
    n_starts: int  # starts run, see fit
    converged: bool


def _cavity_and_ensemble(p):
    return (cavity_from_dict({k: p[k] for k in NOMINAL["cavity"]}),
            ensemble_from_dict({k: p[k] for k in NOMINAL["ensemble"]}))


def _spectrum_model(x_mhz, p, free=()):
    cavity, ensemble = _cavity_and_ensemble(p)
    drive = drive_from_dict({"input_power_w": p["input_power_w"]})
    return _cubic_model(p, free, cavity, ensemble, drive.input_power, TWO_PI * (x_mhz * 1e6))


def _saturation_model(x_w, p, free=()):
    cavity, ensemble = _cavity_and_ensemble(p)
    return _cubic_model(p, free, cavity, ensemble, _positive_powers(x_w), 0.0)


def _cubic_model(p, free, cavity, ensemble, power_w, omega):
    """scale * T + baseline on the lowest branch, and its jacobian in free.

    The steady state gives dT/d(y2, delta_c, delta_a, C, r); this chains them
    to the external parameters through y2 ~ P lambda_p kappa_ex/(kappa^2 n_sat),
    r = kappa_ex/kappa, delta_c = omega/kappa and delta_a = omega/gamma_perp.
    fsr_mhz, and gamma_par_mhz at fixed gamma_perp_mhz, change nothing: their
    columns are exact zeros. With free empty the partials are not computed.
    """
    delta_c, delta_a = omega / cavity.kappa, omega / ensemble.gamma_perp
    y2 = ss.drive_from_power(power_w, cavity, ensemble.n_sat)
    out = ss._steady_transmission(y2, delta_c, delta_a, ensemble.cooperativity,
                                  cavity.kappa_ratio, partials=bool(free))
    if not free:
        return p["scale"] * out + p["baseline"], None
    t, (t_y2, t_dc, t_da, t_c, t_r) = out
    per_mhz = mhz_to_rad(1.0)
    y2_t = y2 * t_y2

    def d_kappa():
        return -(2.0 * y2_t + delta_c * t_dc + cavity.kappa_ratio * t_r) * (per_mhz / cavity.kappa)

    columns = {
        "kappa_i_mhz": d_kappa,
        "kappa_ex_mhz": lambda: d_kappa() + (y2_t / cavity.kappa_ex + t_r / cavity.kappa) * per_mhz,
        "lambda_p_nm": lambda: y2_t / p["lambda_p_nm"],
        "cooperativity": lambda: t_c,
        "gamma_perp_mhz": lambda: -delta_a * t_da * (per_mhz / ensemble.gamma_perp),
        "n_sat": lambda: -y2_t / ensemble.n_sat,
        "input_power_w": lambda: ss.drive_from_power(1.0, cavity, ensemble.n_sat) * t_y2,
    }
    return p["scale"] * t + p["baseline"], _jacobian(columns, free, p["scale"], t)


def _jacobian(columns, free, scale, t):
    """Columns of d(scale * t + baseline)/dtheta, one per name in free.

    columns maps a physical name to a function returning dt/dtheta, called
    only when the name is free; a name it lacks has an exact zero column.
    """
    jac = np.zeros((t.size, len(free)))
    for j, name in enumerate(free):
        if name == "scale":
            jac[:, j] = t
        elif name == "baseline":
            jac[:, j] = 1.0
        elif name in columns:
            jac[:, j] = scale * columns[name]()
    return jac


def _ring_model(x_mhz, p, free=()):
    out = ring_from_lineshape(p["finesse"], p["fsr_mhz"] * 1e6, p["dip_transmission"],
                              p["nu0_mhz"] * 1e6, partials=bool(free))
    if not free:
        return p["scale"] * ring_transmission(x_mhz * 1e6, out) + p["baseline"], None
    model, (t_f, a_f), (t_d, a_d) = out
    t, (t_t, t_a, t_fsr, t_offset) = _ring_transmission(x_mhz * 1e6, model, partials=True)
    columns = {
        "finesse": lambda: t_t * t_f + t_a * a_f,
        "dip_transmission": lambda: t_t * t_d + t_a * a_d,
        "fsr_mhz": lambda: t_fsr * 1e6,
        "nu0_mhz": lambda: t_offset * 1e6,
    }
    return p["scale"] * t + p["baseline"], _jacobian(columns, free, p["scale"], t)


_NUISANCE_DEFAULTS = {"scale": 1.0, "baseline": 0.0}
_NUISANCE_BOUNDS = {"scale": (0.1, 10.0), "baseline": (-0.5, 0.5)}
# shared by the two cubic models; atomic_spectrum adds the input power
_CUBIC_DEFAULTS = {**NOMINAL["cavity"], **NOMINAL["ensemble"], **_NUISANCE_DEFAULTS}
_CUBIC_BOUNDS = {"cooperativity": (0.0, 50.0), "gamma_perp_mhz": (2.6, 50.0),
                 "n_sat": (1e-2, 1e4), "kappa_i_mhz": (1e-3, 1e3), "kappa_ex_mhz": (1e-3, 1e3),
                 **_NUISANCE_BOUNDS}


@dataclass(frozen=True)
class _Model:
    """func(x, params, free=()) -> (values, jacobian): jacobian has one column
    per name in free, d values / d params[name], and is None when free is empty."""

    func: callable
    defaults: dict
    bounds: dict
    monotone_x: bool


MODELS = {
    "atomic_spectrum": _Model(
        func=_spectrum_model,
        defaults={**_CUBIC_DEFAULTS, "input_power_w": NOMINAL["drive"]["input_power_w"]},
        bounds={**_CUBIC_BOUNDS, "input_power_w": (0.0, 1.0)},
        monotone_x=True,
    ),
    "empty_ring": _Model(
        func=_ring_model,
        defaults={"finesse": 30.0, "fsr_mhz": 150.0, "dip_transmission": 0.3,
                  "nu0_mhz": 0.0, **_NUISANCE_DEFAULTS},
        bounds={"finesse": (2.0, 1e4), "fsr_mhz": (1.0, 1e5),
                "dip_transmission": (0.0, 0.999), "nu0_mhz": (-1e5, 1e5), **_NUISANCE_BOUNDS},
        monotone_x=True,
    ),
    "saturation_curve": _Model(
        func=_saturation_model,
        defaults=_CUBIC_DEFAULTS,
        bounds=_CUBIC_BOUNDS,
        monotone_x=False,
    ),
}


def saturation_curve(powers_w, cavity: CavityParams, ensemble: EnsembleParams):
    """On-resonance transmission for each input power (delta_a = delta_c = 0), lowest branch."""
    y2 = ss.drive_from_power(_positive_powers(powers_w), cavity, ensemble.n_sat)
    return ss._steady_transmission(y2, 0.0, 0.0, ensemble.cooperativity, cavity.kappa_ratio)


def _positive_powers(powers_w):
    powers = np.asarray(powers_w, dtype=float)
    if np.any(powers <= 0):
        raise ValueError("powers must be > 0")
    return powers


def _resolve(spec: FitSpec) -> tuple[dict, dict]:
    """Full parameter dict (defaults <- fixed <- init) and per-free bounds."""
    model = MODELS[spec.model]
    params = dict(model.defaults)
    params.update(spec.fixed)
    bounds = {}
    for name in spec.free:
        lo, hi = spec.bounds.get(name, model.bounds.get(name, (-np.inf, np.inf)))
        bounds[name] = (lo, hi)
    return params, bounds


def evaluate_model(spec: FitSpec, params: dict, x) -> np.ndarray:
    """Model prediction at x with free/overridden values taken from params."""
    model = MODELS[spec.model]
    full, _ = _resolve(spec)
    full.update(params)
    try:
        return np.asarray(model.func(np.asarray(x, dtype=float), full)[0], dtype=float)
    except RingcavError as exc:
        raise ModelEvaluationFailed(f"model {spec.model!r} failed: {exc}") from exc


def objective(data: Dataset, spec: FitSpec, params: dict) -> float:
    """Weighted sum of squared residuals sum w_i (model_i - yobs_i)^2."""
    ymodel = evaluate_model(spec, params, data.x)
    return float(np.sum(data.weights * (ymodel - data.yobs) ** 2))


def default_init(data: Dataset, spec: FitSpec) -> tuple[dict, dict]:
    """Heuristic initial guesses for the free parameters, and their spread.

    atomic_spectrum: cooperativity from the measured dip splitting through
    the inverted splitting estimate (with the fixed cavity rates and the
    gamma_perp guess); gamma_perp from the dip width is too entangled with C
    to be robust, so the nominal value is used unless overridden.
    empty_ring: FSR from the median dip spacing, nu0 from the dip nearest
    zero, dip level from the data minimum.
    All heuristics are overridable through FitSpec.init.

    The spread maps a free parameter to the widest jitter _jittered_starts
    may give it. It holds fsr_mhz and nu0_mhz, at the comb's linewidth
    fsr/finesse at the guess, when the data show two or more dips, each
    resolved by the grid (_resolved_dips), and FitSpec.init overrides
    neither: a start within a linewidth of the measured comb stays in its
    basin, while one a quarter FSR off can end in an alias minimum (a comb
    of half the FSR, or one whose dips straddle the data's).
    """
    full, bounds = _resolve(spec)
    guess = {name: full[name] for name in spec.free}
    spread = {}
    if spec.model == "atomic_spectrum" and "cooperativity" in spec.free:
        try:
            split_hz = measure_splitting(data.x, data.yobs) * 1e6
            kappa = mhz_to_rad(full["kappa_i_mhz"] + full["kappa_ex_mhz"])
            gamma_perp = mhz_to_rad(full["gamma_perp_mhz"])
            guess["cooperativity"] = (np.pi * split_hz / 2.0) ** 2 / (kappa * gamma_perp)
        except ValueError:
            pass
    if spec.model == "empty_ring":
        dips = find_transmission_dips(data.x, data.yobs)
        if "fsr_mhz" in spec.free and len(dips) >= 2:
            guess["fsr_mhz"] = float(_median(np.diff(dips)))
        if "nu0_mhz" in spec.free and len(dips):
            guess["nu0_mhz"] = float(dips[np.argmin(np.abs(dips))])
        if "dip_transmission" in spec.free:
            guess["dip_transmission"] = float(np.min(data.yobs))
        measured = {"fsr_mhz", "nu0_mhz"} & (set(spec.free) - set(spec.init))
        if measured and len(dips) >= 2 and _resolved_dips(data.x, data.yobs, dips):
            point = {**full, **guess, **spec.init}
            spread = dict.fromkeys(measured, point["fsr_mhz"] / point["finesse"])
    guess.update(spec.init)
    for name, (lo, hi) in bounds.items():
        guess[name] = float(np.clip(guess[name], lo, hi))
    return guess, spread


def _resolved_dips(x, yobs, dips) -> bool:
    """Whether every dip has two or more samples at or past half its depth.

    A dip's depth runs from the median extinction 1 - yobs (the level between
    dips) to its deepest sample. A dip with one sample alone past half its
    depth is at most two grid steps wide, and the comb through it is known
    to about a step, which may be more than a linewidth: a start within a
    linewidth of that comb can then lie in another basin than the data's
    minimum.
    """
    e = 1.0 - yobs
    base = _median(e)
    for dip in dips:
        i = int(np.argmin(np.abs(x - dip)))
        j = max(i - 1, 0) + int(np.argmax(e[max(i - 1, 0):i + 2]))
        if np.count_nonzero(e[max(j - 1, 0):j + 2] >= 0.5 * (e[j] + base)) < 2:
            return False
    return True


#: numpy's PCG64 state and increment after seeding with 0, from
#: np.random.default_rng(0).bit_generator.state, and PCG64's multiplier
_PCG64_SEED0 = (35399562948360463058890781895381311971, 87136372517582989555478159403783844777)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _seed0_jitter():
    """Yield np.random.default_rng(0).uniform(-0.25, 0.25)'s draws, bit for bit.

    PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit linear congruential step,
    then the XSL-RR output, the state's two halves xored and rotated right by
    its top 6 bits; a double is the output's top 53 bits over 2**53. Python
    integers carry it, so a fit imports no numpy.random (about 15 ms and a
    dozen extension modules in a fresh process).
    """
    state, inc = _PCG64_SEED0
    while True:
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield -0.25 + 0.5 * ((x >> 11) * 2.0 ** -53)


def _jittered_starts(init: dict, bounds: dict, n_starts: int, spread: dict) -> list[dict]:
    # deterministic jitter, numpy's PCG64 seed-0 uniform stream drawn without
    # numpy.random (_seed0_jitter); data-order independent by construction. Each
    # parameter moves by up to a quarter of a width: twice its init value
    # (at least 1), or its spread from default_init where narrower, or the
    # box where narrower still. The spread keeps measured fsr and nu0 within
    # a linewidth of the measured comb, out of its alias basins, which the
    # default width alone (+-73 MHz on a 147 MHz FSR) does not. An overshoot
    # is reflected back off its bound, never clipped onto it: a start on
    # C = 0 is stationary for the box problem when gamma_perp is free. The
    # jitter is at most a quarter of the box, so the reflection stays inside.
    jitter = _seed0_jitter()
    starts = [dict(init)]
    names = sorted(init)
    for _ in range(n_starts - 1):
        s = {}
        for name in names:
            lo, hi = bounds[name]
            v = init[name]
            width = min(2.0 * max(abs(v), 1.0), spread.get(name, np.inf))
            if np.isfinite(lo) and np.isfinite(hi):
                width = min(hi - lo, width)
            v = v + next(jitter) * width
            s[name] = float(lo + (lo - v) if v < lo else hi - (v - hi) if v > hi else v)
        starts.append(s)
    return starts


class _Residuals:
    """Weighted residuals at theta and their jacobian, for least_squares.

    Calling it at theta costs one model.func call, which returns the values
    and the jacobian; it gives the residuals and a callable for the weighted
    jacobian there. A jacobian column with a non-finite entry is replaced by
    a one-sided difference of model.func, stepping away from the upper bound,
    one more call each, made only when the jacobian is asked for. n_eval
    counts every call.
    """

    def __init__(self, spec: FitSpec, data: Dataset, full: dict, upper):
        self.spec, self.data, self.full, self.upper = spec, data, full, upper
        self.func = MODELS[spec.model].func
        self.w_sqrt = np.sqrt(data.weights)
        self.n_eval = 0

    def _call(self, theta, free):
        p = dict(self.full)
        p.update({n: float(v) for n, v in zip(self.spec.free, theta)})
        self.n_eval += 1
        try:
            return self.func(self.data.x, p, free)
        except RingcavError as exc:
            raise ModelEvaluationFailed(f"model {self.spec.model!r} failed: {exc}") from exc

    def __call__(self, theta):
        values, jac = self._call(theta, self.spec.free)

        def jacobian():
            # a non-finite entry leaves its column's weighted sum non-finite
            for j in np.flatnonzero(~np.isfinite(self.w_sqrt @ jac)):
                step = np.sqrt(np.finfo(float).eps) * max(1.0, abs(theta[j]))
                shifted = np.array(theta, dtype=float)
                shifted[j] += step if theta[j] + step <= self.upper[j] else -step
                jac[:, j] = (self._call(shifted, ())[0] - values) / (shifted[j] - theta[j])
            return self.w_sqrt[:, None] * jac

        return self.w_sqrt * (values - self.data.yobs), jacobian


@dataclass(frozen=True)
class LeastSquaresResult:
    """Optimum of least_squares: x, cost = 0.5 |fun|^2, and fun and jac at x.

    status is 1 (gtol), 2 (ftol), 3 (xtol) or 4 (ftol and xtol) when the
    loop converged, 0 when it spent MAX_NFEV evaluations first.
    """

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    status: int


#: Nielsen's initial damping, relative to the scaled jacobian's unit diagonal
_INITIAL_DAMPING = 1e-3


def least_squares(fun, x0, lower, upper) -> LeastSquaresResult:
    """Minimize 0.5 |r(x)|^2 over the box lower <= x <= upper (bounded LM).

    fun(x) returns r(x) and a callable giving the jacobian of r at x; the
    loop asks for it only at the points it accepts. Each step solves the
    damped problem min |J p + r|^2 + mu |D p|^2 by least squares on the
    stacked matrix [J; sqrt(mu) D], never through the normal equations: one
    QR of [J r] per accepted point reduces J to R, and [R D^-1; sqrt(mu) I]
    is solved for D p. D holds the column norms of J, which makes the step
    invariant to the parameters' units (More 1978); they are taken at the
    current point, not as More's running maximum, which keeps a column that
    has since gone flat (n_sat on weak data) damped by its largest early
    curvature. The step is projected onto the box and kept when the cost
    falls. With a gain ratio rho >= 1/4, mu then shrinks by
    max(1/3, 1 - (2 rho - 1)^3); after a rejection, or a kept step with
    rho < 1/4, it grows by a factor that doubles each time (Nielsen 1999),
    to at least 1, the scaled curvature.

    Active bounds: x may end exactly on a bound (Kanzow, Yamashita and
    Fukushima 2004 project every step). A parameter on its bound whose
    gradient points out of the box is held there: the step is solved over
    the other parameters only.

    The stop rules are those of scipy.optimize.least_squares, with xtol,
    ftol and gtol all at TOL: gtol on the gradient scaled by the room left
    to the bound it points at (status 1); ftol (2) on a relative cost
    reduction below TOL with a gain ratio above 1/4 (its trf test), or on
    actual and predicted relative reductions both at most TOL (MINPACK's
    test, its lm method), which ends a start whose cost sits at its rounding
    floor; xtol on the projected step against |x| (3; also checked on a
    rejected step, so damping that grows along a flat direction stops
    there); both (4); or the budget of MAX_NFEV evaluations of fun (0).
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r, jacobian = fun(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    if not np.isfinite(cost):
        raise ValueError("residuals are not finite at the initial point")
    jac = jacobian()
    mu, growth = _INITIAL_DAMPING, 2.0
    status = 0
    while True:
        g = jac.T @ r
        room = np.where(g > 0, x - lower, upper - x)
        if np.max(np.abs(g * np.where(np.isfinite(room), room, 1.0))) < TOL:
            status = 1
        if status or nfev >= MAX_NFEV:
            break
        scale = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        # R and Q^T r from one QR of [J r], without forming Q
        rq = np.linalg.qr(np.column_stack([jac[:, free], r]), mode="r")
        rq, qtr = rq[:-1, :-1], rq[:-1, -1]
        # solved in the scaled parameters D p, where R D^-1 has unit columns
        d = np.where(scale[free] > 0, scale[free], 1.0)
        rq_scaled, eye = rq / d, np.eye(d.size)
        rhs = np.concatenate([-qtr, np.zeros(d.size)])
        while True:
            dp = np.linalg.lstsq(np.vstack([rq_scaled, np.sqrt(mu) * eye]), rhs, rcond=None)[0]
            trial = x.copy()
            trial[free] += dp / d
            trial = np.clip(trial, lower, upper)
            step = trial - x
            r_new, jacobian_new = fun(trial)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            reduction = cost - cost_new if np.isfinite(cost_new) else -np.inf
            js = rq @ step[free]
            predicted = -float(js @ (qtr + 0.5 * js))
            rho = (reduction / predicted if predicted > 0
                   else 1.0 if predicted == reduction == 0.0 else 0.0)
            status = _termination(reduction, predicted, cost, np.sqrt(step @ step),
                                  np.sqrt(x @ x), rho)
            if reduction > 0:
                x, r, cost = trial, r_new, cost_new
                jac = jacobian_new()
            if reduction > 0 and rho >= 0.25:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                growth = 2.0
            else:
                # rejected, or kept on a poor model fit: damp the next step at
                # least as much as the scaled curvature (D^2 = diag J^T J), so it
                # is a shorter step, not a re-run of this one
                mu = max(mu * growth, 1.0)
                growth *= 2.0
            if reduction > 0 or status or nfev >= MAX_NFEV:
                break
        if status:
            break
    return LeastSquaresResult(x=x, cost=cost, fun=r, jac=jac, status=status)


def _termination(reduction, predicted, cost, step_norm, x_norm, rho) -> int:
    """scipy's stop test: 2 ftol, 3 xtol, 4 both, 0 neither."""
    f_ok = (reduction < TOL * cost and rho > 0.25) or (
        abs(reduction) <= TOL * cost and predicted <= TOL * cost)
    x_ok = step_norm < TOL * (TOL + x_norm)
    return 4 if f_ok and x_ok else 2 if f_ok else 3 if x_ok else 0


def fit(data: Dataset, spec: FitSpec) -> FitResult:
    """Weighted least-squares fit of the chosen model.

    Runs a deterministic multi-start (first start is the heuristic init,
    the rest jittered within bounds, always drawn in the same order), keeps
    the best cost, breaks ties (costs within 1e-9 (1 + best)) by lowest
    cooperativity. It stops once AGREEING_STARTS starts have reached the best
    cost so far, a strictly better cost counting as the first again, or after
    N_STARTS starts; a start that ends where some jacobian column is flat
    (gamma_perp's, on C = 0) takes part in the tie-break but is not counted.
    Raises NotConverged if the winner exhausted its evaluation budget,
    DegenerateFit (carrying the result) if the objective is flat along some
    parameter direction at the optimum.

    n_starts in the result counts the starts run. n_eval counts model
    evaluations over all of them: one evaluation is one model.func call over
    the whole dataset, returning the values and their jacobian; a fallback
    difference column (see _Residuals) is one more.
    """
    model = MODELS[spec.model]
    if len(spec.free) == 0:
        raise ValueError("no free parameters")
    if data.x.size < 2 * len(spec.free):
        raise ValueError(
            f"need >= {2 * len(spec.free)} points for {len(spec.free)} free parameters, "
            f"got {data.x.size}"
        )
    if model.monotone_x and not (np.all(np.diff(data.x) > 0) or np.all(np.diff(data.x) < 0)):
        raise ValueError("spectrum abscissa must be strictly monotone")

    full, bounds = _resolve(spec)
    names = list(spec.free)
    lo = np.array([bounds[n][0] for n in names])
    hi = np.array([bounds[n][1] for n in names])
    problem = _Residuals(spec, data, full, hi)
    init, spread = default_init(data, spec)

    best, agreeing = None, 0
    for run, start in enumerate(_jittered_starts(init, bounds, N_STARTS, spread), 1):
        res = least_squares(problem, np.array([start[n] for n in names]), lo, hi)
        # an end point where the cost does not depend on some parameter (on
        # C = 0, gamma_perp) is reached by every start that runs onto that
        # face, so it is no evidence for the best minimum
        hit = not _flat_columns(res.jac).any()
        if best is None or res.cost < best.cost - 1e-9 * (1.0 + best.cost):
            best, agreeing = res, hit
        elif res.cost <= best.cost + 1e-9 * (1.0 + best.cost):
            agreeing += hit
            if ("cooperativity" in names and res.x[names.index("cooperativity")]
                    < best.x[names.index("cooperativity")]):
                best = res
        if agreeing >= AGREEING_STARTS:
            break

    converged = best.status > 0
    estimates = {n: float(v) for n, v in zip(names, best.x)}
    raw = best.fun / problem.w_sqrt
    # one thin SVD serves both the covariance proxy and the flatness test
    _, sv, vt = np.linalg.svd(best.jac, full_matrices=False)
    dof = max(1, data.x.size - len(names))
    result = FitResult(
        estimates=estimates,
        residual_rms=float(np.sqrt(np.mean(raw ** 2))),
        covariance_proxy=_covariance_proxy(sv, vt, names, 2.0 * best.cost / dof),
        n_eval=problem.n_eval,
        n_starts=run,
        converged=bool(converged),
    )
    if not converged:
        raise NotConverged(f"evaluation budget exhausted ({MAX_NFEV} per start)")

    flat = _flat_directions(best.jac, sv, vt, names)
    if flat:
        raise DegenerateFit(
            f"objective is flat along {flat}; estimates for these parameters "
            "are not constrained by this dataset",
            parameters=flat,
            result=result,
        )
    return result


def _covariance_proxy(sv, vt, names, s2) -> dict:
    """Per-parameter 1-sigma from the quadratic expansion at the optimum.

    This is the usual (J^T J)^-1 estimate scaled by the residual variance
    s2, from the thin SVD J = U diag(sv) vt; a local curvature proxy rather
    than a full error analysis; flat directions produce inf.
    """
    good = sv > sv[0] * 1e-12 if sv.size and sv[0] > 0 else sv > 0
    inv = np.zeros_like(sv)
    inv[good] = 1.0 / sv[good] ** 2
    cov = (vt.T * inv) @ vt * s2
    out = {}
    for i, n in enumerate(names):
        var = cov[i, i]
        out[n] = float(np.sqrt(var)) if var > 0 else float("inf")
    if not good.all():
        null_weight = np.abs(vt[~good]).sum(axis=0)
        for i, n in enumerate(names):
            if null_weight[i] > 1e-3:
                out[n] = float("inf")
    return out


def _flat_columns(jac) -> np.ndarray:
    """Mask of jacobian columns below DEGENERACY_RATIO of the largest (all if all are zero)."""
    col_norm = np.linalg.norm(jac, axis=0)
    biggest = col_norm.max() if col_norm.size else 0.0
    return col_norm < biggest * DEGENERACY_RATIO if biggest > 0 else np.ones(col_norm.size, bool)


def _flat_directions(jac, sv, vt, names) -> list:
    """Names of parameters spanning near-null directions of the jacobian.

    sv and vt are the jacobian's thin SVD.
    """
    flat = [n for n, f in zip(names, _flat_columns(jac)) if f]
    if len(flat) == len(names):
        return list(names)
    if sv[-1] < sv[0] * DEGENERACY_RATIO:
        null = np.abs(vt[-1])
        flat += [n for i, n in enumerate(names) if null[i] > 0.5 and n not in flat]
    return sorted(set(flat))


def generate_synthetic(spec: FitSpec, x, truth: dict, noise_sigma: float = 0.0,
                       seed: int | None = None) -> Dataset:
    """Model curve plus additive Gaussian noise, for round-trip tests and demos."""
    y = evaluate_model(spec, truth, x)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=np.shape(y))
    sigma = np.full(np.shape(y), noise_sigma) if noise_sigma else None
    return Dataset(x=np.asarray(x, dtype=float), yobs=y, sigma=sigma)
