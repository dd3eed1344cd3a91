"""Nonlinear least-squares estimation from spectra and saturation curves.

Three models are exposed, all evaluated in external units (x in MHz for
spectra, x in W for saturation curves, parameters as named below):

- "atomic_spectrum": locked-detuning transmission sweep of the coupled
  system at fixed input power; parameters cooperativity, gamma_perp_mhz,
  n_sat, input_power_w, plus cavity rates and scale/baseline nuisances.
- "empty_ring": all-pass ring comb over several FSRs in the
  (finesse, fsr_mhz, dip_transmission, nu0_mhz) parameterization.
- "saturation_curve": on-resonance transmission versus input power.

The optimizer is scipy.optimize.least_squares (trust-region reflective,
finite-difference jacobian) behind a deterministic multi-start loop:
8 jittered initializations, best cost wins, ties broken by lowest
cooperativity. Degenerate (flat) parameter directions at the optimum are
detected from the jacobian SVD and reported by raising DegenerateFit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from . import steady_state as ss
from .errors import DegenerateFit, ModelEvaluationFailed, NotConverged, RingcavError
from .params import NOMINAL, CavityParams, DriveParams, EnsembleParams
from .peaks import find_transmission_dips, measure_splitting
from .ring import RingModel, ring_from_lineshape, ring_transmission
from .units import mhz_to_rad

N_STARTS = 8
MAX_NFEV = 2000
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
        if self.sigma is not None and not np.all(self.sigma > 0):
            raise ValueError("sigma must be strictly positive")

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.x)
        return 1.0 / (self.sigma * self.sigma)


@dataclass(frozen=True)
class FitSpec:
    """What to fit: model name, free parameter names, fixed values, bounds, init."""

    model: str
    free: tuple
    fixed: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; have {sorted(MODELS)}")
        object.__setattr__(self, "free", tuple(self.free))
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
    n_eval: int
    converged: bool


def _spectrum_model(x_mhz, p):
    cavity = CavityParams(
        kappa_i=mhz_to_rad(p["kappa_i_mhz"]),
        kappa_ex=mhz_to_rad(p["kappa_ex_mhz"]),
        fsr=p["fsr_mhz"] * 1e6,
        lambda_p=p["lambda_p_nm"] * 1e-9,
    )
    gamma_par = mhz_to_rad(p["gamma_par_mhz"])
    ensemble = EnsembleParams(
        cooperativity=p["cooperativity"],
        gamma_par=gamma_par,
        gamma_d=mhz_to_rad(p["gamma_perp_mhz"]) - gamma_par / 2.0,
        n_sat=p["n_sat"],
    )
    drive = DriveParams(input_power=p["input_power_w"])
    t = ss.spectrum(np.asarray(x_mhz) * 1e6, cavity, ensemble, drive)
    return p["scale"] * t + p["baseline"]


def _ring_model(x_mhz, p):
    model = ring_from_lineshape(
        finesse=p["finesse"],
        fsr=p["fsr_mhz"] * 1e6,
        dip_transmission=p["dip_transmission"],
        detuning_offset=p["nu0_mhz"] * 1e6,
    )
    return p["scale"] * ring_transmission(np.asarray(x_mhz) * 1e6, model) + p["baseline"]


def _saturation_model(x_w, p):
    cavity = CavityParams(
        kappa_i=mhz_to_rad(p["kappa_i_mhz"]),
        kappa_ex=mhz_to_rad(p["kappa_ex_mhz"]),
        fsr=p["fsr_mhz"] * 1e6,
        lambda_p=p["lambda_p_nm"] * 1e-9,
    )
    gamma_par = mhz_to_rad(p["gamma_par_mhz"])
    ensemble = EnsembleParams(
        cooperativity=p["cooperativity"],
        gamma_par=gamma_par,
        gamma_d=mhz_to_rad(p["gamma_perp_mhz"]) - gamma_par / 2.0,
        n_sat=p["n_sat"],
    )
    t = saturation_curve(np.asarray(x_w, dtype=float), cavity, ensemble)
    return p["scale"] * t + p["baseline"]


_CAVITY_DEFAULTS = {
    "kappa_i_mhz": NOMINAL["cavity"]["kappa_i_mhz"],
    "kappa_ex_mhz": NOMINAL["cavity"]["kappa_ex_mhz"],
    "fsr_mhz": NOMINAL["cavity"]["fsr_mhz"],
    "lambda_p_nm": NOMINAL["cavity"]["lambda_p_nm"],
}
_ATOM_DEFAULTS = {
    "cooperativity": NOMINAL["ensemble"]["cooperativity"],
    "gamma_perp_mhz": NOMINAL["ensemble"]["gamma_perp_mhz"],
    "gamma_par_mhz": NOMINAL["ensemble"]["gamma_par_mhz"],
    "n_sat": NOMINAL["ensemble"]["n_sat"],
}
_NUISANCE_DEFAULTS = {"scale": 1.0, "baseline": 0.0}


@dataclass(frozen=True)
class _Model:
    func: callable
    defaults: dict
    bounds: dict
    monotone_x: bool


MODELS = {
    "atomic_spectrum": _Model(
        func=_spectrum_model,
        defaults={**_CAVITY_DEFAULTS, **_ATOM_DEFAULTS,
                  "input_power_w": 30e-12, **_NUISANCE_DEFAULTS},
        bounds={"cooperativity": (0.0, 50.0), "gamma_perp_mhz": (2.6, 50.0),
                "n_sat": (1e-2, 1e4), "input_power_w": (0.0, 1.0),
                "kappa_i_mhz": (1e-3, 1e3), "kappa_ex_mhz": (1e-3, 1e3),
                "scale": (0.1, 10.0), "baseline": (-0.5, 0.5)},
        monotone_x=True,
    ),
    "empty_ring": _Model(
        func=_ring_model,
        defaults={"finesse": 30.0, "fsr_mhz": 150.0, "dip_transmission": 0.3,
                  "nu0_mhz": 0.0, **_NUISANCE_DEFAULTS},
        bounds={"finesse": (2.0, 1e4), "fsr_mhz": (1.0, 1e5),
                "dip_transmission": (0.0, 0.999), "nu0_mhz": (-1e5, 1e5),
                "scale": (0.1, 10.0), "baseline": (-0.5, 0.5)},
        monotone_x=True,
    ),
    "saturation_curve": _Model(
        func=_saturation_model,
        defaults={**_CAVITY_DEFAULTS, **_ATOM_DEFAULTS, **_NUISANCE_DEFAULTS},
        bounds={"cooperativity": (0.0, 50.0), "gamma_perp_mhz": (2.6, 50.0),
                "n_sat": (1e-2, 1e4),
                "kappa_i_mhz": (1e-3, 1e3), "kappa_ex_mhz": (1e-3, 1e3),
                "scale": (0.1, 10.0), "baseline": (-0.5, 0.5)},
        monotone_x=False,
    ),
}


def saturation_curve(powers_w, cavity: CavityParams, ensemble: EnsembleParams,
                     policy: ss.BranchPolicy = ss.LOWEST):
    """On-resonance transmission for each input power (delta_a = delta_c = 0).

    policy is "lowest" or "highest"; follow_sweep raises ValueError, as in
    steady_state.solve.
    """
    powers = np.asarray(powers_w, dtype=float)
    if np.any(powers <= 0):
        raise ValueError("powers must be > 0")
    y2 = ss.drive_from_power(powers, cavity, ensemble.n_sat)
    roots, counts = ss._roots_grid(y2, 0.0, 0.0, ensemble.cooperativity)
    u = ss.select_branch(roots, counts, policy)
    return ss._transmission_from_u(u, 0.0, 0.0, ensemble.cooperativity, cavity.kappa_ratio)


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
        return np.asarray(model.func(np.asarray(x, dtype=float), full), dtype=float)
    except RingcavError as exc:
        raise ModelEvaluationFailed(f"model {spec.model!r} failed: {exc}") from exc


def objective(data: Dataset, spec: FitSpec, params: dict) -> float:
    """Weighted sum of squared residuals sum w_i (model_i - yobs_i)^2."""
    ymodel = evaluate_model(spec, params, data.x)
    return float(np.sum(data.weights * (ymodel - data.yobs) ** 2))


def default_init(data: Dataset, spec: FitSpec) -> dict:
    """Heuristic initial guesses for the free parameters.

    atomic_spectrum: cooperativity from the measured dip splitting through
    the inverted splitting estimate (with the fixed cavity rates and the
    gamma_perp guess); gamma_perp from the dip width is too entangled with C
    to be robust, so the nominal value is used unless overridden.
    empty_ring: FSR from the median dip spacing, nu0 from the dip nearest
    zero, dip level from the data minimum.
    All heuristics are overridable through FitSpec.init.
    """
    model = MODELS[spec.model]
    full, _ = _resolve(spec)
    guess = {name: full[name] for name in spec.free}
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
            guess["fsr_mhz"] = float(np.median(np.diff(dips)))
        if "nu0_mhz" in spec.free and len(dips):
            guess["nu0_mhz"] = float(dips[np.argmin(np.abs(dips))])
        if "dip_transmission" in spec.free:
            guess["dip_transmission"] = float(np.min(data.yobs))
    guess.update(spec.init)
    for name in spec.free:
        lo, hi = spec.bounds.get(name, model.bounds.get(name, (-np.inf, np.inf)))
        guess[name] = float(np.clip(guess[name], lo, hi))
    return guess


def _jittered_starts(init: dict, bounds: dict, n_starts: int) -> list[dict]:
    # deterministic jitter; data-order independent by construction. The
    # spread is capped near the init value so very wide bounds (fsr, nu0)
    # don't scatter starts into alias basins of periodic models.
    rng = np.random.default_rng(0)
    starts = [dict(init)]
    names = sorted(init)
    for _ in range(n_starts - 1):
        s = {}
        for name in names:
            lo, hi = bounds[name]
            v = init[name]
            width = 2.0 * max(abs(v), 1.0)
            if np.isfinite(lo) and np.isfinite(hi):
                width = min(hi - lo, width)
            v = v + rng.uniform(-0.25, 0.25) * width
            s[name] = float(np.clip(v, lo, hi))
        starts.append(s)
    return starts


def fit(data: Dataset, spec: FitSpec, n_starts: int = N_STARTS) -> FitResult:
    """Weighted least-squares fit of the chosen model.

    Runs a deterministic multi-start (first start is the heuristic init,
    the rest jittered within bounds), keeps the best cost, breaks ties by
    lowest cooperativity. Raises NotConverged if the winner exhausted its
    evaluation budget, DegenerateFit (carrying the result) if the objective
    is flat along some parameter direction at the optimum.
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
    w_sqrt = np.sqrt(data.weights)

    def residuals(theta):
        p = dict(full)
        p.update({n: float(v) for n, v in zip(names, theta)})
        try:
            ymodel = model.func(data.x, p)
        except RingcavError as exc:
            raise ModelEvaluationFailed(f"model {spec.model!r} failed: {exc}") from exc
        return w_sqrt * (ymodel - data.yobs)

    lo = np.array([bounds[n][0] for n in names])
    hi = np.array([bounds[n][1] for n in names])
    init = default_init(data, spec)

    best = None
    n_eval = 0
    for start in _jittered_starts(init, bounds, n_starts):
        theta0 = np.array([start[n] for n in names])
        res = least_squares(
            residuals, theta0, bounds=(lo, hi),
            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=MAX_NFEV,
        )
        n_eval += res.nfev
        if best is None:
            best = res
            continue
        c_new, c_old = res.cost, best.cost
        tie = abs(c_new - c_old) <= 1e-9 * (1.0 + c_old)
        if (not tie and c_new < c_old) or (
            tie and "cooperativity" in names
            and res.x[names.index("cooperativity")] < best.x[names.index("cooperativity")]
        ):
            best = res

    converged = best.status > 0
    estimates = {n: float(v) for n, v in zip(names, best.x)}
    raw = best.fun / w_sqrt
    result = FitResult(
        estimates=estimates,
        residual_rms=float(np.sqrt(np.mean(raw ** 2))),
        covariance_proxy=_covariance_proxy(best, names, data),
        n_eval=int(n_eval),
        converged=bool(converged),
    )
    if not converged:
        raise NotConverged(f"evaluation budget exhausted ({MAX_NFEV} per start)")

    flat = _flat_directions(best.jac, names)
    if flat:
        raise DegenerateFit(
            f"objective is flat along {flat}; estimates for these parameters "
            "are not constrained by this dataset",
            parameters=flat,
            result=result,
        )
    return result


def _covariance_proxy(res, names, data: Dataset) -> dict:
    """Per-parameter 1-sigma from the quadratic expansion at the optimum.

    This is the usual (J^T J)^-1 estimate scaled by the residual variance,
    a local curvature proxy rather than a full error analysis; flat
    directions produce inf.
    """
    j = res.jac
    dof = max(1, data.x.size - len(names))
    s2 = 2.0 * res.cost / dof
    try:
        u, sv, vt = np.linalg.svd(j, full_matrices=False)
    except np.linalg.LinAlgError:
        return {n: float("inf") for n in names}
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


def _flat_directions(jac, names) -> list:
    """Names of parameters spanning near-null directions of the jacobian."""
    col_norm = np.linalg.norm(jac, axis=0)
    biggest = col_norm.max() if col_norm.size else 0.0
    flat = [n for n, c in zip(names, col_norm) if biggest > 0 and c < biggest * DEGENERACY_RATIO]
    if biggest == 0.0:
        return list(names)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] < sv[0] * DEGENERACY_RATIO:
        vt = np.linalg.svd(jac)[2]
        null = np.abs(vt[-1])
        flat += [n for i, n in enumerate(names) if null[i] > 0.5 and n not in flat]
    return sorted(set(flat))


def generate_synthetic(spec: FitSpec, x, truth: dict, noise_sigma: float = 0.0,
                       seed: int | None = None) -> Dataset:
    """Model curve plus additive Gaussian noise, for round-trip tests and demos."""
    model = MODELS[spec.model]
    full, _ = _resolve(spec)
    full.update(truth)
    y = model.func(np.asarray(x, dtype=float), full)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=np.shape(y))
    sigma = np.full(np.shape(y), noise_sigma) if noise_sigma else None
    return Dataset(x=np.asarray(x, dtype=float), yobs=y, sigma=sigma)
