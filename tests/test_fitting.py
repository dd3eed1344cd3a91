import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ringcav import fitting
from ringcav import steady_state as ss
from ringcav.errors import DegenerateFit, ModelEvaluationFailed
from ringcav.fitting import Dataset, FitSpec
from ringcav.params import CavityParams, EnsembleParams
from ringcav.ring import ring_from_lineshape
from ringcav.units import TWO_PI, mhz_to_rad


@pytest.fixture(scope="module")
def weak_spectrum_grid():
    return np.linspace(-20.0, 20.0, 401)  # MHz


@pytest.fixture(scope="module")
def spectrum_spec():
    return FitSpec(model="atomic_spectrum", free=("cooperativity", "gamma_perp_mhz"))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, np.nan]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.arange(2.0), np.arange(2.0), sigma=np.array([1.0, 0.0]))


@pytest.mark.parametrize("sigma", [1e-160, 1e160, np.nan])
def test_dataset_refuses_a_sigma_whose_weight_is_not_finite_and_nonzero(sigma):
    # 1/sigma**2 would be inf or 0: every residual non-finite or ignored
    with pytest.raises(ValueError, match=r"sigma must lie in \[1e-150, 1e150\]"):
        Dataset(np.arange(2.0), np.ones(2), sigma=np.array([1.0, sigma]))


def test_dataset_weights_default_one():
    d = Dataset(np.arange(4.0), np.ones(4))
    np.testing.assert_array_equal(d.weights, np.ones(4))


def test_dataset_weights_inverse_variance():
    d = Dataset(np.arange(2.0), np.ones(2), sigma=np.array([0.5, 2.0]))
    np.testing.assert_allclose(d.weights, [4.0, 0.25])


def test_fitspec_validation():
    with pytest.raises(ValueError):
        FitSpec(model="unknown_model", free=("cooperativity",))
    with pytest.raises(ValueError):
        FitSpec(model="atomic_spectrum", free=("cooperativity",),
                fixed={"cooperativity": 1.0})
    with pytest.raises(ValueError):
        FitSpec(model="atomic_spectrum", free=("not_a_parameter",))
    with pytest.raises(ValueError):
        FitSpec(model="atomic_spectrum", free=("cooperativity",),
                bounds={"cooperativity": (3.0, 2.0)})
    with pytest.raises(ValueError):
        FitSpec(model="atomic_spectrum", free=("cooperativity",),
                init={"cooperativity": 99.0}, bounds={"cooperativity": (0.0, 5.0)})
    # a non-finite fixed or init value is refused by name, an int past the
    # float range too; infinite bounds mean unbounded and stay allowed
    for model, label, name, value in (("atomic_spectrum", "fixed", "n_sat", np.inf),
                                      ("empty_ring", "init", "nu0_mhz", np.nan),
                                      ("empty_ring", "init", "nu0_mhz", -np.inf),
                                      ("empty_ring", "fixed", "nu0_mhz", 10 ** 400)):
        with pytest.raises(ValueError, match=f"{label} value for '{name}' must be finite"):
            FitSpec(model=model, free=("scale",), **{label: {name: value}})
    FitSpec(model="empty_ring", free=("nu0_mhz",), bounds={"nu0_mhz": (-np.inf, np.inf)})
    # null, JSON's form of an unbounded side, reads as the infinity it stands for
    spec = FitSpec(model="empty_ring", free=("nu0_mhz",),
                   bounds={"nu0_mhz": [None, None], "finesse": [5.0, None]})
    assert spec.bounds == {"nu0_mhz": (-np.inf, np.inf), "finesse": (5.0, np.inf)}


def test_objective_zero_at_truth(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)
    assert fitting.objective(data, spectrum_spec, truth) == pytest.approx(0.0, abs=1e-20)


def test_objective_positive_away_from_truth(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)
    off = fitting.objective(data, spectrum_spec,
                            {"cooperativity": 2.0, "gamma_perp_mhz": 4.0})
    assert off > 1e-4


def test_objective_gradient_converges_with_step(weak_spectrum_grid, spectrum_spec):
    # centered finite difference of the objective in C: halving the step
    # should converge (ratio of successive estimates -> 1 within 1%)
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)

    def f(c):
        return fitting.objective(data, spectrum_spec,
                                 {"cooperativity": c, "gamma_perp_mhz": 4.0})

    g1 = oracles.centered_gradient(f, 1.8, 1e-3)
    g2 = oracles.centered_gradient(f, 1.8, 5e-4)
    assert g2 != 0
    assert g1 / g2 == pytest.approx(1.0, abs=0.01)


def test_model_failure_wrapped(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)
    with pytest.raises(ModelEvaluationFailed):
        fitting.objective(data, spectrum_spec,
                          {"cooperativity": 1.0, "gamma_perp_mhz": 1.0})
    # synthesis takes its curve from the same evaluation
    with pytest.raises(ModelEvaluationFailed):
        fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid,
                                   {"cooperativity": 1.0, "gamma_perp_mhz": 1.0})


def test_noise_free_roundtrip_is_fixed_point(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)
    result = fitting.fit(data, spectrum_spec)
    assert result.converged
    assert result.estimates["cooperativity"] == pytest.approx(1.5, abs=1e-8)
    assert result.estimates["gamma_perp_mhz"] == pytest.approx(4.0, abs=1e-8)
    assert result.residual_rms < 1e-10


def test_refit_from_estimate_stays_put(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                      noise_sigma=0.01, seed=5)
    first = fitting.fit(data, spectrum_spec)
    spec2 = FitSpec(model="atomic_spectrum", free=("cooperativity", "gamma_perp_mhz"),
                    init=dict(first.estimates))
    second = fitting.fit(data, spec2)
    for k in first.estimates:
        assert second.estimates[k] == pytest.approx(first.estimates[k], abs=1e-6)


def test_fit_deterministic_on_reordered_data(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                      noise_sigma=0.01, seed=2)
    result = fitting.fit(data, spectrum_spec)
    rng = np.random.default_rng(0)
    perm = rng.permutation(data.x.size)
    order = np.argsort(data.x[perm], kind="stable")
    shuffled = Dataset(data.x[perm][order], data.yobs[perm][order],
                       sigma=data.sigma[perm][order])
    again = fitting.fit(shuffled, spectrum_spec)
    for k in result.estimates:
        assert again.estimates[k] == pytest.approx(result.estimates[k], rel=1e-9)


def test_fit_invariant_under_uniform_sigma_rescale(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                      noise_sigma=0.01, seed=3)
    base = fitting.fit(data, spectrum_spec)
    scaled = Dataset(data.x, data.yobs, sigma=np.full(data.x.size, 0.02))
    again = fitting.fit(scaled, spectrum_spec)
    for k in base.estimates:
        assert again.estimates[k] == pytest.approx(base.estimates[k], rel=1e-7)


def test_covariance_proxy_brackets_noise_scale(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    errs = []
    for seed in range(8):
        data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                          noise_sigma=0.01, seed=seed)
        res = fitting.fit(data, spectrum_spec)
        errs.append(abs(res.estimates["cooperativity"] - 1.5) /
                    res.covariance_proxy["cooperativity"])
    # scaled errors should look O(1), not orders of magnitude off
    assert np.median(errs) < 5.0


def test_degenerate_nsat_on_weak_data(weak_spectrum_grid):
    spec = FitSpec(model="atomic_spectrum", free=("cooperativity", "n_sat"),
                   fixed={"input_power_w": 1e-16})
    truth = {"cooperativity": 1.5, "n_sat": 12.7}
    data = fitting.generate_synthetic(spec, weak_spectrum_grid, truth)
    with pytest.raises(DegenerateFit) as exc_info:
        fitting.fit(data, spec)
    exc = exc_info.value
    assert "n_sat" in exc.parameters
    assert exc.result is not None
    assert exc.result.estimates["cooperativity"] == pytest.approx(1.5, abs=1e-4)


def test_saturation_roundtrip_nsat():
    spec = FitSpec(model="saturation_curve", free=("n_sat",))
    powers = np.logspace(-12.5, -7.5, 60)
    truth = {"n_sat": 12.7}
    data = fitting.generate_synthetic(spec, powers, truth, noise_sigma=0.005, seed=4)
    result = fitting.fit(data, spec)
    assert result.estimates["n_sat"] == pytest.approx(12.7, abs=1.0)


def test_empty_ring_roundtrip():
    spec = FitSpec(model="empty_ring",
                   free=("finesse", "fsr_mhz", "dip_transmission", "nu0_mhz"))
    grid = np.linspace(-170.0, 170.0, 2401)
    truth = {"finesse": 34.089, "fsr_mhz": 148.0, "dip_transmission": 0.3211,
             "nu0_mhz": 0.4}
    data = fitting.generate_synthetic(spec, grid, truth, noise_sigma=0.01, seed=6)
    result = fitting.fit(data, spec)
    assert result.estimates["finesse"] == pytest.approx(34.089, abs=1.0)
    assert result.estimates["fsr_mhz"] == pytest.approx(148.0, abs=1.0)
    assert result.estimates["nu0_mhz"] == pytest.approx(0.4, abs=0.2)


def test_fit_needs_enough_points(spectrum_spec):
    x = np.linspace(-5, 5, 3)
    data = Dataset(x, np.ones(3))
    with pytest.raises(ValueError, match="points"):
        fitting.fit(data, spectrum_spec)


def test_generate_synthetic_noise_is_seeded(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}
    a = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                   noise_sigma=0.01, seed=9)
    b = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                   noise_sigma=0.01, seed=9)
    np.testing.assert_array_equal(a.yobs, b.yobs)
    c = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth,
                                   noise_sigma=0.01, seed=10)
    assert np.any(c.yobs != a.yobs)


def test_default_init_uses_splitting(weak_spectrum_grid, spectrum_spec):
    truth = {"cooperativity": 2.5, "gamma_perp_mhz": 4.0}
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid, truth)
    init, _ = fitting.default_init(data, spectrum_spec)
    assert init["cooperativity"] == pytest.approx(2.5, rel=0.4)


# ---------------------------------------------------------------- jacobians

SPECTRUM_X = np.linspace(-20.0, 20.0, 81)
SATURATION_X = np.logspace(-12.5, -7.5, 30)
RING_X = np.linspace(-170.0, 170.0, 401)
MODEL_X = {"atomic_spectrum": SPECTRUM_X, "saturation_curve": SATURATION_X,
           "empty_ring": RING_X}

_nuisances = {"scale": st.floats(0.5, 2.0), "baseline": st.floats(-0.1, 0.1)}
_atoms = {"gamma_perp_mhz": st.floats(2.6, 8.0), "gamma_par_mhz": st.floats(2.0, 5.0),
          "n_sat": st.floats(5.0, 30.0), "kappa_i_mhz": st.floats(0.5, 3.0),
          "kappa_ex_mhz": st.floats(0.2, 1.0), "lambda_p_nm": st.floats(780.0, 870.0),
          "fsr_mhz": st.floats(100.0, 200.0), **_nuisances}
# weak drives over the whole C range, and bistable nW spectra
_spectra = st.one_of(
    st.fixed_dictionaries({"cooperativity": st.floats(0.05, 8.0),
                           "input_power_w": st.floats(1e-13, 1e-9), **_atoms}),
    st.fixed_dictionaries({"cooperativity": st.floats(3.0, 8.0),
                           "input_power_w": st.floats(5e-9, 30e-9), **_atoms}),
)
_saturation = st.fixed_dictionaries({"cooperativity": st.floats(0.05, 8.0), **_atoms})
_ring = st.fixed_dictionaries({"finesse": st.floats(5.0, 300.0), "fsr_mhz": st.floats(100.0, 200.0),
                               "dip_transmission": st.floats(0.01, 0.95),
                               "nu0_mhz": st.floats(-3.0, 3.0), **_nuisances})
_drawn = st.one_of(
    st.tuples(st.just("atomic_spectrum"), _spectra),
    st.tuples(st.just("saturation_curve"), _saturation),
    st.tuples(st.just("empty_ring"), _ring),
)


def _values(name, x, p):
    return fitting.MODELS[name].func(x, p)[0]


@settings(max_examples=60, deadline=None)
@given(drawn=_drawn)
def test_jacobian_matches_central_differences(drawn):
    # every parameter of the model is free; central differences at h and h/2
    # bound their own truncation error (|g(h/2) - J| ~ |g(h) - g(h/2)|/3), which
    # also covers a grid point next to a fold, where the lowest branch jumps
    name, p = drawn
    x = MODEL_X[name]
    free = tuple(p)
    values, jac = fitting.MODELS[name].func(x, p, free)
    assert np.array_equal(values, _values(name, x, p))
    assert jac.shape == (x.size, len(free)) and np.all(np.isfinite(jac))
    for j, n in enumerate(free):
        def shifted(v, n=n):
            return _values(name, x, dict(p, **{n: v}))

        h = 1e-4 * (1.0 if n in ("baseline", "nu0_mhz") else p[n])  # the others are > 0
        g1 = oracles.centered_gradient(shifted, p[n], h)
        g2 = oracles.centered_gradient(shifted, p[n], h / 2.0)
        floor = 1e-7 * np.max(np.abs(g2)) + 1e-12 * np.max(np.abs(values)) / h
        bad = np.abs(jac[:, j] - g2) > 3.0 * np.abs(g1 - g2) + floor
        assert not bad.any(), (name, n, x[bad], jac[bad, j], g2[bad])


def test_exact_zero_columns():
    for name, zero in (("atomic_spectrum", ("fsr_mhz", "gamma_par_mhz")),
                       ("saturation_curve", ("fsr_mhz", "gamma_par_mhz", "gamma_perp_mhz"))):
        p = dict(fitting.MODELS[name].defaults, cooperativity=5.0)
        _, jac = fitting.MODELS[name].func(MODEL_X[name], p, zero)
        assert not np.any(jac)


def test_power_column_in_the_weak_limit():
    # at zero power spectrum() takes the weak limit (u = 0, no cubic); the
    # power column is then dT/dy2 there, a one-sided derivative
    p = dict(fitting.MODELS["atomic_spectrum"].defaults, input_power_w=0.0, cooperativity=2.0)
    values, jac = fitting.MODELS["atomic_spectrum"].func(SPECTRUM_X, p, ("input_power_w",))
    h = 1e-15

    def forward(step):
        return (_values("atomic_spectrum", SPECTRUM_X, dict(p, input_power_w=step)) - values) / step

    g1, g2 = forward(h), forward(h / 2.0)
    richardson = 2.0 * g2 - g1
    np.testing.assert_allclose(jac[:, 0], richardson, rtol=1e-6, atol=1e-6 * np.abs(g2).max())
    assert np.any(jac[:, 0] != 0.0)


def _problem(spec, data):
    full, bounds = fitting._resolve(spec)
    return fitting._Residuals(spec, data, full, np.array([bounds[n][1] for n in spec.free]))


def _forward_column(spec, data, theta, j, step):
    full, _ = fitting._resolve(spec)
    p = dict(full, **dict(zip(spec.free, theta)))
    base = fitting.MODELS[spec.model].func(data.x, p)[0]
    p[spec.free[j]] = theta[j] + step
    moved = fitting.MODELS[spec.model].func(data.x, p)[0]
    return np.sqrt(data.weights) * ((moved - base) / step)


def test_fallback_column_at_zero_dip():
    # t and a go as sqrt(dip_transmission): its column is infinite at 0 and
    # falls back to a forward difference, one more model call
    spec = FitSpec(model="empty_ring", free=("finesse", "dip_transmission"))
    data = fitting.generate_synthetic(spec, RING_X, {"finesse": 34.0, "dip_transmission": 0.0},
                                      noise_sigma=0.01, seed=1)
    problem = _problem(spec, data)
    theta = np.array([34.0, 0.0])
    residuals, jacobian = problem(theta)
    assert problem.n_eval == 1
    jac = jacobian()
    assert problem.n_eval == 2
    step = np.sqrt(np.finfo(float).eps)
    np.testing.assert_array_equal(jac[:, 1], _forward_column(spec, data, theta, 1, step))
    _, analytic = fitting.MODELS["empty_ring"].func(data.x, dict(
        fitting._resolve(spec)[0], finesse=34.0, dip_transmission=0.0), spec.free)
    assert np.array_equal(jac[:, 0], np.sqrt(data.weights) * analytic[:, 0])
    # the residuals come from the same evaluation
    assert np.array_equal(residuals, np.sqrt(data.weights) * (_values(
        "empty_ring", data.x, dict(fitting._resolve(spec)[0], finesse=34.0,
                                   dip_transmission=0.0)) - data.yobs))
    assert problem.n_eval == 2


def test_fallback_at_an_unresolved_root_steps_inside_the_bounds(monkeypatch):
    # a double root (G'(u) below its rounding error) makes every column that
    # goes through the root NaN; force it on the branch-selected rows only
    resolved = ss._derivative_resolved
    monkeypatch.setattr(ss, "_derivative_resolved", lambda u, *c: (
        np.zeros(u.shape, bool) if u.ndim == 1 else resolved(u, *c)))
    spec = FitSpec(model="atomic_spectrum", free=("cooperativity", "gamma_perp_mhz", "scale"),
                   bounds={"cooperativity": (0.0, 1.5)})
    data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 201),
                                      {"cooperativity": 1.5, "gamma_perp_mhz": 4.0, "scale": 1.0})
    calls = []
    model = fitting.MODELS["atomic_spectrum"]

    def recording(x, p, free=()):
        calls.append((p["cooperativity"], tuple(free)))
        return model.func(x, p, free)

    monkeypatch.setitem(fitting.MODELS, "atomic_spectrum", dataclasses.replace(model, func=recording))
    problem = _problem(spec, data)
    theta = np.array([1.5, 4.0, 1.0])
    jac = problem(theta)[1]()
    # one evaluation, then a one-sided difference for the two root columns;
    # cooperativity sits on its upper bound, so its step goes down
    assert problem.n_eval == len(calls) == 3
    assert calls[1] == (1.5 - np.sqrt(np.finfo(float).eps) * 1.5, ())
    assert np.array_equal(jac[:, 2], np.sqrt(data.weights) * _values(
        "atomic_spectrum", data.x, dict(fitting._resolve(spec)[0], scale=1.0)))
    monkeypatch.setattr(ss, "_derivative_resolved", resolved)
    _, analytic = model.func(data.x, dict(fitting._resolve(spec)[0]), spec.free)
    np.testing.assert_allclose(jac[:, :2], np.sqrt(data.weights)[:, None] * analytic[:, :2],
                               rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("spec, x, truth", [
    (FitSpec(model="atomic_spectrum", free=("cooperativity", "gamma_perp_mhz")),
     np.linspace(-20.0, 20.0, 161), {"cooperativity": 1.5, "gamma_perp_mhz": 4.0}),
    (FitSpec(model="saturation_curve", free=("cooperativity", "n_sat")),
     SATURATION_X, {"cooperativity": 1.5, "n_sat": 12.7}),
    (FitSpec(model="empty_ring", free=("finesse", "fsr_mhz", "dip_transmission", "nu0_mhz")),
     np.linspace(-170.0, 170.0, 801),
     {"finesse": 34.0, "fsr_mhz": 148.0, "dip_transmission": 0.32, "nu0_mhz": 0.4}),
])
def test_n_eval_counts_every_model_call(monkeypatch, spec, x, truth):
    data = fitting.generate_synthetic(spec, x, truth, noise_sigma=0.01, seed=2)
    model = fitting.MODELS[spec.model]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return model.func(*args, **kwargs)

    monkeypatch.setitem(fitting.MODELS, spec.model, dataclasses.replace(model, func=counting))
    assert fitting.fit(data, spec).n_eval == len(calls) > 0


def test_degenerate_fit_on_3001_points_takes_one_thin_svd(monkeypatch):
    # far from every resonance the ring is flat, so scale and baseline are
    # collinear: the flat direction shows only in the SVD, not in column norms
    spec = FitSpec(model="empty_ring", free=("scale", "baseline"),
                   fixed={"finesse": 5000.0, "fsr_mhz": 148.0, "dip_transmission": 0.3,
                          "nu0_mhz": 74.0})
    data = fitting.generate_synthetic(spec, np.linspace(-50.0, 50.0, 3001),
                                      {"scale": 1.0, "baseline": 0.0}, noise_sigma=0.01, seed=3)
    svd = np.linalg.svd
    shapes = []

    def thin_only(a, *args, **kwargs):
        shapes.append(kwargs.get("full_matrices", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", thin_only)
    with pytest.raises(DegenerateFit) as exc_info:
        fitting.fit(data, spec)
    assert exc_info.value.parameters == ("baseline", "scale")
    assert shapes == [False]


# ------------------------------------------------------ values, frozen copy

def _frozen_transmission(u, delta_c, delta_a, cooperativity, kappa_ratio):
    d = 1.0 + delta_a * delta_a + 2.0 * u
    f = 1.0 + 1j * delta_c + 4.0 * cooperativity * (1.0 - 1j * delta_a) / d
    return np.abs(1.0 - 2.0 * kappa_ratio / f) ** 2


def _frozen_cubic(x, p, spectrum):
    """The value path before the models carried their jacobian."""
    cavity = CavityParams(kappa_i=mhz_to_rad(p["kappa_i_mhz"]), kappa_ex=mhz_to_rad(p["kappa_ex_mhz"]),
                          fsr=p["fsr_mhz"] * 1e6, lambda_p=p["lambda_p_nm"] * 1e-9)
    gamma_par = mhz_to_rad(p["gamma_par_mhz"])
    ensemble = EnsembleParams(cooperativity=p["cooperativity"], gamma_par=gamma_par,
                              gamma_d=mhz_to_rad(p["gamma_perp_mhz"]) - gamma_par / 2.0,
                              n_sat=p["n_sat"])
    c, r = ensemble.cooperativity, cavity.kappa_ratio
    if spectrum:
        omega = TWO_PI * (np.asarray(x) * 1e6)
        dc, da = omega / cavity.kappa, (omega - TWO_PI * 0.0) / ensemble.gamma_perp
        y2 = ss.drive_from_power(p["input_power_w"], cavity, ensemble.n_sat)
        if y2 == 0.0:
            a0 = 1.0 + da ** 2
            f = 1.0 + 1j * dc + 4.0 * c * (1.0 - 1j * da) / a0
            t = np.abs(1.0 - 2.0 * r / f) ** 2
        else:
            roots, _ = ss._roots_grid(np.full_like(omega, y2), dc, da, c)
            t = _frozen_transmission(roots[:, 0], dc, da, c, r)
    else:
        y2 = ss.drive_from_power(np.asarray(x, dtype=float), cavity, ensemble.n_sat)
        roots, _ = ss._roots_grid(y2, 0.0, 0.0, c)
        t = _frozen_transmission(roots[:, 0], 0.0, 0.0, c, r)
    return p["scale"] * t + p["baseline"]


def _frozen_ring(x, p):
    model = ring_from_lineshape(finesse=p["finesse"], fsr=p["fsr_mhz"] * 1e6,
                                dip_transmission=p["dip_transmission"],
                                detuning_offset=p["nu0_mhz"] * 1e6)
    phi = TWO_PI * (np.asarray(x) * 1e6 - model.detuning_offset) / model.fsr
    e = np.exp(1j * phi)
    t, a = model.t_coupler, model.a_roundtrip
    return p["scale"] * np.abs((t - a * e) / (1.0 - t * a * e)) ** 2 + p["baseline"]


@settings(max_examples=60, deadline=None)
@given(drawn=_drawn, zero_power=st.booleans())
def test_values_equal_the_frozen_value_path(drawn, zero_power):
    name, p = drawn
    if name == "atomic_spectrum" and zero_power:
        p = dict(p, input_power_w=0.0)
    x = MODEL_X[name]
    want = (_frozen_ring(x, p) if name == "empty_ring"
            else _frozen_cubic(x, p, spectrum=name == "atomic_spectrum"))
    spec = FitSpec(model=name, free=())
    assert np.array_equal(fitting.evaluate_model(spec, p, x), want)
    # the values the fit sees, computed alongside the jacobian, are the same
    assert np.array_equal(fitting.MODELS[name].func(x, p, tuple(p))[0], want)


# --------------------------------------------------- fit engine vs scipy

_ORACLE_FREE = {"atomic_spectrum": ("cooperativity", "gamma_perp_mhz", "baseline"),
                "no_atoms": ("cooperativity", "baseline"),
                "saturation_curve": ("cooperativity", "n_sat"),
                "empty_ring": ("finesse", "fsr_mhz", "dip_transmission", "nu0_mhz")}
# how far from the truth both loops start: within the truth's basin. A ring
# start must keep every dip within its linewidth, fsr/finesse, of the data's
_ORACLE_SPREAD = {"atomic_spectrum": 0.05, "no_atoms": 0.05, "saturation_curve": 0.05,
                  "empty_ring": 0.002}
# monostable curves only: a bistable lowest branch jumps at its folds, the
# cost has kinks there, and the two loops may stop on different ones. Drives
# up to 10 pW keep every drawn spectrum monostable (y^2 < 1); on resonance
# the saturation curve is bistable above C = 2
_weak_spectra = st.fixed_dictionaries({"cooperativity": st.floats(0.05, 8.0),
                                       "input_power_w": st.floats(1e-13, 1e-11), **_atoms})
_monostable_saturation = st.fixed_dictionaries({"cooperativity": st.floats(0.05, 2.0), **_atoms})
# dips at least about two grid steps wide, so the cost is smooth in fsr and
# nu0, and at least two of them in view: one dip fixes only fsr/finesse
_resolved_ring = st.fixed_dictionaries({"finesse": st.floats(5.0, 50.0),
                                        "fsr_mhz": st.floats(100.0, 160.0),
                                        "dip_transmission": st.floats(0.01, 0.95),
                                        "nu0_mhz": st.floats(-3.0, 3.0), **_nuisances})
_oracle_draws = st.one_of(
    st.tuples(st.just("atomic_spectrum"), _weak_spectra, st.just({})),
    st.tuples(st.just("saturation_curve"), _monostable_saturation, st.just({})),
    st.tuples(st.just("empty_ring"), _resolved_ring, st.just({})),
    # optima on a bound: no atoms (gamma_perp then has no effect, so it is
    # fixed), and a ring that (nearly) extinguishes
    st.tuples(st.just("no_atoms"), _weak_spectra.map(lambda p: dict(p, cooperativity=0.0)),
              st.just({"cooperativity": (0.0, 5.0)})),
    st.tuples(st.just("empty_ring"),
              _resolved_ring.flatmap(lambda p: st.floats(0.0, 1e-3).map(
                  lambda d: dict(p, dip_transmission=d))),
              st.just({})),
)


def _monostable_at(spec, x, theta):
    """False where a saturation fit has wandered past its fold (C > 2)."""
    if spec.model != "saturation_curve":
        return True
    full, _ = fitting._resolve(spec)
    full.update(zip(spec.free, theta))
    cavity, ensemble = fitting._cavity_and_ensemble(full)
    y2 = ss.drive_from_power(x, cavity, ensemble.n_sat)
    return ss._roots_grid(y2, 0.0, 0.0, ensemble.cooperativity)[1].max() == 1


def _scipy_trf(problem, x0, lo, hi):
    from scipy.optimize import least_squares

    last = {}

    def residuals(theta):
        last["theta"], (r, last["jacobian"]) = np.array(theta), problem(theta)
        return r

    def jacobian(theta, *_):
        if not np.array_equal(theta, last.get("theta")):
            residuals(theta)
        return last["jacobian"]()

    tol = fitting.TOL
    return least_squares(residuals, x0, jac=jacobian, bounds=(lo, hi), method="trf",
                         xtol=tol, ftol=tol, gtol=tol, max_nfev=fitting.MAX_NFEV)


@settings(max_examples=30, deadline=None)
@given(drawn=_oracle_draws, seed=st.integers(0, 2**16), offset=st.floats(-1.0, 1.0))
def test_least_squares_matches_scipy_trf(drawn, seed, offset):
    # both loops, from one start near the truth, on the same residuals: the
    # same cost within the fit's tie tolerance, and the same estimates within
    # 1e-3 of their sigma wherever the optimum is interior
    case, truth, bounds = drawn
    free, spread = _ORACLE_FREE[case], _ORACLE_SPREAD[case]
    name = "atomic_spectrum" if case == "no_atoms" else case
    spec = FitSpec(model=name, free=free, fixed={k: v for k, v in truth.items() if k not in free},
                   bounds=bounds)
    data = fitting.generate_synthetic(spec, MODEL_X[name], {k: truth[k] for k in free},
                                      noise_sigma=0.01, seed=seed)
    _, box = fitting._resolve(spec)
    lo, hi = (np.array([box[n][i] for n in free]) for i in (0, 1))
    step = spread * offset
    x0 = np.clip([truth[n] * (1.0 + step) + step for n in free], lo, hi)
    full, _ = fitting._resolve(spec)
    ours = fitting.least_squares(fitting._Residuals(spec, data, full, hi), x0, lo, hi)
    theirs = _scipy_trf(fitting._Residuals(spec, data, full, hi), x0, lo, hi)
    assert ours.status > 0 and theirs.status > 0
    # a poorly determined C can still end on a bistable curve, with kinks
    assume(_monostable_at(spec, data.x, ours.x) and _monostable_at(spec, data.x, theirs.x))
    assert abs(ours.cost - theirs.cost) <= 1e-9 * (1.0 + min(ours.cost, theirs.cost))
    _, sv, vt = np.linalg.svd(ours.jac, full_matrices=False)
    sigma = fitting._covariance_proxy(sv, vt, free, 2.0 * ours.cost / (data.x.size - len(free)))
    for j, n in enumerate(free):
        interior = min(ours.x[j] - lo[j], hi[j] - ours.x[j]) > 1e-3 * sigma[n]
        if interior and np.isfinite(sigma[n]):
            assert abs(ours.x[j] - theirs.x[j]) <= 1e-3 * sigma[n], (n, ours.x, theirs.x, sigma)


# ---------------------------------------------------------------- starts

def _tied(a, b):
    return abs(a - b) <= 1e-9 * (1.0 + b)


def _recorded_costs(monkeypatch):
    """Wrap least_squares; the returned list gets each start's final cost."""
    costs, real = [], fitting.least_squares

    def recording(*args):
        res = real(*args)
        costs.append(res.cost)
        return res

    monkeypatch.setattr(fitting, "least_squares", recording)
    return costs


def _fit_cost(data, spec):
    try:
        result = fitting.fit(data, spec)
    except DegenerateFit as exc:
        result = exc.result
    return result, 0.5 * fitting.objective(data, spec, result.estimates)


_JITTER_BOXES = [
    ({"cooperativity": 0.1}, {"cooperativity": (0.0, 50.0)}),
    ({"cooperativity": 0.0, "gamma_perp_mhz": 2.6},
     {"cooperativity": (0.0, 50.0), "gamma_perp_mhz": (2.6, 50.0)}),
    ({"dip_transmission": 0.99}, {"dip_transmission": (0.0, 0.999)}),
    ({"nu0_mhz": 0.0}, {"nu0_mhz": (-np.inf, 0.01)}),
]


@pytest.mark.parametrize("init, bounds", _JITTER_BOXES)
def test_jittered_starts_never_begin_on_a_bound(init, bounds):
    # an overshoot is reflected off its bound, not clipped onto it
    starts = fitting._jittered_starts(init, bounds, 64, {})
    assert starts[0] == init
    for start in starts[1:]:
        for name, (lo, hi) in bounds.items():
            assert lo < start[name] < hi, (name, start)


def test_jitter_is_numpys_seed0_uniform_stream():
    drawn = list(itertools.islice(fitting._seed0_jitter(), 10_000))
    assert drawn == np.random.default_rng(0).uniform(-0.25, 0.25, 10_000).tolist()


@pytest.mark.parametrize("init, bounds", _JITTER_BOXES)
def test_jittered_starts_match_the_numpy_random_oracle(init, bounds):
    # _wide_jittered_starts draws from numpy.random itself; without a
    # spread the two agree bit for bit
    assert fitting._jittered_starts(init, bounds, 64, {}) == _wide_jittered_starts(init, bounds,
                                                                                   64, {})


@pytest.mark.parametrize("cap, expected", [
    (fitting.N_STARTS, fitting.AGREEING_STARTS), (1, 1), (2, 2)])
def test_n_starts_counts_the_starts_run(monkeypatch, weak_spectrum_grid, spectrum_spec,
                                        cap, expected):
    # every start reaches one optimum on these data, so the fit stops after
    # AGREEING_STARTS of them, or at a lower cap
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid,
                                      {"cooperativity": 1.5, "gamma_perp_mhz": 4.0},
                                      noise_sigma=0.01, seed=1)
    costs = _recorded_costs(monkeypatch)
    monkeypatch.setattr(fitting, "N_STARTS", cap)
    result = fitting.fit(data, spectrum_spec)
    assert result.converged
    assert result.n_starts == len(costs) == expected
    assert all(_tied(c, min(costs)) for c in costs)


RING_SPEC = FitSpec(model="empty_ring",
                    free=("finesse", "fsr_mhz", "dip_transmission", "nu0_mhz"))
RING_TRUTH = {"finesse": 34.0, "fsr_mhz": 148.0, "dip_transmission": 0.32, "nu0_mhz": 0.4}


def test_ring_fit_stops_early_on_its_best_minimum(monkeypatch):
    # at the empty-cavity command's default span and points, fsr and nu0 are
    # jittered within a linewidth of the measured comb, so every start ends
    # on the best cost and the fit stops after AGREEING_STARTS; it returns
    # what running all of them returns
    data = fitting.generate_synthetic(RING_SPEC, np.linspace(-170.0, 170.0, 3001), RING_TRUTH,
                                      noise_sigma=0.01, seed=0)
    costs = _recorded_costs(monkeypatch)
    adaptive, adaptive_cost = _fit_cost(data, RING_SPEC)
    assert adaptive.n_starts == len(costs) == fitting.AGREEING_STARTS
    assert all(_tied(c, min(costs)) for c in costs)

    monkeypatch.setattr(fitting, "AGREEING_STARTS", fitting.N_STARTS + 1)
    every, every_cost = _fit_cost(data, RING_SPEC)
    assert every.n_starts == fitting.N_STARTS
    assert _tied(adaptive_cost, every_cost)
    assert adaptive.estimates == pytest.approx(every.estimates, rel=1e-9)


def _wide_jittered_starts(init, bounds, n_starts, spread):
    """_jittered_starts without the measured-comb spread, which it ignores."""
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
            s[name] = float(lo + (lo - v) if v < lo else hi - (v - hi) if v > hi else v)
        starts.append(s)
    return starts


def _resolved_comb(seed):
    """Seeded ring data over 2-4 FSRs with 2-10 samples per FWHM."""
    rng = np.random.default_rng([seed, 14])
    finesse, fsr = rng.uniform(10.0, 150.0), rng.uniform(60.0, 300.0)
    span = rng.uniform(2.0, 4.0) * fsr
    points = int(span / (rng.uniform(0.1, 0.5) * fsr / finesse)) + 1
    truth = {"finesse": finesse, "fsr_mhz": fsr, "dip_transmission": rng.uniform(0.05, 0.8),
             "nu0_mhz": rng.uniform(-0.15, 0.15) * fsr}
    return fitting.generate_synthetic(RING_SPEC, np.linspace(-span / 2, span / 2, points), truth,
                                      noise_sigma=rng.uniform(0.002, 0.02), seed=seed)


def test_measured_comb_spread_leaves_resolved_ring_fits_bit_identical(monkeypatch):
    # the spread only saves starts: on resolved combs the fit returns what
    # the wide jitter of every parameter returns, bit for bit
    data = [_resolved_comb(seed) for seed in range(10)]
    for d in data:
        assert set(fitting.default_init(d, RING_SPEC)[1]) == {"fsr_mhz", "nu0_mhz"}
    narrow = [_fit_cost(d, RING_SPEC)[0] for d in data]
    monkeypatch.setattr(fitting, "_jittered_starts", _wide_jittered_starts)
    wide = [_fit_cost(d, RING_SPEC)[0] for d in data]
    for a, b in zip(narrow, wide):
        assert a.estimates == b.estimates
        assert a.covariance_proxy == b.covariance_proxy
        assert a.residual_rms == b.residual_rms
    assert sum(r.n_eval for r in narrow) < sum(r.n_eval for r in wide)


@pytest.mark.parametrize("x, init, spread", [
    # resolved comb: both measured values get the linewidth at the guess
    (np.linspace(-170.0, 170.0, 3001), {}, {"fsr_mhz", "nu0_mhz"}),
    # an init override is not measured, and keeps its wide jitter
    (np.linspace(-170.0, 170.0, 3001), {"fsr_mhz": 150.0}, {"nu0_mhz"}),
    # one dip measures no FSR
    (np.linspace(-100.0, 100.0, 2001), {}, set()),
    # a grid step of 1.3 FWHM: each dip has one sample past half its depth
    (np.linspace(-170.0, 170.0, 61), {}, set()),
])
def test_ring_spread_only_where_the_comb_was_measured(x, init, spread):
    spec = dataclasses.replace(RING_SPEC, init=init)
    data = fitting.generate_synthetic(spec, x, RING_TRUTH, noise_sigma=0.01, seed=0)
    guess, got = fitting.default_init(data, spec)
    assert got == dict.fromkeys(spread, guess["fsr_mhz"] / guess["finesse"])


def test_zero_cooperativity_spectra_reach_the_all_starts_cost(monkeypatch):
    # on C = 0 data most starts run onto the C = 0 face, where gamma_perp's
    # column vanishes and every start there ties; at seed 11 the first three
    # do, above the minimum at C = 8e-4, gamma_perp = 2.6 that a later start
    # finds. Such flat end points must not count toward stopping.
    spec = FitSpec(model="atomic_spectrum",
                   free=("cooperativity", "gamma_perp_mhz", "baseline"))
    truth = {"cooperativity": 0.0, "gamma_perp_mhz": 5.0, "baseline": 0.0}
    for seed in range(12):
        data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 401), truth,
                                          noise_sigma=0.01, seed=seed)
        monkeypatch.setattr(fitting, "AGREEING_STARTS", 3)
        _, adaptive_cost = _fit_cost(data, spec)
        monkeypatch.setattr(fitting, "AGREEING_STARTS", fitting.N_STARTS + 1)
        _, every_cost = _fit_cost(data, spec)
        assert _tied(adaptive_cost, every_cost), seed


def _scripted_starts(monkeypatch, outcomes):
    """least_squares ends start k at cost outcomes[k][0] and cooperativity outcomes[k][1]."""
    script, real, first = iter(outcomes), fitting.least_squares, []

    def scripted(fun, x0, lower, upper):
        if not first:
            first.append(real(fun, x0, lower, upper))
        cost, cooperativity = next(script)
        x = first[0].x.copy()
        x[0] = cooperativity
        return dataclasses.replace(first[0], x=x, cost=cost)

    monkeypatch.setattr(fitting, "least_squares", scripted)


@pytest.mark.parametrize("outcomes, n_run, winner", [
    # a strictly better cost starts the count again; ties go to the lowest C
    ([(5.0, 1.0), (5.0, 0.5), (1.0, 2.0), (1.0 + 1e-12, 1.5), (1.0, 1.8)] + [(9.0, 0.1)] * 3,
     5, 1.5),
    # a cost repeated above the best does not count
    ([(1.0, 1.0), (7.0, 0.1), (7.0, 0.2), (7.0, 0.3), (1.0, 1.2), (1.0, 0.9)] + [(9.0, 0.1)] * 2,
     6, 0.9),
    # never three at the best: all starts run
    ([(3.0, 1.0), (2.0, 1.0), (1.0, 1.2), (1.0, 1.1)] + [(4.0, 0.1)] * 4, 8, 1.1),
])
def test_stopping_rule_counts_starts_at_the_best_cost(monkeypatch, weak_spectrum_grid,
                                                     spectrum_spec, outcomes, n_run, winner):
    data = fitting.generate_synthetic(spectrum_spec, weak_spectrum_grid,
                                      {"cooperativity": 1.5, "gamma_perp_mhz": 4.0},
                                      noise_sigma=0.01, seed=1)
    _scripted_starts(monkeypatch, outcomes)
    result = fitting.fit(data, spectrum_spec)
    assert result.n_starts == n_run
    assert result.estimates["cooperativity"] == winner
