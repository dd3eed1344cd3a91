"""Independent reference implementations used only by the tests.

Everything here is deliberately written by a different route than the
package: intensity roots come from bracketing an unexpanded residual
function, transmission from a damped fixed-point iteration on the complex
field equation, ring transmission from summing the round-trip geometric
series, and linewidths from numerical half-depth crossings. Slow and
simple on purpose.
"""
from __future__ import annotations

import numpy as np
from scipy.constants import c as C_VACUUM
from scipy.constants import h as H_PLANCK
from scipy.optimize import brentq

BRENTQ_XTOL = 1e-14
BRENTQ_RTOL = 8.9e-16


def intensity_residual(u, y2, delta_c, delta_a, cooperativity):
    """G(u) = u * |i(1+i dc) D + 4iC(1-i da)|^2 - y2 * D^2 with D = 1+da^2+2u.

    Zero exactly at steady-state intracavity intensities. No polynomial
    expansion: the complex modulus is evaluated directly.
    """
    d = 1.0 + delta_a ** 2 + 2.0 * u
    denom = 1j * (1.0 + 1j * delta_c) * d + 4j * cooperativity * (1.0 - 1j * delta_a)
    return u * np.abs(denom) ** 2 - y2 * d * d


def intensity_roots_bracketing(y2, delta_c, delta_a, cooperativity):
    """All steady-state intensities u >= 0 by derivative-partitioned brentq.

    G is cubic in u, so G' is quadratic; its coefficients are recovered by
    exact quadratic interpolation of G' at three points (finite structure,
    not finite differences), which partitions [0, ub] into monotone pieces.
    """
    if y2 == 0.0:
        return np.array([0.0])

    def g(u):
        return intensity_residual(u, y2, delta_c, delta_a, cooperativity)

    def gprime(u):
        # d/du [u*A(u)] - y2 * d/du D^2, with A = |...|^2 expanded by parts
        d = 1.0 + delta_a ** 2 + 2.0 * u
        a_val = (d + 4.0 * cooperativity) ** 2 + (delta_c * d - 4.0 * cooperativity * delta_a) ** 2
        a_der = 4.0 * (d + 4.0 * cooperativity) + 4.0 * delta_c * (delta_c * d - 4.0 * cooperativity * delta_a)
        return a_val + u * a_der - 4.0 * y2 * d

    # G' is an exact quadratic; interpolate it through three samples, then
    # push the bracket beyond every critical point so no outer root escapes
    coeffs = np.polyfit([0.0, 1.0, 2.0], [gprime(u) for u in (0.0, 1.0, 2.0)], 2)
    crit = [r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-12 and r.real > 0.0]
    ub = max([1.0, *(2.0 * c + 1.0 for c in crit)])
    while g(ub) <= 0.0:
        ub *= 2.0
        if ub > 1e30:
            raise RuntimeError("no sign change found for upper bracket")
    edges = sorted({0.0, ub, *(c for c in crit if c < ub)})
    roots = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        glo, ghi = g(lo), g(hi)
        if glo == 0.0:
            roots.append(lo)
        if glo * ghi < 0.0:
            roots.append(brentq(g, lo, hi, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL))
    if g(edges[-1]) == 0.0:
        roots.append(edges[-1])
    return np.unique(np.round(np.array(sorted(roots)), 15))


def field_fixed_point(y, delta_c, delta_a, cooperativity, max_iter=100000, damp=0.9):
    """Intracavity field X solving the implicit steady-state equation.

    Damped Picard iteration on X = y / (i F(|X|^2)); converges on the
    low branch for the drives the tests use. It stops when the step is
    below 1e-15 |X|, or when a step within 16 ulps of |X| no longer shrinks:
    there the damped update rounds back to X (at C = 1.5 on resonance the
    step stalls near 1.5e-15 |X| for |y|^2 = 1, 4, 8 and 12.3).
    """
    x = y / (1j * (1.0 + 1j * delta_c))
    prev_step = np.inf
    for _ in range(max_iter):
        d = 1.0 + delta_a ** 2 + 2.0 * abs(x) ** 2
        f = 1.0 + 1j * delta_c + 4.0 * cooperativity * (1.0 - 1j * delta_a) / d
        x_new = y / (1j * f)
        step = abs(x_new - x)
        scale = max(abs(x), 1e-300)
        stalled = step >= prev_step and step <= 16.0 * np.finfo(float).eps * scale
        if step <= 1e-15 * scale or stalled:
            return damp * x + (1.0 - damp) * x_new
        prev_step = step
        x = damp * x + (1.0 - damp) * x_new
    raise RuntimeError("fixed point did not converge")


def transmission_from_field(x, y, kappa_ratio):
    """T = |1 - 2 (kex/k) iX / y|^2, straight from input-output."""
    return float(abs(1.0 - 2.0 * kappa_ratio * 1j * x / y) ** 2)


def weak_transmission_direct(delta_c, delta_a, cooperativity, kappa_ratio):
    d = 1.0 + delta_a ** 2
    f = 1.0 + 1j * delta_c + 4.0 * cooperativity * (1.0 - 1j * delta_a) / d
    return float(abs(1.0 - 2.0 * kappa_ratio / f) ** 2)


def ring_transmission_series(nu_hz, t, a, fsr, nu0=0.0, n_terms=4000):
    """All-pass ring output by summing the round-trip geometric series.

    E_out = t - (1 - t^2) a z sum_k (t a z)^k with z = exp(i phi),
    truncated far below double precision for the finesses under test.
    """
    phi = 2.0 * np.pi * (np.asarray(nu_hz, dtype=float) - nu0) / fsr
    z = np.exp(1j * phi)
    taz = t * a * z
    series = np.zeros_like(z)
    term = np.ones_like(z)
    for _ in range(n_terms):
        series = series + term
        term = term * taz
    e_out = t - (1.0 - t * t) * a * z * series
    return np.abs(e_out) ** 2


def photon_flux(power_w, lambda_m):
    return power_w * lambda_m / (H_PLANCK * C_VACUUM)


def numerical_fwhm(f, center_guess, width_guess):
    """Full width at half depth of a dip of f by bisection on each flank.

    f must be smooth with a single minimum near center_guess and recover
    toward its wing level within ~10 width_guess.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        f,
        bracket=(center_guess - width_guess, center_guess, center_guess + width_guess),
    )
    x0, fmin = res.x, res.fun
    wing = f(x0 + 50.0 * width_guess)
    half = 0.5 * (wing + fmin)

    def g(x):
        return f(x) - half

    left = brentq(g, x0 - 50.0 * width_guess, x0, xtol=1e-6)
    right = brentq(g, x0, x0 + 50.0 * width_guess, xtol=1e-6)
    return right - left


def centered_gradient(f, x0, step):
    """Central finite difference at two step sizes, for convergence checks."""
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)


def thermal_exact_step(offset, p_circ, s_coeff, tau, dt):
    """Exact relaxation toward s_coeff * p_circ for piecewise-constant drive."""
    target = s_coeff * p_circ
    return target + (offset - target) * np.exp(-dt / tau)
