"""Semiclassical steady state of the driven atom-cavity system.

The model: a probe field drives a fiber ring cavity containing an ensemble of
two-level emitters with collective cooperativity C. In normalized variables
the steady-state intracavity amplitude X obeys

    y = i X (1 + i dc + 4 C (1 - i da) / (1 + da^2 + 2 |X|^2)),

with y the (real, >= 0) drive amplitude, dc and da the cavity and atom
detunings in units of kappa and gamma_perp. Writing u = |X|^2 and taking the
modulus squared turns this into a cubic in u,

    |y|^2 D^2 = u [ (D + 4C)^2 + (dc D - 4C da)^2 ],   D = 1 + da^2 + 2u,

whose real non-negative roots are the steady-state intensities (one or three;
three only in the bistable regime). Normalized transmission out of the single
coupler is

    T = |1 - (2i/y) (kappa_ex/kappa) X|^2.

All solver code is vectorized over parameter tuples and runs BLOCK_ROWS rows
at a time. The cubic's largest real root always exists (c3 > 0 >= c0); it is
seeded by Cardano's form, or by the trigonometric form on the rows with three
real roots, Newton-polished, then divided out, and the remaining quadratic
gives the other two roots without cancellation where both are real and
non-negative. Every root is certified against the cubic's residual before it
is returned. At C = 0, T does not depend on u, and no cubic is solved for it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRealRoot, NumericalInstability
from .params import CavityParams, DriveParams, EnsembleParams
from .units import C_VACUUM, H_PLANCK, TWO_PI

#: relative residual bound every returned root must satisfy
RESIDUAL_TOL = 1e-9

#: grid rows _roots_grid solves at a time. Its temporaries are then 32 kB
#: arrays, about 230 kB at their peak, which the next block reuses: on a
#: 60 001-point grid that stays under glibc's trim threshold, where 8192-row
#: blocks (about 450 kB) had the heap top trimmed and faulted in again after
#: each block, and one pass allocated dozens of fresh 480 kB arrays
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BranchPolicy:
    """Rule for choosing among multiple steady-state intensity roots.

    mode is one of "lowest", "highest", "follow_sweep". follow_sweep is
    branch continuation along the grid in the order given: a run of
    three-root rows enters on the outer root nearest the intensity of the
    row before the run (the lower on a tie, the lowest at the first row) and
    keeps that branch to the run's end; a sweep the other way is the
    reversed grid. Every mode reports only roots with G'(u) > 0, the stable
    branches.
    """

    mode: str = "lowest"

    def __post_init__(self):
        if self.mode not in ("lowest", "highest", "follow_sweep"):
            raise ValueError(f"unknown branch mode {self.mode!r}")


LOWEST = BranchPolicy("lowest")
HIGHEST = BranchPolicy("highest")


def _cubic_coeffs(y2, delta_c, delta_a, cooperativity):
    """Coefficients (c3, c2, c1, c0) of the intensity cubic, broadcast."""
    a0 = 1.0 + delta_a * delta_a
    p = a0 + 4.0 * cooperativity
    q = delta_c * a0 - 4.0 * cooperativity * delta_a
    c3 = 4.0 * (1.0 + delta_c * delta_c)
    c2 = 4.0 * (p + q * delta_c - y2)
    c1 = p * p + q * q - 4.0 * y2 * a0
    c0 = -y2 * a0 * a0
    return c3, c2, c1, c0


def _cubic(u, c3, c2, c1, c0):
    return ((c3 * u + c2) * u + c1) * u + c0


def _derivative_resolved(u, c3, c2, c1):
    """Where G'(u) exceeds its rounding error, so a Newton step means something.

    At a double root G' is rounding noise and the step can land anywhere.
    Every C = 0 cubic has one, at u = -(1 + da^2)/2; the step from it gave a
    spurious second u = 0 at y = 0 and uncertifiable roots at y > 0.
    """
    absu = np.abs(u)
    err = (3.0 * c3 * absu + np.abs(2.0 * c2)) * absu + np.abs(c1)
    return np.abs((3.0 * c3 * u + 2.0 * c2) * u + c1) > 8.0 * np.finfo(float).eps * err


def _newton(u, c3, c2, c1, c0):
    """Three Newton steps on the cubic, skipped where G' is rounding noise."""
    polish = _derivative_resolved(u, c3, c2, c1)
    d2, d1 = 3.0 * c3, 2.0 * c2
    for _ in range(3):
        f = _cubic(u, c3, c2, c1, c0)
        fp = (d2 * u + d1) * u + c1
        step = polish & (fp != 0.0)
        u = u - np.where(step, f / np.where(step, fp, 1.0), 0.0)
    return u


def _largest_root(c3, c2, c1, c0):
    """The largest real root of each cubic (>= 0 as c3 > 0 >= c0), and its |G|.

    Seeded by Cardano's form, overwritten by the trigonometric form only on
    the rows whose depressed cubic has three real roots (Kahan, "To solve a
    real cubic equation", 1986), clamped to >= 0 and Newton-polished. Newton
    shrinks a root far below 1 by only ~1e-16 per step, so a root of order
    -c0/c1 (1e-258 at y ~ 1e-129) would end at 0 with residual c0; one step
    of u = -c0 / (c1 + u (c2 + c3 u)) lands on it, kept where it lowers |G|
    and certifies: at a large y^2 the Newton root's |G| is rounding noise,
    and a step that lowers it can land on a negative or a wrong small point.
    """
    p = c2 / c3
    q = c1 / c3
    a = q - p * p / 3.0
    b = 2.0 * p * p * p / 27.0 - p * q / 3.0 + c0 / c3
    a3 = a * a * a
    d = np.sqrt(np.maximum(b * b / 4.0 + a3 / 27.0, 0.0))
    u = np.cbrt(-b / 2.0 + d) + np.cbrt(-b / 2.0 - d)
    three = np.flatnonzero(-4.0 * a3 - 27.0 * b * b > 0.0)
    if three.size:
        m = 2.0 * np.sqrt(np.maximum(-a[three] / 3.0, 0.0))
        u[three] = m * np.cos(np.arccos(np.clip(3.0 * b[three] / (a[three] * m), -1.0, 1.0)) / 3.0)
    u = _newton(np.maximum(u - p / 3.0, 0.0), c3, c2, c1, c0)
    step = -c0 / (c1 + u * (c2 + c3 * u))
    g_step, g = np.abs(_cubic(step, c3, c2, c1, c0)), np.abs(_cubic(u, c3, c2, c1, c0))
    wins = np.flatnonzero(g_step < g)
    if wins.size:
        landed = step[wins]
        keep = wins[(landed >= 0.0) & ~_uncertified(landed, g_step[wins],
                                                    *(c[wins] for c in (c3, c2, c1, c0)))]
        u[keep], g[keep] = step[keep], g_step[keep]
    return np.maximum(u, 0.0), np.where(u < 0.0, np.abs(c0), g)  # clamped to 0, G = c0


def _uncertified(u, residual, c3, c2, c1, c0):
    """Where a root's relative residual (|G(u)|, given) is not below RESIDUAL_TOL (NaN included).

    Below the smallest normal float, u moves in steps of 2^-1074 and one step
    moves G by ~|c1| 2^-1074, so |u| counts as at least that float: the root
    ~ -c0/c1 of a subnormal drive y^2 is then certifiable.
    """
    scale = (np.abs(c3 * u * u * u) + np.abs(c2 * u * u)
             + np.abs(c1) * np.maximum(np.abs(u), np.finfo(float).tiny) + np.abs(c0))
    return ~(residual <= RESIDUAL_TOL * scale)


def _solver_rows(y2, delta_c, delta_a, cooperativity):
    """The four inputs as rows of one (4, n) array, n their broadcast size; all finite, y2 >= 0."""
    grid = np.empty((4, *np.broadcast(y2, delta_c, delta_a, cooperativity).shape))
    grid[0], grid[1], grid[2], grid[3] = y2, delta_c, delta_a, cooperativity  # one check each
    grid = grid.reshape(4, -1)
    if not np.isfinite(grid).all():
        raise NumericalInstability("non-finite solver input")
    negative = np.flatnonzero(grid[0] < 0.0)  # G(u) = u (P^2 + Q^2) - y2 D^2 > 0 at u >= 0
    if negative.size:
        raise NoRealRoot(f"negative drive y^2 has no physical root at grid index {negative[0]}")
    return grid


def _roots_grid(y2, delta_c, delta_a, cooperativity):
    """Certified real non-negative roots for broadcast parameter arrays.

    Returns (roots, counts): roots is NaN-padded shape (n, 3) sorted
    ascending with NaNs last, counts the per-tuple root count; n is the
    broadcast size of the inputs flattened to one axis.

    The rows are solved BLOCK_ROWS at a time into the preallocated outputs,
    so a solve's temporaries stay the size of one block however long the
    grid; every step is elementwise, so the roots are those of one pass over
    the grid, bit for bit. A failed certification is reported once, with
    the count over the whole grid and the first grid index.
    """
    y2, delta_c, delta_a, cooperativity = _solver_rows(y2, delta_c, delta_a, cooperativity)
    n = y2.size
    roots = np.empty((n, 3))
    counts = np.empty(n, dtype=int)
    bad = np.empty(n, dtype=bool)
    for i in range(0, n, BLOCK_ROWS):
        j = i + BLOCK_ROWS
        bad[i:j] = _roots_block(y2[i:j], delta_c[i:j], delta_a[i:j], cooperativity[i:j],
                                roots[i:j], counts[i:j])
    if bad.any():
        raise NumericalInstability(
            f"{int(bad.sum())} row(s) failed residual certification at tol "
            f"{RESIDUAL_TOL}, first at grid index {int(np.argmax(bad))}"
        )
    return roots, counts


def _roots_block(y2, delta_c, delta_a, cooperativity, roots, counts):
    """Fill roots and counts (see _roots_grid) for 1-D parameter rows; returns
    the rows whose roots fail certification.

    The largest root r1 always exists (_largest_root). Dividing it out
    leaves c3 u^2 + b1 u + b0 with b0 = -c0/r1 >= 0, so the other two roots
    are physical only where that quadratic's discriminant is >= 0 and
    b1 < 0; they come from the cancellation-free quadratic formula and are
    polished on the cubic itself, on those rows only.
    """
    c3, c2, c1, c0 = _cubic_coeffs(y2, delta_c, delta_a, cooperativity)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, g1 = _largest_root(c3, c2, c1, c0)
        b1 = c2 + c3 * r1
        b0 = np.where(r1 > 0.0, -c0 / r1, c1)  # c1 + b1 r1 at r1 = 0
    disc = b1 * b1 - 4.0 * c3 * b0
    rows = np.flatnonzero((disc >= 0.0) & (b1 < 0.0))
    bad = _uncertified(r1, g1, c3, c2, c1, c0)
    roots[:, 0] = r1
    roots[:, 1:] = np.nan
    counts[:] = 1
    if rows.size:
        coeffs = tuple(c[rows, None] for c in (c3, c2, c1, c0))
        s = 0.5 * (np.sqrt(disc[rows]) - b1[rows])  # > 0: no cancellation
        pair = np.maximum(_newton(np.stack([b0[rows] / s, s / c3[rows]], axis=1), *coeffs), 0.0)
        bad[rows] |= np.any(_uncertified(pair, np.abs(_cubic(pair, *coeffs)), *coeffs), axis=1)
        roots[rows] = np.sort(np.column_stack([pair, r1[rows]]), axis=1)
        counts[rows] = 3
    return bad


def solve_intensity(y, delta_c, delta_a, cooperativity):
    """Real non-negative roots u = |X|^2 of the intensity cubic.

    Parameters
    ----------
    y : float
        Drive amplitude, real >= 0.
    delta_c, delta_a : float
        Normalized cavity and atom detunings.
    cooperativity : float
        Collective cooperativity C >= 0.

    Returns
    -------
    numpy.ndarray
        Sorted ascending; length 1 to 3. Every root satisfies the cubic with
        relative residual below RESIDUAL_TOL.
    """
    roots, counts = _roots_grid(np.float64(y) ** 2, delta_c, delta_a, cooperativity)
    return roots[0, : int(counts[0])]


def _transmission_from_u(u, delta_c, delta_a, cooperativity, kappa_ratio, partials=False):
    """T on a known branch; |1 - 2r/F|^2 is Eq-of-motion form of the output.

    With partials=True also returns dT/d(u, delta_c, delta_a, cooperativity,
    kappa_ratio) at fixed u: dT = Re(w dF) - 4 Re(conj(A)/F) dr with
    A = 1 - 2r/F and w = 4r conj(A)/F^2.
    """
    d = 1.0 + delta_a * delta_a + 2.0 * u
    g = 4.0 * cooperativity * (1.0 - 1j * delta_a) / d  # the atoms' share of F
    f = 1.0 + 1j * delta_c + g
    t_amp = 1.0 - 2.0 * kappa_ratio / f
    t = np.abs(t_amp) ** 2
    if not partials:
        return t
    w = 4.0 * kappa_ratio * np.conj(t_amp) / (f * f)
    return t, (
        -2.0 * (w * g / d).real,  # dF/du = -2g/D
        -w.imag,  # dF/d(delta_c) = i
        -(w * (4j * cooperativity + 2.0 * delta_a * g) / d).real,
        (w * 4.0 * (1.0 - 1j * delta_a) / d).real,
        -4.0 * (np.conj(t_amp) / f).real,
    )


def _steady_transmission(y2, delta_c, delta_a, cooperativity, kappa_ratio,
                         policy: BranchPolicy = LOWEST, partials=False):
    """Transmission on the branch policy picks, per broadcast parameter row.

    No cubic is solved at a scalar y2 == 0, the weak limit where u = 0 is the
    only root, nor without partials at a scalar cooperativity == 0, where T's
    atom term 4C (1 - i delta_a)/D is +-0 at any finite D and u = 0 gives T
    bit for bit; both still run the solver's input checks and refuse an
    overflowing D. With partials=True also returns dT/d(y2, delta_c, delta_a,
    cooperativity, kappa_ratio), the root differentiated implicitly,
    du/dtheta = -(dG/dtheta)/G'(u); NaN where G'(u) is rounding noise (a double root).
    """
    if (np.ndim(y2) == 0 and y2 == 0.0
            or not partials and np.ndim(cooperativity) == 0 and cooperativity == 0.0):
        grid = _solver_rows(y2, delta_c, delta_a, cooperativity)
        wide = np.flatnonzero(np.abs(grid[2]) >= 2.0 ** 512)  # where delta_a^2 overflows
        if wide.size:
            raise NumericalInstability(f"D = 1 + delta_a^2 overflows at grid index {wide[0]}")
        u = np.zeros(grid.shape[1])
    else:
        roots, counts = _roots_grid(y2, delta_c, delta_a, cooperativity)
        u = select_branch(roots, counts, policy)
    if not partials:
        rows = np.broadcast_arrays(u, delta_c, delta_a, cooperativity)
        t = np.empty(rows[0].shape)
        for i in range(0, len(t), BLOCK_ROWS):
            t[i:i + BLOCK_ROWS] = _transmission_from_u(*(x[i:i + BLOCK_ROWS] for x in rows),
                                                       kappa_ratio)
        return t
    t, (t_u, t_dc, t_da, t_c, t_r) = _transmission_from_u(
        u, delta_c, delta_a, cooperativity, kappa_ratio, partials=True)
    c3, c2, c1, _ = _cubic_coeffs(y2, delta_c, delta_a, cooperativity)
    g_u = np.where(_derivative_resolved(u, c3, c2, c1), (3.0 * c3 * u + 2.0 * c2) * u + c1, np.nan)
    k = -t_u / g_u  # dT/du du/dtheta = k dG/dtheta
    # G = u (P^2 + Q^2) - y2 D^2, P = D + 4C, Q = delta_c D - 4C delta_a
    d = 1.0 + delta_a * delta_a + 2.0 * u
    p = d + 4.0 * cooperativity
    q = delta_c * d - 4.0 * cooperativity * delta_a
    return t, (
        -k * d * d,
        t_dc + k * 2.0 * u * q * d,
        t_da + k * 4.0 * (u * (delta_a * p + q * (delta_c * delta_a - 2.0 * cooperativity))
                          - y2 * d * delta_a),
        t_c + k * 8.0 * u * (p - delta_a * q),
        t_r,
    )


def select_branch(roots, counts, policy: BranchPolicy):
    """Intensity u on the branch policy picks, for each row of _roots_grid's output.

    follow_sweep reads the rows as a sweep in grid order. Counts are 1 or 3,
    so the runs of three-root rows start where counts == 3 steps up; each
    run takes one column: 2 (highest) where that root is strictly nearer the
    one root of the row before the run, else 0 (lowest).
    """
    if policy.mode == "lowest":
        return roots[:, 0]
    if policy.mode == "highest":
        return np.take_along_axis(roots, counts[:, None] - 1, axis=1)[:, 0]
    step = np.diff((counts == 3).astype(int), prepend=0) == 1
    first = np.flatnonzero(step)
    before = roots[first - 1, 0]
    high = (first > 0) & (np.abs(roots[first, 2] - before) < np.abs(roots[first, 0] - before))
    run = np.cumsum(step) - 1  # -1 before the first run: the appended False
    column = np.where(counts == 3, 2 * np.append(high, False)[run], 0)
    return np.take_along_axis(roots, column[:, None], axis=1)[:, 0]


def weak_transmission(delta_c, delta_a, cooperativity, kappa_ratio):
    """Closed-form transmission in the weak-driving limit y -> 0.

    T = |1 - (2 kappa_ex/kappa) / (1 + i dc + 4C (1 - i da)/(1 + da^2))|^2.
    Accepts scalars or arrays.
    """
    out = _transmission_from_u(0.0, np.asarray(delta_c, dtype=float),
                               np.asarray(delta_a, dtype=float), cooperativity, kappa_ratio)
    return out if out.ndim else float(out)


def drive_from_power(p_in, cavity: CavityParams, n_sat):
    """Dimensionless drive intensity |y|^2 for input power p_in (W).

    |y|^2 = (P_in / (2 kappa n_sat)) (2 kappa_ex / kappa) (lambda_p / (2 pi hbar c));
    the last factor is the input photon flux P_in lambda/(h c).
    """
    flux = p_in * cavity.lambda_p / (H_PLANCK * C_VACUUM)
    return flux / (2.0 * cavity.kappa * n_sat) * (2.0 * cavity.kappa_ex / cavity.kappa)


def power_from_drive(y2, cavity: CavityParams, n_sat):
    """Inverse of drive_from_power; exact round trip up to rounding."""
    flux = y2 * (2.0 * cavity.kappa * n_sat) / (2.0 * cavity.kappa_ex / cavity.kappa)
    return flux * (H_PLANCK * C_VACUUM) / cavity.lambda_p


def drive_y2(drive: DriveParams, cavity: CavityParams, n_sat) -> float:
    """|y|^2 of a DriveParams, converting from power iff power is the set field."""
    if drive.y is not None:
        return drive.y ** 2
    return drive_from_power(drive.input_power, cavity, n_sat)


def g_eff_from_nsat(n_sat, gamma_perp, gamma_par):
    """Effective single-emitter coupling from the saturation photon number.

    Inverts n_sat = gamma_perp gamma_par / (4 g_eff^2).
    """
    return float(np.sqrt(gamma_perp * gamma_par / (4.0 * n_sat)))


def n_eff_from_c(cooperativity, g_eff, kappa, gamma_perp):
    """Effective emitter number from C = N_eff g_eff^2 / (2 kappa gamma_perp)."""
    return float(2.0 * kappa * gamma_perp * cooperativity / g_eff ** 2)


def splitting_estimate(cooperativity, kappa, gamma_perp):
    """Normal-mode splitting scale 4 sqrt(kappa gamma_perp C) / (2 pi), in Hz."""
    if not (cooperativity > 0):
        return 0.0
    return float(4.0 * np.sqrt(kappa * gamma_perp * cooperativity) / TWO_PI)


def spectrum(
    detuning_hz,
    cavity: CavityParams,
    ensemble: EnsembleParams,
    drive: DriveParams,
    atom_offset_hz: float = 0.0,
    policy: BranchPolicy = LOWEST,
):
    """Transmission sampled over a probe detuning grid.

    Parameters
    ----------
    detuning_hz : array_like
        Monotone probe detuning axis in Hz (plain frequency).
    atom_offset_hz : float
        Atomic transition minus cavity resonance, in Hz; 0 aligns them
        (delta_atom = delta_cavity along the scan).
    policy : BranchPolicy
        Branch selection. "follow_sweep" sweeps the grid in the order given
        and continues the branch each bistable run enters on: the outer root
        nearest the intensity before the run. Every policy reports only
        stable roots, G'(u) > 0.

    Returns
    -------
    numpy.ndarray
        Transmission at each grid point. Solver failures are re-raised with
        the offending grid index attached.
    """
    nu = np.asarray(detuning_hz, dtype=float)
    if nu.ndim != 1 or nu.size < 2 or not (np.all(np.diff(nu) > 0) or np.all(np.diff(nu) < 0)):
        raise ValueError("detuning grid must be 1-d and strictly monotone")
    omega = TWO_PI * nu
    delta_c = omega / cavity.kappa
    delta_a = (omega - TWO_PI * atom_offset_hz) / ensemble.gamma_perp
    y2 = drive_y2(drive, cavity, ensemble.n_sat)
    try:
        return _steady_transmission(y2, delta_c, delta_a, ensemble.cooperativity,
                                    cavity.kappa_ratio, policy)
    except NumericalInstability as exc:
        raise NumericalInstability(f"{exc} (in spectrum sweep)") from exc
