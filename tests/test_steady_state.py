import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import oracles
from ringcav import steady_state as ss
from ringcav.errors import NoRealRoot, NumericalInstability
from ringcav.params import DriveParams
from ringcav.units import TWO_PI

finite_drives = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
coops = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
detunings = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

_FOLLOW = ss.BranchPolicy("follow_sweep")


# ------------------------------------------------------------- cubic roots

def test_zero_drive_unique_zero_root():
    roots = ss.solve_intensity(0.0, 1.3, -0.7, 2.0)
    assert roots.shape == (1,)
    assert roots[0] == 0.0


def test_no_atoms_single_root():
    roots = ss.solve_intensity(1.7, 0.9, 0.0, 0.0)
    assert roots.shape == (1,)
    # u (1 + dc^2) = y^2 for the bare cavity
    assert roots[0] == pytest.approx(1.7 ** 2 / (1.0 + 0.9 ** 2), rel=1e-12)


def test_known_bistable_tuple():
    roots = ss.solve_intensity(5.988, 1.378, 1.208, 4.771)
    assert roots.shape == (3,)
    expected = oracles.intensity_roots_bracketing(5.988 ** 2, 1.378, 1.208, 4.771)
    np.testing.assert_allclose(roots, expected, rtol=1e-7)


def test_on_resonance_high_c_bistable_in_y():
    counts = []
    for y in np.linspace(0.1, 10.0, 200):
        counts.append(len(ss.solve_intensity(y, 0.0, 0.0, 4.5)))
    assert max(counts) == 3
    assert counts[0] == 1 and counts[-1] == 1


@settings(max_examples=150, deadline=None)
@given(y=finite_drives, dc=detunings, da=detunings, c=coops)
# vanishing drive: the only root is u ~ -c0/c1 ~ 1e-258, below Newton's reach
@example(y=3.757706215369024e-129, dc=4.65625, da=4.66015625, c=2.0)
# y = 0, C = 0: a negative double root must not be polished onto u = 0
@example(y=0.0, dc=1.2994241161099294, da=5.0460672113587215, c=0.0)
# C = 0 at finite drive: the same double root, at u = -(1 + da^2)/2
@example(y=1.1176145420870047, dc=1.6714490336355148, da=-6.297833334057497, c=0.0)
def test_roots_match_bracketing_oracle(y, dc, da, c):
    mine = ss.solve_intensity(y, dc, da, c)
    ref = oracles.intensity_roots_bracketing(y * y, dc, da, c)
    # same count modulo oracle tangency resolution, same values
    assert len(mine) == len(ref)
    scale = max(1.0, float(np.max(ref)))
    np.testing.assert_allclose(mine, ref, rtol=1e-7, atol=1e-7 * scale)


@settings(max_examples=100, deadline=None)
@given(y=finite_drives, dc=detunings, da=detunings, c=coops)
def test_roots_satisfy_unexpanded_residual(y, dc, da, c):
    for u in ss.solve_intensity(y, dc, da, c):
        res = oracles.intensity_residual(u, y * y, dc, da, c)
        scale = max(1.0, u ** 3, y ** 4)
        assert abs(res) < 1e-7 * scale


def test_roots_grid_vectorization_matches_scalar():
    rng = np.random.default_rng(7)
    y2 = rng.uniform(0.0, 9.0, 64)
    dc = rng.uniform(-10, 10, 64)
    da = rng.uniform(-10, 10, 64)
    c = rng.uniform(0.0, 5.0, 64)
    roots, counts = ss._roots_grid(y2, dc, da, c)
    for k in range(64):
        single = ss.solve_intensity(np.sqrt(y2[k]), dc[k], da[k], c[k])
        assert counts[k] == len(single)
        np.testing.assert_allclose(roots[k, : counts[k]], single, rtol=1e-12)


@settings(max_examples=300, deadline=None)
@given(y2=st.floats(0.0, 1e9), dc=st.floats(-1e3, 1e3), da=st.floats(-1e3, 1e3),
       c=st.floats(0.0, 1e4))
# false failures of the trigonometric/Cardano solver over this domain: a
# depressed-cubic discriminant that cancels into three false real roots,
# and a small pair (0.29, 0.86) that lost its digits beside a root near 1e8
@example(y2=1e6, dc=0.002474, da=0.05060, c=1.0364)
@example(y2=1e8, dc=-8.99e-5, da=0.004364, c=7332.0)
# a subnormal drive, whose root ~3.6e-318 is subnormal too
@example(y2=2.2250738585e-313, dc=250.0, da=299.0, c=0.0)
def test_roots_match_oracle_over_the_full_domain(y2, dc, da, c):
    # every root certifies (else NumericalInstability) and matches the oracle's
    roots, counts = ss._roots_grid(y2, dc, da, c)
    ref = oracles.intensity_roots_bracketing(y2, dc, da, c)
    assert counts[0] == len(ref)
    np.testing.assert_allclose(roots[0, : counts[0]], ref, rtol=1e-7, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(y2=st.floats(0.0, 1e16), dc=detunings, da=detunings, c=st.floats(0.0, 50.0))
# the tiny-root step lowered |G| below the Newton root's rounding noise here
# and landed on a point that failed certification
@example(y2=1e14, dc=9.0, da=0.0, c=1.5)
@example(y2=1e16, dc=0.0, da=0.0, c=5.0)
def test_roots_match_oracle_up_to_high_drives(y2, dc, da, c):
    # every root certifies (else NumericalInstability) and matches the oracle's
    roots, counts = ss._roots_grid(y2, dc, da, c)
    ref = oracles.intensity_roots_bracketing(y2, dc, da, c)
    assert counts[0] == len(ref)
    np.testing.assert_allclose(roots[0, : counts[0]], ref, rtol=1e-7, atol=1e-12)


def _fold_drives(dc, da, c):
    """The y^2 > 0 at which two roots of the intensity cubic merge.

    G = u S(u) - y^2 D^2 with S = P^2 + Q^2 has a double root where
    y^2 = F(u) = u S / D^2 and F'(u) = 0, that is where the cubic
    (S + u S') D - 4 u S vanishes; those are the edges of the three-root
    region, where the depressed cubic's -4a^3 - 27b^2 changes sign.
    """
    u = Polynomial([0.0, 1.0])
    d = 1.0 + da * da + 2.0 * u
    s = (d + 4.0 * c) ** 2 + (dc * d - 4.0 * c * da) ** 2
    crit = [x.real for x in ((s + u * s.deriv()) * d - 4.0 * u * s).roots()
            if x.real > 0.0 and abs(x.imag) <= 1e-9 * abs(x)]
    return [float(x * s(x) / d(x) ** 2) for x in crit]


@settings(max_examples=200, deadline=None)
@given(dc=st.floats(-3.0, 3.0), da=st.floats(-3.0, 3.0), c=st.floats(4.5, 50.0),
       upper=st.booleans(), side=st.sampled_from([-1.0, 1.0]), rel=st.floats(1e-9, 1e-6))
def test_roots_beside_the_three_root_boundary_match_the_oracle(dc, da, c, upper, side, rel):
    # within a relative 1e-6 of a fold, inside (three real roots) and outside
    # (one): the seed switches there, and the largest root must be found from
    # either seed
    folds = _fold_drives(dc, da, c)
    assume(folds)
    y2 = (max(folds) if upper else min(folds)) * (1.0 + side * rel)
    ref = oracles.intensity_roots_bracketing(y2, dc, da, c)
    roots, counts = ss._roots_grid(y2, dc, da, c)
    assert counts[0] == len(ref)
    np.testing.assert_allclose(roots[0, : counts[0]], ref, rtol=1e-7)
    top, _ = ss._largest_root(*ss._cubic_coeffs(*(np.array([x]) for x in (y2, dc, da, c))))
    np.testing.assert_allclose(top, ref[-1], rtol=1e-7)


def test_seed_switch_gives_the_same_roots_in_any_block(cavity, ensemble, monkeypatch):
    from dataclasses import replace

    # the sweep's strong spectrum (C = 5, 10 nW, atoms 6 MHz above the
    # cavity) has three roots from -1.12 to 0.33 MHz: rows 0-4095 lie there
    # and the 700 after them out to 20 MHz, so 4096-row blocks hold only or
    # some three-root rows, 7-row blocks also none, and 1-row blocks one
    # kind each. The trigonometric seed on every row, or on none, leaves
    # rows of this grid uncertified.
    ens = replace(ensemble, cooperativity=5.0)
    y2 = ss.drive_y2(DriveParams(input_power=10e-9), cavity, ens.n_sat)
    omega = TWO_PI * np.concatenate([np.linspace(-1.1e6, 0.32e6, 4096),
                                     np.linspace(0.34e6, 20e6, 700)])
    dc, da = omega / cavity.kappa, (omega - TWO_PI * 6e6) / ens.gamma_perp
    solved = []
    for block in (1, 7, 4096):
        monkeypatch.setattr(ss, "BLOCK_ROWS", block)
        solved.append(ss._roots_grid(y2, dc, da, 5.0))
    roots, counts = solved[0]
    assert np.all(counts[:4096] == 3) and np.all(counts[4096:4296] == 1)
    for other_roots, other_counts in solved[1:]:
        assert np.array_equal(other_roots, roots, equal_nan=True)
        assert np.array_equal(other_counts, counts)


# ------------------------------------------------------- field/transmission

def test_transmission_against_fixed_point_oracle(cavity):
    for dc in (-2.0, 0.0, 1.0):
        for c in (0.0, 1.5):
            (t_mine,) = ss._steady_transmission(0.3 ** 2, dc, dc, c, cavity.kappa_ratio)
            x = oracles.field_fixed_point(0.3, dc, dc, c)
            t_ref = oracles.transmission_from_field(x, 0.3, cavity.kappa_ratio)
            assert t_mine == pytest.approx(t_ref, abs=1e-9)


@pytest.mark.parametrize("y2", [1.0, 4.0, 8.0, 12.3])
def test_fixed_point_oracle_agrees_with_bracketing_at_nominal_drives(cavity, y2):
    # the fixed point's step stalls a few ulps above 1e-15 |X| at these
    # drives; the two oracles share no code, so they check each other
    r = cavity.kappa_ratio
    x = oracles.field_fixed_point(np.sqrt(y2), 0.0, 0.0, 1.5)
    t_field = oracles.transmission_from_field(x, np.sqrt(y2), r)
    (u,) = oracles.intensity_roots_bracketing(y2, 0.0, 0.0, 1.5)
    t_roots = abs(1.0 - 2.0 * r / (1.0 + 4.0 * 1.5 / (1.0 + 2.0 * u))) ** 2
    assert t_field == pytest.approx(t_roots, abs=1e-12)


def test_transmission_bounded_for_passive_cavity(cavity):
    rng = np.random.default_rng(11)
    y = rng.uniform(0.01, 3.0, 200)
    dc, da = rng.uniform(-10, 10, (2, 200))
    c = rng.uniform(0.0, 5.0, 200)
    for policy in (ss.LOWEST, ss.HIGHEST):
        t = ss._steady_transmission(y * y, dc, da, c, cavity.kappa_ratio, policy)
        assert np.all((-1e-12 <= t) & (t <= 1.0 + 1e-12))


def test_empty_resonant_transmission_value(cavity):
    (t,) = ss._steady_transmission(0.5 ** 2, 0.0, 0.0, 0.0, cavity.kappa_ratio)
    assert t == pytest.approx((1.0 - 2.0 * cavity.kappa_ratio) ** 2, rel=1e-12)
    assert t == pytest.approx(0.3212852258489, rel=1e-10)


def test_weak_resonant_transmission_with_atoms(cavity):
    t = ss.weak_transmission(0.0, 0.0, 1.5, cavity.kappa_ratio)
    r = cavity.kappa_ratio
    assert t == pytest.approx((1.0 - 2.0 * r / 7.0) ** 2, rel=1e-12)
    assert t == pytest.approx(0.8800638478331, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(dc=detunings, da=detunings, c=coops)
def test_weak_transmission_matches_direct_formula(dc, da, c):
    mine = ss.weak_transmission(dc, da, c, 0.47 / 2.17)
    ref = oracles.weak_transmission_direct(dc, da, c, 0.47 / 2.17)
    assert mine == pytest.approx(ref, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(dc=detunings, c=coops)
def test_symmetric_detuning_spectrum_even(dc, c):
    r = 0.47 / 2.17
    assert ss.weak_transmission(dc, dc, c, r) == pytest.approx(
        ss.weak_transmission(-dc, -dc, c, r), abs=1e-9
    )


def test_weak_limit_equivalence(cavity):
    grid = np.linspace(-10, 10, 201)
    for c in (0.0, 1.5, 5.0):
        t_weak = ss.weak_transmission(grid, grid, c, cavity.kappa_ratio)
        t_full = ss._steady_transmission(1e-3 ** 2, grid, grid, c, cavity.kappa_ratio)
        assert np.max(np.abs(t_full - t_weak)) < 1e-5


def test_no_real_root_message_has_index():
    with pytest.raises(NoRealRoot, match="grid index"):
        # force an impossible certification by corrupting counts path:
        # y2 < 0 drives c0 > 0 with no positive root
        ss._roots_grid(np.array([-1.0]), 0.0, 0.0, 0.0)


# -------------------------------------------------------- branch policies

def test_branch_policy_selects_extremes():
    y, dc, da, c = 5.988, 1.378, 1.208, 4.771
    roots, counts = ss._roots_grid(y * y, dc, da, c)
    assert counts[0] == 3
    (lo,) = ss.select_branch(roots, counts, ss.LOWEST)
    (hi,) = ss.select_branch(roots, counts, ss.HIGHEST)
    assert lo < hi
    assert lo == np.min(roots[0]) and hi == np.max(roots[0])


def test_follow_sweep_hysteresis(cavity, ensemble):
    # strong on-resonance drive over a bistable ensemble: up and down sweeps
    # disagree somewhere inside the bistable window; the down sweep is the
    # grid reversed
    from dataclasses import replace

    ens = replace(ensemble, cooperativity=4.771)
    drv = DriveParams(y=6.0)
    grid = np.linspace(-30e6, 30e6, 1201)
    up = ss.spectrum(grid, cavity, ens, drv, policy=_FOLLOW)
    down = ss.spectrum(grid[::-1], cavity, ens, drv, policy=_FOLLOW)[::-1]
    assert np.max(np.abs(up - down)) > 1e-3


def _follow_per_point(roots, counts):
    """Branch continuation visited point by point in index order, the sweep's.

    A one-root point takes its root. A three-root point after a one-root
    point enters the highest branch if that root is strictly nearer the last
    intensity, else the lowest (also at the sweep's first point); the points
    after it with three roots stay on that branch.
    """
    n = len(counts)
    u = np.empty(n)
    prev = branch = None
    for i in range(n):
        avail = roots[i, : counts[i]]
        if len(avail) == 1:
            branch = None
        elif branch is None:
            high = prev is not None and abs(avail[-1] - prev) < abs(avail[0] - prev)
            branch = -1 if high else 0
        prev = avail[0 if branch is None else branch]
        u[i] = prev
    return u


@settings(max_examples=40, deadline=None)
@given(c=st.floats(3.0, 8.0), power_nw=st.floats(5.0, 30.0),
       offset_mhz=st.floats(-8.0, 8.0), sweep=st.sampled_from([1, -1]))
def test_follow_walk_matches_per_point_walk(cavity, ensemble, c, power_nw, offset_mhz, sweep):
    from dataclasses import replace

    # sweep -1 is a down sweep: the grid descends
    ens = replace(ensemble, cooperativity=c)
    drv = DriveParams(input_power=power_nw * 1e-9)
    offset_hz = offset_mhz * 1e6
    grid = np.linspace(-30e6, 30e6, 3001)[::sweep]
    omega = TWO_PI * grid
    dc, da = omega / cavity.kappa, (omega - TWO_PI * offset_hz) / ens.gamma_perp
    y2 = ss.drive_y2(drv, cavity, ens.n_sat)
    roots, counts = ss._roots_grid(np.full_like(grid, y2), dc, da, c)
    assume(counts.max() > 1)  # bistable somewhere on the grid
    want = _follow_per_point(roots, counts)
    assert np.array_equal(ss.select_branch(roots, counts, _FOLLOW), want)
    t = ss.spectrum(grid, cavity, ens, drv, atom_offset_hz=offset_hz, policy=_FOLLOW)
    assert np.array_equal(t, ss._transmission_from_u(want, dc, da, c, cavity.kappa_ratio))


def test_follow_walk_at_the_grid_ends():
    # bistable first and last points: each sweep starts on its own end's lowest
    # root and enters the other run on the outer root nearest 2.75 (never the
    # middle one, 1.25 or 1.75, although it is nearer); at equal distances
    # (1.0 and 3.0 from 2.0) the lower root wins
    nan = np.nan
    roots = np.array([[1.0, 2.75, 3.75], [0.25, 1.25, 3.25], [2.75, nan, nan],
                      [0.5, 1.75, 4.0], [1.5, 2.0, 3.5]])
    counts = np.array([3, 3, 1, 3, 3])
    # the down sweep walks the rows reversed
    want = {1: [1.0, 0.25, 2.75, 4.0, 3.5], -1: [1.5, 0.5, 2.75, 3.25, 3.75]}
    tie = np.array([[2.0, nan, nan], [1.0, 2.0, 3.0]]), np.array([1, 3])
    for sweep in (1, -1):
        rows = roots[::sweep], counts[::sweep]
        assert np.array_equal(ss.select_branch(*rows, _FOLLOW), want[sweep])
        assert np.array_equal(_follow_per_point(*rows), want[sweep])
    assert np.array_equal(ss.select_branch(*tie, _FOLLOW), [2.0, 1.0])
    assert np.array_equal(_follow_per_point(*tie), [2.0, 1.0])


#: each policy with the order its grid is swept in, 1 (ascending) or -1
_POLICIES = [(ss.LOWEST, 1), (ss.HIGHEST, 1), (_FOLLOW, 1), (_FOLLOW, -1)]


@settings(max_examples=100, deadline=None)
@given(points=st.integers(5, 401), c=st.floats(0.0, 10.0),
       power_w=st.floats(-12.0, np.log10(30e-9)).map(lambda e: 10.0 ** e),
       offset_mhz=st.floats(-8.0, 8.0), policy_sweep=st.sampled_from(_POLICIES))
# a coarse follow-up sweep that the nearest-root walk put on the middle root
# at 14 of its 24 bistable points
@example(points=101, c=6.98, power_w=16.9e-9, offset_mhz=-4.79, policy_sweep=_POLICIES[2])
def test_every_policy_reports_stable_roots(cavity, ensemble, points, c, power_w, offset_mhz,
                                           policy_sweep):
    from dataclasses import replace

    # at a three-root point the middle root has G'(u) < 0: the unstable branch
    policy, sweep = policy_sweep
    ens = replace(ensemble, cooperativity=c)
    drv = DriveParams(input_power=power_w)
    offset_hz = offset_mhz * 1e6
    grid = np.linspace(-20e6, 20e6, points)[::sweep]
    omega = TWO_PI * grid
    dc, da = omega / cavity.kappa, (omega - TWO_PI * offset_hz) / ens.gamma_perp
    y2 = ss.drive_y2(drv, cavity, ens.n_sat)
    roots, counts = ss._roots_grid(np.full_like(grid, y2), dc, da, c)
    u = ss.select_branch(roots, counts, policy)
    c3, c2, c1, _ = ss._cubic_coeffs(y2, dc, da, c)
    slope = (3.0 * c3 * u + 2.0 * c2) * u + c1
    checked = (counts == 3) & ss._derivative_resolved(u, c3, c2, c1)  # a fold's G' is noise
    assert np.all(slope[checked] > 0.0)
    t = ss.spectrum(grid, cavity, ens, drv, atom_offset_hz=offset_hz, policy=policy)
    assert np.array_equal(t, ss._transmission_from_u(u, dc, da, c, cavity.kappa_ratio))


@pytest.mark.parametrize("rows", [ss.BLOCK_ROWS - 1, ss.BLOCK_ROWS, ss.BLOCK_ROWS + 1,
                                  2 * ss.BLOCK_ROWS + 7])
def test_blocked_solve_matches_row_by_row(cavity, ensemble, monkeypatch, rows):
    from dataclasses import replace

    # 10 kHz steps: the bistable run, |detuning| < 2.69 MHz at C = 5 and
    # 10 nW, straddles the first block edge
    block = ss.BLOCK_ROWS
    ens = replace(ensemble, cooperativity=5.0)
    drv = DriveParams(input_power=10e-9)
    grid = (np.arange(rows) - block) * 1e4
    omega = TWO_PI * grid
    dc, da = omega / cavity.kappa, omega / ens.gamma_perp
    y2 = ss.drive_y2(drv, cavity, ens.n_sat)
    roots, counts = ss._roots_grid(y2, dc, da, 5.0)
    if rows > block:
        assert counts[block - 1] == counts[block] == 3
    edges = np.arange(0, rows + 1, block)
    picks = np.concatenate([edges - 1, edges, edges + 1,
                            np.random.default_rng(rows).integers(0, rows, 64)])
    for i in np.unique(picks[(picks >= 0) & (picks < rows)]):
        one_roots, one_counts = ss._roots_grid(y2, dc[i], da[i], 5.0)
        assert one_counts[0] == counts[i]
        assert np.array_equal(one_roots[0], roots[i], equal_nan=True)
    with monkeypatch.context() as m:
        m.setattr(ss, "BLOCK_ROWS", rows)
        one_pass = ss._roots_grid(y2, dc, da, 5.0)
    assert np.array_equal(one_pass[0], roots, equal_nan=True)
    assert np.array_equal(one_pass[1], counts)
    for policy, sweep in _POLICIES:
        swept = one_pass[0][::sweep], one_pass[1][::sweep]
        if policy.mode == "follow_sweep":
            u = _follow_per_point(*swept)
        else:
            u = ss.select_branch(*swept, policy)
        t = ss.spectrum(grid[::sweep], cavity, ens, drv, policy=policy)
        assert np.array_equal(t, ss._transmission_from_u(u, dc[::sweep], da[::sweep], 5.0,
                                                         cavity.kappa_ratio))


def test_certification_failures_across_blocks_are_reported_once():
    # beyond the certified drives: y^2 = 1e19 off resonance fails without an overflow
    block = ss.BLOCK_ROWS
    y2 = np.ones(2 * block + 7)
    y2[[block, 2 * block, 2 * block + 6]] = 1e19  # the first rows of later blocks, the last row
    with pytest.raises(NumericalInstability, match=(
            rf"^3 row\(s\) failed residual certification at tol 1e-09, "
            rf"first at grid index {block}$")):
        ss._roots_grid(y2, -1.2, 0.0, 0.0)


def test_resonant_highest_branch_transmits_no_more_than_lowest(cavity, ensemble):
    y2 = ss.drive_from_power(np.logspace(-12, -8, 20), cavity, ensemble.n_sat)
    args = (y2, 0.0, 0.0, ensemble.cooperativity, cavity.kappa_ratio)
    hi = ss._steady_transmission(*args, ss.HIGHEST)
    assert np.all(hi <= ss._steady_transmission(*args, ss.LOWEST))


# ------------------------------------------------------- drive conversion

def test_drive_conversion_against_planck(cavity, ensemble):
    y2 = ss.drive_from_power(1e-9, cavity, ensemble.n_sat)
    flux = oracles.photon_flux(1e-9, cavity.lambda_p)
    expected = flux / (2.0 * cavity.kappa * ensemble.n_sat) * (2.0 * cavity.kappa_ex / cavity.kappa)
    assert y2 == pytest.approx(expected, rel=1e-15)
    assert y2 == pytest.approx(5.3649, rel=1e-4)


def test_drive_power_roundtrip(cavity, ensemble):
    p = ss.power_from_drive(ss.drive_from_power(750e-12, cavity, ensemble.n_sat),
                            cavity, ensemble.n_sat)
    assert p == pytest.approx(750e-12, rel=1e-12)


def test_drive_y2_prefers_explicit_y(cavity, ensemble):
    assert ss.drive_y2(DriveParams(y=0.5), cavity, ensemble.n_sat) == 0.25
    p = DriveParams(input_power=30e-12)
    assert ss.drive_y2(p, cavity, ensemble.n_sat) == pytest.approx(0.160945, rel=1e-5)


# ------------------------------------------------------ derived quantities

def test_splitting_estimate_formula(cavity, ensemble):
    est = ss.splitting_estimate(1.5, cavity.kappa, ensemble.gamma_perp)
    direct = 4.0 * np.sqrt(cavity.kappa * ensemble.gamma_perp * 1.5) / (2.0 * np.pi)
    assert est == pytest.approx(direct, rel=1e-12)
    assert est / 1e6 == pytest.approx(14.4333, rel=1e-4)


def test_splitting_estimate_zero_cooperativity(cavity, ensemble):
    assert ss.splitting_estimate(0.0, cavity.kappa, ensemble.gamma_perp) == 0.0


def test_g_eff_and_neff_chain(cavity, ensemble):
    # each against the formula it inverts: n_sat = gamma_perp gamma_par / (4 g^2)
    # and C = N_eff g^2 / (2 kappa gamma_perp)
    gamma_perp, gamma_par, kappa = ensemble.gamma_perp, ensemble.gamma_par, cavity.kappa
    g = ss.g_eff_from_nsat(13.0, gamma_perp, gamma_par)
    assert gamma_perp * gamma_par / (4.0 * g * g) == pytest.approx(13.0, rel=1e-12)
    n_eff = ss.n_eff_from_c(1.5, g, kappa, gamma_perp)
    assert n_eff * g * g / (2.0 * kappa * gamma_perp) == pytest.approx(1.5, rel=1e-12)


# --------------------------------------------------------------- spectrum

def test_spectrum_matches_pointwise_solve(cavity, ensemble, drive):
    grid = np.linspace(-20e6, 20e6, 41)
    t = ss.spectrum(grid, cavity, ensemble, drive)
    y2 = ss.drive_y2(drive, cavity, ensemble.n_sat)
    for k in (0, 13, 20, 40):
        dc = 2.0 * np.pi * grid[k] / cavity.kappa
        da = 2.0 * np.pi * grid[k] / ensemble.gamma_perp
        (ref,) = ss._steady_transmission(y2, dc, da, ensemble.cooperativity, cavity.kappa_ratio)
        assert t[k] == pytest.approx(ref, rel=1e-12)


def test_spectrum_atom_offset_shifts_dip(cavity, ensemble):
    from dataclasses import replace

    drv = DriveParams(y=1e-4)
    grid = np.linspace(-20e6, 20e6, 2001)
    base = ss.spectrum(grid, cavity, ensemble, drv)
    shifted = ss.spectrum(grid, cavity, ensemble, drv, atom_offset_hz=3e6)
    assert np.max(np.abs(base - shifted)) > 1e-3


def test_spectrum_zero_drive_uses_weak_form(cavity, ensemble):
    drv = DriveParams(y=0.0)
    grid = np.linspace(-5e6, 5e6, 11)
    t = ss.spectrum(grid, cavity, ensemble, drv)
    dc = 2.0 * np.pi * grid / cavity.kappa
    da = 2.0 * np.pi * grid / ensemble.gamma_perp
    ref = ss.weak_transmission(dc, da, ensemble.cooperativity, cavity.kappa_ratio)
    np.testing.assert_allclose(t, ref, rtol=1e-12)


def test_spectrum_requires_monotone_grid(cavity, ensemble, drive):
    with pytest.raises(ValueError):
        ss.spectrum(np.array([0.0, 2e6, 1e6]), cavity, ensemble, drive)


def test_saturation_is_monotone_decreasing(cavity, ensemble):
    from ringcav.fitting import saturation_curve

    powers = np.logspace(-13, -5, 120)
    t = saturation_curve(powers, cavity, ensemble)
    assert np.all(np.diff(t) < 0)
    assert t[0] == pytest.approx(0.88006, abs=5e-4)
    assert t[-1] == pytest.approx(0.32129, abs=5e-3)


def test_saturation_curve_at_zero_cooperativity_is_the_empty_cavity_value(cavity, ensemble):
    from dataclasses import replace

    from ringcav.fitting import saturation_curve

    # up to 2 MW, y^2 ~ 1e16: past the ~9e15 where the cubic's largest root
    # no longer certifies; at C = 0 T takes no root
    powers = np.logspace(-12, np.log10(2e6), 301)
    assert ss.drive_from_power(powers[-1], cavity, ensemble.n_sat) > 9e15
    t = saturation_curve(powers, cavity, replace(ensemble, cooperativity=0.0))
    assert np.array_equal(t, np.full(powers.size, (1 - 2 * cavity.kappa_ratio) ** 2))


@pytest.mark.parametrize("args", [(np.inf, 0.0, 0.0), (1.0, np.nan, 0.0),
                                  (1.0, 0.0, np.array([0.0, -np.inf])),
                                  (np.array([1.0, 0.0, -1.0]), 0.0, 0.0)])
def test_zero_cooperativity_raises_what_the_solver_raises(args):
    with pytest.raises((NumericalInstability, NoRealRoot)) as solver:
        ss._roots_grid(*args, 0.0)
    with pytest.raises(type(solver.value), match=f"^{re.escape(str(solver.value))}$"):
        ss._steady_transmission(*args, 0.0, 0.2)


def test_zero_cooperativity_refuses_an_overflowing_atom_term():
    # D = 1 + delta_a^2 + 2u overflows from |delta_a| = 2^512 on
    da = np.array([0.0, np.nextafter(2.0 ** 512, 0.0), -(2.0 ** 512)])
    with pytest.raises(NumericalInstability, match=r"^D = 1 \+ delta_a\^2 overflows at grid index 2$"):
        ss._steady_transmission(1.0, 0.0, da, 0.0, 0.2)
    t = ss._steady_transmission(1.0, 0.0, da[:2], 0.0, 0.2)
    assert np.array_equal(t, np.full(2, (1 - 2 * 0.2) ** 2))


@pytest.mark.parametrize("which", range(4))
def test_roots_grid_rejects_non_finite_input(which):
    args = [np.full(3, 0.5) for _ in range(4)]
    args[which][1] = np.nan if which % 2 else np.inf
    with pytest.raises(NumericalInstability, match="non-finite solver input"):
        ss._roots_grid(*args)


def test_roots_grid_input_errors():
    with pytest.raises(NoRealRoot, match="grid index 2"):
        ss._roots_grid(np.array([1.0, 0.0, -1.0]), 0.0, np.zeros((1, 3)), 1.0)
    with pytest.raises(TypeError):
        ss._roots_grid(1.0 + 2.0j, 0.0, 0.0, 1.0)
    roots, counts = ss._roots_grid(2.0, 0.0, 0.0, 1.0)  # scalars: one row
    assert roots.shape == (1, 3) and counts.shape == (1,)
