import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringcav import ring
from ringcav.errors import FinesseTooLow, NonPositiveRate
from ringcav.params import CavityParams


@pytest.fixture(scope="module")
def nominal_ring(cavity):
    return ring.ring_from_rates(cavity)


def test_transmission_matches_series_oracle(nominal_ring):
    m = nominal_ring
    nu = np.linspace(-220e6, 220e6, 1001)
    mine = ring.ring_transmission(nu, m)
    ref = oracles.ring_transmission_series(nu, m.t_coupler, m.a_roundtrip, m.fsr)
    np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_periodicity(nominal_ring):
    nu = np.linspace(-60e6, 60e6, 401)
    a = ring.ring_transmission(nu, nominal_ring)
    b = ring.ring_transmission(nu + nominal_ring.fsr, nominal_ring)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_undercoupled_dip_not_zero(nominal_ring):
    assert nominal_ring.t_coupler > nominal_ring.a_roundtrip
    assert 0.0 < nominal_ring.dip_transmission < 1.0
    t_dip = ring.ring_transmission(np.array([0.0]), nominal_ring)[0]
    assert t_dip == pytest.approx(nominal_ring.dip_transmission, rel=1e-12)


def test_dip_transmission_closed_form(nominal_ring):
    t, a = nominal_ring.t_coupler, nominal_ring.a_roundtrip
    assert nominal_ring.dip_transmission == pytest.approx(((t - a) / (1 - t * a)) ** 2, rel=1e-15)


def test_finesse_linewidth_product_exact(nominal_ring):
    # FSR/finesse, the linewidth empty-cavity reports, equals the closed form
    # FSR (1 - ta)/(pi sqrt(ta)) of the ring's Lorentzian FWHM
    ta = nominal_ring.t_coupler * nominal_ring.a_roundtrip
    fwhm = nominal_ring.fsr / nominal_ring.finesse
    assert fwhm == pytest.approx(nominal_ring.fsr * (1.0 - ta) / (math.pi * math.sqrt(ta)),
                                 rel=1e-15)


def test_nominal_finesse_value(nominal_ring):
    assert nominal_ring.finesse == pytest.approx(34.089, abs=0.01)


def test_ring_close_to_lorentzian_near_resonance(cavity, nominal_ring):
    # near resonance the all-pass ring and the rate-equation lineshape agree
    from ringcav import steady_state as ss

    nu = np.linspace(-12e6, 12e6, 1201)
    t_ring = ring.ring_transmission(nu, nominal_ring)
    dc = 2.0 * np.pi * nu / cavity.kappa
    t_lor = ss.weak_transmission(dc, 0.0, 0.0, cavity.kappa_ratio)
    assert np.max(np.abs(t_ring - t_lor)) < 1e-3


def test_ring_fwhm_close_to_kappa_over_pi(cavity, nominal_ring):
    fwhm = oracles.numerical_fwhm(
        lambda nu: float(ring.ring_transmission(np.array([nu]), nominal_ring)[0]),
        0.0,
        2e6,
    )
    assert fwhm == pytest.approx(cavity.fwhm_hz, rel=0.02)


def test_rates_roundtrip(cavity):
    m = ring.ring_from_rates(cavity)
    kappa_i, kappa_ex = ring.rates_from_ring(m)
    assert kappa_i == pytest.approx(cavity.kappa_i, rel=1e-12)
    assert kappa_ex == pytest.approx(cavity.kappa_ex, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    ki=st.floats(min_value=0.3, max_value=4.0),
    kex=st.floats(min_value=0.05, max_value=1.5),
)
def test_rates_roundtrip_property(ki, kex):
    cav = CavityParams(
        kappa_i=2 * np.pi * ki * 1e6,
        kappa_ex=2 * np.pi * kex * 1e6,
        fsr=148e6,
        lambda_p=852e-9,
    )
    if cav.fsr / cav.fwhm_hz <= ring.MIN_FINESSE_FOR_RATES:
        return
    back_i, back_ex = ring.rates_from_ring(ring.ring_from_rates(cav))
    assert back_i == pytest.approx(cav.kappa_i, rel=1e-10)
    assert back_ex == pytest.approx(cav.kappa_ex, rel=1e-10)


def test_lineshape_roundtrip(nominal_ring):
    m2 = ring.ring_from_lineshape(
        finesse=nominal_ring.finesse,
        fsr=nominal_ring.fsr,
        dip_transmission=nominal_ring.dip_transmission,
    )
    assert m2.t_coupler == pytest.approx(nominal_ring.t_coupler, rel=1e-10)
    assert m2.a_roundtrip == pytest.approx(nominal_ring.a_roundtrip, rel=1e-10)


def test_low_finesse_rate_mapping_rejected():
    m = ring.RingModel(t_coupler=0.6, a_roundtrip=0.5, fsr=148e6)
    with pytest.raises(FinesseTooLow):
        ring.rates_from_ring(m)


def test_invalid_model_rejected():
    with pytest.raises(NonPositiveRate):
        ring.RingModel(t_coupler=1.2, a_roundtrip=0.9, fsr=148e6)
    with pytest.raises(NonPositiveRate):
        ring.RingModel(t_coupler=0.9, a_roundtrip=0.0, fsr=148e6)
    with pytest.raises(NonPositiveRate):
        ring.RingModel(t_coupler=0.9, a_roundtrip=0.9, fsr=-1.0)


def test_detuning_offset_shifts_dip(nominal_ring):
    from dataclasses import replace

    shifted = replace(nominal_ring, detuning_offset=5e6)
    t = ring.ring_transmission(np.array([5e6]), shifted)
    assert t[0] == pytest.approx(nominal_ring.dip_transmission, rel=1e-12)
