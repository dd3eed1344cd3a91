import math

import pytest
from scipy.constants import c as c_vacuum
from scipy.constants import h as h_planck

from ringcav import units


def test_mhz_roundtrip():
    assert units.rad_to_mhz(units.mhz_to_rad(4.34)) == pytest.approx(4.34, rel=1e-15)


def test_convert_rad_to_hz():
    # rad/s -> MHz goes through Hz: 2 pi rad/s is 1 Hz
    assert units.rad_to_mhz(2.0 * math.pi) * 1e6 == pytest.approx(1.0, rel=1e-15)


def test_convert_mhz_to_rad():
    assert units.mhz_to_rad(1.0) == pytest.approx(2.0 * math.pi * 1e6, rel=1e-15)


def test_si_constants_equal_scipy_values():
    assert units.C_VACUUM == c_vacuum
    assert units.H_PLANCK == h_planck
