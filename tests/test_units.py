import math

import pytest
from scipy.constants import c as c_vacuum
from scipy.constants import h as h_planck

from ringcav import units
from ringcav.errors import UnknownUnit


def test_mhz_roundtrip():
    assert units.rad_to_mhz(units.mhz_to_rad(4.34)) == pytest.approx(4.34, rel=1e-15)


def test_convert_rad_to_hz():
    assert units.convert(2.0 * math.pi, "rad/s", "Hz") == pytest.approx(1.0, rel=1e-15)


def test_convert_mhz_to_rad():
    assert units.convert(1.0, "MHz", "rad/s") == pytest.approx(2.0 * math.pi * 1e6, rel=1e-15)


def test_convert_identity():
    assert units.convert(3.7, "MHz", "MHz") == 3.7


def test_convert_rejects_unknown():
    with pytest.raises(UnknownUnit):
        units.convert(1.0, "GHz", "Hz")
    with pytest.raises(UnknownUnit):
        units.convert(1.0, "Hz", "furlong")


def test_roundtrip_time():
    assert units.roundtrip_time(148e6) == pytest.approx(1.0 / 148e6, rel=1e-15)


def test_cavity_length_uses_group_index():
    # n L = c / FSR
    length = units.cavity_length(148e6, group_index=1.45)
    assert length * 1.45 == pytest.approx(c_vacuum / 148e6, rel=1e-12)


def test_si_constants_equal_scipy_values():
    assert units.C_VACUUM == c_vacuum
    assert units.H_PLANCK == h_planck
