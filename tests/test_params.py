import math
import re

import pytest

from ringcav.errors import AmbiguousDrive, NonPositiveRate
from ringcav.params import (
    NOMINAL,
    CavityParams,
    DriveParams,
    EnsembleParams,
    cavity_from_dict,
    ensemble_from_dict,
    merge_document,
    nominal_params,
    params_from_dict,
)


def test_kappa_sums(cavity):
    assert cavity.kappa == cavity.kappa_i + cavity.kappa_ex


def test_kappa_ratio(cavity):
    assert cavity.kappa_ratio == pytest.approx(0.47 / 2.17, rel=1e-12)


def test_fwhm_is_kappa_over_pi(cavity):
    assert cavity.fwhm_hz == pytest.approx(cavity.kappa / math.pi, rel=1e-15)
    # 2.17 MHz angular -> 4.34 MHz FWHM
    assert cavity.fwhm_hz == pytest.approx(4.34e6, rel=1e-12)


def test_finesse_nominal(cavity):
    assert cavity.finesse == pytest.approx(148.0 / 4.34, rel=1e-12)


def test_cavity_rejects_nonpositive():
    with pytest.raises(NonPositiveRate):
        CavityParams(kappa_i=0.0, kappa_ex=1.0, fsr=1e8, lambda_p=852e-9)
    with pytest.raises(NonPositiveRate):
        CavityParams(kappa_i=1.0, kappa_ex=-2.0, fsr=1e8, lambda_p=852e-9)


def test_gamma_perp_composition(ensemble):
    assert ensemble.gamma_perp == pytest.approx(
        ensemble.gamma_par / 2.0 + ensemble.gamma_d, rel=1e-15
    )


def test_nominal_gamma_perp_is_4mhz(ensemble):
    assert ensemble.gamma_perp == pytest.approx(2.0 * math.pi * 4.0e6, rel=1e-12)


def test_drive_requires_exactly_one_amplitude():
    with pytest.raises(AmbiguousDrive):
        DriveParams(input_power=1e-12, y=0.5)
    with pytest.raises(AmbiguousDrive):
        DriveParams()
    DriveParams(y=0.5)
    DriveParams(input_power=1e-12)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        params_from_dict({"cavityy": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        params_from_dict({"cavity": {"kappa_mhz": 2.17}})


def test_gamma_specs_mutually_exclusive():
    with pytest.raises(ValueError, match="only one"):
        ensemble_from_dict(
            {"cooperativity": 1.0, "gamma_par_mhz": 5.2, "gamma_d_mhz": 1.4,
             "gamma_perp_mhz": 4.0, "n_sat": 12.7}
        )


def test_gamma_d_accepted():
    e = ensemble_from_dict(
        {"cooperativity": 1.0, "gamma_par_mhz": 5.2, "gamma_d_mhz": 1.4, "n_sat": 12.7}
    )
    assert e.gamma_perp == pytest.approx(2.0 * math.pi * 4.0e6, rel=1e-12)


def test_gamma_perp_at_or_above_its_floor_only():
    doc = {"cooperativity": 1.0, "gamma_par_mhz": 5.2, "n_sat": 12.7}
    assert ensemble_from_dict({**doc, "gamma_perp_mhz": 2.6}).gamma_d == 0.0
    for below in (math.nextafter(2.6, 0.0), 1e-300, -1.0):
        with pytest.raises(NonPositiveRate, match=re.escape(
                f"'gamma_perp_mhz' must be >= gamma_par_mhz / 2 = 2.6, got {below!r}")):
            ensemble_from_dict({**doc, "gamma_perp_mhz": below})
    for gamma_par in (-1.0, 0.0):  # a bad gamma_par_mhz is blamed, not the floor
        with pytest.raises(NonPositiveRate, match="gamma_par must be > 0"):
            ensemble_from_dict({**doc, "gamma_par_mhz": gamma_par, "gamma_perp_mhz": -10.0})


def test_partial_document_inherits_nominal():
    cav, ens, drv = params_from_dict({"ensemble": {"cooperativity": 3.0}})
    assert ens.cooperativity == 3.0
    assert cav.fsr == pytest.approx(148e6)
    assert drv.input_power == pytest.approx(30e-12)


def test_override_y_evicts_nominal_power():
    _, _, drv = params_from_dict({"drive": {"y": 0.25}})
    assert drv.y == 0.25
    assert drv.input_power is None


def test_override_gamma_d_evicts_nominal_gamma_perp():
    _, ens, _ = params_from_dict({"ensemble": {"gamma_d_mhz": 0.0}})
    assert ens.gamma_d == 0.0


def test_merge_document_exclusive_groups():
    merged = merge_document(NOMINAL, {"drive": {"y": 1.0}})
    merged = merge_document(merged, {"drive": {"input_power_w": 1e-12}})
    assert "y" not in merged["drive"]
    assert merged["drive"]["input_power_w"] == 1e-12


def test_nominal_params_consistency():
    cav, ens, drv = nominal_params()
    assert cav.finesse == pytest.approx(34.101382, rel=1e-6)
    assert ens.n_sat == 12.7
    assert drv.input_power == 30e-12 and drv.y is None


def test_cavity_from_dict_missing_key():
    with pytest.raises(ValueError, match="missing"):
        cavity_from_dict({"kappa_i_mhz": 1.7})


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in NOMINAL.items() for key in keys
] + [("ensemble", "gamma_d_mhz"), ("drive", "y")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_non_finite_values_rejected(section, key, value):
    with pytest.raises(ValueError, match=f"{section} key '{key}' must be finite"):
        params_from_dict({section: {key: value}})


# the exclusive pairs of the document, restated here as the test's oracle
_PAIRS = {"ensemble": ("gamma_d_mhz", "gamma_perp_mhz"), "drive": ("input_power_w", "y")}


@pytest.mark.parametrize("section", sorted(NOMINAL))
def test_each_section_accepts_nominal_keys_and_its_pair(section):
    pair = _PAIRS.get(section, ())
    allowed = sorted({*NOMINAL[section], *pair})
    with pytest.raises(ValueError, match=re.escape(f"allowed: {allowed}")):
        params_from_dict({section: {"bogus": 1.0}})
    for key in allowed:
        params_from_dict({section: {key: NOMINAL[section].get(key, 1.0)}})
    if pair:
        # one rule for every section: a ValueError naming both keys
        with pytest.raises(ValueError, match=f"give only one of {pair[0]} and {pair[1]}"):
            params_from_dict({section: {pair[0]: 1.0, pair[1]: 1.0}})
