"""Validated parameter types shared by every module.

All angular rates are stored in rad/s (see units.py). Constructors ending in
``_from_dict`` implement the external JSON schema, which speaks MHz/nm/W and
rejects unknown keys and values that are not finite numbers. NOMINAL and
_EXCLUSIVE_GROUPS declare that document: a section accepts NOMINAL's keys
and the members of its exclusive groups (SECTION_KEYS), at most one key of
each group, and needs every NOMINAL key outside the groups.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import AmbiguousDrive, NonPositiveRate
from .units import TWO_PI, mhz_to_rad


@dataclass(frozen=True)
class CavityParams:
    """Ring-cavity rates and geometry.

    Parameters
    ----------
    kappa_i : float
        Intrinsic angular field decay rate (rad/s).
    kappa_ex : float
        Coupler angular field decay rate (rad/s).
    fsr : float
        Free spectral range (Hz, plain frequency).
    lambda_p : float
        Probe wavelength (m).
    """

    kappa_i: float
    kappa_ex: float
    fsr: float
    lambda_p: float

    def __post_init__(self):
        for name in ("kappa_i", "kappa_ex", "fsr", "lambda_p"):
            v = getattr(self, name)
            if not (v > 0):
                raise NonPositiveRate(f"{name} must be > 0, got {v!r}")

    @property
    def kappa(self) -> float:
        """Total angular field decay rate kappa_i + kappa_ex (rad/s)."""
        return self.kappa_i + self.kappa_ex

    @property
    def kappa_ratio(self) -> float:
        """Coupling ratio kappa_ex/kappa (dimensionless)."""
        return self.kappa_ex / self.kappa

    @property
    def fwhm_hz(self) -> float:
        """Resonance full width at half maximum, 2*kappa/(2*pi) = kappa/pi (Hz)."""
        return self.kappa / (TWO_PI / 2.0)

    @property
    def finesse(self) -> float:
        """FSR divided by linewidth, fsr/(kappa/pi)."""
        return self.fsr / self.fwhm_hz


@dataclass(frozen=True)
class EnsembleParams:
    """Collective atom parameters.

    Parameters
    ----------
    cooperativity : float
        Collective cooperativity C, >= 0.
    gamma_par : float
        Angular population decay rate (rad/s).
    gamma_d : float
        Angular pure dephasing rate (rad/s), >= 0.
    n_sat : float
        Saturation photon number, > 0.
    """

    cooperativity: float
    gamma_par: float
    gamma_d: float
    n_sat: float

    def __post_init__(self):
        if not (self.cooperativity >= 0):
            raise NonPositiveRate(f"cooperativity must be >= 0, got {self.cooperativity!r}")
        if not (self.gamma_par > 0):
            raise NonPositiveRate(f"gamma_par must be > 0, got {self.gamma_par!r}")
        if not (self.gamma_d >= 0):
            raise NonPositiveRate(f"gamma_d must be >= 0, got {self.gamma_d!r}")
        if not (self.n_sat > 0):
            raise NonPositiveRate(f"n_sat must be > 0, got {self.n_sat!r}")

    @property
    def gamma_perp(self) -> float:
        """Transverse decay rate gamma_par/2 + gamma_d (rad/s)."""
        return self.gamma_par / 2.0 + self.gamma_d


#: largest dimensionless drive amplitude whose square, the cubic's y**2, is a finite float
MAX_Y = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class DriveParams:
    """Probe drive: power or dimensionless amplitude.

    Exactly one of ``input_power`` (W) and ``y`` (dimensionless, in
    [0, MAX_Y]) is set; conversion between them is always an explicit call to
    steady_state.drive_from_power / power_from_drive. The detunings are not
    drive settings: steady_state.spectrum derives them from the scanned probe
    frequency and the atomic resonance offset.
    """

    input_power: float | None = None
    y: float | None = None

    def __post_init__(self):
        if (self.input_power is None) == (self.y is None):
            raise AmbiguousDrive(
                "exactly one of input_power and y must be given, got "
                f"input_power={self.input_power!r}, y={self.y!r}"
            )
        if self.input_power is not None and not (self.input_power >= 0):
            raise NonPositiveRate(f"input_power must be >= 0, got {self.input_power!r}")
        if self.y is not None and not (self.y >= 0):
            raise NonPositiveRate(f"y must be real >= 0, got {self.y!r}")
        if self.y is not None and not (self.y <= MAX_Y):
            raise ValueError(f"y must be <= MAX_Y={MAX_Y!r}, where y**2 is finite, got {self.y!r}")


# reference values of the system this package models, external-unit form
NOMINAL = {
    "cavity": {"kappa_i_mhz": 1.7, "kappa_ex_mhz": 0.47, "fsr_mhz": 148.0, "lambda_p_nm": 852.0},
    "ensemble": {"cooperativity": 1.5, "gamma_par_mhz": 5.2, "gamma_perp_mhz": 4.0, "n_sat": 12.7},
    "drive": {"input_power_w": 30e-12},
}

#: defaults of ThermalParams, LockConfig and the ``lock`` options, keyed like
#: those options; not a NOMINAL section, which merge_document would copy into
#: every command's parameter document
THERMAL_DEFAULTS = {
    "tau_th_s": 10e-3,
    "shift_per_watt": -9.23e11,
    "absorption_fraction": 0.01,
    "heater_power_w": 2e-3,
    "gain_i": 1e9,
}


def is_number(value) -> bool:
    """True for an int or float (numpy's float64 included), False for a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """False for NaN, infinities and an int beyond the float range, which would overflow."""
    return -sys.float_info.max <= value <= sys.float_info.max


# keys within one group are mutually exclusive: overriding any member evicts
# the whole group from the base document instead of mixing old and new
_EXCLUSIVE_GROUPS = {
    "ensemble": ({"gamma_d_mhz", "gamma_perp_mhz"},),
    "drive": ({"input_power_w", "y"},),
}

#: the keys each section accepts: NOMINAL's and the members of its exclusive groups
SECTION_KEYS = {section: set(keys).union(*_EXCLUSIVE_GROUPS.get(section, ()))
                for section, keys in NOMINAL.items()}


def _reject_unknown(section: str, data: dict, allowed: set[str]):
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {section!r}: {sorted(unknown)}; allowed: {sorted(allowed)}")


def _check_section(section: str, data: dict):
    groups = _EXCLUSIVE_GROUPS.get(section, ())
    _reject_unknown(section, data, SECTION_KEYS[section])
    for key, value in data.items():
        if not is_number(value):
            raise ValueError(f"{section} key {key!r} must be a number, got {value!r}")
        if not is_finite(value):
            raise ValueError(f"{section} key {key!r} must be finite, got {value!r}")
    for group in groups:
        given = sorted(group & set(data))
        if len(given) > 1:
            raise ValueError(f"give only one of {' and '.join(given)}")
    for key in NOMINAL[section]:
        if key not in data and not any(key in group for group in groups):
            raise ValueError(f"{section} section missing key {key!r}")


def cavity_from_dict(data: dict) -> CavityParams:
    _check_section("cavity", data)
    return CavityParams(
        kappa_i=mhz_to_rad(data["kappa_i_mhz"]),
        kappa_ex=mhz_to_rad(data["kappa_ex_mhz"]),
        fsr=data["fsr_mhz"] * 1e6,
        lambda_p=data["lambda_p_nm"] * 1e-9,
    )


def ensemble_from_dict(data: dict) -> EnsembleParams:
    _check_section("ensemble", data)
    gamma_par = mhz_to_rad(data["gamma_par_mhz"])
    if "gamma_perp_mhz" in data:
        floor = data["gamma_par_mhz"] / 2.0  # gamma_perp = gamma_par / 2 + gamma_d, gamma_d >= 0
        # a gamma_par_mhz that is not > 0 gets EnsembleParams' own message
        if data["gamma_par_mhz"] > 0.0 and not (data["gamma_perp_mhz"] >= floor):
            raise NonPositiveRate(f"ensemble key 'gamma_perp_mhz' must be >= gamma_par_mhz / 2 "
                                  f"= {floor!r}, got {data['gamma_perp_mhz']!r}")
        gamma_d = mhz_to_rad(data["gamma_perp_mhz"]) - gamma_par / 2.0
    else:
        gamma_d = mhz_to_rad(data.get("gamma_d_mhz", 0.0))
    return EnsembleParams(
        cooperativity=data["cooperativity"],
        gamma_par=gamma_par,
        gamma_d=gamma_d,
        n_sat=data["n_sat"],
    )


def drive_from_dict(data: dict) -> DriveParams:
    _check_section("drive", data)
    return DriveParams(input_power=data.get("input_power_w"), y=data.get("y"))


def merge_document(base: dict, override: dict) -> dict:
    """Overlay one external parameter document on another.

    Plain per-section dict update, except that exclusive key groups
    (gamma_d_mhz/gamma_perp_mhz, input_power_w/y) are replaced as a unit.
    """
    if not isinstance(override, dict):
        raise ValueError(f"parameter document must be an object, got {override!r}")
    _reject_unknown("top level", override, set(NOMINAL))
    merged = {k: dict(v) for k, v in base.items()}
    for section, values in override.items():
        if not isinstance(values, dict):
            raise ValueError(f"section {section!r} must be an object")
        target = merged.setdefault(section, {})
        for group in _EXCLUSIVE_GROUPS.get(section, ()):
            if group & set(values):
                for key in group:
                    target.pop(key, None)
        target.update(values)
    return merged


def params_from_dict(data: dict) -> tuple[CavityParams, EnsembleParams, DriveParams]:
    """Parse the full external parameter document (see NOMINAL for the shape)."""
    merged = merge_document(NOMINAL, data)
    return (
        cavity_from_dict(merged["cavity"]),
        ensemble_from_dict(merged["ensemble"]),
        drive_from_dict(merged["drive"]),
    )


def nominal_params() -> tuple[CavityParams, EnsembleParams, DriveParams]:
    """Validated parameter set for the reference system."""
    return params_from_dict({})
