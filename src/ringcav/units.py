"""Frequency unit conventions and conversions.

Every angular rate inside the package is stored in rad/s. Every external
boundary (CLI flags, JSON files, CSV columns) speaks ordinary frequency
nu = omega/(2*pi) in MHz. This module is the single place where the two
conventions meet.
"""
from __future__ import annotations

import math

from .errors import UnknownUnit

TWO_PI = 2.0 * math.pi

#: speed of light (m/s) and Planck constant (J s), exact by the 2019 SI
#: definition and equal to scipy.constants.c and .h
C_VACUUM = 299792458.0
H_PLANCK = 6.62607015e-34

#: effective group index of the fiber loop, used only for the informational
#: cavity length; the free spectral range is the authoritative quantity.
DEFAULT_GROUP_INDEX = 1.45

_UNITS = ("rad/s", "Hz", "MHz")


def convert(value: float, from_unit: str, to_unit: str) -> float:
    """Convert a frequency-like value between rad/s, Hz and MHz.

    MHz follows the nu-convention: 1 MHz means omega/(2*pi) = 1e6 Hz.
    Round trips are exact to floating-point rounding.
    """
    if from_unit not in _UNITS:
        raise UnknownUnit(f"unknown unit {from_unit!r}; expected one of {_UNITS}")
    if to_unit not in _UNITS:
        raise UnknownUnit(f"unknown unit {to_unit!r}; expected one of {_UNITS}")
    in_hz = {"rad/s": lambda v: v / TWO_PI, "Hz": lambda v: v, "MHz": lambda v: v * 1e6}
    out_of_hz = {"rad/s": lambda v: v * TWO_PI, "Hz": lambda v: v, "MHz": lambda v: v / 1e6}
    return out_of_hz[to_unit](in_hz[from_unit](value))


def rad_to_mhz(omega: float) -> float:
    return omega / TWO_PI / 1e6


def mhz_to_rad(nu_mhz: float) -> float:
    return nu_mhz * 1e6 * TWO_PI


def roundtrip_time(fsr_hz: float) -> float:
    """Cavity round-trip time in seconds, 1/FSR."""
    return 1.0 / fsr_hz


def cavity_length(fsr_hz: float, group_index: float = DEFAULT_GROUP_INDEX) -> float:
    """Informational loop length in meters, c/(n*FSR)."""
    return C_VACUUM / (group_index * fsr_hz)
