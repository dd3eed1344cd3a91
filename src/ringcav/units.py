"""Frequency unit conventions and conversions.

Every angular rate inside the package is stored in rad/s. Every external
boundary (CLI flags, JSON files, CSV columns) speaks ordinary frequency
nu = omega/(2*pi) in MHz. This module is the single place where the two
conventions meet.
"""
from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

#: speed of light (m/s) and Planck constant (J s), exact by the 2019 SI
#: definition and equal to scipy.constants.c and .h
C_VACUUM = 299792458.0
H_PLANCK = 6.62607015e-34


def rad_to_mhz(omega: float) -> float:
    return omega / TWO_PI / 1e6


def mhz_to_rad(nu_mhz: float) -> float:
    return nu_mhz * 1e6 * TWO_PI
