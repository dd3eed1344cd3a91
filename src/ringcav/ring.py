"""All-pass fiber ring transmission model and rate-decomposition mappings.

A single coupler with real self-coupling amplitude t taps a fiber loop with
round-trip amplitude transmission a. The transmitted field is

    E_out/E_in = (t - a e^{i phi}) / (1 - t a e^{i phi}),
    phi = 2 pi (nu - nu0) / FSR,

periodic in nu with period FSR. On resonance (phi = 0) the power transmission
dips to ((t - a)/(1 - t a))^2; between resonances it approaches 1.

Rate mapping convention: field amplitudes decay per round trip as
e^{-kappa t_rt} with t_rt = 1/FSR, giving kappa_ex = -ln(t) FSR and
kappa_i = -ln(a) FSR. In the high-finesse limit this reproduces the
Lorentzian linewidth FWHM = 2 kappa / (2 pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FinesseTooLow, NonPositiveRate
from .params import CavityParams
from .units import TWO_PI

#: below this finesse the exponential-decay rate mapping is biased > 2%
MIN_FINESSE_FOR_RATES = 10.0


@dataclass(frozen=True)
class RingModel:
    """All-pass ring parameters.

    t_coupler : real self-coupling amplitude, 0 < t < 1
    a_roundtrip : round-trip amplitude transmission, 0 < a <= 1
    fsr : free spectral range (Hz)
    detuning_offset : frequency of a chosen resonance (Hz)
    """

    t_coupler: float
    a_roundtrip: float
    fsr: float
    detuning_offset: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.t_coupler < 1.0):
            raise NonPositiveRate(f"t_coupler must be in (0, 1), got {self.t_coupler!r}")
        if not (0.0 < self.a_roundtrip <= 1.0):
            raise NonPositiveRate(f"a_roundtrip must be in (0, 1], got {self.a_roundtrip!r}")
        if not (self.fsr > 0):
            raise NonPositiveRate(f"fsr must be > 0, got {self.fsr!r}")

    @property
    def finesse(self) -> float:
        ta = self.t_coupler * self.a_roundtrip
        return math.pi * math.sqrt(ta) / (1.0 - ta)

    @property
    def dip_transmission(self) -> float:
        """On-resonance power transmission ((t - a)/(1 - t a))^2."""
        return ((self.t_coupler - self.a_roundtrip) / (1.0 - self.t_coupler * self.a_roundtrip)) ** 2


def ring_transmission(nu_hz, model: RingModel):
    """Power transmission at frequency nu_hz (scalar or array), in [dip, 1]."""
    out = _ring_transmission(nu_hz, model)
    return out if out.ndim else float(out)


def _ring_transmission(nu_hz, model: RingModel, partials=False):
    """ring_transmission as an array; with partials=True also dT/d(t, a, fsr, offset).

    With M = 1 - t a e: dA/dt = (1 - a^2 e^2)/M^2, dA/da = e (t^2 - 1)/M^2
    and dA/dphi = i a e (t^2 - 1)/M^2; dT = 2 Re(conj(A) dA).
    """
    t, a, fsr = model.t_coupler, model.a_roundtrip, model.fsr
    phi = TWO_PI * (np.asarray(nu_hz, dtype=float) - model.detuning_offset) / fsr
    e = np.exp(1j * phi)
    m = 1.0 - t * a * e
    amp = (t - a * e) / m
    out = np.abs(amp) ** 2
    if not partials:
        return out
    w = 2.0 * np.conj(amp) / (m * m)
    we = w * e
    t_phi = -a * (t * t - 1.0) * we.imag
    return out, (w.real - a * a * (we * e).real, (t * t - 1.0) * we.real,
                 -t_phi * phi / fsr, -t_phi * TWO_PI / fsr)


def rates_from_ring(model: RingModel) -> tuple[float, float]:
    """Map (t, a) to angular decay rates (kappa_i, kappa_ex) in rad/s.

    kappa_ex = -ln(t) FSR, kappa_i = -ln(a) FSR (field decay per round trip).
    Only valid in the high-finesse regime where the per-round-trip decay is
    small; refuses below MIN_FINESSE_FOR_RATES.
    """
    if model.finesse <= MIN_FINESSE_FOR_RATES:
        raise FinesseTooLow(
            f"finesse {model.finesse:.2f} <= {MIN_FINESSE_FOR_RATES}; rate mapping would be biased"
        )
    kappa_ex = -math.log(model.t_coupler) * model.fsr
    kappa_i = -math.log(model.a_roundtrip) * model.fsr if model.a_roundtrip < 1.0 else 0.0
    return kappa_i, kappa_ex


def ring_from_rates(cavity: CavityParams) -> RingModel:
    """Inverse of rates_from_ring: t = e^{-kappa_ex/FSR}, a = e^{-kappa_i/FSR}."""
    return RingModel(
        t_coupler=math.exp(-cavity.kappa_ex / cavity.fsr),
        a_roundtrip=math.exp(-cavity.kappa_i / cavity.fsr),
        fsr=cavity.fsr,
    )


def ring_from_lineshape(finesse: float, fsr: float, dip_transmission: float,
                        detuning_offset: float = 0.0, partials=False):
    """Build a RingModel from directly measurable lineshape quantities.

    Inverts finesse = pi sqrt(ta)/(1 - ta) for the product m = ta, then
    splits it using the dip depth: |t - a| = sqrt(T_dip) (1 - m), with the
    undercoupled assignment t > a. With partials=True also returns
    ((dt/dF, da/dF), (dt/dT_dip, da/dT_dip)) from the same intermediates;
    the dip pair is NaN at T_dip = 0, where t and a go as sqrt(T_dip).
    """
    if not (finesse > 0):
        raise NonPositiveRate(f"finesse must be > 0, got {finesse!r}")
    if not (0.0 <= dip_transmission < 1.0):
        raise ValueError(f"dip_transmission must be in [0, 1), got {dip_transmission!r}")
    # sqrt(m) is the positive root of x^2 + (pi/finesse) x - 1
    phi = math.pi / finesse
    root = math.sqrt(phi * phi + 4.0)
    sqrt_m = (-phi + root) / 2.0
    m = sqrt_m * sqrt_m
    sqrt_dip = math.sqrt(dip_transmission)
    diff = sqrt_dip * (1.0 - m)
    s = math.sqrt(diff * diff + 4.0 * m)  # t + a
    t, a = (s + diff) / 2.0, (s - diff) / 2.0
    model = RingModel(t_coupler=t, a_roundtrip=min(a, 1.0), fsr=fsr, detuning_offset=detuning_offset)
    if not partials:
        return model
    dm_df = sqrt_m * (phi / root - 1.0) * (-phi / finesse)
    ddiff_df = -sqrt_dip * dm_df
    ddiff_dd = (1.0 - m) / (2.0 * sqrt_dip) if sqrt_dip > 0.0 else math.inf
    ds_df = (diff * ddiff_df + 2.0 * dm_df) / s
    ds_dd = diff * ddiff_dd / s
    return (model, ((ds_df + ddiff_df) / 2.0, (ds_df - ddiff_df) / 2.0),
            ((ds_dd + ddiff_dd) / 2.0, (ds_dd - ddiff_dd) / 2.0))
