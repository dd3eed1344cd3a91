"""Fiber ring cavity QED toolkit.

Steady-state transmission of a collectively coupled atom ensemble, all-pass
ring characterization, least-squares parameter estimation, and thermal
self-locking dynamics, with a CSV/JSON command-line front end.
"""

__version__ = "0.1.0"

from .params import CavityParams, DriveParams, EnsembleParams, nominal_params
from .ring import RingModel, ring_from_lineshape, ring_from_rates, rates_from_ring, ring_transmission
from .steady_state import (
    BranchPolicy,
    solve_intensity,
    spectrum,
    splitting_estimate,
    weak_transmission,
)

__all__ = [
    "__version__",
    "BranchPolicy",
    "CavityParams",
    "DriveParams",
    "EnsembleParams",
    "RingModel",
    "nominal_params",
    "rates_from_ring",
    "ring_from_lineshape",
    "ring_from_rates",
    "ring_transmission",
    "solve_intensity",
    "spectrum",
    "splitting_estimate",
    "weak_transmission",
]
