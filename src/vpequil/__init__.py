"""Stationary spherically symmetric equilibria of the Vlasov-Poisson system.

Construction, integration, and classification of steady states, both in
physical radius and as orbits of a compactified three-dimensional dynamical
system whose fixed-point structure encodes finiteness of radius and mass.
"""

__version__ = "0.1.0"

from .distmodels import (  # noqa: F401
    DistributionModel,
    EvaluationError,
    ModelError,
    Polytrope,
    SettingError,
    Tabulated,
    TruncatedExponential,
    density,
    density_prefactor,
    eval_dg,
    eval_g,
    eval_n,
    eval_phi,
    king_model,
    load_tabulated,
    polytrope,
    radial_pressure,
    tabulated_model,
    truncated_exponential,
    wilson_model,
)
