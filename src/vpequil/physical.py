"""Steady states in physical variables: radius, enclosed mass, potential.

The equilibrium satisfies

    dm/dr = 4 pi r^2 rho(r, omega),      domega/dr = -m / r^2,

integrated outward from a series start near the centre.  The relative
potential omega decreases monotonically; if it reaches zero at finite radius
the state is a compact ball (FiniteRadius), otherwise the integration runs
to a large cutoff and the mass growth over the final decade of radius
decides between a finite-mass halo and an undetermined (possibly infinite
mass) extended state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._ode import Events, Field, bind, dop853
from .distmodels import (
    DistributionModel,
    density,
    eval_dg,
    eval_g,
    radial_pressure,
)

FINITE_RADIUS = "FiniteRadius"
INFINITE_FINITE_MASS = "InfiniteFiniteMass"
INFINITE_UNDETERMINED = "InfiniteUndetermined"

# fractional mass growth over the last decade of radius below which an
# unbounded state is declared to have converged total mass
MASS_DECADE_THRESHOLD = 1e-3

_STARTUP_FRACTION = 1e-6      # startup radius in units of the natural length
_CUTOFF_FRACTION = 1e6        # default outer radius in the same units
_FLOOR_FRACTION = 1e-12       # omega floor in units of the central value


@dataclass(frozen=True)
class PhysicalState:
    """One point (r, m, omega) along a solution."""

    r: float
    m: float
    omega: float

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"radius must be positive, got {self.r}")
        if self.m < 0.0:
            raise ValueError(f"enclosed mass must be non-negative, got {self.m}")


@dataclass(frozen=True)
class SolveSettings:
    """Integration controls; None fields are resolved from the model scale."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-30
    r_max: float | None = None
    omega_floor: float | None = None
    startup_radius: float | None = None

    def resolved(self, model: DistributionModel, omega_c: float) -> "SolveSettings":
        """Fill the scale-dependent fields for a concrete (model, omega_c)."""
        if not omega_c > 0.0:
            raise ValueError(f"central potential must be positive, got {omega_c}")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        length = natural_length(model, omega_c)
        r_max = self.r_max if self.r_max is not None else _CUTOFF_FRACTION * length
        floor = (self.omega_floor if self.omega_floor is not None
                 else _FLOOR_FRACTION * omega_c)
        start = (self.startup_radius if self.startup_radius is not None
                 else _STARTUP_FRACTION * length)
        if not 0.0 < floor < omega_c:
            raise ValueError(f"omega floor {floor:g} must lie in (0, omega_c)")
        if not 0.0 < start < r_max:
            raise ValueError("startup radius must lie inside (0, r_max)")
        return replace(self, r_max=r_max, omega_floor=floor, startup_radius=start)


def density_scale(model: DistributionModel, omega: float) -> float:
    """4 pi C_l g_{l+1/2}(omega): 4 pi rho / r^(2l) at potential omega."""
    return 4.0 * math.pi * model._prefactor * eval_g(model, model.l + 0.5, omega)


def natural_length(model: DistributionModel, omega_c: float) -> float:
    """Length scale on which the potential varies near the centre."""
    return (omega_c / density_scale(model, omega_c)) ** (1.0 / (2.0 + 2.0 * model.l))


def center_series(model: DistributionModel, omega_c: float, r: float):
    """Two-term expansion (m, omega) about the regular centre, at radius r.

    Valid while the second-order correction is small; used only to step off
    the coordinate singularity at r = 0.  The powers of r are numpy's
    ``power``: on a CPU with AVX-512 it rounds some results differently from
    ``math.pow``, and these two floats fix every float of a solve.
    """
    l = model.l
    c_l = model._prefactor
    m_exp = l + 0.5
    g0 = c_l * eval_g(model, m_exp, omega_c)
    g1 = c_l * eval_dg(model, m_exp, omega_c)
    four_pi = 4.0 * math.pi
    a, b = 3.0 + 2.0 * l, 2.0 + 2.0 * l
    m = (four_pi * g0 * np.power(r, a) / a
         - four_pi ** 2 * g0 * g1 * np.power(r, a + b) / (a * b * (a + b)))
    omega = (omega_c - four_pi * g0 * np.power(r, b) / (a * b)
             + four_pi ** 2 * g0 * g1 * np.power(r, 2.0 * b) / (a * b * (a + b) * 2.0 * b))
    return float(m), float(omega)


def _field(kernel, names):
    """(r, [m, omega]) -> (dm/dr, domega/dr) with g_{l+1/2}(omega) the
    expression ``kernel`` of the bound ``names``: the operations of
    `density`, in the same order, so the floats are too; rho is 0 for
    omega <= 0.  One source per family shape, not per model."""
    return Field("r", ("m", "omega"), (
        f"rho = c * r ** two_l * ({kernel}) if omega > 0.0 else 0.0",
        "return four_pi * r * r * rho, -m / (r * r)",
    ), ("c", "two_l", *names, "four_pi"))


# the surface: omega falls through the floor
_FLOOR = Events("r", ("_", "omega"), ("return omega - floor,",), ("floor",), (-1,))


def _physical_field(model: DistributionModel):
    """The physical field with the model's constants bound: one closure per
    solve, which `integrate_physical` hands to the integrator directly.  A
    kernel with a closed form (``kernel.source``) is written into the field;
    any other is called."""
    kernel = model._kernel
    expr, names, values = getattr(kernel, "source", None) or ("kernel(omega)", ("kernel",),
                                                              (kernel,))
    return bind(_field(expr, names), model._prefactor, 2.0 * model.l, *values, 4.0 * math.pi)


def rhs_physical(model: DistributionModel, r: float, state):
    """Right-hand side (dm/dr, domega/dr); omega is clamped at the vacuum.

    The reference field, for oracles and tests: the same factory, and so the
    same floats, as the closure `integrate_physical` integrates.
    """
    return _physical_field(model)(r, (float(state[0]), float(state[1])))


@dataclass
class SolutionProfile:
    """An integrated equilibrium with its classification and diagnostics."""

    model: DistributionModel
    omega_c: float
    r: np.ndarray
    m: np.ndarray
    omega: np.ndarray
    radius: float
    total_mass: float
    classification: str
    settings: SolveSettings
    diagnostics: dict = field(default_factory=dict)
    _dense: Callable = None
    _samples: dict | None = None

    def dense(self, r: float):
        """Interpolated (m, omega) anywhere on the integrated range."""
        lo, hi = self.r[0], self.r[-1]
        if not lo * (1.0 - 1e-12) <= r <= hi * (1.0 + 1e-12):
            raise ValueError(f"r={r:g} outside the integrated range [{lo:g}, {hi:g}]")
        m, omega = self._dense(min(max(r, lo), hi))
        return m, omega

    @property
    def samples(self) -> dict:
        """Step-point arrays including density and radial pressure."""
        if self._samples is None:
            rho = np.empty_like(self.r)
            p = np.empty_like(self.r)
            for i, (ri, wi) in enumerate(zip(self.r, self.omega)):
                w = max(float(wi), 0.0)
                rho[i] = density(self.model, float(ri), w)
                p[i] = radial_pressure(self.model, float(ri), w)
            self._samples = {"r": self.r, "m": self.m, "omega": self.omega,
                             "rho": rho, "p_rad": p}
        return self._samples


def integrate_physical(model: DistributionModel, omega_c: float,
                       settings: SolveSettings | None = None) -> SolutionProfile:
    """Construct the equilibrium with central potential depth omega_c."""
    st = (settings or SolveSettings()).resolved(model, omega_c)
    r0 = st.startup_radius
    m0, w0 = center_series(model, omega_c, r0)
    if not w0 > st.omega_floor:
        raise ValueError("startup radius too large: the series already crossed the floor")

    sol = dop853(_physical_field(model), r0, (m0, w0), st.r_max, st.rel_tol, st.abs_tol,
                 events=bind(_FLOOR, st.omega_floor))
    r_arr, m_arr, w_arr = sol.t, sol.y[0], sol.y[1]
    diagnostics = {"n_steps": sol.n_steps, "n_rejected": sol.n_rejected}

    if sol.event is not None:   # surface: the potential ran out at finite radius
        radius = float(r_arr[-1])
        total_mass = float(m_arr[-1])
        classification = FINITE_RADIUS
        diagnostics["termination"] = "surface"
        diagnostics["decade_mass_ratio"] = None
    else:
        m_end = float(m_arr[-1])
        m_decade = sol(r_arr[-1] / 10.0)[0]
        ratio = (m_end - m_decade) / m_end
        diagnostics["termination"] = "r_max"
        diagnostics["decade_mass_ratio"] = ratio
        radius = math.inf
        if ratio < MASS_DECADE_THRESHOLD:
            total_mass = m_end
            classification = INFINITE_FINITE_MASS
        else:
            total_mass = math.inf
            classification = INFINITE_UNDETERMINED
    # counted after the decade query, so it includes every interpolant built
    # so far; later dense() calls add three calls per newly used step
    diagnostics["n_rhs_evals"] = sol.nfev

    return SolutionProfile(model=model, omega_c=omega_c,
                           r=r_arr, m=m_arr, omega=w_arr,
                           radius=radius, total_mass=total_mass,
                           classification=classification, settings=st,
                           diagnostics=diagnostics, _dense=sol)


def write_csv(path, header: str, rows, precision: int = 17) -> None:
    """CSV with numbers at `precision` significant digits; strings pass through.

    The first row's column types fix one %-template for the whole file, so
    every row must hold a string where the first one does.
    """
    rows = iter(rows)
    first = next(rows, None)
    lines = [header]
    if first is not None:
        template = ",".join("%s" if isinstance(x, str) else f"%.{precision}g" for x in first)
        lines.append(template % tuple(first))
        lines += [template % tuple(row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_profile_csv(profile: SolutionProfile, path, precision: int = 17) -> None:
    """Deterministic five-column CSV of the step points."""
    s = profile.samples
    write_csv(path, "r,m,omega,rho,p_rad",
              zip(*(s[k].tolist() for k in ("r", "m", "omega", "rho", "p_rad"))), precision)
