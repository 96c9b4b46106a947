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
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable

from ._ode import Events, Field, bind, dop853
from .distmodels import (
    _OMEGA_MIN,
    DistributionModel,
    EvaluationError,
    SettingError,
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

_STARTUP_FRACTION = 1e-6      # startup radius in units of the natural length, l >= -1/2
_CUTOFF_FRACTION = 1e6        # outer radius in the same units
_FLOOR_FRACTION = 1e-12       # omega floor in units of the central value
_ABS_TOL = 1e-30              # absolute tolerance of the physical flow
# rel_tol of both flows: below 100 eps (scipy's solve_ivp floor) a step asks
# for digits a double does not hold, above 1e-2 for none
_REL_TOL_RANGE = (100.0 * sys.float_info.epsilon, 1e-2)


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


def _check_settings(settings, positive):
    """Name the field of a settings record whose rel_tol lies outside
    `_REL_TOL_RANGE`, or which of ``positive`` is not positive."""
    lo, hi = _REL_TOL_RANGE
    if not lo <= settings.rel_tol <= hi:
        raise SettingError("rel_tol", f"must lie in [{lo:g}, {hi:g}], got {settings.rel_tol!r}")
    for name in positive:
        value = getattr(settings, name)
        if not value > 0.0:
            raise SettingError(name, f"must be positive, got {value!r}")


def _check_amplitude(model: DistributionModel, key: str, omega: float, span=None):
    """Name ``key`` if omega is no central amplitude of the model: not
    positive, past the end of a tabulated phi, or, for a caller that reads
    the index down to span * omega, with that below `_OMEGA_MIN`."""
    end = model.family.energy_max
    if not omega > 0.0:
        problem = f"must be positive, got {omega!r}"
    elif end is not None and omega > end:
        problem = f"= {omega:g} lies past the end of the tabulated phi grid (E = {end:g})"
    elif span is not None and not span * omega >= _OMEGA_MIN:
        problem = (f"= {omega:g} puts the low end of the checked interval, {span:g} times "
                   f"it, below the index floor {_OMEGA_MIN:g}")
    else:
        return
    raise SettingError(key, problem)


@dataclass(frozen=True)
class SolveSettings:
    """Integration controls: the relative tolerance of the physical flow.

    A solve starts at `_STARTUP_FRACTION` natural lengths (less for
    l < -1/2, see `_radii`), steps with absolute tolerance `_ABS_TOL`, and
    stops at the surface where omega falls to `_FLOOR_FRACTION` omega_c, or
    at `_CUTOFF_FRACTION` natural lengths.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        _check_settings(self, ())


def density_scale(model: DistributionModel, omega: float) -> float:
    """4 pi C_l g_{l+1/2}(omega): 4 pi rho / r^(2l) at potential omega."""
    return 4.0 * math.pi * model._prefactor * eval_g(model, model.l + 0.5, omega)


def natural_length(model: DistributionModel, omega_c: float) -> float:
    """Length scale on which the potential varies near the centre; raises
    EvaluationError when it is not a finite positive double."""
    scale = density_scale(model, omega_c)
    try:
        length = (omega_c / scale) ** (1.0 / (2.0 + 2.0 * model.l))
    except (ZeroDivisionError, OverflowError):   # the scale underflows, or the power overflows
        length = math.inf
    if not 0.0 < length < math.inf:
        raise EvaluationError(f"natural_length at omega_c = {omega_c:g} is {length:g}, "
                              "not a finite positive double")
    return length


def _radii(model: DistributionModel, omega_c: float) -> tuple:
    """(natural length L, start radius, cutoff) of a solve: the start is
    L _STARTUP_FRACTION ** max(1, 1/(2 + 2l)), so the series' first
    correction, of order (r/L)^(2 + 2l), stays near _STARTUP_FRACTION as l
    nears -1; the cutoff is _CUTOFF_FRACTION L."""
    length, l = natural_length(model, omega_c), model.l
    start = length * (_STARTUP_FRACTION ** (1.0 / (2.0 + 2.0 * l)) if l < -0.5
                      else _STARTUP_FRACTION)
    return length, start, _CUTOFF_FRACTION * length


def center_series(model: DistributionModel, omega_c: float, r: float):
    """Two-term expansion (m, omega) about the regular centre, at radius r.

    Valid while the second-order correction is small; used only to step off
    the coordinate singularity at r = 0.  These two floats fix every float
    of a solve.
    """
    l = model.l
    c_l = model._prefactor
    m_exp = l + 0.5
    g0 = c_l * eval_g(model, m_exp, omega_c)
    g1 = c_l * eval_dg(model, m_exp, omega_c)
    four_pi = 4.0 * math.pi
    a, b = 3.0 + 2.0 * l, 2.0 + 2.0 * l
    m = (four_pi * g0 * r ** a / a
         - four_pi ** 2 * g0 * g1 * r ** (a + b) / (a * b * (a + b)))
    omega = (omega_c - four_pi * g0 * r ** b / (a * b)
             + four_pi ** 2 * g0 * g1 * r ** (2.0 * b) / (a * b * (a + b) * 2.0 * b))
    return m, omega


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


@dataclass
class SolutionProfile:
    """An integrated equilibrium with its classification and diagnostics.

    ``r``, ``m`` and ``omega`` are the step points, as ``array('d')``
    columns; ``np.asarray(profile.r)`` views one as a numpy array.
    ``natural_length`` is the length the start and the cutoff scale with.
    """

    model: DistributionModel
    omega_c: float
    natural_length: float
    r: array
    m: array
    omega: array
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
        """Step-point columns including density and radial pressure."""
        if self._samples is None:
            rho, p = array("d"), array("d")
            for ri, wi in zip(self.r, self.omega):
                w = max(wi, 0.0)
                rho.append(density(self.model, ri, w))
                p.append(radial_pressure(self.model, ri, w))
            self._samples = {"r": self.r, "m": self.m, "omega": self.omega,
                             "rho": rho, "p_rad": p}
        return self._samples


def integrate_physical(model: DistributionModel, omega_c: float,
                       settings: SolveSettings | None = None) -> SolutionProfile:
    """Construct the equilibrium with central potential depth omega_c."""
    _check_amplitude(model, "omega_c", omega_c)
    st = settings or SolveSettings()
    length, r0, r_max = _radii(model, omega_c)
    floor = _FLOOR_FRACTION * omega_c
    # a finite start lies far above the floor: the series' first correction
    # is at most about 1e-6 omega_c / ((3 + 2l)(2 + 2l)), its second positive
    try:   # the powers of r0, the density's r0 ** (2 l) too, and g g'
        m0, w0 = center_series(model, omega_c, r0)
        r0 ** (2.0 * model.l)
    except (OverflowError, ZeroDivisionError):   # 0 ** (2 l): r0 underflowed
        m0 = w0 = math.nan
    if not (r0 > 0.0 and math.isfinite(m0 + w0)):
        raise EvaluationError(f"l = {model.l:g}, omega_c = {omega_c:g}: the start leaves double "
                              f"precision: (r, m, omega) = ({r0:g}, {m0:g}, {w0:g})")

    try:
        sol = dop853(_physical_field(model), r0, (m0, w0), r_max, st.rel_tol, _ABS_TOL,
                     events=bind(_FLOOR, floor))
    except OverflowError:
        # a float ``**`` of the step loop; for large l it is the density's
        # r ** (2 l), which is named here, so the loop carries no check
        try:
            r_max ** (2.0 * model.l)
        except OverflowError:
            raise OverflowError(f"r ** (2 l) = r ** {2.0 * model.l:g} of the density "
                                f"overflows double precision below r_max = {r_max:g}"
                                ) from None
        raise
    r_arr, m_arr, w_arr = sol.t, sol.y[0], sol.y[1]
    diagnostics = {"n_steps": sol.n_steps, "n_rejected": sol.n_rejected}

    if sol.event is not None:   # surface: the potential ran out at finite radius
        radius = r_arr[-1]
        total_mass = m_arr[-1]
        classification = FINITE_RADIUS
        diagnostics["termination"] = "surface"
        diagnostics["decade_mass_ratio"] = None
    else:
        m_end = m_arr[-1]
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

    return SolutionProfile(model=model, omega_c=omega_c, natural_length=length,
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
              zip(*(s[k] for k in ("r", "m", "omega", "rho", "p_rad"))), precision)
