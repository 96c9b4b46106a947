"""Steady states in physical variables: radius, enclosed mass, potential.

The equilibrium satisfies

    dm/dr = 4 pi r^2 rho(r, omega),      domega/dr = -m / r^2,

integrated outward from the power series of the regular centre, which the
solver leaves where the series' tail falls to 1e-16.  The relative
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

from ._ode import Events, Field, bind, dop853
from .distmodels import (
    _OMEGA_MIN,
    DistributionModel,
    EvaluationError,
    SettingError,
    density,
    eval_g,
    radial_pressure,
)

FINITE_RADIUS = "FiniteRadius"
INFINITE_FINITE_MASS = "InfiniteFiniteMass"
INFINITE_UNDETERMINED = "InfiniteUndetermined"

# fractional mass growth over the last decade of radius below which an
# unbounded state is declared to have converged total mass
MASS_DECADE_THRESHOLD = 1e-3

_SERIES_ORDER = 10            # the centre series: m to s^10, omega to s^11, s = (r/L)^(2+2l)
_SERIES_TAIL = 1e-16          # the solver starts where the tail is this share of the first term,
_START_CAP = 0.5              # at most this many natural lengths out
_CENTRE_FRACTION = 1e-6       # the centre sample: this share of the start in r, or s = this, the nearer
_CUTOFF_FRACTION = 1e6        # outer radius in natural lengths
_FLOOR_FRACTION = 1e-12       # omega floor in units of the central value
_ABS_TOL = 1e-30              # absolute tolerance of the physical flow
# rel_tol of both flows: below 100 eps (scipy's solve_ivp floor) a step asks
# for digits a double does not hold, above 1e-2 for none
_REL_TOL_RANGE = (100.0 * sys.float_info.epsilon, 1e-2)


def _check_rel_tol(rel_tol: float):
    """Name rel_tol if it lies outside `_REL_TOL_RANGE`."""
    lo, hi = _REL_TOL_RANGE
    if not lo <= rel_tol <= hi:
        raise SettingError("rel_tol", f"must lie in [{lo:g}, {hi:g}], got {rel_tol!r}")


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


def _tail_bound(c) -> float:
    """The largest s at which the tail estimate of sum_k c_k s^k, its last
    term times the ratio of its last two, is `_SERIES_TAIL` of its first."""
    last = c[-1]
    if last == 0.0:
        return math.inf
    return (_SERIES_TAIL * abs(c[0] * c[-2]) / (last * last)) ** (1.0 / len(c))


def _centre_series(model: DistributionModel, omega_c: float, length: float):
    """(state, r_c, r_0): the regular centre as a power series, the radius of
    the centre sample and the radius where the solver starts on it.

    With x = r/L, a = 3 + 2l, b = 2 + 2l and s = x^b, the scaled solution is
    omega/omega_c = sum_k w_k s^k (w_0 = 1) and m/(omega_c L x^a) =
    sum_k mu_k s^k, where mu_k = gamma_k/(a + k b), w_{k+1} = -mu_k/((k+1) b)
    and gamma_k is the s^k coefficient of the density's kernel ratio
    (`DistributionModel.series`); K = `_SERIES_ORDER`, or fewer where the
    family gives fewer gamma_k (a table gives gamma_1: the two-term series).
    ``state(r)`` is (m, omega) there.  The start is the largest s at which
    the tail of either series, its last term times the ratio of its last
    two, is `_SERIES_TAIL` of its first term, at most `_START_CAP` natural
    lengths.  The centre sample lies `_CENTRE_FRACTION` of the start inside
    in r, or at s = `_CENTRE_FRACTION`, whichever is nearer the centre: there
    the compact variables lie about that close to the fixed line L2, and for
    l near -1 its r ** (2 l) is still a double.
    """
    l = model.l
    a, b = 3.0 + 2.0 * l, 2.0 + 2.0 * l
    coefficient = model.series(omega_c)
    gamma, mu = [1.0], [1.0 / a]
    w = [1.0, -mu[0] / b]
    for k in range(1, _SERIES_ORDER + 1):
        g_k = coefficient(w, gamma)
        if g_k is None:
            break
        gamma.append(g_k)
        mu.append(g_k / (a + k * b))
        w.append(-mu[k] / ((k + 1) * b))
    s_max = min(_START_CAP ** b, _tail_bound(w), _tail_bound(mu))
    w.reverse()
    mu.reverse()

    def state(r):
        x = r / length
        s = x ** b
        hw = hm = 0.0
        for c in w:
            hw = hw * s + c
        for c in mu:
            hm = hm * s + c
        return omega_c * length * x ** a * hm, omega_c * hw
    x_0 = s_max ** (1.0 / b)
    x_c = min(_CENTRE_FRACTION * x_0, _CENTRE_FRACTION ** (1.0 / b))
    return state, length * x_c, length * x_0


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


class SolutionProfile:
    """An integrated equilibrium with its classification and diagnostics.

    ``r``, ``m`` and ``omega`` are the centre sample, then the solver's
    step points, as ``array('d')`` columns; ``np.asarray(profile.r)`` views
    one as a numpy array.
    ``natural_length`` is the length the start and the cutoff scale with.
    ``_dense`` and ``_centre`` are the solver's interpolant and the centre
    series, each r -> (m, omega); ``_samples`` caches `samples`.
    """

    def __init__(self, model, omega_c, natural_length, r, m, omega, radius, total_mass,
                 classification, rel_tol, diagnostics=None, _dense=None, _centre=None,
                 _samples=None):
        self.model, self.omega_c, self.natural_length = model, omega_c, natural_length
        self.r, self.m, self.omega = r, m, omega
        self.radius, self.total_mass, self.classification = radius, total_mass, classification
        self.rel_tol, self.diagnostics = rel_tol, {} if diagnostics is None else diagnostics
        self._dense, self._centre, self._samples = _dense, _centre, _samples

    def dense(self, r: float):
        """(m, omega) anywhere on the integrated range: the centre series
        below the solver's first node, the interpolant above it."""
        lo, hi = self.r[0], self.r[-1]
        if not lo * (1.0 - 1e-12) <= r <= hi * (1.0 + 1e-12):
            raise ValueError(f"r={r:g} outside the integrated range [{lo:g}, {hi:g}]")
        r = min(max(r, lo), hi)
        m, omega = (self._centre if r < self.r[1] else self._dense)(r)
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
                       rel_tol: float = 1e-10) -> SolutionProfile:
    """Construct the equilibrium with central potential depth omega_c.

    The regular centre is a power series of order `_SERIES_ORDER` in
    s = (r/L)^(2 + 2l), L the natural length (`_centre_series`).  The
    solver starts on it where its tail falls to `_SERIES_TAIL` of its first
    term, at most `_START_CAP` L out, so a step is never spent climbing out
    of the centre.  The profile's first node samples the series nearer the
    centre, `_CENTRE_FRACTION` of the start inside in r or at
    s = `_CENTRE_FRACTION`, and `dense` sums it below the solver's first
    node.  The solver steps with relative tolerance rel_tol and absolute
    tolerance `_ABS_TOL`, and stops at the surface where omega falls to
    `_FLOOR_FRACTION` omega_c, or at `_CUTOFF_FRACTION` L.
    """
    omega_c = float(omega_c)
    _check_rel_tol(rel_tol)
    _check_amplitude(model, "omega_c", omega_c)
    length = natural_length(model, omega_c)
    r_max = _CUTOFF_FRACTION * length
    floor = _FLOOR_FRACTION * omega_c
    centre, r_c, r0 = _centre_series(model, omega_c, length)
    try:   # the powers of r/L, and the density's r_c ** (2 l) at the centre sample
        m_c, w_c = centre(r_c)
        m0, w0 = centre(r0)
        r_c ** (2.0 * model.l)
    except (OverflowError, ZeroDivisionError):   # 0 ** (2 l): r_c underflowed
        m_c = w_c = m0 = w0 = math.nan
    if not (r_c > 0.0 and math.isfinite(m_c + w_c + m0 + w0)):
        raise EvaluationError(f"l = {model.l:g}, omega_c = {omega_c:g}: the start leaves double "
                              f"precision: (r, m, omega) = ({r_c:g}, {m_c:g}, {w_c:g})")

    try:
        sol = dop853(_physical_field(model), r0, (m0, w0), r_max, rel_tol, _ABS_TOL,
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
    # the centre sample, then the solver's nodes
    r_arr = array("d", [r_c]) + sol.t
    m_arr = array("d", [m_c]) + sol.y[0]
    w_arr = array("d", [w_c]) + sol.y[1]
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
                           classification=classification, rel_tol=rel_tol,
                           diagnostics=diagnostics, _dense=sol, _centre=centre)


def write_csv(path, header: str, rows) -> None:
    """CSV with numbers at 17 significant digits; strings pass through.

    The first row's column types fix one %-template for the whole file, so
    every row must hold a string where the first one does.
    """
    rows = iter(rows)
    first = next(rows, None)
    lines = [header]
    if first is not None:
        template = ",".join("%s" if isinstance(x, str) else "%.17g" for x in first)
        lines.append(template % tuple(first))
        lines += [template % tuple(row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_profile_csv(profile: SolutionProfile, path) -> None:
    """Deterministic five-column CSV of the step points."""
    s = profile.samples
    write_csv(path, "r,m,omega,rho,p_rad",
              zip(*(s[k] for k in ("r", "m", "omega", "rho", "p_rad"))))
