"""Finiteness criteria, critical amplitudes, and parameter sweeps.

Two sufficient conditions tie the polytropic index ``n(omega)`` to the
global behaviour of an equilibrium:

* T1 — if ``n(omega) <= 3 + l`` for all potentials up to the central value,
  the solution has finite radius and finite mass.
* T2 — if the central value stays below the critical amplitude where
  ``n(omega)`` first exceeds ``5 + 3l`` (and the index is not identically
  critical near zero), the same conclusion holds.

Both checks are numerical verifications on refining grids, not proofs: a
``Guaranteed`` verdict means every sampled value passed with slack and the
observed cell-to-cell variation bounds the possible excursion between
samples.  Anything else is reported as ``Inconclusive``, never as a
refutation.

A solved profile is labelled from its first and last step points alone:
whether its compact orbit starts on the line L2 of regular centres, and
which corner it ends at ((0,1,0) for finite radius and mass).

The sweep driver maps a grid of central amplitudes to radii and masses,
flags finite/infinite transitions and isolated radius spikes, and refines
each candidate critical amplitude by bisection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._ode import brentq
from .compactsys import (
    CORNERS,
    CompactSettings,
    compactify,
    integrate_compact,
    to_dimensionless,
)
from .distmodels import DistributionModel, EvaluationError
from .physical import (
    FINITE_RADIUS,
    INFINITE_FINITE_MASS,
    PhysicalState,
    SolutionProfile,
    SolveSettings,
    integrate_physical,
    write_csv,
)

GUARANTEED = "Guaranteed"
INCONCLUSIVE = "Inconclusive"

# a sampled index value must clear the bound by at least this margin
_SLACK = 1e-9
# grid sizes tried while the per-cell variation bound still fails
_GRID_LEVELS = (65, 129, 257, 513, 1025)
# the checked interval reaches down ten decades below its top
_SPAN_RATIO = 1e-10


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of a finiteness check.

    ``holds`` is ``"Guaranteed"`` only when the hypothesis was verified on
    the sampled interval including the variation bound; ``"Inconclusive"``
    covers every other outcome.  ``witness`` records what was checked.
    """

    theorem: str
    holds: str
    witness: dict


@dataclass(frozen=True)
class SolutionLabels:
    classification: str
    forward_label: str
    backward_label: str
    mass_convergent: bool


@dataclass(frozen=True)
class SweepEntry:
    omega_c: float
    radius: float
    total_mass: float
    classification: str
    limit_label: str


@dataclass
class SweepResult:
    entries: list = field(default_factory=list)
    critical_values: list = field(default_factory=list)
    failures: list = field(default_factory=list)


# ------------------------------------------------------------ index grids

def _grid_check(n_of, omega_hi: float, bound: float) -> dict:
    """Sample n(omega) on refining log grids over ten decades below omega_hi.

    The hypothesis counts as verified when every node clears the bound by
    the slack, the per-cell excursion bound max(v_i, v_{i+1}) + |dv| does
    too, and the linear low-omega extrapolation confirms the trend.
    """
    lo = omega_hi * _SPAN_RATIO
    vals = None
    for level in _GRID_LEVELS:
        omegas = np.geomspace(lo, omega_hi, level)
        vals = np.array([float(n_of(w)) for w in omegas])
        nodes_ok = bool(np.all(vals <= bound - _SLACK))
        cell_bound = np.maximum(vals[:-1], vals[1:]) + np.abs(np.diff(vals))
        cells_ok = bool(np.all(cell_bound <= bound - _SLACK))
        if not nodes_ok or cells_ok:
            break
    low_estimate = float(vals[0] - (vals[1] - vals[0]))
    trend_ok = low_estimate <= bound - _SLACK
    return {
        "omega_interval": (lo, omega_hi),
        "sup_excess": float(np.max(vals) - bound),
        "grid_nodes": int(len(vals)),
        "low_omega_estimate": low_estimate,
        "identically_critical": bool(np.max(np.abs(vals - bound)) < 1e-9),
        "verified": nodes_ok and cells_ok and trend_ok,
    }


def check_theorem1(model: DistributionModel, omega_0: float) -> TheoremVerdict:
    """Finite radius and mass when n(omega) <= 3 + l up to omega_0."""
    if not omega_0 > 0.0:
        raise ValueError(f"omega_0 must be positive, got {omega_0!r}")
    bound = 3.0 + model.l
    report = _grid_check(model._index, omega_0, bound)
    holds = GUARANTEED if report.pop("verified") else INCONCLUSIVE
    report["bound"] = bound
    return TheoremVerdict(theorem="T1", holds=holds, witness=report)


# ------------------------------------------------------- critical amplitude

def omega_crit(model: DistributionModel) -> float:
    """Largest amplitude below which n(omega) stays under 5 + 3l.

    The index is scanned at omega = 1e-10 * 2^k up to 1e12 (74 probes),
    or up to the last point where it can be evaluated, such as the end of
    a tabulated grid.  Returns ``math.inf`` when the index never exceeds
    the bound on the scan, and ``0.0`` when it exceeds the bound for every
    positive amplitude, so no nontrivial range exists.  A multi-crossing
    index triggers a RuntimeWarning and the largest crossing is returned.
    """
    bound = 5.0 + 3.0 * model.l
    n_of = model._index
    omegas, excess = [], []
    w = 1e-10
    while w <= 1e12:
        # the bound indices of the built-in families stay finite up to 1e12;
        # a tabulated grid's end ends the scan early
        try:
            val = float(n_of(w))
        except (EvaluationError, OverflowError, ValueError):
            break
        if not math.isfinite(val):
            break
        omegas.append(w)
        excess.append(val - bound)
        w *= 2.0
    if len(omegas) < 2:
        raise EvaluationError("polytropic index could not be scanned")

    ups = [i for i in range(len(excess) - 1)
           if excess[i] <= 0.0 < excess[i + 1]]
    if not ups:
        if excess[-1] <= 0.0:
            return math.inf
        return 0.0
    if len(ups) > 1:
        warnings.warn("index crosses the critical bound more than once; "
                      "returning the largest crossing", RuntimeWarning,
                      stacklevel=2)
    i = ups[-1]
    oc = brentq(lambda x: float(n_of(x)) - bound, omegas[i], omegas[i + 1])
    if abs(float(n_of(oc)) - bound) > 1e-8:
        raise EvaluationError("root refinement of the critical amplitude "
                              "did not converge")
    return float(oc)


def check_theorem2(model: DistributionModel, omega_c: float) -> TheoremVerdict:
    """Finite radius and mass when omega_c <= omega_crit and the index
    stays strictly below 5 + 3l at small amplitudes."""
    if not omega_c > 0.0:
        raise ValueError(f"omega_c must be positive, got {omega_c!r}")
    bound = 5.0 + 3.0 * model.l
    oc = omega_crit(model)
    witness = {"omega_c": omega_c, "omega_crit": oc, "bound": bound}
    if not omega_c <= oc:
        return TheoremVerdict(theorem="T2", holds=INCONCLUSIVE, witness=witness)
    report = _grid_check(model._index, omega_c, bound)
    verified = report.pop("verified") and not report["identically_critical"]
    witness.update(report)
    holds = GUARANTEED if verified else INCONCLUSIVE
    return TheoremVerdict(theorem="T2", holds=holds, witness=witness)


# ------------------------------------------------------------ classification

_CORNER_RADIUS = 0.05


def _end_labels(model: DistributionModel, profile) -> tuple:
    """(forward, backward) labels from the first and last step points.

    Each point goes through `to_dimensionless` and x -> x/(1+x), the floats
    of `compactify` without its range check (Omega rounds to 1 past
    omega = 2^53, where the backward label still holds).  A numerical
    failure maps a point to NaN, which matches no label; a programming
    error propagates.
    """
    ends = []
    for i in (0, -1):
        try:
            state = PhysicalState(r=float(profile.r[i]), m=float(profile.m[i]),
                                  omega=float(profile.omega[i]))
            ends.append([x / (1.0 + x) for x in to_dimensionless(model, state)])
        except _SOLVE_ERRORS:
            ends.append([math.nan] * 3)
    (U0, Q0, _), last = ends
    forward = next((label for corner, label in CORNERS
                    if math.dist(last, corner) < _CORNER_RADIUS), "unresolved")
    u_center = (3.0 + 2.0 * model.l) / (4.0 + 2.0 * model.l)
    backward = ("L2" if abs(U0 - u_center) < _CORNER_RADIUS and Q0 < _CORNER_RADIUS
                else "unresolved")
    return forward, backward


def classify_solution(model: DistributionModel, profile: SolutionProfile) -> SolutionLabels:
    """Label a solved profile by the two ends of its compact orbit.

    The forward label names the corner the last step point has reached:
    ``"(0,1,0)"`` (vacuum: finite radius and mass) or ``"(1,1,0)"``.  The
    backward label is ``"L2"`` when the first step point sits on the line
    of regular centres.  Anything else is ``"unresolved"``.
    """
    forward, backward = _end_labels(model, profile)
    kind = profile.classification
    return SolutionLabels(classification=kind, forward_label=forward, backward_label=backward,
                          mass_convergent=kind in (FINITE_RADIUS, INFINITE_FINITE_MASS))


# ------------------------------------------------------------------- sweeps

_SPIKE_FACTOR = 1e3
# relative width at which the refinement of a critical amplitude stops
_BISECT_REL_TOL = 1e-6
# numerical failures a sweep records and skips; programming errors such as
# TypeError or AttributeError propagate
_SOLVE_ERRORS = (ArithmeticError, RuntimeError, ValueError)


def _bisect_transition(model, lo, hi, lo_is_finite, settings, failures):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_REL_TOL * mid:
            break
        try:
            prof = integrate_physical(model, mid, settings=settings)
        except _SOLVE_ERRORS as exc:
            failures.append((mid, f"{type(exc).__name__}: {exc}"))
            return None
        if (prof.classification == FINITE_RADIUS) == lo_is_finite:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_spike(model, a, b, settings, failures, threshold):
    """Golden-section style maximisation of R(omega_c) between the grid
    neighbours of a spike; the spike counts as critical only when the
    refined radius keeps growing past the detection threshold."""
    best = -math.inf

    def radius_at(w):
        nonlocal best
        prof = integrate_physical(model, w, settings=settings)
        r = float(prof.radius)
        if prof.classification != FINITE_RADIUS:
            r = math.inf
        best = max(best, r)
        return r

    try:
        while b - a > _BISECT_REL_TOL * 0.5 * (a + b):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if radius_at(m1) < radius_at(m2):
                a = m1
            else:
                b = m2
    except _SOLVE_ERRORS as exc:
        failures.append((0.5 * (a + b), f"{type(exc).__name__}: {exc}"))
        return None
    if best > threshold:
        return 0.5 * (a + b)
    return None


def _median(values):
    """The median of values, as statistics.median takes it: the middle item
    of the sorted values, or the mean of the two middle ones."""
    s = sorted(values)
    half = len(s) // 2
    return s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2


def _find_critical_values(model, entries, settings, failures):
    candidates = []
    for a, b in zip(entries, entries[1:]):
        fa = a.classification == FINITE_RADIUS
        fb = b.classification == FINITE_RADIUS
        if fa == fb:
            continue
        value = _bisect_transition(model, a.omega_c, b.omega_c, fa,
                                   settings, failures)
        if value is not None:
            candidates.append(value)

    for i in range(1, len(entries) - 1):
        e = entries[i]
        if e.classification != FINITE_RADIUS or not math.isfinite(e.radius):
            continue
        window = entries[max(0, i - 2):i] + entries[i + 1:i + 3]
        neighbours = [x.radius for x in window
                      if x.classification == FINITE_RADIUS
                      and math.isfinite(x.radius)]
        if len(neighbours) < 2:
            continue
        med = _median(neighbours)
        if not e.radius > _SPIKE_FACTOR * med:
            continue
        value = _refine_spike(model, entries[i - 1].omega_c,
                              entries[i + 1].omega_c, settings,
                              failures, threshold=_SPIKE_FACTOR * med)
        if value is not None:
            candidates.append(value)

    merged = []
    for v in sorted(candidates):
        if not merged or abs(v - merged[-1]) > 1e-4 * v:
            merged.append(v)
    return merged


def sweep_omega_c(model: DistributionModel, omega_grid,
                  settings: SolveSettings | None = None) -> SweepResult:
    """Solve the equilibrium over a grid of central amplitudes.

    Each grid point and each refinement probe is one `integrate_physical`
    call with ``settings``.  Individual failures are recorded and skipped,
    never fatal.  Adjacent finite/infinite pairs and confirmed radius spikes
    are refined into critical amplitude estimates by bisection to a relative
    width of ``_BISECT_REL_TOL``.
    """
    grid = [float(w) for w in omega_grid]
    if not grid:
        raise ValueError("omega_c grid is empty")
    if any(w <= 0.0 for w in grid):
        raise ValueError("omega_c values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("omega_c grid must be strictly increasing")

    entries, failures = [], []
    for w in grid:
        try:
            prof = integrate_physical(model, w, settings=settings)
        except _SOLVE_ERRORS as exc:
            failures.append((w, f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(SweepEntry(omega_c=w, radius=float(prof.radius),
                                  total_mass=float(prof.total_mass),
                                  classification=prof.classification,
                                  limit_label=_end_labels(model, prof)[0]))
    criticals = _find_critical_values(model, entries, settings, failures)
    return SweepResult(entries=entries, critical_values=criticals,
                       failures=failures)


def write_sweep_csv(result: SweepResult, path, precision: int = 17) -> None:
    """Deterministic five-column CSV of the sweep entries."""
    write_csv(path, "omega_c,R,M,class,label",
              [(e.omega_c, e.radius, e.total_mass, e.classification, e.limit_label)
               for e in result.entries], precision)


# ------------------------------------------------- representation matching

def compare_representations(model: DistributionModel, profile: SolutionProfile,
                            n_points: int = 100) -> dict:
    """Componentwise mismatch between the solved profile and one compact
    orbit started from it, at log-spaced radii inside the solved window.

    Matching uses the carried logarithmic radius: each target radius is
    located on the orbit by root finding, and the orbit point is compared
    with the compactified profile point.
    """
    if profile is None:
        raise ValueError("a solved profile is required")
    r0 = float(profile.r[0])
    r_end = profile.radius if math.isfinite(profile.radius) else float(profile.r[-1])
    r_lo = 1.5 * r0
    r_hi = 0.99 * r_end
    if not r_hi > r_lo:
        raise ValueError("profile window too narrow to compare")
    radii = np.geomspace(r_lo, r_hi, n_points)

    m_lo, w_lo = profile.dense(r_lo)
    start = compactify(*to_dimensionless(
        model, PhysicalState(r=r_lo, m=m_lo, omega=w_lo)))
    orbit = integrate_compact(model, start, CompactSettings())
    lam_a, lam_b = float(orbit.lam[0]), float(orbit.lam[-1])
    targets = np.log(radii / r_lo)
    if targets[-1] > float(orbit.xi[-1]) + 1e-12:
        raise EvaluationError("compact orbit terminated before covering the "
                              "comparison window")

    errors = np.empty(n_points)
    for i, (r, xi_t) in enumerate(zip(radii, targets)):
        if xi_t <= float(orbit.xi[0]):
            lam_t = lam_a
        else:
            lam_t = brentq(lambda s: orbit.dense(s)[3] - xi_t, lam_a, lam_b)
        point = orbit.dense(lam_t)
        m_r, w_r = profile.dense(float(r))
        cp = compactify(*to_dimensionless(
            model, PhysicalState(r=float(r), m=m_r, omega=w_r)))
        errors[i] = max(abs(point[0] - cp.U), abs(point[1] - cp.Q),
                        abs(point[2] - cp.Omega))
    return {"n_points": int(n_points), "radii": radii, "errors": errors,
            "max_abs_error": float(errors.max())}
