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
from collections import namedtuple

from ._ode import brentq
from .compactsys import CORNERS, to_dimensionless
from .distmodels import DistributionModel, EvaluationError, SettingError
from .physical import (
    FINITE_RADIUS,
    INFINITE_FINITE_MASS,
    SolutionProfile,
    _check_amplitude,
    _check_rel_tol,
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


class TheoremVerdict(namedtuple("TheoremVerdict", "theorem holds witness")):
    """Outcome of a finiteness check.

    ``holds`` is ``"Guaranteed"`` only when the theorem's condition held on
    the sampled interval including the variation bound; ``"Inconclusive"``
    covers every other outcome.  ``witness`` records what was checked.
    """

    __slots__ = ()


class SolutionLabels(namedtuple("SolutionLabels",
                                "classification forward_label backward_label mass_convergent")):
    __slots__ = ()


class SweepEntry(namedtuple("SweepEntry",
                            "omega_c radius total_mass classification limit_label")):
    __slots__ = ()


class SweepResult:
    """The entries of a sweep, its refined critical values, and its
    failures as (omega_c, message) pairs; each a new list by default."""

    def __init__(self, entries=(), critical_values=(), failures=()):
        self.entries, self.critical_values = list(entries), list(critical_values)
        self.failures = list(failures)


# ------------------------------------------------------------ index grids

def _linspace(start: float, stop: float, num: int) -> list:
    """numpy's ``linspace(start, stop, num)`` for num >= 2, to the bit while
    the step (stop - start)/(num - 1) is not 0: node i is i * step + start,
    and the last node is stop."""
    step = (stop - start) / (num - 1)
    nodes = [i * step + start for i in range(num)]
    nodes[-1] = stop
    return nodes


def _geomspace(start: float, stop: float, num: int) -> list:
    """numpy's ``geomspace(start, stop, num)`` for 0 < start and num >= 2:
    10.0 ** x over the linspace of the ends' log10, with both ends exact."""
    nodes = [10.0 ** x for x in _linspace(math.log10(start), math.log10(stop), num)]
    nodes[0], nodes[-1] = start, stop
    return nodes


def _grid_check(n_of, omega_hi: float, bound: float) -> dict:
    """Sample n(omega) on refining log grids over ten decades below omega_hi.

    The condition counts as verified when every node clears the bound by
    the slack, the per-cell excursion bound max(v_i, v_{i+1}) + |dv| does
    too, and the linear low-omega extrapolation confirms the trend.
    """
    lo = omega_hi * _SPAN_RATIO
    vals = None
    for level in _GRID_LEVELS:
        vals = [n_of(w) for w in _geomspace(lo, omega_hi, level)]
        nodes_ok = all(v <= bound - _SLACK for v in vals)
        cells_ok = all(max(a, b) + abs(b - a) <= bound - _SLACK
                       for a, b in zip(vals, vals[1:]))
        if not nodes_ok or cells_ok:
            break
    low_estimate = vals[0] - (vals[1] - vals[0])
    trend_ok = low_estimate <= bound - _SLACK
    return {
        "omega_interval": (lo, omega_hi),
        "sup_excess": max(vals) - bound,
        "grid_nodes": len(vals),
        "low_omega_estimate": low_estimate,
        "identically_critical": max(abs(v - bound) for v in vals) < 1e-9,
        "verified": nodes_ok and cells_ok and trend_ok,
    }


def check_theorem1(model: DistributionModel, omega_c: float) -> TheoremVerdict:
    """Finite radius and mass when n(omega) <= 3 + l up to omega_c."""
    _check_amplitude(model, "omega_c", omega_c, _SPAN_RATIO)
    bound = 3.0 + model.l
    report = _grid_check(model._index, omega_c, bound)
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
    _check_amplitude(model, "omega_c", omega_c, _SPAN_RATIO)
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

    Each point goes through `to_dimensionless` and x -> x/(1+x), with no
    `CompactState` range check (Omega rounds to 1 past omega = 2^53, where
    the backward label still holds).  A numerical failure maps a point to
    NaN, which matches no label; a programming error propagates.
    """
    ends = []
    for i in (0, -1):
        try:
            point = to_dimensionless(model, profile.r[i], profile.m[i], profile.omega[i])
            ends.append([x / (1.0 + x) for x in point])
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


def _bisect_transition(model, lo, hi, lo_is_finite, rel_tol, failures):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_REL_TOL * mid:
            break
        try:
            prof = integrate_physical(model, mid, rel_tol=rel_tol)
        except _SOLVE_ERRORS as exc:
            failures.append((mid, f"{type(exc).__name__}: {exc}"))
            return None
        if (prof.classification == FINITE_RADIUS) == lo_is_finite:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_spike(model, a, b, rel_tol, failures, threshold):
    """Golden-section style maximisation of R(omega_c) between the grid
    neighbours of a spike; the spike counts as critical only when the
    refined radius keeps growing past the detection threshold.  A failed
    probe is recorded at its own omega_c."""
    best, probe = -math.inf, None

    def radius_at(w):
        nonlocal best, probe
        probe = w
        prof = integrate_physical(model, w, rel_tol=rel_tol)
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
        failures.append((probe, f"{type(exc).__name__}: {exc}"))
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


def _find_critical_values(model, entries, rel_tol, failures):
    candidates = []
    for a, b in zip(entries, entries[1:]):
        fa = a.classification == FINITE_RADIUS
        fb = b.classification == FINITE_RADIUS
        if fa == fb:
            continue
        value = _bisect_transition(model, a.omega_c, b.omega_c, fa,
                                   rel_tol, failures)
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
                              entries[i + 1].omega_c, rel_tol,
                              failures, threshold=_SPIKE_FACTOR * med)
        if value is not None:
            candidates.append(value)

    merged = []
    for v in sorted(candidates):
        if not merged or abs(v - merged[-1]) > 1e-4 * v:
            merged.append(v)
    return merged


def _checked_grid(model: DistributionModel, omega_grid) -> list:
    """The grid as floats: non-empty, and each node a central amplitude of
    the model above the one before it, else a SettingError naming the
    first node at fault."""
    grid = [float(w) for w in omega_grid]
    if not grid:
        raise SettingError("omega_grid", "must not be empty")
    for i, w in enumerate(grid):
        _check_amplitude(model, f"omega_grid[{i}]", w)
        if i and not w > grid[i - 1]:
            raise SettingError(f"omega_grid[{i}]", f"= {w!r} must exceed "
                               f"omega_grid[{i - 1}] = {grid[i - 1]!r}")
    return grid


def sweep_omega_c(model: DistributionModel, omega_grid,
                  rel_tol: float = 1e-10) -> SweepResult:
    """Solve the equilibrium over a grid of central amplitudes.

    Each grid point and each refinement probe is one `integrate_physical`
    call with ``rel_tol``, which is checked before the first: a bad one
    raises, rather than fail every solve.  Individual failures are recorded
    and skipped, never fatal.  Adjacent finite/infinite pairs and confirmed radius spikes
    are refined into critical amplitude estimates by bisection to a relative
    width of ``_BISECT_REL_TOL``.
    """
    _check_rel_tol(rel_tol)
    grid = _checked_grid(model, omega_grid)
    entries, failures = [], []
    for w in grid:
        try:
            prof = integrate_physical(model, w, rel_tol=rel_tol)
        except _SOLVE_ERRORS as exc:
            failures.append((w, f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(SweepEntry(omega_c=w, radius=float(prof.radius),
                                  total_mass=float(prof.total_mass),
                                  classification=prof.classification,
                                  limit_label=_end_labels(model, prof)[0]))
    criticals = _find_critical_values(model, entries, rel_tol, failures)
    return SweepResult(entries=entries, critical_values=criticals,
                       failures=failures)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Deterministic five-column CSV of the sweep entries."""
    write_csv(path, "omega_c,R,M,class,label", result.entries)
