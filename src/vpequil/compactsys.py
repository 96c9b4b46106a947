"""Compactified autonomous formulation of the equilibrium equations.

The homology variables u = 4 pi r^3 rho / m and q = m / (r omega), together
with the potential omega, close into an autonomous cubic system once each is
mapped to (0,1) by x -> x/(1+x).  In the compact variables (U, Q, Omega) the
flow in the logarithmic time lambda is polynomial apart from the local
polytropic index n(omega) entering one coefficient, every face of the cube
is invariant, and the equilibria form four lines parametrised by Omega whose
transverse eigenvalues decide where solutions can begin and end.  Finiteness
of radius and mass translate into which invariant corner an orbit reaches.

Orbits are integrated in (log u, log q, log omega, xi): that field divided
by U (1 - U), Q (1 - Q) and Omega (1 - Omega).  Near the corners and the
lines of equilibria U, 1 - Q and Omega decay exponentially in lambda, so
their logs move linearly and the steps stay long; u, q and omega stay
positive, so no sample leaves the cube, and a face is log u or log q =
-+DBL_MAX, which every step keeps.  The potential floor and ceiling are linear in log omega.
U, Q and Omega are formed on output, and the monitors from the logs, on
floats with `math`, into ``array('d')`` columns.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple

from ._ode import Events, Field, bind, dop853
from .distmodels import (
    _LOG_MAX,
    DistributionModel,
    EvaluationError,
    Polytrope,
    SettingError,
    density,
    eval_n,
)
from .physical import _check_rel_tol

TRANSVERSELY_HYPERBOLIC_SOURCE = "TransverselyHyperbolicSource"
TRANSVERSELY_HYPERBOLIC_SADDLE = "TransverselyHyperbolicSaddle"
DEGENERATE_TRIPLE_ZERO = "DegenerateTripleZero"

VACUUM_CORNER = (0.0, 1.0, 0.0)      # finite-radius terminus
SINGULAR_CORNER = (1.0, 1.0, 0.0)    # self-similar singular terminus
# the corners an orbit can end at, with their limit labels
CORNERS = ((VACUUM_CORNER, "(0,1,0)"), (SINGULAR_CORNER, "(1,1,0)"))

# an orbit stops where omega leaves [floor, ceiling] (backward runs can blow
# the potential up) or within this distance of a corner
_OMEGA_FLOOR = 1e-12
_OMEGA_CEILING = 1e12
_ATTRACTION_EPS = 1e-4


class CompactState(namedtuple("CompactState", "U Q Omega")):
    """A point of the open cube; U, Q may sit on their faces, Omega may not."""

    __slots__ = ()

    def __new__(cls, U, Q, Omega):
        if not 0.0 <= U <= 1.0:
            raise ValueError(f"U must lie in [0, 1], got {U}")
        if not 0.0 <= Q <= 1.0:
            raise ValueError(f"Q must lie in [0, 1], got {Q}")
        if not 0.0 < Omega < 1.0:
            raise ValueError(f"Omega must lie strictly inside (0, 1), got {Omega}")
        return super().__new__(cls, U, Q, Omega)

    @property
    def omega(self) -> float:
        return self.Omega / (1.0 - self.Omega)


class FixedLine(namedtuple("FixedLine", "name U Q eigenvalues kind")):
    """One line of equilibria with its transverse eigenvalues."""

    __slots__ = ()


# ------------------------------------------------------------- coordinates

def to_dimensionless(model: DistributionModel, r: float, m: float, omega: float):
    """Homology variables (u, q, omega) of the physical point (r, m, omega);
    raises ValueError unless r > 0 (in `density`), m >= 0 and omega > 0."""
    if m < 0.0:
        raise ValueError(f"enclosed mass must be non-negative, got {m}")
    if not omega > 0.0:
        raise ValueError("homology variables need omega > 0")
    rho = density(model, r, omega)
    # r rho first: near l = -1 a centre sample's r ** 3 underflows, r ** (1 + 2l) not
    u = 4.0 * math.pi * (rho * r) * r * r / m
    q = m / (r * omega)
    return u, q, omega


# ------------------------------------------------------------ vector field

def _omega_cap(model: DistributionModel):
    """(x_hi, w_hi): omega is e^x below x_hi = log(w_hi), else w_hi, the end of
    phi or the largest double; e^x then neither overflows nor passes the end."""
    w_hi = model.family.energy_max
    if w_hi is None:
        w_hi = sys.float_info.max
    return math.log(w_hi), w_hi


# (lambda, [log u, log q, x = log omega, xi]) -> the four derivatives.  In
# v = 1 - U, p = 1 - Q and a2 = 4 + 2l the polynomial field is
#   dU = U v (p (3 + 2l - a2 U) - (n + l) Q v),  dQ = Q p ((2U - 1) p + Q v),
# dx = -Q v and dxi = v p; divided by U v and Q p it reads
#   d log u = (a2 + n + l) p v - p - (n + l) v,  d log q = p + v - 3 p v,
# dx = p v - v and dxi = p v: sums of terms of order one, so v and p need
# only absolute accuracy, which 1/2 - tanh(log(u)/2)/2 gives without
# overflow, exactly 0 or 1 on a face.  n is read at every stage, Q = 0 too
# (a branch around it in each of the 12 stages adds 40 kB to the compile peak)
_ORBIT_FIELD = Field("_", ("lu", "lq", "x", "_"), (
    "v = 0.5 - 0.5 * tanh(0.5 * lu)",
    "p = 0.5 - 0.5 * tanh(0.5 * lq)",
    "nl = index(exp(x) if x < x_hi else w_hi) + l",
    "pv = p * v",
    "return (a2 * pv - p + nl * (pv - v), p + v - 3.0 * pv, pv - v, pv)",
), ("l", "index", "a2", "x_hi", "w_hi", "exp", "tanh"))


# the terminal events of an orbit, in the order of `_TERMINATIONS`: x falls
# through the floor, (U, Q, Omega) = (1 - v, 1 - p, Omega) comes within the
# attraction radius of a corner, x rises through the roof
_ORBIT_EVENTS = Events("_", ("lu", "lq", "x", "_"), (
    "v = 0.5 - 0.5 * tanh(0.5 * lu)",
    "p = 0.5 - 0.5 * tanh(0.5 * lq)",
    "w = exp(x) if x < x_hi else w_hi",
    "Om = w / (1.0 + w)",
    "return (x - x_floor, "
    + "".join(f"hypot({1.0 - c[0]!r} - v, {1.0 - c[1]!r} - p, Om - {c[2]!r}) - eps, "
              for c, _ in CORNERS)
    + "x - x_roof)",
), ("x_floor", "x_roof", "eps", "x_hi", "w_hi", "exp", "hypot", "tanh"),
    (-1, *(-1 for _ in CORNERS), 1))


def _orbit_field(model: DistributionModel):
    """The field in (log u, log q, x, xi) with the model's constants bound: one
    closure per orbit, which `integrate_compact` hands to the integrator."""
    return bind(_ORBIT_FIELD, model.l, model._index, 4.0 + 2.0 * model.l,
                *_omega_cap(model), math.exp, math.tanh)


def fixed_lines(l: float):
    """The four lines of equilibria with closed-form transverse spectra, for
    the l of a model (which checks l > -1)."""
    u2 = (3.0 + 2.0 * l) / (4.0 + 2.0 * l)
    return [
        FixedLine("L1", 1.0, 0.0, (1.0, 1.0, 0.0), TRANSVERSELY_HYPERBOLIC_SOURCE),
        FixedLine("L2", u2, 0.0, (-u2, (1.0 + l) / (2.0 + l), 0.0),
                  TRANSVERSELY_HYPERBOLIC_SADDLE),
        FixedLine("L3", 0.0, 0.0, (3.0 + 2.0 * l, -1.0, 0.0),
                  TRANSVERSELY_HYPERBOLIC_SADDLE),
        FixedLine("L4", 1.0, 1.0, (0.0, 0.0, 0.0), DEGENERATE_TRIPLE_ZERO),
    ]


# ----------------------------------------------------------------- monitors

def _exp(x: float) -> float:
    """e^x, +inf past the largest double; nan stays nan."""
    return math.inf if x > _LOG_MAX else math.exp(x)


def _log_ratio(x: float, face: float = math.inf) -> float:
    """log(x/(1-x)): log u of U, log q of Q; -face at 0 and +face at 1."""
    if x == 0.0:
        return -face
    if x == 1.0:
        return face
    return math.log(x / (1.0 - x))


def _logistic(v: float) -> float:
    """e^v/(1 + e^v), the inverse of `_log_ratio`, without overflow: U of
    log u, Q of log q; exactly 0 below about -745 and 1 above about 37."""
    if v < 0.0:
        e = math.exp(v)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(-v))


def _log_Z(lu: float, lq: float, l: float) -> float:
    return lu + (3.0 + 2.0 * l) * lq


def _Phi(lu: float, lq: float, l: float) -> float:
    return (-0.5 * _exp(_log_Z(lu, lq, l) / (2.0 + 2.0 * l))
            * (1.0 - _exp(lq) - _exp(lu) / (3.0 + 2.0 * l)))


def _S1(U: float, Q: float) -> bool:
    return (2.0 * U - 1.0) * (1.0 - Q) + Q * (1.0 - U) > 0.0


def _pointwise(fn, state):
    """fn(U, Q) at a CompactState or a triple of numbers, or a list of fn at
    each point of a pair of sequences such as (orbit.U, orbit.Q)."""
    if isinstance(state, CompactState):
        return fn(float(state.U), float(state.Q))
    try:
        points = zip(state[0], state[1])
    except TypeError:   # one point
        return fn(float(state[0]), float(state[1]))
    return [fn(float(u), float(q)) for u, q in points]


# -------------------------------------------------------------- trapped sets

def in_S1(state):
    """Region where Q is expanding: a bool, or a list of them over sequences.

    On its boundary dS/dlambda has the sign of (3 + l - n) - U (4 - 2n), so
    S1 is future invariant while n(omega) <= 3 + l; beyond, an orbit can
    leave it near U = 0.
    """
    return _pointwise(_S1, state)


# ---------------------------------------------------------- index memoisation

class PolytropicIndexTable:
    """Certified spline memo of n(omega) on a log grid.

    The grid is refined dyadically until the spline built on the coarser
    level matches `eval_n` at all midpoints to `tol`; the final spline keeps
    the midpoints as extra nodes.  A grid that reaches `max_nodes`
    uncertified raises EvaluationError.  Queries off the range fall back to
    `eval_n`, and a polytrope's table collapses to its constant index n.
    No flow or monitor reads a table: they call the model's bound index,
    which is already a few float operations.  Any other family builds its
    spline with scipy, loaded on first use: that needs the `test` extra.
    It stays in the package, with its numpy import beside that of scipy,
    because the benchmark's tracer (``perfbench/tracing.py``) patches its
    ``__init__``.
    """

    def __init__(self, model: DistributionModel, omega_lo: float, omega_hi: float,
                 tol: float = 1e-9, max_nodes: int = 4097):
        if not 0.0 < omega_lo < omega_hi:
            raise ValueError("need 0 < omega_lo < omega_hi")
        self.model = model
        self.omega_lo = omega_lo
        self.omega_hi = omega_hi
        self.tol = tol
        self._const = model.family.n if isinstance(model.family, Polytrope) else None
        if self._const is not None:
            self._spline = None
            self.certified_error = 0.0
            self.n_nodes = 0
            return
        import numpy as np   # loaded on first opt-in use, as scipy is
        from scipy.interpolate import make_interp_spline

        x = np.linspace(math.log(omega_lo), math.log(omega_hi), 65)
        v = np.array([eval_n(model, math.exp(t)) for t in x])
        while True:
            mids = 0.5 * (x[:-1] + x[1:])
            mv = np.array([eval_n(model, math.exp(t)) for t in mids])
            err = float(np.max(np.abs(make_interp_spline(x, v, k=5)(mids) - mv)))
            merged_x = np.empty(x.size + mids.size)
            merged_x[0::2], merged_x[1::2] = x, mids
            merged_v = np.empty_like(merged_x)
            merged_v[0::2], merged_v[1::2] = v, mv
            x, v = merged_x, merged_v
            if err <= tol:
                break
            if x.size >= max_nodes:
                raise EvaluationError(
                    f"index table reached {x.size} nodes with error {err:.2e} "
                    f"above tol={tol:g}")
        self._spline = make_interp_spline(x, v, k=5)
        self.certified_error = err
        self.n_nodes = int(x.size)

    def __call__(self, omega: float) -> float:
        if self._const is not None:
            return self._const
        if self.omega_lo <= omega <= self.omega_hi:
            return float(self._spline(math.log(omega)))
        return eval_n(self.model, omega)


# ------------------------------------------------------------------- orbits

class CompactOrbit:
    """One integrated orbit with monitors and its asymptotic label.

    ``log_u`` and ``log_q`` are the integrated logs of the homology
    variables, -inf or +inf on a face; U, Q and the monitors are formed
    from them on floats.  Each column is an ``array('d')``, which
    ``np.asarray`` views as a numpy array; ``S1`` is a list of bools.
    ``_dense`` is lambda -> (U, Q, Omega, xi), which `dense` range-checks.
    """

    def __init__(self, model, initial, lam, U, Q, Omega, xi, log_u, log_q, termination,
                 limit_label, rel_tol, diagnostics=None, _dense=None):
        self.model, self.initial, self.lam = model, initial, lam
        self.U, self.Q, self.Omega, self.xi, self.log_u, self.log_q = U, Q, Omega, xi, log_u, log_q
        self.termination, self.limit_label, self.rel_tol = termination, limit_label, rel_tol
        self.diagnostics, self._dense = {} if diagnostics is None else diagnostics, _dense

    def dense(self, lam: float) -> tuple:
        """(U, Q, Omega, xi) anywhere on the integrated lambda range: the
        interpolant of the integrated (log u, log q, log omega, xi), with U,
        Q and Omega formed from the logs as at the step points."""
        lo = min(self.lam[0], self.lam[-1])
        hi = max(self.lam[0], self.lam[-1])
        if not lo <= lam <= hi:
            raise ValueError(f"lambda={lam:g} outside the integrated range [{lo:g}, {hi:g}]")
        return self._dense(lam)

    def _logs(self, fn):
        l = self.model.l
        return array("d", [fn(a, b, l) for a, b in zip(self.log_u, self.log_q)])

    @property
    def log_Z(self) -> array:
        return self._logs(_log_Z)

    @property
    def Phi(self) -> array:
        return self._logs(_Phi)

    @property
    def S1(self) -> list:
        return in_S1((self.U, self.Q))


# (termination, limit label) by the index of the terminal event that fired:
# the floor, the corners in order, the ceiling
_TERMINATIONS = {
    0: ("omega-floor", "unresolved"),
    **{i: (f"corner-{label}", label) for i, (_, label) in enumerate(CORNERS, 1)},
    len(CORNERS) + 1: ("omega-ceiling", "unresolved"),
    None: ("lambda-max", "unresolved"),
}

# log u or log q of a start on a face: +-DBL_MAX stays put under every step
# (its spacing is 2^971), tanh(DBL_MAX/2) is exactly 1, and its error scale
# rtol * DBL_MAX takes it out of the step-size control
_FACE = sys.float_info.max


def _integrated_log(v: float) -> float:
    """A face's +-DBL_MAX as the +-inf it stands for."""
    return math.copysign(math.inf, v) if abs(v) == _FACE else v


def _check_start(model: DistributionModel, state: CompactState, key: str = "state0") -> float:
    """The ceiling of an orbit: _OMEGA_CEILING, or the end of a tabulated phi
    below it.  A start outside (_OMEGA_FLOOR, ceiling) would stop where it
    starts: it is refused, naming ``key``."""
    end = _omega_cap(model)[1]
    ceiling, omega = min(_OMEGA_CEILING, end), state.omega
    if not _OMEGA_FLOOR < omega < ceiling:
        raise SettingError(key, f"omega = {omega:g} lies " + (
            f"at or past the end of the tabulated phi grid (E = {end:g})" if omega >= end
            else f"outside the potential window ({_OMEGA_FLOOR:g}, {ceiling:g})"))
    return ceiling


def _check_lambda_max(lambda_max: float):
    """Name lambda_max if it is not positive."""
    if not lambda_max > 0.0:
        raise SettingError("lambda_max", f"must be positive, got {lambda_max!r}")


def integrate_compact(model: DistributionModel, state0: CompactState, rel_tol: float = 1e-10,
                      lambda_max: float = 200.0, backward: bool = False) -> CompactOrbit:
    """Follow the compact flow from state0 until a corner, the potential floor,
    ceiling or end of phi, or the lambda budget; xi accumulates the log radius.
    DOP853 integrates (log u, log q, x = log omega, xi) on `_ORBIT_FIELD`
    with the events `_ORBIT_EVENTS`, both written into its generated step
    loop.  Each step holds every component y to rel_tol (1 + |y|/4): u, q,
    omega and r to relative accuracy rel_tol while their logs stay near 0,
    and the tolerance widens only slowly as an orbit runs deep into a
    corner."""
    _check_rel_tol(rel_tol)
    _check_lambda_max(lambda_max)
    x_hi, w_hi = _omega_cap(model)   # w_hi: where a tabulated phi ends, if it does
    ceiling = _check_start(model, state0)

    def Omega_of(x):
        w = math.exp(x) if x < x_hi else w_hi
        return w / (1.0 + w)

    events = bind(_ORBIT_EVENTS, math.log(_OMEGA_FLOOR), math.log(ceiling), _ATTRACTION_EPS,
                  x_hi, w_hi, math.exp, math.hypot, math.tanh)
    lam_end = -lambda_max if backward else lambda_max
    y0 = (_log_ratio(state0.U, _FACE), _log_ratio(state0.Q, _FACE), math.log(state0.omega),
          0.0)
    # the relative part is a quarter of rel_tol: the whole of it lets a log
    # of 30 drift by 31 rel_tol a step, and a Wilson orbit creeping into
    # (0,1,0) ends 2.7e-8 off in lambda; none costs backward orbits near
    # U = 1/100 10% more steps, a quarter 5%
    sol = dop853(_orbit_field(model), 0.0, y0, lam_end, 0.25 * rel_tol, rel_tol,
                 events=events)

    def dense(lam):
        lu, lq, x, xi = sol(lam)
        return _logistic(lu), _logistic(lq), Omega_of(x), xi

    termination, label = _TERMINATIONS[sol.event]
    diagnostics = {
        "n_steps": sol.n_steps,
        "n_rejected": sol.n_rejected,
        "n_rhs_evals": sol.nfev,
    }
    lu, lq, x, xi = sol.y
    return CompactOrbit(model=model, initial=state0, lam=sol.t,
                        U=array("d", map(_logistic, lu)),
                        Q=array("d", map(_logistic, lq)),
                        Omega=array("d", map(Omega_of, x)), xi=xi,
                        log_u=array("d", map(_integrated_log, lu)),
                        log_q=array("d", map(_integrated_log, lq)),
                        termination=termination, limit_label=label,
                        rel_tol=rel_tol, diagnostics=diagnostics, _dense=dense)
