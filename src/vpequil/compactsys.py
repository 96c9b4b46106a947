"""Compactified autonomous formulation of the equilibrium equations.

The homology variables u = 4 pi r^3 rho / m and q = m / (r omega), together
with the potential omega, close into an autonomous cubic system once each is
mapped to (0,1) by x -> x/(1+x).  In the compact variables (U, Q, Omega) the
flow in the logarithmic time lambda is polynomial apart from the local
polytropic index n(omega) entering one coefficient, every face of the cube
is invariant, and the equilibria form four lines parametrised by Omega whose
transverse eigenvalues decide where solutions can begin and end.  Finiteness
of radius and mass translate into which invariant corner an orbit reaches.

`rhs_compact` and `jacobian_eigenvalues` use that polynomial (U, Q, Omega)
field, which they difference across the faces.  Orbits are integrated in
(log u, log q, log omega, xi) instead: the field divided by U (1 - U),
Q (1 - Q) and Omega (1 - Omega).  Near the corners and the lines of
equilibria U, 1 - Q and Omega decay exponentially in lambda, so their logs
move linearly and the steps stay long; u, q and omega stay positive, so no
sample leaves the cube, and a face is log u or log q = -+DBL_MAX, which
every step keeps.  The potential floor and ceiling are linear in log omega.
U, Q and Omega are formed on output, and the monitors from the logs, on
floats with `math`, so the orbit files do not depend on numpy's SIMD loops.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._ode import Events, Field, bind, dop853
from .distmodels import (
    DistributionModel,
    EvaluationError,
    Polytrope,
    density,
    eval_n,
)
from .physical import PhysicalState, SolutionProfile, density_scale

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

# absolute error floor of the four orbit components: O(1) logs that pass
# through 0 (xi starts there, log u at U = 1/2), where relative control stalls
_LOG_ATOL = 1e-14


@dataclass(frozen=True)
class CompactState:
    """A point of the open cube; U, Q may sit on their faces, Omega may not."""

    U: float
    Q: float
    Omega: float

    def __post_init__(self):
        if not 0.0 <= self.U <= 1.0:
            raise ValueError(f"U must lie in [0, 1], got {self.U}")
        if not 0.0 <= self.Q <= 1.0:
            raise ValueError(f"Q must lie in [0, 1], got {self.Q}")
        if not 0.0 < self.Omega < 1.0:
            raise ValueError(f"Omega must lie strictly inside (0, 1), got {self.Omega}")

    @property
    def omega(self) -> float:
        return self.Omega / (1.0 - self.Omega)


@dataclass(frozen=True)
class CompactSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-30
    lambda_max: float = 200.0


@dataclass(frozen=True)
class FixedLine:
    """One line of equilibria with its transverse eigenvalues."""

    name: str
    U: float
    Q: float
    eigenvalues: tuple
    kind: str


def _triple(state):
    if isinstance(state, CompactState):
        return state.U, state.Q, state.Omega
    return float(state[0]), float(state[1]), float(state[2])


# ------------------------------------------------------------- coordinates

def to_dimensionless(model: DistributionModel, state: PhysicalState):
    """Homology variables (u, q, omega) of a physical point."""
    if not state.omega > 0.0:
        raise ValueError("homology variables need omega > 0")
    rho = density(model, state.r, state.omega)
    u = 4.0 * math.pi * state.r ** 3 * rho / state.m
    q = state.m / (state.r * state.omega)
    return u, q, state.omega


def compactify(u: float, q: float, omega: float) -> CompactState:
    return CompactState(U=u / (1.0 + u), Q=q / (1.0 + q), Omega=omega / (1.0 + omega))


def from_compact(model: DistributionModel, state: CompactState) -> PhysicalState:
    """Invert the homology map; well defined off the faces."""
    u = state.U / (1.0 - state.U)
    q = state.Q / (1.0 - state.Q)
    omega = state.omega
    r = (u * q * omega / density_scale(model, omega)) ** (1.0 / (2.0 + 2.0 * model.l))
    return PhysicalState(r=r, m=q * r * omega, omega=omega)


def map_profile(model: DistributionModel, profile: SolutionProfile):
    """Compact coordinates of every step point of a physical profile."""
    s = profile.samples
    with np.errstate(divide="ignore"):
        u = 4.0 * math.pi * s["r"] ** 3 * s["rho"] / s["m"]
        q = s["m"] / (s["r"] * s["omega"])
    return u / (1.0 + u), q / (1.0 + q), s["omega"] / (1.0 + s["omega"])


# ------------------------------------------------------------ vector field

def _omega_cap(model: DistributionModel):
    """(x_hi, w_hi): omega is e^x below x_hi = log(w_hi), else w_hi, the end of
    phi or the largest double; e^x then neither overflows nor passes the end."""
    w_hi = model.family.energy_max
    if w_hi is None:
        w_hi = sys.float_info.max
    return math.log(w_hi), w_hi


# (lambda, [U, Q, x = log omega, xi]) -> the four derivatives; neither lambda
# nor xi is read, and n is multiplied by Q.  `rhs_compact` and the Jacobian
# difference this polynomial form across the faces; orbits integrate
# `_ORBIT_FIELD`
_FIELD = Field("_", ("U", "Q", "x", "_"), (
    "n = index(exp(x) if x < x_hi else w_hi) if Q != 0.0 else 0.0",
    "v = 1.0 - U",
    "p = 1.0 - Q",
    "return (U * v * (p * (a1 - a2 * U) - (n + l) * Q * v),"
    " Q * p * ((2.0 * U - 1.0) * p + Q * v), -Q * v, v * p)",
), ("l", "index", "a1", "a2", "x_hi", "w_hi", "exp"))


# the same flow in (log u, log q, x, xi): `_FIELD`'s dU and dQ divided by
# U (1 - U) and Q (1 - Q).  In v = 1 - U, p = 1 - Q (and a2 = 4 + 2l) it reads
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


def _compact_field(model: DistributionModel):
    """The polynomial compact field with the model's constants bound."""
    return bind(_FIELD, model.l, model._index, 3.0 + 2.0 * model.l, 4.0 + 2.0 * model.l,
                *_omega_cap(model), math.exp)


def _orbit_field(model: DistributionModel):
    """The field in (log u, log q, x, xi) with the model's constants bound: one
    closure per orbit, which `integrate_compact` hands to the integrator."""
    return bind(_ORBIT_FIELD, model.l, model._index, 4.0 + 2.0 * model.l,
                *_omega_cap(model), math.exp, math.tanh)


def _flow(field, state):
    """(dU, dQ, dOmega) of a bound compact field at (U, Q, Omega): the field at
    x = log(Omega/(1 - Omega)), with dOmega = Omega (1 - Omega) dx."""
    U, Q, Om = float(state[0]), float(state[1]), float(state[2])
    if not 0.0 < Om < 1.0:
        raise ValueError(f"Omega must lie strictly inside (0, 1), got {Om}")
    du, dq, dx, _ = field(0.0, (U, Q, math.log(Om / (1.0 - Om)), 0.0))
    return du, dq, Om * (1.0 - Om) * dx


def rhs_compact(model: DistributionModel, state):
    """Compact flow (dU, dQ, dOmega)/dlambda, as a tuple of floats.

    Accepts U, Q slightly off the faces (the field is polynomial in them),
    which finite-difference Jacobians rely on; Omega must stay interior.
    The reference field, for oracles and tests: `integrate_compact`
    integrates the same flow divided by U (1 - U) and Q (1 - Q).
    """
    return _flow(_compact_field(model), state)


def fixed_lines(l: float):
    """The four lines of equilibria with closed-form transverse spectra."""
    if not l > -1.0:
        raise ValueError(f"anisotropy exponent l must exceed -1, got {l}")
    u2 = (3.0 + 2.0 * l) / (4.0 + 2.0 * l)
    return [
        FixedLine("L1", 1.0, 0.0, (1.0, 1.0, 0.0), TRANSVERSELY_HYPERBOLIC_SOURCE),
        FixedLine("L2", u2, 0.0, (-u2, (1.0 + l) / (2.0 + l), 0.0),
                  TRANSVERSELY_HYPERBOLIC_SADDLE),
        FixedLine("L3", 0.0, 0.0, (3.0 + 2.0 * l, -1.0, 0.0),
                  TRANSVERSELY_HYPERBOLIC_SADDLE),
        FixedLine("L4", 1.0, 1.0, (0.0, 0.0, 0.0), DEGENERATE_TRIPLE_ZERO),
    ]


_JACOBIAN_STEP = 1e-6


def jacobian_eigenvalues(model: DistributionModel, state):
    """Eigenvalues of the linearised flow by central differences."""
    field = _compact_field(model)
    base = np.array(_triple(state))
    jac = np.empty((3, 3))
    for j in range(3):
        offset = np.zeros(3)
        offset[j] = _JACOBIAN_STEP
        hi = np.asarray(_flow(field, base + offset))
        lo = np.asarray(_flow(field, base - offset))
        jac[:, j] = (hi - lo) / (2.0 * _JACOBIAN_STEP)
    return np.linalg.eigvals(jac)


# ----------------------------------------------------------------- monitors
#
# Each monitor is computed point by point on floats with `math`, never by a
# numpy ufunc, so an orbit's monitor columns do not depend on the SIMD loops
# numpy picks for the CPU it runs on.

_LOG_MAX = math.log(sys.float_info.max)   # e^x is finite up to here


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
    """fn(U, Q) at a CompactState or a triple, or at each point of a pair of
    arrays such as (orbit.U, orbit.Q), as an array."""
    if isinstance(state, CompactState):
        return fn(float(state.U), float(state.Q))
    U, Q = np.asarray(state[0], dtype=float), np.asarray(state[1], dtype=float)
    if U.ndim == 0:
        return fn(U.item(), Q.item())
    return np.array([fn(u, q) for u, q in zip(U.tolist(), Q.tolist())])


def monitor_log_Z(state, l: float):
    """log Z = log u + (3 + 2l) log q, pointwise over a state or (U, Q) arrays."""
    return _pointwise(lambda U, Q: _log_Z(_log_ratio(U), _log_ratio(Q), l), state)


def monitor_Z(state, l: float):
    """Z = u q^(3+2l); strictly increasing wherever the flow expands mass."""
    return _pointwise(lambda U, Q: _exp(_log_Z(_log_ratio(U), _log_ratio(Q), l)), state)


def monitor_dZ(model: DistributionModel, state) -> float:
    """Exact lambda-derivative of Z along the flow."""
    U, Q, Om = _triple(state)
    l = model.l
    n = model._index(Om / (1.0 - Om))
    factor = 2.0 * (l + 1.0) * U * (1.0 - Q) + (3.0 + l - n) * Q * (1.0 - U)
    return factor * monitor_Z(state, l)


def monitor_Phi(state, l: float):
    """First integral of the flow when n(omega) is identically 5 + 3l:
    -(1/2) u^(1/(2+2l)) q^((3+2l)/(2+2l)) (1 - q - u/(3+2l))."""
    return _pointwise(lambda U, Q: _Phi(_log_ratio(U), _log_ratio(Q), l), state)


# -------------------------------------------------------------- trapped sets

def in_S1(state):
    """Region where Q is expanding.  Elementwise.

    On its boundary dS/dlambda has the sign of (3 + l - n) - U (4 - 2n), so
    S1 is future invariant while n(omega) <= 3 + l; beyond, an orbit can
    leave it near U = 0.
    """
    return _pointwise(_S1, state)


def in_S2(model: DistributionModel, state, omega_0: float | None = None) -> bool:
    """Q above every mass-shedding threshold reachable below omega_0."""
    U, Q, Om = _triple(state)
    l = model.l
    omega0 = omega_0 if omega_0 is not None else Om / (1.0 - Om)
    a = 3.0 + 2.0 * l
    ns = np.array([model._index(w) for w in np.geomspace(omega0 * 1e-10, omega0, 129)])
    return Q > max(0.5, float(np.max(a / (a + l + ns))))


def in_S3(state, l: float, eps: float, delta: float) -> bool:
    """Deep-potential wedge {u + eps q > 3 + 2l} inside {Q > 1 - delta}."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    if not eps >= 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    U, Q, _ = _triple(state)
    if not Q > 1.0 - delta:
        return False
    u = math.inf if U == 1.0 else U / (1.0 - U)
    q = math.inf if Q == 1.0 else Q / (1.0 - Q)
    return u + eps * q > 3.0 + 2.0 * l


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
        from scipy.interpolate import make_interp_spline   # loaded on first opt-in use

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

@dataclass
class CompactOrbit:
    """One integrated orbit with monitors and its asymptotic label.

    ``log_u`` and ``log_q`` are the integrated logs of the homology
    variables, -inf or +inf on a face; U, Q and the monitors are formed
    from them on floats.
    """

    model: DistributionModel
    initial: CompactState
    lam: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    Omega: np.ndarray
    xi: np.ndarray
    log_u: np.ndarray
    log_q: np.ndarray
    termination: str
    limit_label: str
    settings: CompactSettings
    diagnostics: dict = field(default_factory=dict)
    _dense: Callable = None

    def dense(self, lam: float) -> np.ndarray:
        """(U, Q, Omega, xi) anywhere on the integrated lambda range: the
        interpolant of the integrated (log u, log q, log omega, xi), with U,
        Q and Omega formed from the logs as at the step points."""
        lo = min(self.lam[0], self.lam[-1])
        hi = max(self.lam[0], self.lam[-1])
        if not lo <= lam <= hi:
            raise ValueError(f"lambda={lam:g} outside the integrated range [{lo:g}, {hi:g}]")
        return np.asarray(self._dense(lam))

    def _logs(self, fn):
        l = self.model.l
        return np.array([fn(a, b, l) for a, b in zip(self.log_u.tolist(), self.log_q.tolist())])

    @property
    def log_Z(self) -> np.ndarray:
        return self._logs(_log_Z)

    @property
    def Phi(self) -> np.ndarray:
        return self._logs(_Phi)

    @property
    def S1(self) -> np.ndarray:
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


def integrate_compact(model: DistributionModel, state0, settings: CompactSettings | None = None,
                      backward: bool = False) -> CompactOrbit:
    """Follow the compact flow from state0 until a corner, the potential floor,
    ceiling or end of phi, or the lambda budget; xi accumulates the log radius.
    DOP853 integrates (log u, log q, x = log omega, xi) on `_ORBIT_FIELD`
    with the events `_ORBIT_EVENTS`, both written into its generated step
    loop, and one absolute error floor for all four components."""
    st = settings or CompactSettings()
    if not st.lambda_max > 0.0:
        raise ValueError("lambda_max must be positive")
    if not (st.rel_tol > 0.0 and st.abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    x_hi, w_hi = _omega_cap(model)   # w_hi: where a tabulated phi ends, if it does
    ceiling = min(_OMEGA_CEILING, w_hi)
    s0 = state0 if isinstance(state0, CompactState) else CompactState(*_triple(state0))
    if not _OMEGA_FLOOR < s0.omega < ceiling:
        raise ValueError("initial state outside the (floor, ceiling) potential window")

    def Omega_of(x):
        w = math.exp(x) if x < x_hi else w_hi
        return w / (1.0 + w)

    events = bind(_ORBIT_EVENTS, math.log(_OMEGA_FLOOR), math.log(ceiling), _ATTRACTION_EPS,
                  x_hi, w_hi, math.exp, math.hypot, math.tanh)
    lam_end = -st.lambda_max if backward else st.lambda_max
    y0 = (_log_ratio(s0.U, _FACE), _log_ratio(s0.Q, _FACE), math.log(s0.omega), 0.0)
    sol = dop853(_orbit_field(model), 0.0, y0, lam_end, st.rel_tol,
                 max(st.abs_tol, _LOG_ATOL), events=events)

    def dense(lam):
        lu, lq, x, xi = sol(lam)
        return _logistic(lu), _logistic(lq), Omega_of(x), xi

    termination, label = _TERMINATIONS[sol.event]
    diagnostics = {
        "n_steps": sol.n_steps,
        "n_rejected": sol.n_rejected,
        "n_rhs_evals": sol.nfev,
    }
    lu, lq, x, _ = sol.y.tolist()
    return CompactOrbit(model=model, initial=s0, lam=sol.t,
                        U=np.fromiter(map(_logistic, lu), float),
                        Q=np.fromiter(map(_logistic, lq), float),
                        Omega=np.fromiter(map(Omega_of, x), float), xi=sol.y[3],
                        log_u=np.fromiter(map(_integrated_log, lu), float),
                        log_q=np.fromiter(map(_integrated_log, lq), float),
                        termination=termination, limit_label=label,
                        settings=st, diagnostics=diagnostics, _dense=dense)
