"""Compactified autonomous formulation of the equilibrium equations.

The homology variables u = 4 pi r^3 rho / m and q = m / (r omega), together
with the potential omega, close into an autonomous cubic system once each is
mapped to (0,1) by x -> x/(1+x).  In the compact variables (U, Q, Omega) the
flow in the logarithmic time lambda is polynomial apart from the local
polytropic index n(omega) entering one coefficient, every face of the cube
is invariant, and the equilibria form four lines parametrised by Omega whose
transverse eigenvalues decide where solutions can begin and end.  Finiteness
of radius and mass translate into which invariant corner an orbit reaches.

Orbits are integrated in (U, Q, log omega, xi): dOmega/dlambda factorises as
-Omega (1 - Omega) Q (1 - U), so log omega has the clamp-free rate -Q (1 - U)
and the potential floor and ceiling are linear in it.  Omega = omega/(1 +
omega) is formed on output; `rhs_compact` is the (U, Q, Omega) field.
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

# absolute error floor of log omega and xi: O(1) logs that pass through 0
# (xi starts there, log omega at Omega = 1/2), where relative control stalls
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
# nor xi is read, and n is multiplied by Q
_FIELD = Field("_", ("U", "Q", "x", "_"), (
    "n = index(exp(x) if x < x_hi else w_hi) if Q != 0.0 else 0.0",
    "v = 1.0 - U",
    "p = 1.0 - Q",
    "return (U * v * (p * (a1 - a2 * U) - (n + l) * Q * v),"
    " Q * p * ((2.0 * U - 1.0) * p + Q * v), -Q * v, v * p)",
), ("l", "index", "a1", "a2", "x_hi", "w_hi", "exp"))


# the terminal events of an orbit, in the order of `_TERMINATIONS`: x falls
# through the floor, (U, Q, Omega) comes within the attraction radius of a
# corner, x rises through the roof
_EVENTS = Events("_", ("U", "Q", "x", "_"), (
    "w = exp(x) if x < x_hi else w_hi",
    "Om = w / (1.0 + w)",
    "return (x - x_floor, "
    + "".join(f"hypot(U - {c[0]!r}, Q - {c[1]!r}, Om - {c[2]!r}) - eps, " for c, _ in CORNERS)
    + "x - x_roof)",
), ("x_floor", "x_roof", "eps", "x_hi", "w_hi", "exp", "hypot"),
    (-1, *(-1 for _ in CORNERS), 1))


def _compact_field(model: DistributionModel):
    """The compact field with the model's constants bound: one closure per
    orbit, which `integrate_compact` hands to the integrator directly."""
    return bind(_FIELD, model.l, model._index, 3.0 + 2.0 * model.l, 4.0 + 2.0 * model.l,
                *_omega_cap(model), math.exp)


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
    The reference field, for oracles and tests: the closure
    `integrate_compact` integrates, through `_flow`.
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

def _log_ratio(x):
    """log(x/(1-x)), elementwise, -inf at 0 and +inf at 1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(x) - np.log1p(-x)


def _UQ(state):
    """(U, Q) as float arrays from a CompactState, a triple, or a pair of
    arrays such as (orbit.U, orbit.Q)."""
    if isinstance(state, CompactState):
        state = (state.U, state.Q)
    return np.asarray(state[0], dtype=float), np.asarray(state[1], dtype=float)


def _plain(x):
    """A Python scalar for 0-d input, the array otherwise."""
    return x.item() if np.ndim(x) == 0 else x


def monitor_log_Z(state, l: float):
    """log Z, elementwise over a state or (U, Q) arrays."""
    U, Q = _UQ(state)
    return _plain(_log_ratio(U) + (3.0 + 2.0 * l) * _log_ratio(Q))


def monitor_Z(state, l: float):
    """Z = u q^(3+2l); strictly increasing wherever the flow expands mass."""
    U, Q = _UQ(state)
    with np.errstate(divide="ignore"):
        return _plain(U / (1.0 - U) * (Q / (1.0 - Q)) ** (3.0 + 2.0 * l))


def monitor_dZ(model: DistributionModel, state) -> float:
    """Exact lambda-derivative of Z along the flow."""
    U, Q, Om = _triple(state)
    l = model.l
    n = model._index(Om / (1.0 - Om))
    factor = 2.0 * (l + 1.0) * U * (1.0 - Q) + (3.0 + l - n) * Q * (1.0 - U)
    return factor * monitor_Z(state, l)


def monitor_Phi(state, l: float):
    """First integral of the flow when n(omega) is identically 5 + 3l."""
    U, Q = _UQ(state)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = U / (1.0 - U)
        q = Q / (1.0 - Q)
        e = 2.0 * (1.0 + l)
        return _plain(-0.5 * u ** (1.0 / e) * q ** ((3.0 + 2.0 * l) / e)
                      * (1.0 - q - u / (3.0 + 2.0 * l)))


# -------------------------------------------------------------- trapped sets

def in_S1(state):
    """Region where Q is expanding.  Elementwise.

    On its boundary dS/dlambda has the sign of (3 + l - n) - U (4 - 2n), so
    S1 is future invariant while n(omega) <= 3 + l; beyond, an orbit can
    leave it near U = 0.
    """
    U, Q = _UQ(state)
    return _plain((2.0 * U - 1.0) * (1.0 - Q) + Q * (1.0 - U) > 0.0)


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
    """One integrated orbit with monitors and its asymptotic label."""

    model: DistributionModel
    initial: CompactState
    lam: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    Omega: np.ndarray
    xi: np.ndarray
    termination: str
    limit_label: str
    settings: CompactSettings
    diagnostics: dict = field(default_factory=dict)
    _dense: Callable = None

    def dense(self, lam: float) -> np.ndarray:
        """(U, Q, Omega, xi) anywhere on the integrated lambda range: the
        interpolant of the integrated (U, Q, log omega, xi), with Omega
        formed from log omega as at the step points."""
        lo = min(self.lam[0], self.lam[-1])
        hi = max(self.lam[0], self.lam[-1])
        if not lo <= lam <= hi:
            raise ValueError(f"lambda={lam:g} outside the integrated range [{lo:g}, {hi:g}]")
        return np.asarray(self._dense(lam))

    @property
    def log_Z(self) -> np.ndarray:
        return monitor_log_Z((self.U, self.Q), self.model.l)

    @property
    def Phi(self) -> np.ndarray:
        return monitor_Phi((self.U, self.Q), self.model.l)

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


def integrate_compact(model: DistributionModel, state0, settings: CompactSettings | None = None,
                      backward: bool = False) -> CompactOrbit:
    """Follow the compact flow from state0 until a corner, the potential floor,
    ceiling or end of phi, or the lambda budget; xi accumulates the log radius.
    DOP853 integrates (U, Q, x = log omega, xi) on the closure behind
    `rhs_compact` with the events `_EVENTS`, both written into its generated
    step loop.  The floor and ceiling are linear in x; the corners and the
    returned orbit use Omega(x)."""
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

    events = bind(_EVENTS, math.log(_OMEGA_FLOOR), math.log(ceiling), _ATTRACTION_EPS,
                  x_hi, w_hi, math.exp, math.hypot)
    lam_end = -st.lambda_max if backward else st.lambda_max
    log_atol = max(st.abs_tol, _LOG_ATOL)
    sol = dop853(_compact_field(model), 0.0, (s0.U, s0.Q, math.log(s0.omega), 0.0),
                 lam_end, st.rel_tol, [st.abs_tol, st.abs_tol, log_atol, log_atol],
                 events=events)

    def dense(lam):
        U, Q, x, xi = sol(lam)
        return U, Q, Omega_of(x), xi

    termination, label = _TERMINATIONS[sol.event]
    diagnostics = {
        "n_steps": sol.n_steps,
        "n_rejected": sol.n_rejected,
        "n_rhs_evals": sol.nfev,
    }
    U, Q, x, xi = sol.y
    Omega = np.array([Omega_of(v) for v in x.tolist()])
    return CompactOrbit(model=model, initial=s0, lam=sol.t, U=U, Q=Q, Omega=Omega,
                        xi=xi, termination=termination, limit_label=label,
                        settings=st, diagnostics=diagnostics, _dense=dense)
