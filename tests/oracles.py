"""Oracles that only the tests run: Gauss-Jacobi quadrature of the kernels
(scipy), the brute-force density, the two-term centre series and the
reference start, the physical and polynomial compact fields, the homology
maps, monitors and trapped sets, and `compare_representations`."""

import math

import numpy as np

from vpequil import physical
from vpequil._ode import Field, bind, brentq, dop853
from vpequil._quadrature import QuadratureError, integrate_weighted
from vpequil.compactsys import (CompactState, _exp, _log_ratio, _log_Z,
                                _omega_cap, _Phi, _pointwise, integrate_compact,
                                to_dimensionless)
from vpequil.distmodels import (DistributionModel, EvaluationError, Polytrope,
                                TruncatedExponential, _check_dg_args, _check_gm_args, eval_dg,
                                eval_g, eval_phi)
from vpequil.physical import SolutionProfile, _physical_field, density_scale, natural_length

DEFAULT_QUAD_TOL = 1e-10


def eval_g_quadrature(model: DistributionModel, m, omega,
                      rel_tol=DEFAULT_QUAD_TOL) -> tuple:
    """(g_m(omega), relative error estimate) by singularity-adapted quadrature.

    After x = E/omega both endpoint singularities are algebraic with exponents
    known from the family (x^k at 0, (1-x)^m at 1), so Gauss-Jacobi rules
    absorb them; the error estimate is certified by the N-vs-2N comparison.
    """
    _check_gm_args(m, omega)
    if omega == 0.0:
        return 0.0, 0.0
    k = low_energy_exponent(model)
    try:
        raw, err = integrate_weighted(lambda x: _reduced(model, omega * x),
                                      m, k, rel_tol=rel_tol)
    except QuadratureError as exc:
        raise EvaluationError(f"g_{m:g}({omega:g}) quadrature failed: {exc}") from exc
    scale = omega ** (m + 1.0 + k)
    value = scale * raw
    if not math.isfinite(value):
        raise EvaluationError(f"g_{m:g}({omega:g}) overflowed")
    return value, err / max(abs(raw), np.finfo(float).tiny)


def eval_dg_quadrature(model: DistributionModel, m, omega,
                       rel_tol=DEFAULT_QUAD_TOL) -> float:
    """d g_m/d omega via the reduction identity for the sign of m.

    m > 0 lowers the exponent (m * g_{m-1} by quadrature); m = 0 returns
    phi(omega); for -1 < m < 0 the difference-quotient identity is integrated
    against the (1-x)^m endpoint weight.
    """
    _check_dg_args(model, m, omega)
    if m > 0.0:
        return m * eval_g_quadrature(model, m - 1.0, omega, rel_tol=rel_tol)[0]
    if m == 0.0:
        return eval_phi(model, omega)
    phi_w = eval_phi(model, omega)
    k = low_energy_exponent(model)
    try:
        # [0, 1/2]: phi(omega*x)(1-x)^(m-1) keeps only the x^k endpoint weight
        inner_a, _ = integrate_weighted(
            lambda t: _reduced(model, omega * t / 2.0) * (1.0 - t / 2.0) ** (m - 1.0),
            0.0, k, rel_tol=rel_tol)
        piece_a = phi_w * (1.0 - 2.0 ** (-m)) / m - 0.5 ** (k + 1.0) * omega ** k * inner_a
        # [1/2, 1]: difference quotient against the (1-x)^m weight
        def diff_quot(t):
            x = 0.5 * (1.0 + t)
            return (phi_w - _phi(model, omega * x)) / (1.0 - x)
        inner_b, _ = integrate_weighted(diff_quot, m, 0.0, rel_tol=rel_tol)
        piece_b = 0.5 ** (m + 1.0) * inner_b
    except QuadratureError as exc:
        raise EvaluationError(f"dg_{m:g}({omega:g}) quadrature failed: {exc}") from exc
    return omega ** m * phi_w - m * omega ** m * (piece_a + piece_b)


def low_energy_exponent(model: DistributionModel) -> float:
    """k of phi ~ E^k as E -> 0: n - 3/2 for a polytrope, p + 1 for a lowered
    exponential, and a table's declared k."""
    family = model.family
    if isinstance(family, Polytrope):
        return family.n - 1.5
    if isinstance(family, TruncatedExponential):
        return family.p + 1.0
    return family.k


def _phi(model: DistributionModel, e):
    """phi at each of the nodes e, as an array."""
    return np.array([eval_phi(model, x) for x in e.tolist()])


def _reduced(model: DistributionModel, e):
    """phi(E)/E^k, k the low-energy exponent: the oracles' integrand (E > 0)."""
    return _phi(model, e) / e ** low_energy_exponent(model)


def density_bruteforce(model: DistributionModel, r, omega) -> float:
    """Mass density by direct 2-d integration over (E, L^2).

    Integrates phi(E) L^(2l) / |v_r| over the support with
    |v_r| = sqrt(2(omega-E) - L^2/r^2), using nested QUADPACK rules (the
    inner one with the exact algebraic endpoint weights), deliberately
    independent of the Gauss-Jacobi reduction path.
    """
    if r <= 0.0 or omega <= 0.0:
        raise ValueError("brute-force density requires r > 0 and omega > 0")
    from scipy import integrate

    l = model.l

    def inner(e):
        l2max = 2.0 * r * r * (omega - e)
        if l2max <= 0.0:
            return 0.0
        # int_0^l2max (L2)^l (l2max - L2)^(-1/2) dL2, weights handled by QAWS
        val, _ = integrate.quad(lambda _: 1.0, 0.0, l2max,
                                weight="alg", wvar=(l, -0.5))
        return val * r

    outer, _ = integrate.quad(lambda e: eval_phi(model, e) * inner(e),
                              0.0, omega, epsabs=1e-300, epsrel=1e-9, limit=400)
    return 2.0 * math.pi / (r * r) * outer


def center_series(model: DistributionModel, omega_c: float, r: float):
    """Two-term expansion (m, omega) about the regular centre, at radius r,
    from g_{l+1/2} and its derivative at omega_c alone; valid while the
    second-order correction is small."""
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


def reference_start(model: DistributionModel, omega_c: float) -> tuple:
    """(r, m, omega) of the two-term series at 1e-6 natural lengths, or, for
    l < -1/2, at 1e-6 ** (1/(2 + 2l)) of them, where its first correction is
    still about 1e-6: a start that shares no coefficient beyond the first two
    with the solver's."""
    b = 2.0 + 2.0 * model.l
    r0 = natural_length(model, omega_c) * 1e-6 ** max(1.0, 1.0 / b)
    return (r0, *center_series(model, omega_c, r0))


def reference_solve(model: DistributionModel, omega_c: float, r_end: float | None = None,
                    rel_tol: float = 1e-13):
    """The physical flow from `reference_start` at rel_tol, with no absolute
    tolerance, to r_end, or else to the surface or the cutoff of a solve: a
    `Trajectory`."""
    r0, m0, w0 = reference_start(model, omega_c)
    if r_end is None:
        r_end = physical._CUTOFF_FRACTION * natural_length(model, omega_c)
    return dop853(_physical_field(model), r0, (m0, w0), r_end, rel_tol, 0.0,
                  events=bind(physical._FLOOR, physical._FLOOR_FRACTION * omega_c))


def rhs_physical(model: DistributionModel, r: float, state):
    """(dm/dr, domega/dr) by the closure `integrate_physical` integrates."""
    return _physical_field(model)(r, (float(state[0]), float(state[1])))


def _triple(state):
    if isinstance(state, CompactState):
        return state.U, state.Q, state.Omega
    return tuple(float(x) for x in state[:3])


def compactify(u: float, q: float, omega: float) -> CompactState:
    return CompactState(U=u / (1.0 + u), Q=q / (1.0 + q), Omega=omega / (1.0 + omega))


def from_compact(model: DistributionModel, state: CompactState) -> tuple:
    """(r, m, omega) of a compact point: the homology map inverted, well
    defined off the faces."""
    u = state.U / (1.0 - state.U)
    q = state.Q / (1.0 - state.Q)
    omega = state.omega
    r = (u * q * omega / density_scale(model, omega)) ** (1.0 / (2.0 + 2.0 * model.l))
    return r, q * r * omega, omega


def map_profile(model: DistributionModel, profile: SolutionProfile):
    """Compact coordinates of every step point of a physical profile."""
    r, m, omega, rho = (np.asarray(profile.samples[k]) for k in ("r", "m", "omega", "rho"))
    with np.errstate(divide="ignore"):
        u = 4.0 * math.pi * r ** 3 * rho / m
        q = m / (r * omega)
    return u / (1.0 + u), q / (1.0 + q), omega / (1.0 + omega)


# (lambda, [U, Q, x = log omega, xi]) -> the four derivatives; neither lambda
# nor xi is read, and n is multiplied by Q
_FIELD = Field("_", ("U", "Q", "x", "_"), (
    "n = index(exp(x) if x < x_hi else w_hi) if Q != 0.0 else 0.0",
    "v = 1.0 - U",
    "p = 1.0 - Q",
    "return (U * v * (p * (a1 - a2 * U) - (n + l) * Q * v),"
    " Q * p * ((2.0 * U - 1.0) * p + Q * v), -Q * v, v * p)",
), ("l", "index", "a1", "a2", "x_hi", "w_hi", "exp"))


def _compact_field(model: DistributionModel):
    """The polynomial compact field with the model's constants bound."""
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
    """
    return _flow(_compact_field(model), state)


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
    start = compactify(*to_dimensionless(model, r_lo, m_lo, w_lo))
    orbit = integrate_compact(model, start)
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
        cp = compactify(*to_dimensionless(model, float(r), m_r, w_r))
        errors[i] = max(abs(point[0] - cp.U), abs(point[1] - cp.Q),
                        abs(point[2] - cp.Omega))
    return {"n_points": int(n_points), "radii": radii, "errors": errors,
            "max_abs_error": float(errors.max())}
