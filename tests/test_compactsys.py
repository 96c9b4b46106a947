"""Tests for the compactified three-dimensional flow.

Oracle strategy: the compact vector field is checked against finite
differences of homology variables computed along an independently
integrated physical profile; the fixed-line eigenvalues are checked
against their closed forms; the conserved quantity on the critical-index
family and the algebraic monitors are exercised along real orbits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from vpequil import compactsys
from vpequil.compactsys import (
    DEGENERATE_TRIPLE_ZERO,
    TRANSVERSELY_HYPERBOLIC_SADDLE,
    TRANSVERSELY_HYPERBOLIC_SOURCE,
    CompactSettings,
    CompactState,
    PolytropicIndexTable,
    _compact_field,
    compactify,
    fixed_lines,
    from_compact,
    in_S1,
    in_S2,
    in_S3,
    integrate_compact,
    jacobian_eigenvalues,
    map_profile,
    monitor_Phi,
    monitor_Z,
    monitor_dZ,
    monitor_log_Z,
    rhs_compact,
    to_dimensionless,
)
from vpequil.distmodels import (
    EvaluationError,
    eval_n,
    polytrope,
    tabulated_model,
    truncated_exponential,
    wilson_model,
)
from vpequil.physical import PhysicalState, integrate_physical


@pytest.fixture(scope="module")
def king_model():
    return truncated_exponential(0)


@pytest.fixture(scope="module")
def king_profile(king_model):
    return integrate_physical(king_model, omega_c=0.5)


def state_at(model, profile, r):
    m, omega = profile.dense(r)
    u, q, w = to_dimensionless(model, PhysicalState(r=r, m=m, omega=omega))
    return compactify(u, q, w)


# ------------------------------------------------------------ coordinates

def test_compactify_roundtrip_scalars():
    st = compactify(3.0, 0.4, 0.8)
    assert st.U == pytest.approx(0.75, rel=1e-15)
    assert st.Q == pytest.approx(0.4 / 1.4, rel=1e-15)
    assert st.Omega == pytest.approx(0.8 / 1.8, rel=1e-15)
    assert st.omega == pytest.approx(0.8, rel=1e-14)


def test_from_compact_inverts_profile_mapping(king_model, king_profile):
    r = 0.4 * king_profile.radius
    m, omega = king_profile.dense(r)
    st = state_at(king_model, king_profile, r)
    back = from_compact(king_model, st)
    assert back.r == pytest.approx(r, rel=1e-12)
    assert back.m == pytest.approx(m, rel=1e-12)
    assert back.omega == pytest.approx(omega, rel=1e-12)


def test_compact_state_validation():
    with pytest.raises(ValueError):
        CompactState(U=-0.1, Q=0.5, Omega=0.5)
    with pytest.raises(ValueError):
        CompactState(U=0.5, Q=1.2, Omega=0.5)
    with pytest.raises(ValueError):
        CompactState(U=0.5, Q=0.5, Omega=0.0)
    with pytest.raises(ValueError):
        CompactState(U=0.5, Q=0.5, Omega=1.0)


# ------------------------------------------------------------ fixed lines

def analytic_line_data(l):
    return {
        "L1": (1.0, 0.0, [0.0, 1.0, 1.0], TRANSVERSELY_HYPERBOLIC_SOURCE),
        "L2": ((3 + 2 * l) / (4 + 2 * l), 0.0,
               sorted([-(3 + 2 * l) / (4 + 2 * l), (1 + l) / (2 + l), 0.0]),
               TRANSVERSELY_HYPERBOLIC_SADDLE),
        "L3": (0.0, 0.0, sorted([3 + 2 * l, -1.0, 0.0]),
               TRANSVERSELY_HYPERBOLIC_SADDLE),
        "L4": (1.0, 1.0, [0.0, 0.0, 0.0], DEGENERATE_TRIPLE_ZERO),
    }


@pytest.mark.parametrize("l", [0.0, 0.5, -0.4])
def test_fixed_lines_metadata(l):
    lines = {fl.name: fl for fl in fixed_lines(l)}
    assert set(lines) == {"L1", "L2", "L3", "L4"}
    for name, (u_star, q_star, eigs, kind) in analytic_line_data(l).items():
        fl = lines[name]
        assert fl.U == pytest.approx(u_star, abs=1e-15)
        assert fl.Q == pytest.approx(q_star, abs=1e-15)
        assert sorted(fl.eigenvalues) == pytest.approx(eigs, abs=1e-14)
        assert fl.kind == kind


@pytest.mark.parametrize("l", [0.0, 0.7])
def test_rhs_vanishes_on_fixed_lines(l):
    model = polytrope(n=3, l=l)
    for fl in fixed_lines(l):
        for omega0 in (0.25, 0.6):
            rhs = rhs_compact(model, (fl.U, fl.Q, omega0 / (1 + omega0)))
            assert np.max(np.abs(rhs)) < 1e-14


@pytest.mark.parametrize("l", [0.0, 0.5, -0.4])
@pytest.mark.parametrize("omega0", [0.25, 0.6])
def test_jacobian_eigenvalues_match_closed_forms(l, omega0):
    model = polytrope(n=2.5, l=l)
    lines = {fl.name: fl for fl in fixed_lines(l)}
    for name in ("L1", "L2", "L3"):
        fl = lines[name]
        state = (fl.U, fl.Q, omega0 / (1 + omega0))
        got = np.sort(jacobian_eigenvalues(model, state).real)
        assert got == pytest.approx(sorted(fl.eigenvalues), abs=1e-8)
    fl = lines["L4"]
    got = np.sort(jacobian_eigenvalues(model, (fl.U, fl.Q, omega0 / (1 + omega0))).real)
    assert got == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)


def jacobian_by_rhs_compact(model, state, step=1e-6):
    """Eigenvalues of the central-difference Jacobian, each column from two
    `rhs_compact` calls (the field bound afresh on every call)."""
    base = np.array(state)
    jac = np.empty((3, 3))
    for j in range(3):
        offset = np.zeros(3)
        offset[j] = step
        jac[:, j] = (np.asarray(rhs_compact(model, base + offset))
                     - np.asarray(rhs_compact(model, base - offset))) / (2.0 * step)
    return np.linalg.eigvals(jac)


@pytest.mark.parametrize("model", [truncated_exponential(0), polytrope(n=2.0)],
                         ids=["king", "n2"])
def test_jacobian_binds_the_field_once(model, monkeypatch):
    # one bound field per Jacobian, and the eigenvalues of six rhs_compact
    # calls to the bit, at interior states
    bound = []

    def counted(m):
        bound.append(m)
        return _compact_field(m)
    monkeypatch.setattr(compactsys, "_compact_field", counted)
    for state in [(0.3, 0.4, 0.2), (0.6, 0.3, 0.3), (0.5, 0.7, 0.6), (0.9, 0.2, 0.05)]:
        del bound[:]
        got = jacobian_eigenvalues(model, state)
        assert bound == [model]
        assert got.tolist() == jacobian_by_rhs_compact(model, state).tolist()


# ----------------------------------------------- vector field vs profiles

@pytest.mark.parametrize("make,omega_c", [
    (lambda: truncated_exponential(0), 0.5),
    (lambda: polytrope(n=2, l=1.0), 1.0),
])
def test_rhs_matches_physical_finite_differences(make, omega_c):
    """d(U,Q,Omega)/d(ln r) from the profile equals rhs/((1-U)(1-Q))."""
    model = make()
    profile = integrate_physical(model, omega_c)
    for frac in (0.2, 0.5, 0.8):
        r = frac * profile.radius
        h = 1e-4
        hi = state_at(model, profile, r * math.exp(h))
        lo = state_at(model, profile, r * math.exp(-h))
        fd = (np.array([hi.U, hi.Q, hi.Omega]) - np.array([lo.U, lo.Q, lo.Omega])) / (2 * h)
        st = state_at(model, profile, r)
        rhs = np.asarray(rhs_compact(model, (st.U, st.Q, st.Omega)))
        predicted = rhs / ((1.0 - st.U) * (1.0 - st.Q))
        for a, b in zip(fd, predicted):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)


def test_representations_agree_along_king(king_model, king_profile):
    """Integrating the compact flow reproduces the mapped physical curve."""
    r_lo = 0.05 * king_profile.radius
    r_hi = 0.90 * king_profile.radius
    start = state_at(king_model, king_profile, r_lo)
    orbit = integrate_compact(king_model, start)
    lam_hi = orbit.lam[-1]
    worst = 0.0
    for r in np.geomspace(r_lo * 1.0001, r_hi, 20):
        target = math.log(r / r_lo)
        lam = brentq(lambda s: orbit.dense(s)[3] - target, 0.0, lam_hi, xtol=1e-13)
        got = orbit.dense(lam)[:3]
        want = state_at(king_model, king_profile, r)
        worst = max(worst, np.max(np.abs(got - np.array([want.U, want.Q, want.Omega]))))
    assert worst < 1e-6


# ------------------------------------------------------------ integration

def test_king_orbit_terminates_at_vacuum_corner(king_model, king_profile):
    start = state_at(king_model, king_profile, 0.05 * king_profile.radius)
    orbit = integrate_compact(king_model, start)
    assert orbit.limit_label == "(0,1,0)"
    assert orbit.termination == "corner-(0,1,0)"
    end = np.array([orbit.U[-1], orbit.Q[-1] - 1.0, orbit.Omega[-1]])
    assert np.linalg.norm(end) == pytest.approx(1e-4, rel=1e-3)
    assert orbit.xi[0] == 0.0
    assert np.all(np.diff(orbit.xi) > 0)


def test_halo_orbit_exhausts_potential_without_corner():
    # finite-mass infinite-extent family: q -> 1, so neither corner is
    # reached and the orbit rides the stable manifold of the halo rest
    # point (0, 1/2, 0); being a saddle, it sheds the orbit late, once
    # amplified roundoff overtakes the shrinking true deviation
    model = polytrope(n=5)
    profile = integrate_physical(model, omega_c=1.0)
    start = state_at(model, profile, 0.1)
    orbit = integrate_compact(model, start)
    assert orbit.termination == "omega-floor"
    assert orbit.limit_label == "unresolved"
    mid = int(np.argmax(orbit.Omega < 1e-4))
    assert abs(orbit.Q[mid] - 0.5) < 1e-3
    assert orbit.U[mid] < 1e-3
    assert np.min(np.abs(orbit.Q - 0.5)) < 1e-6


def test_backward_orbit_shadows_regular_center_line(king_model, king_profile):
    # the regular solution runs backward into the saddle line at
    # U = (3+2l)/(4+2l); the connection can only be shadowed for a
    # window ~ ln(1/rtol) before the transverse instability takes over
    start = state_at(king_model, king_profile, 0.3 * king_profile.radius)
    orbit = integrate_compact(king_model, start, CompactSettings(lambda_max=10.0),
                              backward=True)
    assert orbit.termination == "lambda-max"
    assert orbit.lam[-1] == pytest.approx(-10.0)
    assert abs(orbit.U[-1] - 0.75) < 1e-3                    # (3+2l)/(4+2l), l=0
    assert orbit.Q[-1] < 0.05 * orbit.Q[0]
    assert abs(orbit.Omega[-1] - 0.5 / 1.5) < 5e-3
    assert np.all(np.diff(orbit.xi) < 0)


def test_backward_orbit_generic_history_blows_up_potential():
    # off the regular-centre connection, histories deepen the potential
    # without bound: the run must stop at the ceiling, not cross Omega = 1
    orbit = integrate_compact(polytrope(n=3), CompactState(0.5, 0.3, 0.4),
                              CompactSettings(lambda_max=80.0), backward=True)
    assert orbit.termination == "omega-ceiling"
    assert orbit.limit_label == "unresolved"
    assert orbit.Omega[-1] > 1.0 - 1e-11
    assert np.all(orbit.Omega < 1.0)


def test_backward_ceiling_end_is_stable_under_ulp_perturbation():
    # the ceiling is linear in log omega, so the lambda at which an orbit
    # reaches it is well conditioned: moving the start U by an ulp or two
    # moves the end by far less than 1e-6 (in the Omega form it moved by ~1)
    ends = []
    for ulps in (0, 1, -1, 2):
        U = 0.5
        for _ in range(abs(ulps)):
            U = math.nextafter(U, math.copysign(math.inf, ulps))
        orbit = integrate_compact(polytrope(n=3), CompactState(U, 0.3, 0.4),
                                  CompactSettings(lambda_max=80.0), backward=True)
        assert orbit.termination == "omega-ceiling"
        ends.append(orbit.lam[-1])
    assert max(ends) - min(ends) < 1e-6
    # the same orbit at rel_tol 1e-13 ends at -59.8702745232
    assert ends[0] == pytest.approx(-59.8702745232, abs=1e-6)


def test_start_at_half_omega_costs_no_extra_steps(king_model):
    # Omega = 1/2 is log omega = 0, where error control relative to the
    # value alone would force tiny first steps
    steps = [integrate_compact(king_model, CompactState(0.6, 0.3, om)).diagnostics["n_steps"]
             for om in (0.5, 0.4999)]
    assert steps[0] <= steps[1] + 1


def test_field_caps_omega_at_end_of_phi_and_before_overflow():
    energies = np.linspace(0.0, 3.0, 31)
    table = tabulated_model(energies, np.expm1(energies), k=1.0)
    # e^(log 3) rounds above 3; the field reads phi at its end, not past it
    assert math.exp(math.log(3.0)) > 3.0
    at_end = _compact_field(table)(0.0, (0.4, 0.3, math.log(3.0), 0.0))
    assert at_end == _compact_field(table)(0.0, (0.4, 0.3, 50.0, 0.0))
    assert at_end[0] == rhs_compact(table, (0.4, 0.3, 0.75))[0]
    # an unbounded family reads the largest double past log(DBL_MAX)
    far = _compact_field(truncated_exponential(0))(0.0, (0.4, 0.3, 1000.0, 0.0))
    assert all(math.isfinite(v) for v in far)


def test_orbit_dense_matches_nodes(king_model, king_profile):
    start = state_at(king_model, king_profile, 0.1 * king_profile.radius)
    orbit = integrate_compact(king_model, start)
    i = len(orbit.lam) // 2
    y = orbit.dense(orbit.lam[i])
    assert y[0] == pytest.approx(orbit.U[i], rel=1e-12)
    assert y[1] == pytest.approx(orbit.Q[i], rel=1e-12)
    assert y[2] == pytest.approx(orbit.Omega[i], rel=1e-12)
    assert y[3] == pytest.approx(orbit.xi[i], rel=1e-12, abs=1e-15)
    with pytest.raises(ValueError):
        orbit.dense(orbit.lam[-1] + 1.0)


def reference_orbit(model, start, backward, lambda_max):
    """rhs_compact integrated by scipy's DOP853 at rel_tol 1e-13 in (U, Q,
    log omega, xi), with the floor, corner and ceiling events written out
    from the module's constants: (termination, end lambda, end xi)."""
    x_hi, w_hi = compactsys._omega_cap(model)

    def Omega(x):
        w = math.exp(x) if x < x_hi else w_hi
        return w / (1.0 + w)

    def rhs(lam, y):
        om = Omega(y[2])
        du, dq, dom = rhs_compact(model, (y[0], y[1], om))
        return [du, dq, dom / (om * (1.0 - om)), (1.0 - y[0]) * (1.0 - y[1])]
    eps = compactsys._ATTRACTION_EPS
    events = [lambda lam, y: y[2] - math.log(compactsys._OMEGA_FLOOR),
              *(lambda lam, y, c=c: math.hypot(y[0] - c[0], y[1] - c[1], Omega(y[2]) - c[2])
                - eps for c, _ in compactsys.CORNERS),
              lambda lam, y: y[2] - math.log(min(compactsys._OMEGA_CEILING, w_hi))]
    for ev, direction in zip(events, (-1, -1, -1, 1)):
        ev.terminal, ev.direction = True, direction
    U, Q, Om = start
    sol = solve_ivp(rhs, (0.0, -lambda_max if backward else lambda_max),
                    [U, Q, math.log(Om / (1.0 - Om)), 0.0], method="DOP853", rtol=1e-13,
                    atol=[1e-30, 1e-30, 1e-14, 1e-14], events=events)
    fired = [i for i, te in enumerate(sol.t_events) if te.size]
    termination = {(): "lambda-max", (0,): "omega-floor", (1,): "corner-(0,1,0)",
                   (2,): "corner-(1,1,0)", (3,): "omega-ceiling"}[tuple(fired)]
    return termination, sol.t[-1], sol.y[3, -1]


TABLE31 = np.linspace(0.0, 3.0, 31)
# (model, tolerance on the end lambda and xi).  A table's index has unbounded
# curvature at each node (a cubic phi under a half-integer power kernel), so
# an orbit loses accuracy at every node it crosses: over 40 random starts
# each way the ends of the (U, Q) integration were off by up to 1.2e-7 and
# those of the log integration by up to 7.4e-8, where the reference itself
# moves by 5e-10 between rel_tol 1e-13 and 3e-14
REFERENCE_MODELS = {
    "king": (truncated_exponential(0), 1e-8),
    "wilson-l-0.4": (wilson_model(l=-0.4), 1e-8),
    "n2": (polytrope(n=2.0), 1e-8),
    "n6": (polytrope(n=6.0), 1e-8),
    "table31": (tabulated_model(TABLE31, np.expm1(TABLE31), k=1.0), 2e-7),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(REFERENCE_MODELS)), U=st.floats(0.05, 0.95),
       Q=st.floats(0.05, 0.95), Omega=st.floats(0.005, 0.5), backward=st.booleans())
def test_orbits_match_an_independent_rhs_compact_integration(name, U, Q, Omega, backward):
    # the log-homology integration at the default rel_tol against the
    # polynomial field at rel_tol 1e-13: the same end, at the same lambda and
    # xi, with every sample inside the cube
    model, tol = REFERENCE_MODELS[name]
    orbit = integrate_compact(model, CompactState(U, Q, Omega),
                              CompactSettings(lambda_max=80.0), backward=backward)
    termination, lam_end, xi_end = reference_orbit(model, (U, Q, Omega), backward, 80.0)
    assert orbit.termination == termination
    assert abs(orbit.lam[-1] - lam_end) <= tol
    assert abs(orbit.xi[-1] - xi_end) <= tol
    for values in (orbit.U, orbit.Q):
        assert np.all((values >= 0.0) & (values <= 1.0))


# (start, backward, face that stays exact, termination, end lambda, end xi):
# the ends a (U, Q) integration reached
FACE_STARTS = [
    ((0.5, 0.0, 0.2), True, "Q", "lambda-max", -200.0, -199.59453489188869),
    ((1.0, 0.5, 0.2), True, "U", "lambda-max", -200.0, 0.0),
    ((0.0, 0.5, 0.2), False, "U", "omega-floor", 52.48945350961729, 26.244726754808653),
    ((0.5, 1.0, 0.2), False, "Q", "corner-(0,1,0)", 8.215662267642331, 0.0),
    ((0.0, 1.0, 0.2), True, "UQ", "omega-ceiling", -29.017315477048463, 0.0),
    ((1.0, 0.0, 0.2), False, "UQ", "lambda-max", 200.0, 0.0),
]


@pytest.mark.parametrize("start, backward, faces, termination, lam_end, xi_end", FACE_STARTS)
def test_face_start_stays_on_its_face(king_model, start, backward, faces, termination,
                                      lam_end, xi_end):
    # log u or log q at -+DBL_MAX: every step and the dense output keep it
    # there, so U or Q stays exactly 0 or 1, and the orbit ends as before.
    # Every sample stays in the cube, where a (U, Q) integration left it: U
    # reached -2.7e-30 from (0.5, 0, 0.2) and Q -2.4e-30 from (1, 0.5, 0.2)
    orbit = integrate_compact(king_model, CompactState(*start), backward=backward)
    for values in (orbit.U, orbit.Q):
        assert np.all((values >= 0.0) & (values <= 1.0))
    for face in faces:
        value = start["UQ".index(face)]
        assert np.all(getattr(orbit, face) == value)
        mid = 0.5 * (orbit.lam[0] + orbit.lam[-1])
        assert orbit.dense(mid)["UQ".index(face)] == value
        assert getattr(orbit, "log_" + face.lower())[0] == (math.inf if value else -math.inf)
    assert orbit.termination == termination
    assert orbit.lam[-1] == pytest.approx(lam_end, abs=1e-8)
    assert orbit.xi[-1] == pytest.approx(xi_end, abs=1e-8)


@pytest.mark.parametrize("model, steps_before", [(truncated_exponential(0), 72),
                                                 (polytrope(n=3.0), 85)],
                         ids=["king", "n3"])
def test_portrait_orbit_takes_half_the_steps(model, steps_before):
    # the King and polytrope portraits of the CI configs: the (U, Q)
    # integration took 72 and 85 accepted steps to the vacuum corner
    orbit = integrate_compact(model, CompactState(0.6, 0.3, 0.3),
                              CompactSettings(lambda_max=20.0))
    assert orbit.termination == "corner-(0,1,0)"
    assert orbit.diagnostics["n_steps"] <= steps_before // 2


def test_tabulated_orbit_below_grid_end_four():
    # a grid ending at E = 3 covers every potential a forward orbit from
    # Omega = 0.3 (omega = 3/7) visits
    energies = np.linspace(0.0, 3.0, 31)
    model = tabulated_model(energies, np.expm1(energies), k=1.0)
    orbit = integrate_compact(model, CompactState(0.6, 0.3, 0.3))
    assert orbit.termination == "corner-(0,1,0)"
    assert np.all(np.diff(orbit.Omega) <= 0.0)


def test_settings_validation(king_model):
    with pytest.raises(ValueError):
        integrate_compact(king_model, CompactState(0.5, 0.2, 0.3),
                          CompactSettings(lambda_max=-1.0))
    with pytest.raises(ValueError):
        integrate_compact(king_model, CompactState(0.5, 0.2, 0.3),
                          CompactSettings(rel_tol=0.0))


# --------------------------------------------------------------- monitors

def test_monitor_algebra():
    st = CompactState(U=0.75, Q=2.0 / 3.0, Omega=0.5)
    # u = 3, q = 2: Z = u q^(3+2l)
    assert monitor_Z(st, 0.0) == pytest.approx(24.0, rel=1e-13)
    assert monitor_log_Z(st, 0.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert monitor_Z(st, 0.5) == pytest.approx(3.0 * 2.0 ** 4, rel=1e-13)
    # Phi = -(1/2) u^(1/(2+2l)) q^((3+2l)/(2+2l)) (1 - q - u/(3+2l))
    want = -0.5 * 3.0 ** 0.5 * 2.0 ** 1.5 * (1.0 - 2.0 - 1.0)
    assert monitor_Phi(st, 0.0) == pytest.approx(want, rel=1e-13)


def test_monitors_accept_states_and_arrays():
    U = np.array([0.0, 0.2, 0.75, 0.9, 1.0])
    Q = np.array([0.3, 0.1, 2.0 / 3.0, 0.5, 1.0])
    for l in (-0.4, 0.0, 1.0):
        log_z = monitor_log_Z((U, Q), l)
        phi = monitor_Phi((U, Q), l)
        s1 = in_S1((U, Q))
        z = monitor_Z((U, Q), l)
        assert log_z.shape == phi.shape == s1.shape == z.shape == U.shape
        for i in range(1, 4):
            st = CompactState(U[i], Q[i], 0.4)
            assert isinstance(monitor_log_Z(st, l), float)
            assert monitor_log_Z(st, l) == log_z[i]
            # numpy's vectorised pow may differ from the scalar one by an ulp
            assert monitor_Phi(st, l) == pytest.approx(phi[i], rel=1e-14)
            assert monitor_Z((U[i], Q[i], 0.4), l) == pytest.approx(z[i], rel=1e-14)
            assert in_S1(st) is bool(s1[i])
        # the faces map to the infinities of log Z, without warnings
        assert log_z[0] == -math.inf and log_z[-1] == math.inf


def test_dZ_matches_flow_derivative(king_model, king_profile):
    start = state_at(king_model, king_profile, 0.1 * king_profile.radius)
    orbit = integrate_compact(king_model, start)
    for lam in (0.5, 1.5, 2.5):
        h = 1e-3
        z_hi = monitor_Z(orbit.dense(lam + h)[:3], 0.0)
        z_lo = monitor_Z(orbit.dense(lam - h)[:3], 0.0)
        fd = (z_hi - z_lo) / (2 * h)
        got = monitor_dZ(king_model, orbit.dense(lam)[:3])
        assert got == pytest.approx(fd, rel=1e-5)


def test_log_Z_strictly_increasing_along_king(king_model, king_profile):
    # every term of dZ is positive while n(omega) < 3 + l, as here
    start = state_at(king_model, king_profile, 0.05 * king_profile.radius)
    orbit = integrate_compact(king_model, start)
    z = orbit.log_Z
    assert np.all(np.isfinite(z))
    assert np.all(np.diff(z) > 0)


# (name, model).  King's index stays below 3 + l on the box's potentials and
# so does every drawn polytrope's, so dZ > 0 and Z must not fall.  Wilson
# l = 1/2 starts at n(0) = k + 3/2 = 3 + l and grows, so the (3 + l - n)
# term of dZ is negative and Z falls into the vacuum corner; the same sign
# turns the flow out of S1 on its boundary, but only where U < 0.07.
MONITOR_MODELS = st.one_of(
    st.sampled_from([("king", truncated_exponential(0)), ("wilson", wilson_model(l=0.5))]),
    st.floats(0.6, 3.0).map(lambda n: (f"n={n!r}", polytrope(n=n))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=MONITOR_MODELS, U=st.floats(0.05, 0.95), Q=st.floats(0.05, 0.95),
       Omega=st.floats(0.005, 0.5))
def test_forward_orbits_keep_the_monitors_monotone(case, U, Q, Omega):
    # criterion 7 over random starts in its box: Omega never increases, log Z
    # never decreases (where dZ > 0), within 10x the tolerance, and S1 is
    # future invariant
    name, model = case
    orbit = integrate_compact(model, CompactState(U, Q, Omega))
    rel_tol = orbit.settings.rel_tol
    allow = 10.0 * (rel_tol * np.abs(orbit.Omega[:-1]) + 1e-14)
    assert np.all(np.diff(orbit.Omega) <= allow), name
    if name != "wilson":
        log_z = orbit.log_Z
        allow_z = 10.0 * (rel_tol * np.abs(log_z[:-1]) + 1e-12)
        assert np.all(np.diff(log_z) >= -allow_z), name
    flags = orbit.S1
    if np.any(flags):
        assert np.all(flags[int(np.argmax(flags)):]), name


@pytest.mark.parametrize("l", [0.0, 0.5])
def test_Phi_conserved_on_critical_index_family(l):
    model = polytrope(n=5 + 3 * l, l=l)
    orbit = integrate_compact(model, CompactState(0.6, 0.2, 0.4),
                              CompactSettings(lambda_max=12.0))
    phi = orbit.Phi
    drift = np.max(np.abs(phi - phi[0])) / abs(phi[0])
    assert drift < 1e-8


def test_Phi_varies_off_critical_index():
    orbit = integrate_compact(polytrope(n=3), CompactState(0.6, 0.2, 0.4),
                              CompactSettings(lambda_max=12.0))
    phi = orbit.Phi
    assert np.max(np.abs(phi - phi[0])) / abs(phi[0]) > 1e-2


# ---------------------------------------------------------- trapping sets

def test_in_S1_hand_values():
    assert in_S1(CompactState(0.9, 0.5, 0.3))       # 0.8*0.5 + 0.5*0.1 > 0
    assert not in_S1(CompactState(0.2, 0.1, 0.3))   # -0.6*0.9 + 0.1*0.8 < 0


@pytest.mark.parametrize("model, signs", [
    (polytrope(n=4.5), {-1.0, 1.0}), (polytrope(n=2.0, l=0.5), {1.0}),
    (truncated_exponential(0), {-1.0, 1.0}), (wilson_model(l=0.5), {-1.0, 1.0}),
], ids=["n4.5", "n2-l0.5", "king", "wilson-l0.5"])
def test_S1_boundary_flux_has_the_sign_of_its_formula(model, signs):
    # on the boundary of S1, Q = (1 - 2U)/(2 - 3U) with 0 < U < 1/2, dQ = 0
    # and dS/dlambda = (2 - 3Q) U (1 - U)(1 - Q) [(3 + l - n) - U (4 - 2n)]:
    # inward while n(omega) <= 3 + l, outward near U = 0 once n > 3 + l (King
    # passes 3 near omega = 1.6)
    rng = np.random.default_rng(4012)
    l, seen = model.l, set()
    for U, omega in zip(rng.uniform(0.0, 0.5, 2000), 10.0 ** rng.uniform(-3.0, 3.0, 2000)):
        Q = (1.0 - 2.0 * U) / (2.0 - 3.0 * U)
        du, dq, _ = rhs_compact(model, (U, Q, omega / (1.0 + omega)))
        n = model._index(omega)
        sign = np.sign((3.0 + l - n) - U * (4.0 - 2.0 * n))
        assert np.sign((2.0 - 3.0 * Q) * du + (2.0 - 3.0 * U) * dq) == sign, (U, omega)
        seen.add(sign)
    assert seen == signs


def test_in_S2_polytrope_bounds():
    # constant index: threshold is max(1/2, (3+2l)/(3+3l+n))
    assert not in_S2(polytrope(n=2), CompactState(0.5, 0.55, 0.4))   # needs Q > 0.6
    assert in_S2(polytrope(n=2), CompactState(0.5, 0.65, 0.4))
    assert in_S2(polytrope(n=4), CompactState(0.5, 0.55, 0.4))       # needs Q > 0.5


def test_in_S3_set_algebra():
    st = CompactState(U=0.8, Q=0.9, Omega=0.2)          # u = 4, q = 9
    assert in_S3(st, l=0.0, eps=0.5, delta=0.5)
    low_q = CompactState(U=0.8, Q=0.4, Omega=0.2)
    assert not in_S3(low_q, l=0.0, eps=0.5, delta=0.5)  # fails Q > 1 - delta
    shallow = CompactState(U=0.7, Q=0.9, Omega=0.2)     # u = 7/3, q = 9
    assert in_S3(shallow, l=0.0, eps=0.1, delta=0.5)    # 3 - 0.9 < 7/3
    assert not in_S3(shallow, l=0.0, eps=0.01, delta=0.5)


def test_trapping_sets_future_invariant_along_king(king_model, king_profile):
    start = state_at(king_model, king_profile, 0.05 * king_profile.radius)
    orbit = integrate_compact(king_model, start)
    states = [CompactState(u, q, o) for u, q, o
              in zip(orbit.U, orbit.Q, orbit.Omega)]
    omega0 = orbit.initial.omega
    flag_sets = {
        "S1": [in_S1(s) for s in states],
        "S2": [in_S2(king_model, s, omega_0=omega0) for s in states],
        "S3": [in_S3(s, l=0.0, eps=0.5, delta=0.49) for s in states],
    }
    for name, flags in flag_sets.items():
        assert any(flags), name
        first = flags.index(True)
        assert all(flags[first:]), f"{name} exited after entry"
    assert orbit.S1.tolist() == flag_sets["S1"]


# ------------------------------------------------------------ index table

def test_index_table_certifies_accuracy():
    model = truncated_exponential(1)
    table = PolytropicIndexTable(model, 1e-8, 5.0)
    assert table.certified_error < 1e-9
    rng = np.random.default_rng(42)
    for omega in np.exp(rng.uniform(math.log(1e-8), math.log(5.0), size=15)):
        assert table(omega) == pytest.approx(eval_n(model, omega), abs=1e-8)


def test_index_table_falls_back_outside_range():
    model = truncated_exponential(1)
    table = PolytropicIndexTable(model, 1e-4, 1.0)
    assert table(50.0) == pytest.approx(eval_n(model, 50.0), rel=1e-12)


def test_index_table_refuses_uncertified_spline(king_model):
    with pytest.raises(EvaluationError, match="129 nodes"):
        PolytropicIndexTable(king_model, 1e-13, 1.0, max_nodes=129)


def test_index_table_constant_for_polytropes():
    table = PolytropicIndexTable(polytrope(n=3, l=0.5), 1e-10, 10.0)
    assert table(1e-9) == 3.0
    assert table(5.0) == 3.0
    assert table.certified_error == 0.0


# -------------------------------------------------------------- profiles

def test_map_profile_consistency(king_model, king_profile):
    U, Q, Om = map_profile(king_model, king_profile)
    assert len(U) == len(king_profile.r)
    i = len(U) // 2
    st = state_at(king_model, king_profile, king_profile.r[i])
    assert U[i] == pytest.approx(st.U, rel=1e-12)
    assert Q[i] == pytest.approx(st.Q, rel=1e-12)
    assert Om[i] == pytest.approx(st.Omega, rel=1e-12)
    # a regular centre launches from the L2 line
    assert U[0] == pytest.approx(0.75, abs=1e-9)
    assert Q[0] < 1e-10
