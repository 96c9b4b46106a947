"""Tests for the float DOP853 integrator behind both flows.

scipy's ``solve_ivp(method="DOP853")`` runs the same method on numpy
arrays and serves as the oracle.  Roundoff in the first error estimates can
move the step points, so event times, masses and end states are compared
at 1e-9 to 1e-8 relative (the integration tolerance is 1e-10), while
classifications and orbit terminations must be identical.  The inlined
tableau and the ``brentq`` port must equal scipy's to the bit, and so must
the generated step and interpolant code equal a plain loop over that
tableau.
"""

import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from vpequil import compactsys, physical
from vpequil import _ode
from vpequil._ode import brentq, dop853
from vpequil.compactsys import CompactSettings, CompactState, integrate_compact, rhs_compact
from vpequil.distmodels import (
    EvaluationError,
    king_model,
    polytrope,
    tabulated_model,
    wilson_model,
)
from vpequil.physical import (
    FINITE_RADIUS,
    INFINITE_FINITE_MASS,
    INFINITE_UNDETERMINED,
    SolveSettings,
    center_series,
    integrate_physical,
    rhs_physical,
)

A_N1 = math.sqrt(4.0 * math.pi * 2.0 ** 1.5 * math.pi ** 2)   # n=1, l=0, omega_c=1


def scipy_physical(model, omega_c):
    st = SolveSettings().resolved(model, omega_c)
    m0, w0 = center_series(model, omega_c, st.startup_radius)

    def floor(r, y):
        return y[1] - st.omega_floor
    floor.terminal, floor.direction = True, -1
    return solve_ivp(lambda r, y: rhs_physical(model, r, y), (st.startup_radius, st.r_max),
                     [m0, w0], method="DOP853", rtol=st.rel_tol, atol=st.abs_tol,
                     events=[floor], dense_output=True)


def scipy_compact(model, start, backward=False, st=CompactSettings()):
    om_hi = math.nextafter(1.0, 0.0)
    floor_c = compactsys._OMEGA_FLOOR / (1.0 + compactsys._OMEGA_FLOOR)
    roof_c = compactsys._OMEGA_CEILING / (1.0 + compactsys._OMEGA_CEILING)
    eps = compactsys._ATTRACTION_EPS

    def rhs(lam, y):
        du, dq, dom = rhs_compact(model, (y[0], y[1], min(max(y[2], 1e-300), om_hi)))
        return [du, dq, dom, (1.0 - y[0]) * (1.0 - y[1])]

    events = [lambda lam, y: y[2] - floor_c,
              lambda lam, y: math.hypot(y[0], y[1] - 1.0, y[2]) - eps,
              lambda lam, y: math.hypot(y[0] - 1.0, y[1] - 1.0, y[2]) - eps,
              lambda lam, y: y[2] - roof_c]
    for ev, direction in zip(events, (-1, -1, -1, 1)):
        ev.terminal, ev.direction = True, direction
    atol = [st.abs_tol] * 3 + [max(st.abs_tol, 1e-14)]
    sol = solve_ivp(rhs, (0.0, -st.lambda_max if backward else st.lambda_max),
                    [*start, 0.0], method="DOP853", rtol=st.rel_tol, atol=atol,
                    events=events)
    fired = [i for i, te in enumerate(sol.t_events) if te.size]
    termination = {(): "lambda-max", (0,): "omega-floor", (1,): "corner-(0,1,0)",
                   (2,): "corner-(1,1,0)", (3,): "omega-ceiling"}[tuple(fired)]
    return sol, termination


def cell_centres():
    # one start per cell of a 2 x 3 x 4 grid over the criterion-7 box
    box, cells = ((0.05, 0.95), (0.05, 0.95), (0.005, 0.5)), (2, 3, 4)
    axes = [[lo + (hi - lo) * (i + 0.5) / k for i in range(k)]
            for (lo, hi), k in zip(box, cells)]
    return [(u, q, om) for u in axes[0] for q in axes[1] for om in axes[2]]


# ------------------------------------------------------------ physical flow

@pytest.mark.parametrize("model", [polytrope(n=n, l=l) for n in (1.0, 3.0, 4.5)
                                   for l in (-0.4, 0.0, 1.0)]
                         + [wilson_model(), king_model()],
                         ids=lambda m: f"{m.family}-l{m.l}")
def test_physical_matches_solve_ivp(model):
    omega_c = 0.9
    prof = integrate_physical(model, omega_c)
    ref = scipy_physical(model, omega_c)
    if ref.status == 1:
        assert prof.classification == FINITE_RADIUS
        assert prof.radius == pytest.approx(ref.t_events[0][0], rel=1e-9)
        assert prof.r[-1] == prof.radius
        assert prof.total_mass == pytest.approx(ref.y_events[0][0][0], rel=1e-9)
    else:
        assert prof.classification != FINITE_RADIUS
        assert prof.r[-1] == ref.t[-1]
        assert prof.m[-1] == pytest.approx(ref.y[0][-1], rel=1e-9)
        assert prof.omega[-1] == pytest.approx(ref.y[1][-1], rel=1e-9)


@pytest.mark.parametrize("n, expected", [(5.0, INFINITE_FINITE_MASS),
                                         (6.0, INFINITE_UNDETERMINED)])
def test_halo_classification_matches_solve_ivp(n, expected):
    model = polytrope(n=n)
    prof = integrate_physical(model, 1.0)
    ref = scipy_physical(model, 1.0)
    m_end = ref.y[0][-1]
    ratio = (m_end - ref.sol(ref.t[-1] / 10.0)[0]) / m_end
    ref_class = (INFINITE_FINITE_MASS if ratio < physical.MASS_DECADE_THRESHOLD
                 else INFINITE_UNDETERMINED)
    assert prof.classification == ref_class == expected
    assert prof.diagnostics["decade_mass_ratio"] == pytest.approx(ratio, rel=1e-6)


def test_linear_model_radius():
    prof = integrate_physical(polytrope(n=1.0), 1.0)
    assert prof.radius == pytest.approx(math.pi / A_N1, rel=1e-9)


def test_physical_runs_are_bit_equal():
    a = integrate_physical(wilson_model(), 1.3)
    b = integrate_physical(wilson_model(), 1.3)
    assert a.r.tobytes() == b.r.tobytes()
    assert a.m.tobytes() == b.m.tobytes()
    assert a.omega.tobytes() == b.omega.tobytes()
    assert a.diagnostics == b.diagnostics
    r = 0.37 * a.radius
    assert a.dense(r) == b.dense(r)


def counting_dop853(monkeypatch, module):
    """Wrap the `fun` that `module`'s integrator hands to dop853; returns the calls."""
    calls = []

    def wrapped(fun, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return fun(t, y)
        return dop853(counted, *args, **kwargs)
    monkeypatch.setattr(module, "dop853", wrapped)
    return calls


def test_physical_rhs_calls_counted(monkeypatch):
    calls = counting_dop853(monkeypatch, physical)
    prof = integrate_physical(polytrope(n=3.0), 1.0)
    assert len(calls) == prof.diagnostics["n_rhs_evals"]


# ------------------------------------------------------ fused right-hand sides

TABLE_ENERGIES = np.linspace(0.0, 3.0, 61)
FIELD_MODELS = {
    "n3": polytrope(n=3.0),
    "king": king_model(),
    "wilson-l-0.4": wilson_model(l=-0.4),
    "table61": tabulated_model(TABLE_ENERGIES, np.expm1(TABLE_ENERGIES), k=1.0),
}
FIELD_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def field_given_to_dop853(module, run):
    """The right-hand side that `module`'s integrator hands to dop853 in `run()`."""
    funs = []

    def spy(fun, *args, **kwargs):
        funs.append(fun)
        return dop853(fun, *args, **kwargs)
    with mock.patch.object(module, "dop853", spy):
        run()
    assert len(funs) == 1
    return funs[0]


PHYSICAL_FIELDS = {name: field_given_to_dop853(
    physical, lambda m=model: integrate_physical(m, 0.5, SolveSettings(r_max=1.0)))
    for name, model in FIELD_MODELS.items()}
COMPACT_FIELDS = {name: field_given_to_dop853(
    compactsys, lambda m=model: integrate_compact(m, CompactState(0.6, 0.3, 0.3),
                                                  CompactSettings(lambda_max=0.1)))
    for name, model in FIELD_MODELS.items()}


def outcome(fn, *args):
    """fn(*args) as a tuple, or the EvaluationError it raises as (type, message)."""
    try:
        return tuple(fn(*args))
    except EvaluationError as exc:
        return type(exc), str(exc)


@FIELD_SETTINGS
@given(name=st.sampled_from(sorted(FIELD_MODELS)),
       r=st.floats(1e-6, 1e3),
       m=st.floats(0.0, 10.0),
       omega=st.one_of(st.floats(-1.0, 0.0), st.just(0.0), st.floats(1e-12, 2.9)))
def test_fused_physical_field_is_rhs_physical(name, r, m, omega):
    # omega <= 0 takes the vacuum branch, rho = 0
    assert (outcome(PHYSICAL_FIELDS[name], r, [m, omega])
            == outcome(rhs_physical, FIELD_MODELS[name], r, (m, omega)))


@FIELD_SETTINGS
@given(name=st.sampled_from(sorted(FIELD_MODELS)),
       U=st.floats(0.0, 1.0),
       Q=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       Omega=st.one_of(st.floats(0.0, 1e-12, exclude_min=True),
                       st.floats(1e-12, 0.74),
                       st.floats(0.74, 1.0, exclude_max=True),   # at and past the table end
                       st.sampled_from([0.75, math.nextafter(0.75, 1.0),
                                        math.nextafter(1.0, 0.0)])),
       xi=st.floats(-5.0, 5.0))
def test_fused_compact_field_is_rhs_compact(name, U, Q, Omega, xi):
    # the integrator's closure carries x = log omega; at x = log(Omega/(1 - Omega))
    # its dU and dQ are rhs_compact's, rhs_compact's dOmega is Omega (1 - Omega) dx,
    # and xi' = (1 - U)(1 - Q); or both raise the same error (a table's index
    # is undefined below omega = 1e-300)
    x = math.log(Omega / (1.0 - Omega))
    fused = outcome(COMPACT_FIELDS[name], 0.0, [U, Q, x, xi])
    if len(fused) == 4:
        du, dq, dx, dxi = fused
        assert dxi == (1.0 - U) * (1.0 - Q)
        fused = (du, dq, Omega * (1.0 - Omega) * dx)
    assert fused == outcome(rhs_compact, FIELD_MODELS[name], (U, Q, Omega))


def plain_dop853(fun, *args, **kwargs):
    """dop853 on the same closure wrapped in a plain lambda: one call per stage."""
    return dop853(lambda t, y: fun(t, y), *args, **kwargs)


@pytest.mark.parametrize("name", sorted(FIELD_MODELS))
def test_fused_solve_equals_generic_solve(name):
    # the attempt with the field inlined takes the steps, rejections, event
    # and dense values of the one that calls the closure 12 times
    runs = []
    for integrator in (dop853, plain_dop853):
        with mock.patch.object(physical, "dop853", integrator):
            prof = integrate_physical(FIELD_MODELS[name], 0.5)
        dense = [prof.dense(r) for r in np.linspace(prof.r[0], prof.r[-1], 7)]
        runs.append((prof.r.tolist(), prof.m.tolist(), prof.omega.tolist(), dense,
                     prof.diagnostics, prof._dense.nfev, prof._dense.event))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("name", sorted(FIELD_MODELS))
def test_fused_orbit_equals_generic_orbit(name, backward):
    runs = []
    for integrator in (dop853, plain_dop853):
        with mock.patch.object(compactsys, "dop853", integrator):
            orbit = integrate_compact(FIELD_MODELS[name], CompactState(0.6, 0.3, 0.3),
                                      CompactSettings(lambda_max=30.0), backward=backward)
        dense = [orbit.dense(v).tolist() for v in np.linspace(orbit.lam[0], orbit.lam[-1], 7)]
        runs.append(([getattr(orbit, k).tolist() for k in ("lam", "U", "Q", "Omega", "xi")],
                     dense, orbit.diagnostics, orbit.termination))
    assert runs[0] == runs[1]


# ------------------------------------------------------------- compact flow

@pytest.mark.parametrize("model", [king_model(), polytrope(n=2.0)], ids=["king", "n2"])
def test_compact_orbits_match_solve_ivp(model):
    for start in cell_centres():
        orbit = integrate_compact(model, CompactState(*start))
        ref, termination = scipy_compact(model, start)
        assert orbit.termination == termination, start
        end = np.array([orbit.lam[-1], orbit.U[-1], orbit.Q[-1], orbit.Omega[-1], orbit.xi[-1]])
        ref_end = np.array([ref.t[-1], *ref.y[:, -1]])
        assert np.max(np.abs(end - ref_end) / np.maximum(np.abs(ref_end), 1.0)) < 1e-8, start


def test_backward_orbit_matches_solve_ivp_labels():
    model, start = polytrope(n=3.0), (0.5, 0.3, 0.4)
    st = CompactSettings(lambda_max=80.0)
    orbit = integrate_compact(model, CompactState(*start), st, backward=True)
    _, termination = scipy_compact(model, start, backward=True, st=st)
    assert orbit.termination == termination == "omega-ceiling"
    assert orbit.limit_label == "unresolved"


@pytest.mark.parametrize("backward", [False, True])
def test_dense_returns_nodes_on_both_directions(backward):
    orbit = integrate_compact(king_model(), CompactState(0.6, 0.3, 0.3),
                              CompactSettings(lambda_max=15.0), backward=backward)
    assert len(orbit.lam) > 10
    nodes = np.array([orbit.lam, orbit.U, orbit.Q, orbit.Omega, orbit.xi])
    for i in (0, 1, len(orbit.lam) // 2, len(orbit.lam) - 1):
        got = orbit.dense(orbit.lam[i])
        assert got == pytest.approx(nodes[1:, i], rel=1e-13, abs=1e-15)


def test_compact_runs_are_bit_equal():
    a = integrate_compact(king_model(), CompactState(0.4, 0.2, 0.25))
    b = integrate_compact(king_model(), CompactState(0.4, 0.2, 0.25))
    for name in ("lam", "U", "Q", "Omega", "xi"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.diagnostics == b.diagnostics


def test_compact_rhs_calls_counted(monkeypatch):
    calls = counting_dop853(monkeypatch, compactsys)
    orbit = integrate_compact(polytrope(n=2.0), CompactState(0.6, 0.3, 0.3))
    assert len(calls) == orbit.diagnostics["n_rhs_evals"]


def test_rejections_close_the_rhs_count():
    # 12 calls per attempt, accepted or rejected, 2 to start, and 3 for the
    # interpolant of the surface step; a lambda-max orbit builds none
    prof = integrate_physical(polytrope(n=1.0), 1.5)
    d = prof.diagnostics
    assert d["termination"] == "surface"
    assert d["n_rejected"] > 0
    assert d["n_rhs_evals"] == 2 + 12 * (d["n_steps"] + d["n_rejected"]) + 3 * 1
    orbit = integrate_compact(king_model(), CompactState(0.6, 0.3, 0.3),
                              CompactSettings(lambda_max=10.0))
    d = orbit.diagnostics
    assert orbit.termination == "lambda-max"
    assert d["n_rejected"] > 0
    assert d["n_rhs_evals"] == 2 + 12 * (d["n_steps"] + d["n_rejected"]) + 3 * 0


# --------------------------------------------------------- integrator itself

def oscillator(t, y):
    return [y[1], -y[0]]


def test_upward_event_ignores_downward_crossings():
    # y = sin t from t = 2: falls through 1/2 at pi - pi/6, rises through it
    # at 2 pi + pi/6
    y0 = [math.sin(2.0), math.cos(2.0)]
    up = dop853(oscillator, 2.0, y0, 20.0, 1e-10, 1e-12,
                events=[(lambda t, y: y[0] - 0.5, 1)])
    assert up.event == 0
    assert up.t[-1] == pytest.approx(2.0 * math.pi + math.pi / 6.0, rel=1e-9)
    down = dop853(oscillator, 2.0, y0, 20.0, 1e-10, 1e-12,
                  events=[(lambda t, y: y[0] - 0.5, -1)])
    assert down.t[-1] == pytest.approx(math.pi - math.pi / 6.0, rel=1e-9)


def test_earliest_event_wins():
    # both levels are crossed inside the same step; the earlier root ends the run
    sol = dop853(oscillator, 0.0, [0.0, 1.0], 10.0, 1e-10, 1e-12,
                 events=[(lambda t, y: y[0] - 0.500001, 1), (lambda t, y: y[0] - 0.5, 1)])
    assert sol.event == 1
    assert sol.t[-1] == pytest.approx(math.asin(0.5), rel=1e-9)
    assert sol.y[0][-1] == pytest.approx(0.5, rel=1e-12)
    back = dop853(oscillator, 0.0, [0.0, 1.0], -10.0, 1e-10, 1e-12,
                  events=[(lambda t, y: y[0] + 0.500001, -1), (lambda t, y: y[0] + 0.5, -1)])
    assert back.event == 1
    assert back.t[-1] == pytest.approx(-math.asin(0.5), rel=1e-9)


def test_interpolant_is_exact_for_degree_seven():
    # the continuous extension has order 7, so it reproduces y = t^7 up to roundoff
    sol = dop853(lambda t, y: [7.0 * t ** 6], 0.0, [0.0], 2.0, 1e-6, 1e-9)
    assert sol.n_steps > 5
    for t in np.linspace(0.05, 2.0, 40):
        assert sol(t)[0] == pytest.approx(t ** 7, rel=1e-13)


def test_backward_integration_hits_the_end():
    sol = dop853(oscillator, 3.0, [math.sin(3.0), math.cos(3.0)], -1.0, 1e-10, 1e-12)
    assert sol.event is None
    assert sol.t[-1] == -1.0
    assert sol.y[0][-1] == pytest.approx(math.sin(-1.0), rel=1e-8)
    assert sol(0.5)[0] == pytest.approx(math.sin(0.5), rel=1e-8)


def test_step_size_collapse_raises():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(EvaluationError, match="step size collapsed"):
        dop853(lambda t, y: [y[0] * y[0]], 0.0, [1.0], 2.0, 1e-10, 1e-30)


def test_bad_event_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        dop853(oscillator, 0.0, [0.0, 1.0], 1.0, 1e-8, 1e-8,
               events=[(lambda t, y: y[0], 0)])


@pytest.mark.parametrize("atol", [1e-12, np.float64(1e-12), np.array(1e-12), [1e-12],
                                  (1e-12, 1e-12), np.array([1e-12, 1e-12])],
                         ids=["float", "numpy-scalar", "0-d", "one", "n", "array-n"])
def test_atol_is_a_scalar_or_one_or_n_values(atol):
    sol = dop853(oscillator, 0.0, [0.0, 1.0], 5.0, 1e-10, atol)
    ref = dop853(oscillator, 0.0, [0.0, 1.0], 5.0, 1e-10, [1e-12, 1e-12])
    assert (sol.t.tolist(), sol.y.tolist()) == (ref.t.tolist(), ref.y.tolist())


@pytest.mark.parametrize("atol", [[], [1e-12] * 3], ids=["none", "three"])
def test_atol_of_another_length_rejected(atol):
    with pytest.raises(ValueError, match="atol has"):
        dop853(oscillator, 0.0, [0.0, 1.0], 5.0, 1e-10, atol)


def test_dense_stages_are_lazy():
    calls = []

    def counted(t, y):
        calls.append(t)
        return oscillator(t, y)
    sol = dop853(counted, 0.0, [0.0, 1.0], 30.0, 1e-10, 1e-12)
    accepted_and_rejected = 2 + 12 * (sol.n_steps + sol.n_rejected)
    assert sol.n_interpolants == 0
    assert sol.nfev == len(calls) == accepted_and_rejected
    assert sol.nfev <= 13 * sol.n_steps + 12 * sol.n_rejected
    for t in (1.0, 1.01, 17.0):
        assert sol(t)[0] == pytest.approx(math.sin(t), rel=1e-8)
    assert sol.nfev == len(calls) == accepted_and_rejected + 3 * sol.n_interpolants
    assert 1 <= sol.n_interpolants <= 3


@pytest.mark.parametrize("model, omega_c", [(polytrope(n=3.0), 1.0), (king_model(), 1.5),
                                            (polytrope(n=6.0), 1.0)])
def test_solve_pays_dense_stages_only_where_used(model, omega_c):
    prof = integrate_physical(model, omega_c)
    sol = prof._dense
    # one interpolant: the surface step or the mass-decade query
    assert sol.n_interpolants == 1
    assert prof.diagnostics["n_rhs_evals"] == 2 + 12 * (sol.n_steps + sol.n_rejected) + 3
    assert (prof.diagnostics["n_rhs_evals"]
            <= 13 * sol.n_steps + 3 * sol.n_interpolants + 12 * sol.n_rejected)


# ------------------------------------------------- scipy as the bit oracle

def test_tableau_equals_scipy():
    c = dop853_coefficients
    n = c.N_STAGES
    assert n == _ode._N_STAGES
    assert _ode._C == c.C[:n].tolist()
    assert _ode._A[0] is None
    assert _ode._A[1:] == [c.A[s, :s].tolist() for s in range(1, n)]
    assert _ode._B == c.B.tolist()
    assert _ode._E3 == c.E3.tolist()
    assert _ode._E5 == c.E5.tolist()
    assert _ode._C_EXTRA == c.C[n + 1:].tolist()
    assert _ode._A_EXTRA == [c.A[s, :s].tolist() for s in range(n + 1, c.N_STAGES_EXTENDED)]
    assert _ode._D == c.D.tolist()


def _weighted(coefs, stages):
    acc = 0.0
    for c, k in zip(coefs, stages):
        acc += c * k
    return acc


def _reference_stages(fun, t, h, y, K, rows):
    """Append to each K[j] the stages of the given tableau rows, as loops."""
    n, C, A = len(y), dop853_coefficients.C, dop853_coefficients.A
    for s in rows:
        a = A[s, :s].tolist()
        fs = fun(t + float(C[s]) * h, [y[j] + _weighted(a, K[j]) * h for j in range(n)])
        for j in range(n):
            K[j].append(fs[j])


def reference_attempt(fun, t, h, t_new, y, f, atol, rtol):
    c = dop853_coefficients
    n = len(y)
    K = [[f[j]] for j in range(n)]
    _reference_stages(fun, t, h, y, K, range(1, c.N_STAGES))
    y_new = [y[j] + h * _weighted(c.B.tolist(), K[j]) for j in range(n)]
    f_new = fun(t_new, y_new)
    err5 = err3 = 0.0
    for j in range(n):
        K[j].append(f_new[j])
        scale = atol[j] + max(abs(y[j]), abs(y_new[j])) * rtol
        e5 = _weighted(c.E5.tolist(), K[j]) / scale
        e3 = _weighted(c.E3.tolist(), K[j]) / scale
        err5 += e5 * e5
        err3 += e3 * e3
    return y_new, f_new, K, err5, err3


def reference_interpolant(fun, t, h, y, y_new, K):
    c = dop853_coefficients
    n = len(y)
    K = [list(Kj) for Kj in K]
    _reference_stages(fun, t, h, y, K, range(c.N_STAGES + 1, c.N_STAGES_EXTENDED))
    F = []
    for j in range(n):
        delta = y_new[j] - y[j]
        F.append((delta, h * K[j][0] - delta, 2.0 * delta - h * (K[j][12] + K[j][0]),
                  *(h * _weighted(d, K[j]) for d in c.D.tolist())))
    return F


def polynomial_field(n, read):
    """A field source for n states of which the first `read` are read: a
    constant, linear in t, in w = their sum and in one of them times w."""
    u = [f"u{j}" for j in range(read)]
    rows = [f"c[{i}][0] + c[{i}][1] * tau + c[{i}][2] * w + c[{i}][3] * u{i % read} * w"
            for i in range(n)]
    return _ode.Field("tau", (*u, *["_"] * (n - read)),
                      (f"w = 0.0 + {' + '.join(u)}", f"return {', '.join(rows)},"), ("c",))


@st.composite
def polynomial_problems(draw):
    n = draw(st.integers(1, 4))
    read = n - draw(st.integers(0, n - 1))           # states past `read` go unread
    unit = st.floats(-2.0, 2.0)
    coef = [draw(st.lists(unit, min_size=4, max_size=4)) for _ in range(n)]
    fun = _ode.bind(polynomial_field(n, read), coef)
    y = draw(st.lists(unit, min_size=n, max_size=n))
    h = draw(st.floats(1e-4, 0.3)) * draw(st.sampled_from([1.0, -1.0]))
    atol = draw(st.lists(st.floats(1e-12, 1e-6), min_size=n, max_size=n))
    return fun, draw(st.floats(-5.0, 5.0)), h, y, atol, draw(st.floats(1e-12, 1e-6))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(problem=polynomial_problems())
def test_generated_step_equals_tableau_loops(problem):
    # both attempts, one fun call per stage and the field's body inlined,
    # and the interpolant give the floats of plain loops over the tableau
    fun, t, h, y, atol, rtol = problem
    t_new = t + h
    f = fun(t, y)
    generic = _ode._generic(len(y))
    field, values = fun.field
    ref_y, ref_f, ref_K, ref_err5, ref_err3 = reference_attempt(fun, t, h, t_new, y, f,
                                                                atol, rtol)
    for attempt in (_ode._compiled(generic, "attempt")(fun),
                    _ode._compiled(field, "attempt")(*values)):
        y_new, f_new, K, err5, err3 = attempt(t, h, t_new, y, f, atol, rtol)
        assert y_new == ref_y
        assert tuple(f_new) == tuple(ref_f)
        assert list(K) == [k for Kj in ref_K for k in Kj]    # stages, component by component
        assert (err5, err3) == (ref_err5, ref_err3)
    t_old, h_old, y_old, F = _ode._compiled(generic, "interpolant")(fun)(t, h, y, y_new, K)
    assert (t_old, h_old, y_old) == (t, h, y)
    assert F == reference_interpolant(fun, t, h, y, y_new, ref_K)


def test_bound_field_is_stepped_inline():
    # dop853 runs the attempts of a field made by `bind` with its body inlined:
    # the closure is called only to start (f0 and the initial-step probe) and
    # for the three extra stages of each interpolant
    fun = _ode.bind(polynomial_field(2, 2), [[0.0, 0.0, 0.1, -0.2]] * 2)
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)
    counted.field = fun.field
    sol = dop853(counted, 0.0, [0.1, 0.2], 3.0, 1e-12, 1e-14)
    sol(1.5)
    assert sol.n_steps > 3 and sol.n_interpolants == 1
    assert len(calls) == 2 + 3 * sol.n_interpolants
    assert sol.nfev == 2 + 12 * (sol.n_steps + sol.n_rejected) + 3 * sol.n_interpolants


def test_cli_import_compiles_no_step():
    # the generated functions compile on a flow's first solve, never at import
    src = os.path.dirname(os.path.dirname(_ode.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import vpequil.cli; "
            "print(sys.modules['vpequil._ode']._compiled.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "0\n"


def _brent_cases():
    rng = np.random.default_rng(20041)
    cases = []
    for _ in range(150):
        a, b = rng.uniform(-4.0, 0.0), rng.uniform(0.05, 4.0)
        root = rng.uniform(a, b)
        p = int(rng.integers(1, 6))
        scale = rng.uniform(0.1, 3.0)
        cases.append((lambda x, r=root, p=p, s=scale:
                      (x - r) * (abs(x - r) ** (p - 1) + s * math.exp(-x * x)), a, b))
    cases.append((math.cos, 0.0, 3.0))
    cases.append((lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0))
    cases.append((lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 2.0))
    cases.append((lambda x: x - 1.0, 1.0, 3.0))        # root at the left end
    cases.append((lambda x: x * x - 4.0, -1.0, 2.0))   # root at the right end
    return cases


@pytest.mark.parametrize("tols", [{}, {"xtol": 4 * np.finfo(float).eps,
                                       "rtol": 4 * np.finfo(float).eps}])
def test_brentq_equals_scipy(tols):
    for f, a, b in _brent_cases():
        for lo, hi in ((a, b), (b, a)):
            assert brentq(f, lo, hi, **tols) == optimize.brentq(f, lo, hi, **tols)


@pytest.mark.parametrize("f, a, b, kwargs, exc", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),             # same sign
    (lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0, {}, ValueError),
    (lambda x: math.copysign(1.0, x - math.pi), 0.0, 10.0, {"maxiter": 2}, RuntimeError),
    (lambda x: x - 1.0, 0.0, 2.0, {"xtol": 0.0}, ValueError),
    (lambda x: x - 1.0, 0.0, 2.0, {"rtol": 1e-17}, ValueError),
])
def test_brentq_raises_like_scipy(f, a, b, kwargs, exc):
    with pytest.raises(exc):
        optimize.brentq(f, a, b, **kwargs)
    with pytest.raises(exc):
        brentq(f, a, b, **kwargs)
