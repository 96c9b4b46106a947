"""Tests for the float DOP853 integrator behind both flows.

scipy's ``solve_ivp(method="DOP853")`` runs the same method on numpy
arrays and serves as the oracle.  Roundoff in the first error estimates can
move the step points, so event times, masses and end states are compared
at 1e-9 to 1e-8 relative (the integration tolerance is 1e-10), while
classifications and orbit terminations must be identical.  The inlined
tableau and the ``brentq`` port must equal scipy's to the bit, and so must
the generated step loop and interpolant equal a plain Python integrator over
that tableau.
"""

import math
import os
import random
import struct
import subprocess
import sys
from array import array
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
from vpequil.compactsys import CompactSettings, CompactState, integrate_compact
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
    natural_length,
)

from oracles import rhs_compact, rhs_physical

A_N1 = math.sqrt(4.0 * math.pi * 2.0 ** 1.5 * math.pi ** 2)   # n=1, l=0, omega_c=1


def scipy_physical(model, omega_c):
    length = natural_length(model, omega_c)
    r0 = physical._STARTUP_FRACTION * length
    m0, w0 = center_series(model, omega_c, r0)

    def floor(r, y):
        return y[1] - physical._FLOOR_FRACTION * omega_c
    floor.terminal, floor.direction = True, -1
    return solve_ivp(lambda r, y: rhs_physical(model, r, y),
                     (r0, physical._CUTOFF_FRACTION * length), [m0, w0], method="DOP853",
                     rtol=SolveSettings().rel_tol, atol=physical._ABS_TOL,
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
    atol = [1e-30] * 3 + [1e-14]
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
    physical, lambda m=model: integrate_physical(m, 0.5))
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
    # the integrator's closure carries (log u, log q, x = log omega, xi), a
    # face as -+DBL_MAX.  By the chain rule its derivatives times U (1 - U),
    # Q (1 - Q) and Omega (1 - Omega) are rhs_compact's dU, dQ and dOmega, and
    # xi' = (1 - U)(1 - Q).  Both sides form U, 1 - U, Q and 1 - Q to within
    # a few ulps of 1 and add terms no larger than size = 1 + a1 + a2 +
    # |n + l|, so each rounds by about eps * size times the factor; 4 eps
    # bounds the difference, plus one rounding each in the subnormal range.
    # Where rhs_compact raises (a table's index is undefined below omega =
    # 1e-300) the closure raises the same error; at Q = 0, where rhs_compact
    # skips n and the closure reads it, the closure may raise alone
    model = FIELD_MODELS[name]
    logs = [compactsys._log_ratio(v, sys.float_info.max) for v in (U, Q)]
    x = math.log(Omega / (1.0 - Omega))
    fused = outcome(COMPACT_FIELDS[name], 0.0, [*logs, x, xi])
    want = outcome(rhs_compact, model, (U, Q, Omega))
    if len(fused) != 4 or len(want) != 3:
        assert fused == want or Q == 0.0 and len(want) == 3
        return
    x_hi, w_hi = compactsys._omega_cap(model)
    l = model.l
    size = 1.0 + (3.0 + 2.0 * l) + (4.0 + 2.0 * l) + abs(
        model._index(math.exp(x) if x < x_hi else w_hi) + l)
    bound = 4.0 * sys.float_info.epsilon * size
    dlu, dlq, dx, dxi = fused
    for factor, chained, direct in ((U * (1.0 - U), dlu, want[0]),
                                    (Q * (1.0 - Q), dlq, want[1]),
                                    (Omega * (1.0 - Omega), dx, want[2]),
                                    (1.0, dxi, (1.0 - U) * (1.0 - Q))):
        assert abs(factor * chained - direct) <= bound * factor + 2.0 * math.ulp(0.0)


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
        dense = [orbit.dense(v) for v in np.linspace(orbit.lam[0], orbit.lam[-1], 7)]
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


def level_events(n, crossings):
    """An `Events` source on n states: event i is state j minus the bound
    level ``lv[i]``, in direction d, for the i-th (j, d) of crossings."""
    v = tuple(f"v{j}" for j in range(n))
    body = "".join(f"v{j} - lv[{i}], " for i, (j, _) in enumerate(crossings))
    return _ode.Events("tau", v, (f"return ({body})",), ("lv",),
                       tuple(d for _, d in crossings))


def levels(n, *crossings):
    """`level_events` bound: each (j, level, d) of crossings is one event;
    with none given, no event fires."""
    return _ode.bind(level_events(n, [(j, d) for j, _, d in crossings]),
                     [c for _, c, _ in crossings])


def test_upward_event_ignores_downward_crossings():
    # y = sin t from t = 2: falls through 1/2 at pi - pi/6, rises through it
    # at 2 pi + pi/6
    y0 = [math.sin(2.0), math.cos(2.0)]
    up = dop853(oscillator, 2.0, y0, 20.0, 1e-10, 1e-12, levels(2, (0, 0.5, 1)))
    assert up.event == 0
    assert up.t[-1] == pytest.approx(2.0 * math.pi + math.pi / 6.0, rel=1e-9)
    down = dop853(oscillator, 2.0, y0, 20.0, 1e-10, 1e-12, levels(2, (0, 0.5, -1)))
    assert down.t[-1] == pytest.approx(math.pi - math.pi / 6.0, rel=1e-9)


def test_earliest_event_wins():
    # both levels are crossed inside the same step; the earlier root ends the run
    sol = dop853(oscillator, 0.0, [0.0, 1.0], 10.0, 1e-10, 1e-12,
                 levels(2, (0, 0.500001, 1), (0, 0.5, 1)))
    assert sol.event == 1
    assert sol.t[-1] == pytest.approx(math.asin(0.5), rel=1e-9)
    assert sol.y[0][-1] == pytest.approx(0.5, rel=1e-12)
    back = dop853(oscillator, 0.0, [0.0, 1.0], -10.0, 1e-10, 1e-12,
                  levels(2, (0, -0.500001, -1), (0, -0.5, -1)))
    assert back.event == 1
    assert back.t[-1] == pytest.approx(-math.asin(0.5), rel=1e-9)


def test_interpolant_is_exact_for_degree_seven():
    # the continuous extension has order 7, so it reproduces y = t^7 up to roundoff
    sol = dop853(lambda t, y: [7.0 * t ** 6], 0.0, [0.0], 2.0, 1e-6, 1e-9, levels(1))
    assert sol.n_steps > 5
    for t in np.linspace(0.05, 2.0, 40):
        assert sol(t)[0] == pytest.approx(t ** 7, rel=1e-13)


def test_backward_integration_hits_the_end():
    sol = dop853(oscillator, 3.0, [math.sin(3.0), math.cos(3.0)], -1.0, 1e-10, 1e-12,
                 levels(2))
    assert sol.event is None
    assert sol.t[-1] == -1.0
    assert sol.y[0][-1] == pytest.approx(math.sin(-1.0), rel=1e-8)
    assert sol(0.5)[0] == pytest.approx(math.sin(0.5), rel=1e-8)


def test_step_size_collapse_raises():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(EvaluationError, match="step size collapsed"):
        dop853(lambda t, y: [y[0] * y[0]], 0.0, [1.0], 2.0, 1e-10, 1e-30, levels(1))


def test_bad_event_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        dop853(oscillator, 0.0, [0.0, 1.0], 1.0, 1e-8, 1e-8, levels(2, (0, 0.0, 0)))


def test_dense_stages_are_lazy():
    calls = []

    def counted(t, y):
        calls.append(t)
        return oscillator(t, y)
    sol = dop853(counted, 0.0, [0.0, 1.0], 30.0, 1e-10, 1e-12, levels(2))
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
        scale = atol + max(abs(y[j]), abs(y_new[j])) * rtol
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


def reference_evaluate(piece, t):
    """A piece at t as scipy's Dop853DenseOutput sums it, as a loop."""
    t_old, h, y_old, F = piece
    x = (t - t_old) / h
    out = []
    for y0, row in zip(y_old, F):
        acc = 0.0
        for i, f in enumerate(reversed(row)):
            acc = (acc + f) * (x if i % 2 == 0 else 1.0 - x)
        out.append(acc + y0)
    return out


def reference_dop853(fun, t0, y0, t_end, rtol, atol, events, max_nfev=math.inf):
    """A plain Python DOP853 integrator on `reference_attempt`: scipy's step
    control and minimum step, event pairs checked after each accepted step,
    `brentq` on `reference_interpolant` for a hit.  Returns the trajectory's
    packed buffer, nfev, n_rejected, the event and the dense-output pieces it
    built, or the EvaluationError it raised; None past max_nfev calls."""
    y, n = list(y0), len(y0)
    direction = 1.0 if t_end > t0 else -1.0
    t = t0
    f = fun(t, y)
    h_abs = _ode._initial_step(fun, t, y, f, t_end, direction, rtol, atol)
    nfev, n_rejected = 2, 0
    g = [fn(t, y) for fn, _ in events]
    buf, pieces, event = [t, *y], {}, None
    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return EvaluationError, f"step size collapsed below {min_step:.3g} at t={t:.17g}"
            if nfev > max_nfev:
                return None
            t_new = min(t + h_abs, t_end) if direction > 0 else max(t - h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, K, err5, err3 = reference_attempt(fun, t, h, t_new, y, f, atol, rtol)
            nfev += 12
            norm = 0.0 if err5 == 0.0 else h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** (-1.0 / 8.0))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm ** (-1.0 / 8.0))
            rejected = True
            n_rejected += 1
        buf += [k for Kj in K for k in Kj]
        g_new = [fn(t_new, y_new) for fn, _ in events]
        hits = [i for i, (_, d) in enumerate(events)
                if (g[i] <= 0.0 <= g_new[i] if d > 0 else g[i] >= 0.0 >= g_new[i])]
        if hits:
            piece = (t, h, y, reference_interpolant(fun, t, h, y, y_new, K))
            nfev += 3
            pieces[len(buf) // (1 + 14 * n) - 1] = piece
            roots = [brentq(lambda s, fn=events[i][0]: fn(s, reference_evaluate(piece, s)),
                            t, t_new, xtol=_ode._ROOT_TOL, rtol=_ode._ROOT_TOL) for i in hits]
            first = min(range(len(hits)), key=lambda k: direction * roots[k])
            event = hits[first]
            buf += [roots[first], *reference_evaluate(piece, roots[first])]
            break
        buf += [t_new, *y_new]
        if direction * (t_new - t_end) >= 0.0:
            break
        t, y, f, g = t_new, y_new, f_new, g_new
    buf += [0.0] * (13 * n)
    return buf, nfev, n_rejected, event, pieces


def polynomial_solve(rng):
    """A solve of a polynomial field with 0-2 level events, forward or
    backward, as (fun, t0, y0, t_end, rtol, atol, event pairs, the events as
    one bound source); the pairs are the reference's.  A quarter of the
    coefficients and starts are 0."""
    def unit():
        return 0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.0)
    n = rng.randint(1, 4)
    read = n - rng.randint(0, n - 1)           # states past `read` go unread
    coef = [[unit() for _ in range(4)] for _ in range(n)]
    fun = _ode.bind(polynomial_field(n, read), coef)
    y0 = [unit() for _ in range(n)]
    atol = rng.uniform(1e-12, 1e-6)
    t0 = rng.uniform(-5.0, 5.0)
    t_end = t0 + rng.uniform(0.05, 1.5) * rng.choice((1.0, -1.0))
    rtol = rng.uniform(1e-11, 1e-5)
    crossings = [(rng.randrange(n), rng.uniform(-0.05, 0.05), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 2))]
    lv = [y0[j] + dy for j, dy, _ in crossings]
    pairs = [(lambda t, y, j=j, c=c: y[j] - c, d) for (j, _, d), c in zip(crossings, lv)]
    events = levels(n, *((j, c, d) for (j, _, d), c in zip(crossings, lv)))
    return fun, t0, y0, t_end, rtol, atol, pairs, events


# 200 fixed draws: hypothesis draws move with every constant of the code
# base, and some turn a field stiff (millions of explicit steps in both
# integrators)
GENERATED_LOOP_SEED = 2026
STIFF_NFEV = 50_000     # a reference past this many calls is not compared


def test_generated_loop_equals_reference_integrator():
    # the generated loop, with the field's body inlined or one call per
    # stage, gives the nodes, the packed stages, nfev, n_rejected, event,
    # root and dense output of a plain Python integrator on loops over the
    # tableau
    rng = random.Random(GENERATED_LOOP_SEED)
    outcomes = []
    for _ in range(200):
        problem, plain = polynomial_solve(rng), rng.random() < 0.5
        outcomes.append(check_generated_loop(problem, plain))
    assert outcomes.count("stiff") <= 2 and outcomes.count("steps") >= 100, outcomes


def test_error_norm_of_a_vanishing_fifth_order_error_is_zero():
    # stages of order 1e-158: err5 = 0 and 0.01 err3 underflows, so the norm's
    # denominator is 0; the step is accepted, in the loop as in the reference
    coef = [[9.092516466997666e-159, 9.092516466997666e-159, -1.3094162232551625,
             9.092516466997666e-159]]
    problem = (_ode.bind(polynomial_field(1, 1), coef), -1.3094162232551625,
               [9.092516466997666e-159], -1.2594162232551624, 1e-11, 1e-12, [], levels(1))
    for plain in (False, True):
        assert check_generated_loop(problem, plain) == "steps"


def check_generated_loop(problem, plain):
    fun, t0, y0, t_end, rtol, atol, pairs, events = problem
    ref = reference_dop853(fun, t0, y0, t_end, rtol, atol, pairs, STIFF_NFEV)
    if ref is None:
        return "stiff"
    try:
        sol = dop853((lambda t, y: fun(t, y)) if plain else fun, t0, y0, t_end, rtol, atol,
                     events)
    except EvaluationError as exc:
        assert ref == (EvaluationError, str(exc))
        return "collapse"
    buf, nfev, n_rejected, event, pieces = ref
    assert sol._buf.tolist() == buf
    assert sol._buf.tobytes() == array("d", buf).tobytes()     # signs of zero too
    assert (sol.nfev, sol.n_rejected, sol.event) == (nfev, n_rejected, event)
    assert sol.t[-1] == buf[-1 - 14 * len(y0)]                # the root when an event fired
    i = sol.n_steps // 2
    mid = 0.5 * (sol.t[i] + sol.t[i + 1])
    if i not in pieces:
        stride = 1 + 14 * len(y0)
        row = buf[i * stride:(i + 2) * stride]
        n = len(y0)
        K = [row[1 + n + 13 * j:1 + n + 13 * (j + 1)] for j in range(n)]
        pieces[i] = (row[0], row[stride] - row[0], row[1:1 + n],
                     reference_interpolant(fun, row[0], row[stride] - row[0], row[1:1 + n],
                                           row[stride + 1:stride + 1 + n], K))
    assert sol(mid) == reference_evaluate(pieces[i], mid)
    return "steps"


@pytest.mark.parametrize("flow", ["physical", "compact", "compact-backward"])
def test_flows_equal_reference_integrator(flow):
    # the loops of both flows, with rejected steps and a terminal event,
    # against the plain integrator on their own field and events
    if flow == "physical":
        module, run = physical, lambda: integrate_physical(king_model(), 0.5)
    else:
        module, run = compactsys, lambda: integrate_compact(
            FIELD_MODELS["n3"], CompactState(0.5, 0.3, 0.4), CompactSettings(lambda_max=80.0),
            backward=flow == "compact-backward")
    calls = []

    def spy(fun, t0, y0, t_end, rtol, atol, events):
        calls.append((fun, t0, y0, t_end, rtol, atol, events))
        return dop853(fun, t0, y0, t_end, rtol, atol, events)
    with mock.patch.object(module, "dop853", spy):
        run()
    fun, t0, y0, t_end, rtol, atol, events = calls[0]
    pairs = [(lambda t, y, i=i: events(t, y)[i], d)
             for i, d in enumerate(events.field[0].directions)]
    sol = dop853(fun, t0, y0, t_end, rtol, atol, events=events)
    buf, nfev, n_rejected, event, _ = reference_dop853(fun, t0, list(y0), t_end, rtol, atol,
                                                       pairs)
    assert sol.n_rejected == n_rejected > 0
    assert sol.event == event is not None
    assert (sol._buf.tolist(), sol.nfev) == (buf, nfev)
    assert sol._buf.tobytes() == array("d", buf).tobytes()


def test_bound_field_is_stepped_inline():
    # dop853 runs a field made by `bind` with its body inlined in the loop:
    # the closure is called only to start (f0 and the initial-step probe) and
    # for the three extra stages of each interpolant
    fun = _ode.bind(polynomial_field(2, 2), [[0.0, 0.0, 0.1, -0.2]] * 2)
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)
    counted.field = fun.field
    sol = dop853(counted, 0.0, [0.1, 0.2], 3.0, 1e-12, 1e-14, levels(2))
    sol(1.5)
    assert sol.n_steps > 3 and sol.n_interpolants == 1
    assert len(calls) == 2 + 3 * sol.n_interpolants
    assert sol.nfev == 2 + 12 * (sol.n_steps + sol.n_rejected) + 3 * sol.n_interpolants


def scale_function():
    """The loop's error-scale lines for one component as a function."""
    lines = "".join(f"    {line}\n" for line in _ode._scale(0))
    namespace = {}
    exec(f"def scale(atol, y_0, yn_0, rtol):\n{lines}    return sc_0\n", namespace)
    return namespace["scale"]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, -1e-310,
                  math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0]


def same_float(x, y):
    return math.isnan(x) and math.isnan(y) or struct.pack("d", x) == struct.pack("d", y)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
       y=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
       yn=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
       rtol=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)))
def test_scale_line_is_max_of_abs(a, y, yn, rtol):
    # the comparison form of the error scale gives the bits of the builtin
    # form, in both argument orders: -0.0, subnormals, infinities and nan
    scale = scale_function()
    for u, v in ((y, yn), (yn, y)):
        assert same_float(scale(a, u, v, rtol), a + max(abs(u), abs(v)) * rtol)


def test_scale_line_on_special_pairs():
    scale = scale_function()
    for u in SPECIAL_FLOATS:
        for v in SPECIAL_FLOATS:
            for a in (0.0, -0.0, 1e-12):
                assert same_float(scale(a, u, v, 1e-10), a + max(abs(u), abs(v)) * 1e-10)


SHIPPED_SOURCES = {
    "physical polytrope": (physical._physical_field(polytrope(n=3.0)).field[0], physical._FLOOR),
    "physical kernel(omega)": (physical._physical_field(king_model()).field[0], physical._FLOOR),
    "compact": (compactsys._ORBIT_FIELD, compactsys._ORBIT_EVENTS),
    **{f"generic n={n}": (_ode._generic(n), level_events(n, [(0, 1), (n - 1, -1)]))
       for n in range(1, 5)},
    **{f"polynomial n={n}": (polynomial_field(n, max(n - 1, 1)), level_events(n, [(0, 1)]))
       for n in range(1, 5)},
}


def test_flow_loops_call_no_builtin():
    # the loops of both flows, the physical one with the polytrope's kernel
    # written in and with the call kernel(omega): the loop's own calls are
    # nextafter, the packs and frombytes
    assert "kernel(omega)" in "".join(SHIPPED_SOURCES["physical kernel(omega)"][0].body)
    for name in ("physical polytrope", "physical kernel(omega)", "compact"):
        field, events = SHIPPED_SOURCES[name]
        consts = dict.fromkeys((*field.consts, *events.consts))
        names = set(_ode._compiled(field, "loop", events)(*consts).__code__.co_names)
        assert not names & {"abs", "max", "min", "sum", "len", "extend"}, name
        assert {"nextafter", "pack_step", "pack_last", "frombytes"} <= names, name


@pytest.mark.parametrize("name", sorted(SHIPPED_SOURCES))
def test_shipped_sources_compile(name):
    field, events = SHIPPED_SOURCES[name]
    for source in (_ode._source(field, "loop", events), _ode._source(field, "interpolant")):
        compile(source, name, "exec")


def one_state(var="tau", states=("z",), body=("return 2.0 * z,",), consts=()):
    return _ode.Field(var, states, body, consts)


@pytest.mark.parametrize("field, events, clash", [
    (one_state(consts=("buf",), body=("return buf * z,",)), None, "buf"),
    (one_state(states=("y_0",), body=("return 2.0 * y_0,",)), None, "y_0"),
    (one_state(body=("h_x = 2.0 * z", "return h_x,")), None, "h_x"),
    (one_state(var="t"), None, "t"),
    (one_state(consts=("pack_step",), body=("return pack_step * z,",)), None, "pack_step"),
    (one_state(body=("w = 2.0 * z", "return w,")),
     _ode.Events("tau", ("z",), ("return z - w,",), ("w",), (1,)), "w"),
])
def test_loop_name_clash_raises(field, events, clash):
    events = events or level_events(1, [(0, 1)])
    with pytest.raises(ValueError, match=f"'{clash}'"):
        _ode._source(field, "loop", events)


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
