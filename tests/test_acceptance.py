"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each criterion is one test named ``test_criterion_NN_*`` so the verbose
test listing gives exactly one pass/fail line per criterion; the body also
prints the measured figure of merit next to its threshold.
"""

import math
import time

import numpy as np
from scipy.special import gammaln

from vpequil.analysis import omega_crit, sweep_omega_c
from vpequil.compactsys import (
    CompactState,
    fixed_lines,
    integrate_compact,
)
from vpequil.distmodels import (
    density,
    eval_dg,
    eval_g,
    king_model,
    polytrope,
    truncated_exponential,
    wilson_model,
)
from vpequil.physical import FINITE_RADIUS, INFINITE_FINITE_MASS, integrate_physical

from oracles import (compare_representations, density_bruteforce, eval_g_quadrature,
                     jacobian_eigenvalues, map_profile)

RHO_MINUS_N1 = 2.0 ** 1.5 * math.pi ** 2
A_N1 = math.sqrt(4.0 * math.pi * RHO_MINUS_N1)
RHO_MINUS_N5 = 2.0 ** 1.5 * math.pi ** 2 * 7.0 / 128.0


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_linear_model_regression():
    t0 = time.perf_counter()
    profile = integrate_physical(polytrope(n=1), omega_c=1.0)
    elapsed = time.perf_counter() - t0
    radius_exact = math.pi / A_N1
    mass_exact = math.pi / A_N1          # equals -R^2 omega'(R) for omega_c = 1
    err_r = abs(profile.radius - radius_exact) / radius_exact
    err_m = abs(profile.total_mass - mass_exact) / mass_exact
    ok = err_r < 1e-6 and err_m < 1e-6 and elapsed < 1.0
    _report(1, ok, f"radius rel err {err_r:.2e}, mass rel err {err_m:.2e} "
                   f"(tol 1e-06), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_02_infinite_boundary_case():
    profile = integrate_physical(polytrope(n=5), omega_c=1.0)
    alpha = (4.0 * math.pi * RHO_MINUS_N5) ** -0.5
    mass_exact = math.sqrt(3.0) * alpha
    m_far, _ = profile.dense(1.0e3)
    err = abs(m_far - mass_exact) / mass_exact
    ok = profile.classification == INFINITE_FINITE_MASS and err < 5e-3
    _report(2, ok, f"classification {profile.classification}, m(1e3) rel err "
                   f"{err:.2e} (tol 5e-03)")


def test_criterion_03_quadrature_vs_closed_form():
    worst = 0.0
    for n in (1.0, 1.5, 3.0, 5.0):
        model = polytrope(n=n)
        for m in (-0.25, 0.0, 0.5, 1.5):
            for omega in (1e-3, 1.0, 1e3):
                got = eval_g_quadrature(model, m, omega)[0]
                exact = omega ** (n + m - 0.5) * math.exp(
                    gammaln(n - 0.5) + gammaln(m + 1.0) - gammaln(n + m + 0.5))
                worst = max(worst, abs(got - exact) / exact)
    _report(3, worst < 1e-10, f"max rel err {worst:.2e} over 48-point grid "
                              f"(tol 1e-10)")


def test_criterion_04_derivative_identities():
    worst = 0.0
    for model in (wilson_model(), king_model()):
        for m in (1.5, 0.0, -0.25):
            for omega in (0.9, 2.3):
                h = 1e-3 * omega
                stencil = (eval_g(model, m, omega - 2 * h)
                           - 8.0 * eval_g(model, m, omega - h)
                           + 8.0 * eval_g(model, m, omega + h)
                           - eval_g(model, m, omega + 2 * h)) / (12.0 * h)
                got = eval_dg(model, m, omega)
                worst = max(worst, abs(got - stencil) / abs(stencil))
    _report(4, worst < 1e-6, f"max rel err vs finite differences {worst:.2e} "
                             f"over all three m-regimes (tol 1e-06)")


def test_criterion_05_density_reduction():
    worst = 0.0
    for l in (-0.4, 0.0, 1.0):
        model = truncated_exponential(0, l=l)
        for r in (0.6, 1.7):
            for omega in (0.25, 0.6, 1.1, 2.2, 3.3):
                direct = density(model, r, omega)
                brute = density_bruteforce(model, r, omega)
                worst = max(worst, abs(direct - brute) / direct)
    _report(5, worst < 1e-6, f"max rel err single vs double integral "
                             f"{worst:.2e} at 10 points per l (tol 1e-06)")


def test_criterion_06_fixed_line_spectra():
    worst = 0.0
    for l in (-0.4, 0.0, 1.0, 2.0):
        model = polytrope(n=2, l=l)
        for line in fixed_lines(l):
            if line.name == "L4":
                continue
            state = (line.U, line.Q, 0.5)
            got = np.sort(np.real(jacobian_eigenvalues(model, state)))
            expected = np.sort(np.asarray(line.eigenvalues))
            worst = max(worst, float(np.max(np.abs(got - expected))))
    _report(6, worst < 1e-8, f"max eigenvalue deviation {worst:.2e} over "
                             f"L1-L3, four l values (tol 1e-08)")


def test_criterion_07_monotone_monitors():
    rng = np.random.default_rng(20240817)
    worst_up, worst_down, s1_ok, orbits = 0.0, 0.0, True, 0
    for model in (polytrope(n=2), king_model()):
        for _ in range(50):
            state = CompactState(U=rng.uniform(0.05, 0.95),
                                 Q=rng.uniform(0.05, 0.95),
                                 Omega=rng.uniform(0.005, 0.5))
            orbit = integrate_compact(model, state)
            orbits += 1
            allow = 10.0 * (orbit.rel_tol * np.abs(orbit.Omega[:-1]) + 1e-14)
            worst_up = max(worst_up, float(np.max(np.diff(orbit.Omega) + 0.0)))
            if np.any(np.diff(orbit.Omega) > allow):
                worst_up = math.inf
            log_z = orbit.log_Z
            allow_z = 10.0 * (orbit.rel_tol * np.abs(log_z[:-1]) + 1e-12)
            dz = np.diff(log_z)
            worst_down = min(worst_down, float(np.min(dz)))
            if np.any(dz < -allow_z):
                worst_down = -math.inf
            flags = orbit.S1
            if np.any(flags):
                first = int(np.argmax(flags))
                s1_ok = s1_ok and bool(np.all(flags[first:]))
    ok = math.isfinite(worst_up) and math.isfinite(worst_down) and s1_ok
    _report(7, ok, f"{orbits} random orbits: max Omega increase {worst_up:.2e}, "
                   f"min log Z step {worst_down:.2e} (allowance 10x tolerance), "
                   f"S1 future-invariant: {s1_ok}")


def test_criterion_08_representation_consistency():
    model = polytrope(n=1)
    profile = integrate_physical(model, omega_c=1.0)
    report = compare_representations(model, profile, n_points=100)
    ok = report["max_abs_error"] < 1e-6 and report["n_points"] == 100
    _report(8, ok, f"max componentwise mismatch {report['max_abs_error']:.2e} "
                   f"at 100 matched points (tol 1e-06)")


def test_criterion_09_regular_center_limit():
    worst = 0.0
    for l in (-0.4, 0.0, 1.0):
        model = polytrope(n=2, l=l)
        profile = integrate_physical(model, omega_c=1.0)
        U, _, _ = map_profile(model, profile)
        u_center = (3.0 + 2.0 * l) / (4.0 + 2.0 * l)
        worst = max(worst, abs(float(U[0]) - u_center))
    _report(9, worst < 1e-4, f"max |U(first sample) - (3+2l)/(4+2l)| = "
                             f"{worst:.2e} over l in {{-0.4, 0, 1}} (tol 1e-04)")


def test_criterion_10_compact_support_sweep():
    model = wilson_model()
    oc = omega_crit(model)
    grid = list(np.linspace(3.0 * oc / 20.0, 3.0 * oc, 20))
    result = sweep_omega_c(model, grid)
    all_finite = (len(result.entries) == 20 and not result.failures
                  and all(e.classification == FINITE_RADIUS for e in result.entries))
    control = sweep_omega_c(polytrope(n=6), list(np.linspace(0.5, 2.0, 4)))
    all_infinite = all(e.classification != FINITE_RADIUS and math.isinf(e.radius)
                       for e in control.entries)
    ok = all_finite and all_infinite
    _report(10, ok, f"20/20 points finite over (0, 3*omega_crit] "
                    f"(omega_crit={oc:.6f}): {all_finite}; control family all "
                    f"infinite: {all_infinite}")
