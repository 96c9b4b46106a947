"""Kernel-integral, derivative-identity, and density-reduction tests.

Oracles used here are independent of the library code paths under test:
raw adaptive quadrature (QUADPACK) of the defining integrals, Beta-function
closed forms evaluated inline, direct Gauss-Jacobi sums at 10x the
production node count, the library's own quadrature oracles
(`eval_g_quadrature`, `eval_dg_quadrature`), and 50-digit mpmath quadrature.
"""

import bisect
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln, roots_jacobi

from vpequil.distmodels import (
    DistributionModel,
    EvaluationError,
    ModelError,
    Polytrope,
    Regularity,
    Tabulated,
    TruncatedExponential,
    density,
    density_bruteforce,
    density_prefactor,
    eval_dg,
    eval_dg_quadrature,
    eval_g,
    eval_g_quadrature,
    eval_n,
    eval_phi,
    king_model,
    polytrope,
    radial_pressure,
    tabulated_model,
    truncated_exponential,
)
from vpequil.distmodels import _Pchip, _reduced


def closed_form_g(n, m, omega, phi_minus=1.0):
    """Beta-integral closed form, evaluated inline as an oracle."""
    return phi_minus * omega ** (n + m - 0.5) * math.exp(
        gammaln(n - 0.5) + gammaln(m + 1.0) - gammaln(n + m + 0.5))


def raw_g(model, m, omega):
    """Brute-force reference for g_m via QUADPACK on the defining integral."""
    with warnings.catch_warnings():
        # roundoff-limited extrapolation near the endpoint weight is fine here:
        # the value is still far more accurate than the 1e-9 comparisons below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda e: eval_phi(model, e) * (omega - e) ** m, 0.0, omega,
            epsabs=1e-300, epsrel=1e-13, limit=400)
    return val


# ---------------------------------------------------------------- families

def test_phi_polytrope_constant_exponent():
    model = polytrope(n=1.5)
    assert eval_phi(model, 0.7) == pytest.approx(1.0, abs=0)


def test_phi_vanishes_at_nonpositive_energy():
    for model in (polytrope(n=2), truncated_exponential(1)):
        assert eval_phi(model, -0.3) == 0.0
        assert eval_phi(model, 0.0) == 0.0


def test_phi_wilson_value():
    # e^1 - 1 - 1 = e - 2
    model = truncated_exponential(1)
    assert eval_phi(model, 1.0) == pytest.approx(math.e - 2.0, rel=1e-14)


def test_phi_truncated_exponential_small_energy_is_stable():
    # phi_p(E) ~ E^(p+1)/(p+1)! with full relative accuracy, no cancellation
    model = truncated_exponential(1)
    e = 1e-8
    assert eval_phi(model, e) == pytest.approx(e ** 2 / 2.0, rel=1e-10)


def test_phi_vectorized():
    model = truncated_exponential(0)
    es = np.array([-1.0, 0.0, 0.5, 2.0])
    out = eval_phi(model, es)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(math.expm1(0.5))
    assert out[3] == pytest.approx(math.expm1(2.0))



def _pchip_grids():
    rng = np.random.default_rng(5)
    grids = []
    for _ in range(60):
        n = int(rng.integers(4, 30))
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 2.0)
        y = rng.uniform(0.0, 3.0, n)
        y[rng.random(n) < 0.25] = 0.0              # zeros and flat runs of zeros
        if rng.random() < 0.5:
            j = int(rng.integers(0, n - 2))
            y[j:j + 3] = y[j]                        # a flat run of three
        grids.append((x, y))
    e = np.linspace(-0.5, 2.5, 11)
    grids.append((e, np.exp(e)))                     # monotone, grid starts below 0
    grids.append((np.array([0.0, 0.3, 1.0, 1.7]), np.array([0.0, 2.0, 1.0, 1.5])))
    grids.append((np.linspace(0.0, 2.0, 9), np.sin(3.0 * np.linspace(0.0, 2.0, 9)) + 1.0))
    grids.append((np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0, 1.0])))
    return grids


def test_pchip_equals_scipy_bit_for_bit():
    for x, y in _pchip_grids():
        ours, ref = _Pchip(x, y), PchipInterpolator(x, y)
        assert np.array_equal(ours.c, ref.c)
        mids = 0.5 * (x[:-1] + x[1:])
        queries = np.concatenate([x, mids, np.linspace(x[0], x[-1], 97)])
        assert np.array_equal(ours(queries), ref(queries))
        assert ours(x[-1]) == ref(x[-1])

# ------------------------------------------------------------- validation

def test_model_rejects_small_l():
    with pytest.raises(ModelError):
        polytrope(n=1, l=-1.0)
    with pytest.raises(ModelError):
        polytrope(n=1, l=-1.5)


def test_polytrope_rejects_bad_parameters():
    with pytest.raises(ModelError):
        polytrope(n=0.5)
    with pytest.raises(ModelError):
        polytrope(n=1, phi_minus=0.0)
    # each family checks its own parameters when it is built, so a family
    # made directly cannot yield kernels (n = 0.3 would give g_0.5(1) ~ 5.75,
    # a negative amplitude a negative g)
    with pytest.raises(ModelError, match="n must exceed 1/2"):
        Polytrope(n=0.3)
    with pytest.raises(ModelError, match="phi_minus must be positive"):
        Polytrope(n=2.0, phi_minus=-1.0)
    with pytest.raises(ModelError, match="non-negative integer"):
        TruncatedExponential(p=1.5)


def test_holder_metadata_required_for_anisotropic_l():
    # l < -1/2 needs a declared Hölder index exceeding -l - 1/2;
    # built-ins fill it automatically, an insufficient explicit one is rejected
    model = polytrope(n=2, l=-0.7)
    assert model.regularity.holder_index > 0.2
    with pytest.raises(ModelError):
        DistributionModel(l=-0.7, family=Polytrope(n=2.0),
                          regularity=Regularity(k=0.5, holder_index=0.1))


def test_tabulated_requires_k_and_range():
    es = np.linspace(0.0, 2.0, 50)
    with pytest.raises(ModelError):
        DistributionModel(l=0.0, family=Tabulated(es, es.copy()),
                          regularity=None)
    model = DistributionModel(
        l=0.0, family=Tabulated(es, es.copy()),
        regularity=Regularity(k=1.0))
    with pytest.raises(EvaluationError):
        eval_phi(model, 2.5)   # beyond the grid: no extrapolation
    for fn in (eval_g, eval_dg):   # the kernels refuse the same queries
        with pytest.raises(EvaluationError, match="beyond grid end"):
            fn(model, 0.5, 2.5)
    with pytest.raises(EvaluationError, match="beyond grid end"):
        eval_n(model, 2.5)   # so does the index, which calls them directly
    # a grid that starts above E = 0 leaves phi undefined on (0, E_0): the
    # family refuses it when it is built, naming the first energy
    with pytest.raises(ModelError, match="first energy 0.5"):
        Tabulated(es + 0.5, es.copy())


# ------------------------------------------------------------------ eval_g

def test_g_closed_form_examples():
    model = polytrope(n=1)
    assert eval_g(model, 0.5, 2.0) == pytest.approx(math.pi, rel=1e-13)
    assert eval_g(model, 1.5, 1.0) == pytest.approx(3 * math.pi / 8, rel=1e-13)


def test_g_zero_omega_is_zero():
    for model in (polytrope(n=2), truncated_exponential(1)):
        out = eval_g(model, 0.5, 0.0)
        assert out == 0.0


def test_g_rejects_bad_exponent():
    with pytest.raises(ValueError):
        eval_g(polytrope(n=1), -1.0, 1.0)
    with pytest.raises(ValueError):
        eval_g(polytrope(n=1), 0.5, -0.1)


@pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 5.0])
@pytest.mark.parametrize("m", [-0.25, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
def test_g_quadrature_matches_closed_form(n, m, omega):
    model = polytrope(n=n)
    got, estimated_error = eval_g_quadrature(model, m, omega)
    assert got == pytest.approx(closed_form_g(n, m, omega), rel=1e-10)
    # the certified relative error must sit below the requested tolerance
    assert estimated_error <= 1e-10


def test_g_reference_quadrature_wilson():
    # independent oracle at 10x production node count, plus QUADPACK
    model = truncated_exponential(1)
    m, omega, k = 0.5, 1.0, 2.0
    t, w = roots_jacobi(480, m, k)
    x = (t + 1.0) / 2.0
    w = w * 0.5 ** (m + k + 1.0)
    reference = omega ** (m + 1.0 + k) * (
        w @ (eval_phi(model, omega * x) / x ** k))
    got = eval_g(model, m, omega)
    assert got == pytest.approx(reference, rel=1e-10)
    assert got == pytest.approx(raw_g(model, m, omega), rel=1e-10)


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("m", [-0.3, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("omega", [1e-6, 0.3, 5.0])
def test_g_truncated_exponential_grid(p, m, omega):
    model = truncated_exponential(p)
    got = eval_g(model, m, omega)
    # small-omega leading asymptotics: phi ~ E^(p+1)/(p+1)!
    if omega <= 1e-6:
        lead = omega ** (m + p + 2.0) * math.exp(
            gammaln(p + 2.0) + gammaln(m + 1.0) - gammaln(p + m + 3.0))
        assert got == pytest.approx(lead, rel=1e-5)
    else:
        assert got == pytest.approx(raw_g(model, m, omega), rel=1e-9)


def test_g_monotone_in_omega():
    for model in (truncated_exponential(0), polytrope(n=2, l=1.0)):
        vals = [eval_g(model, 0.5, om) for om in np.geomspace(1e-3, 10, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_g_tabulated_linear_phi_matches_polytrope():
    # phi(E) = E sampled on a grid: monotone cubic interpolation reproduces it
    # exactly, so the piecewise kernel must match the n=5/2 closed form
    es = np.linspace(0.0, 3.0, 41)
    model = DistributionModel(
        l=0.0, family=Tabulated(es, es.copy()),
        regularity=Regularity(k=1.0))
    got = eval_g(model, 0.5, 2.0)
    assert got == pytest.approx(closed_form_g(2.5, 0.5, 2.0), rel=1e-9)


# ----------------------------------------------------------------- eval_dg

def test_dg_closed_form_example():
    model = polytrope(n=1)
    assert eval_dg(model, 1.5, 1.0) == pytest.approx(3 * math.pi / 4, rel=1e-12)


def test_dg_zero_exponent_returns_phi():
    model = truncated_exponential(1)
    assert eval_dg(model, 0.0, 0.8) == pytest.approx(eval_phi(model, 0.8), rel=1e-14)


@pytest.mark.parametrize("model_fn", [
    lambda: truncated_exponential(0),
    lambda: truncated_exponential(1),
    lambda: polytrope(n=2),
])
@pytest.mark.parametrize("m", [1.5, 0.5, 0.0, -0.25, -0.45])
@pytest.mark.parametrize("omega", [0.3, 1.0, 5.0])
def test_dg_matches_finite_differences(model_fn, m, omega):
    model = model_fn()
    h = omega * 1e-6
    fd = (eval_g(model, m, omega + h)
          - eval_g(model, m, omega - h)) / (2 * h)
    assert eval_dg(model, m, omega) == pytest.approx(fd, rel=1e-6)


def test_dg_holder_regime_needs_metadata():
    es = np.linspace(0.0, 2.0, 30)
    model = DistributionModel(
        l=0.0, family=Tabulated(es, es.copy()),
        regularity=Regularity(k=1.0))  # no holder_index
    for fn in (eval_dg, eval_dg_quadrature):
        with pytest.raises(EvaluationError, match="Hölder"):
            fn(model, -0.25, 1.0)


# ------------------------------------------------------------------ eval_n

def test_n_constant_for_polytropes():
    for n, l in [(1.0, 0.0), (3.0, 0.0), (2.0, 1.0), (2.0, -0.4)]:
        model = polytrope(n=n, l=l)
        for om in [1e-3, 0.3, 1.0, 50.0]:
            assert eval_n(model, om) == pytest.approx(n, abs=1e-10)


def test_n_low_omega_limits():
    # lowered-exponential families: n -> p + 5/2 as omega -> 0
    assert eval_n(truncated_exponential(1), 1e-6) == pytest.approx(3.5, abs=1e-3)
    assert eval_n(truncated_exponential(0), 1e-6) == pytest.approx(2.5, abs=1e-3)


def test_n_refuses_tiny_omega():
    with pytest.raises(EvaluationError):
        eval_n(polytrope(n=2), 1e-305)


def test_n_equals_index_from_eval_g_and_eval_dg():
    # the tabulated index is the quotient of the two kernels, so it is the
    # same double as the definition through the checked entry points; a
    # polytrope's is exactly n, and a lowered exponential's is the ratio
    # form, which agrees with the quotient to the quotient's own rounding
    # (the quotient is off by up to 6e-15 at omega = 1e-9, the ratio form
    # by 6e-16: see test_lowered_index_matches_mpmath)
    energies = np.linspace(0.0, 3.0, 31)
    models = [polytrope(n=2.5), polytrope(n=1.2, l=-0.7), king_model(),
              truncated_exponential(1, l=1.0), truncated_exponential(2, l=-0.8),
              tabulated_model(energies, np.expm1(energies), k=1.0, l=-0.3)]
    for model in models:
        m = model.l + 0.5
        for omega in (1e-9, 0.01, 0.7, 2.9):
            want = -model.l + omega * eval_dg(model, m, omega) / eval_g(model, m, omega)
            got = eval_n(model, omega)
            if isinstance(model.family, Tabulated):
                assert got == want
            elif isinstance(model.family, Polytrope):
                assert got == model.family.n
                assert got == pytest.approx(want, rel=1e-15)
            else:
                assert got == pytest.approx(want, rel=1e-14)


def test_tabulated_model_builds_each_kernel_once(monkeypatch):
    # the density kernel g_{l+1/2} and the index share the model's memo:
    # one build of g_{l+1/2} and one of its derivative per model
    from vpequil import distmodels

    builds = []
    original = distmodels._piecewise_kernel

    def counting(x0, x1, coef, m):
        builds.append(m)
        return original(x0, x1, coef, m)
    monkeypatch.setattr(distmodels, "_piecewise_kernel", counting)
    energies = np.linspace(0.0, 3.0, 61)
    # eval_n of e^E - 1 on 61 nodes, as written before the index shared the memo
    expected = {
        0.0: (2.500307906243567, 2.5743355273790103, 2.834467505280776, 3.779739039777171),
        -0.4: (2.5003476002018195, 2.5840438071772844, 2.8792694292863747, 3.943568510005924),
        1.0: (2.5002395273580134, 2.557594975045401, 2.7563852882862974, 3.474587045345211),
    }
    for l, values in expected.items():
        builds.clear()
        model = tabulated_model(energies, np.expm1(energies), l=l, k=1.0)
        assert builds == [l + 0.5, l + 0.5]
        got = tuple(eval_n(model, w) for w in (1e-3, 0.25, 1.0, 2.9))
        assert got == values
        assert len(builds) == 2


def mp_lowered_index(p, l, omega):
    """omega g'/g - l at m = l + 1/2 for phi_p, from 50-digit mpmath."""
    with mpmath.workdps(50):
        m = mpmath.mpf(l) + mpmath.mpf(1) / 2
        a = p + m + 2
        w = mpmath.mpf(omega)
        g = mpmath.gamma(m + 1) * mpmath.exp(w) * mpmath.gammainc(a, 0, w, regularized=True)
        dg = g + w ** (a - 1) * mpmath.gamma(m + 1) / mpmath.gamma(a)
        return w * dg / g - l


@pytest.mark.parametrize("p", [0, 1, 2])
def test_lowered_index_matches_mpmath(p):
    # the kernel's Horner polynomial below its switch, its elementary form
    # from there to a + 1 (2a an integer), the continued fraction above, and
    # both sides of each switch, down to the 1e-300 stage floor
    for l in (-0.8, -0.4, 0.0, 0.5, 1.0):
        model = truncated_exponential(p, l=l)
        a = p + l + 2.5
        horner_end = model.kernel(l + 0.5).switch
        switch = [a + 1.0 - 1e-9, math.nextafter(a + 1.0, 0.0), a + 1.0,
                  math.nextafter(a + 1.0, math.inf), a + 1.0 + 1e-9,
                  math.nextafter(horner_end, 0.0), horner_end,
                  math.nextafter(horner_end, math.inf)]
        grid = [1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 100.0,
                400.0, 800.0, 1e3, 1e4, 1e6, 1e9, 1e12]
        for omega in switch + grid:
            want = mp_lowered_index(p, l, omega)
            got = eval_n(model, omega)
            assert abs(got - want) <= 1e-13 * abs(want), (l, omega, got)


def test_lowered_index_is_omega_minus_l_at_large_omega():
    for l in (0.0, 0.5):
        assert eval_n(king_model(l), 1e4) == pytest.approx(1e4 - l, rel=1e-15, abs=0.0)


def test_bound_kernels_are_the_closed_forms_bit_for_bit():
    energies = np.linspace(0.0, 3.0, 31)
    models = [polytrope(n=3.0, l=0.5), polytrope(n=1.2, l=-0.7),
              polytrope(n=4.5, phi_minus=2.5), king_model(),
              truncated_exponential(1, l=1.0),
              tabulated_model(energies, np.expm1(energies), k=1.0, l=-0.3)]
    for model in models:
        for omega in (1e-9, 0.01, 0.7, 2.9):
            assert model._kernel(omega) == eval_g(model, model.l + 0.5, omega)
            if isinstance(model.family, Polytrope):
                # the Beta closed form in its long-standing operation order
                n, m = model.family.n, model.l + 0.5
                assert model._kernel(omega) == model.family.phi_minus * omega ** (
                    n + m - 0.5) * math.exp(math.lgamma(n - 0.5) + math.lgamma(m + 1.0)
                                            - math.lgamma(n + m + 0.5))
            for r in (1e-3, 0.4, 7.0):
                bound = model._prefactor * r ** (2.0 * model.l) * model._kernel(omega)
                assert bound == density(model, r, omega)


# ------------------------------------------------- density and pressure

def test_density_prefactor_isotropic():
    assert density_prefactor(0.0) == pytest.approx(2 ** 2.5 * math.pi, rel=1e-14)


def test_density_polytrope_power_law():
    # C_l g_{l+1/2}(omega) == rho_minus * omega^(n+l)
    for n, l in [(1.0, 0.0), (5.0, 0.0), (2.0, 1.0)]:
        model = polytrope(n=n, l=l)
        rho_minus = (2 ** (l + 1.5) * math.pi ** 1.5
                     * math.exp(gammaln(l + 1.0) + gammaln(n - 0.5)
                                - gammaln(n + l + 1.0)))
        for om in [0.25, 1.0, 2.0]:
            assert density(model, 1.3, om) == pytest.approx(
                rho_minus * 1.3 ** (2 * l) * om ** (n + l), rel=1e-12)


def test_density_zero_at_zero_omega():
    assert density(polytrope(n=1), 1.0, 0.0) == 0.0
    assert radial_pressure(truncated_exponential(0), 1.0, 0.0) == 0.0


def test_pressure_example_and_monotonicity():
    model = polytrope(n=1)
    want = 2 ** 2.5 * math.pi ** 2 / 4.0
    assert radial_pressure(model, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
    ps = [radial_pressure(model, 1.0, om) for om in np.linspace(0.1, 2.0, 15)]
    assert all(b > a for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("l", [-0.4, 0.0, 1.0])
def test_density_bruteforce_matches_reduction(l):
    model = truncated_exponential(1, l=l)
    for r, om in [(0.5, 0.8), (1.0, 0.5), (2.0, 1.5)]:
        assert density_bruteforce(model, r, om) == pytest.approx(
            density(model, r, om), rel=1e-6)


def test_density_bruteforce_singular_polytrope():
    # n=1 has phi ~ E^(-1/2): endpoint singularity in the outer integral too
    model = polytrope(n=1)
    assert density_bruteforce(model, 1.0, 0.5) == pytest.approx(
        density(model, 1.0, 0.5), rel=1e-6)


# ------------------------------------------- closed forms against oracles
#
# The grid: p in {0, 1, 2}; l in {-0.8 (Hölder index declared), -0.4, 0, 1};
# m in {l + 1/2, l + 3/2, 2.7, -0.3, -0.7}.  g depends on l only through m,
# so the mpmath values are cached on (profile, m, omega).

L_GRID = (-0.8, -0.4, 0.0, 1.0)
M_KINDS = ("l+1/2", "l+3/2", 2.7, -0.3, -0.7)
EXP_OMEGAS = (1e-6, 0.03, 0.8, 12.0, 45.0, 300.0)
EXP_OMEGAS_MP = (1e-6, 0.8, 12.0, 300.0)


def kernel_exponent(l, kind):
    return {"l+1/2": l + 0.5, "l+3/2": l + 1.5}.get(kind, kind)


def mp_kernel(f, m, omega, nodes=()):
    """int_0^omega f(E) (omega-E)^m dE by mpmath quadrature at 50 digits.

    The range is split at omega/2 and at every node below omega.  Only the
    last piece touches the (omega-E)^m endpoint singularity and gets
    tanh-sinh; the smooth pieces before it get Gauss-Legendre.  Both rules
    stop at degree 4: over every point of this file's grids the result then
    agrees to 2e-16 with 60-digit tanh-sinh run to convergence.
    """
    with mpmath.workdps(50):
        w = mpmath.mpf(omega)
        inner = sorted({mpmath.mpf(x) for x in nodes if 0.0 < x < omega} | {w / 2})
        integrand = lambda e: f(e) * (w - e) ** m
        smooth = mpmath.quad(integrand, [0, *inner], method="gauss-legendre", maxdegree=4)
        return float(smooth + mpmath.quad(integrand, [inner[-1], w], maxdegree=4))


def mp_phi_exp(q, e):
    """phi_q(E) = e^E - sum_{j<=q} E^j/j!; q = -1 is e^E, the derivative of phi_0."""
    return mpmath.exp(e) - sum(e ** j / mpmath.factorial(j) for j in range(q + 1))


@functools.lru_cache(maxsize=None)
def mp_g_exp(q, m, omega):
    return mp_kernel(lambda e: mp_phi_exp(q, e), m, omega)


def assert_close(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want, abs(got - want) / abs(want))


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("l", L_GRID)
@pytest.mark.parametrize("kind", M_KINDS)
def test_truncated_exponential_closed_form_vs_oracles(p, l, kind):
    model = truncated_exponential(p, l=l)
    m = kernel_exponent(l, kind)
    for omega in EXP_OMEGAS:
        g = eval_g(model, m, omega)
        dg = eval_dg(model, m, omega)
        assert_close(g, eval_g_quadrature(model, m, omega)[0], 1e-10)
        assert_close(dg, eval_dg_quadrature(model, m, omega), 1e-10)
        if omega in EXP_OMEGAS_MP:
            assert_close(g, mp_g_exp(p, m, omega), 1e-12)
            # phi_p(0+) = 0 and phi_p' = phi_(p-1), so dg_m of phi_p is g_m of phi_(p-1)
            assert_close(dg, mp_g_exp(p - 1, m, omega), 1e-12)


TABLES = {
    # name: (energies, values, k).  phi(0+) = 0 only on the first; on the
    # second E = 0 falls inside the cell [-0.2, 0.1].
    "expm1-from-0": (np.linspace(0.0, 3.0, 13), np.expm1(np.linspace(0.0, 3.0, 13)), 1.0),
    "exp-from-below-0": (np.linspace(-0.5, 2.5, 11), np.exp(np.linspace(-0.5, 2.5, 11)), 0.0),
    "plateau-from-0": (np.linspace(0.0, 2.0, 9), 0.5 + np.linspace(0.0, 2.0, 9) ** 2, 0.0),
}
TABLE_OMEGAS = {"expm1-from-0": (1e-6, 0.25, 1.37, 3.0),
                "exp-from-below-0": (1e-6, 0.05, 1.0, 2.5),
                "plateau-from-0": (1e-6, 0.3, 1.1, 2.0)}


@functools.lru_cache(maxsize=None)
def mp_table(name):
    """The PCHIP pieces of a table, evaluated in mpmath: phi and phi'."""
    energies, values, _ = TABLES[name]
    pp = PchipInterpolator(energies, values)
    x = [mpmath.mpf(float(v)) for v in pp.x]
    c = [[mpmath.mpf(float(v)) for v in col] for col in pp.c.T]   # descending powers

    def piece(e):
        i = min(bisect.bisect_right(pp.x, float(e)), len(x) - 1) - 1
        return c[i], e - x[i]

    def phi(e):
        if e <= 0:
            return mpmath.mpf(0)
        ci, t = piece(e)
        return ((ci[0] * t + ci[1]) * t + ci[2]) * t + ci[3]

    def dphi(e):
        if e <= 0:
            return mpmath.mpf(0)
        ci, t = piece(e)
        return (3 * ci[0] * t + 2 * ci[1]) * t + ci[2]

    return phi, dphi, [float(v) for v in pp.x]


@functools.lru_cache(maxsize=None)
def mp_g_table(name, m, omega, deriv):
    phi, dphi, nodes = mp_table(name)
    if not deriv:
        return mp_kernel(phi, m, omega, nodes)
    # d/domega int_0^omega phi(omega - s) s^m ds = phi(0+) omega^m + int phi'(E)(omega-E)^m dE
    with mpmath.workdps(50):
        phi0 = phi(mpmath.mpf(10) ** -40)
        return float(phi0 * mpmath.mpf(omega) ** m) + mp_kernel(dphi, m, omega, nodes)


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("l", L_GRID)
@pytest.mark.parametrize("kind", M_KINDS)
def test_tabulated_closed_form_vs_oracles(name, l, kind):
    energies, values, k = TABLES[name]
    model = tabulated_model(energies, values, l=l, k=k, holder_index=1.0)
    m = kernel_exponent(l, kind)
    for omega in TABLE_OMEGAS[name]:
        g = eval_g(model, m, omega)
        dg = eval_dg(model, m, omega)
        assert_close(g, mp_g_table(name, m, omega, False), 1e-12)
        assert_close(dg, mp_g_table(name, m, omega, True), 1e-12)
        # the quadrature oracles run their adaptive fallback on the pieces, so
        # they check one m per l; at omega = 1e-6 the difference-quotient part
        # of eval_dg_quadrature is too small to certify when phi(0+) != 0
        if kind == "l+1/2" and omega > 1e-3:
            assert_close(g, eval_g_quadrature(model, m, omega)[0], 1e-10)
            assert_close(dg, eval_dg_quadrature(model, m, omega), 1e-10)


def test_kernel_overflow_is_a_clean_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: eval_g(king_model(), 0.5, 800.0),
                     lambda: eval_dg(king_model(), 0.5, 800.0)):
            with pytest.raises(EvaluationError, match="omega=800"):
                call()
        # the ratio-form index needs neither kernel: omega - l + 1/S, where
        # 1/S = omega^a e^-omega / gamma(a, omega) with a = 5/2 is far below
        # one ulp of omega
        with mpmath.workdps(50):
            inv_s = mpmath.mpf(800) ** 2.5 * mpmath.exp(-800) / mpmath.gammainc(2.5, 0, 800)
        assert eval_n(king_model(), 800.0) == float(800 + inv_s)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_phi_reduced_matches_mpmath(p):
    # the integrand of the quadrature oracles, phi(E)/E^k with k = p + 1
    model = truncated_exponential(p)
    es = np.concatenate([[1e-100, 1e-50, 1e-12, 1e-6], np.linspace(0.01, 50.0, 101)])
    got = _reduced(model, es)
    # e^E minus its first p + 1 terms cancels about 100 (p + 1) digits at
    # E = 1e-100: 400 digits leave the reference 50 good ones
    with mpmath.workdps(400):
        for e, value in zip(es, got):
            x = mpmath.mpf(float(e))
            assert_close(value, float(mp_phi_exp(p, x) / x ** (p + 1)), 1e-13)
