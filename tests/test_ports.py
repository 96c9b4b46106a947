"""Property tests of the special-function ports on the run path.

The lowered-exponential kernels and index, the tabulated incomplete-Beta
sums and the density prefactor are evaluated without scipy.  Each is held
here to 1e-13 relative against 50-digit mpmath, and all but the index
against ``scipy.special`` (the functions they replace), over each family's
domain: p in {0, 1, 2}, l in (-1, 3] with 2l an integer as well as
general l, omega in [1e-8, 700], random monotone tables (some starting
below E = 0), and l in (-1, 5] for the prefactor: the ends of each range,
then draws from a seed written in this file.  The continued fraction of
the lowered kernels is held to 4 ulp of 40-digit mpmath for a in (1, 170]
and x in [a + 1, 745].

The benchmark's tracer (``perfbench/tracing.py``) patches names of the
package; one test installs it and checks that it finds and restores them.
"""

import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import beta, betainc, gammainc, gammaln

from vpequil.distmodels import (
    EvaluationError,
    TruncatedExponential,
    _continued_fraction,
    _fraction_depth,
    _piecewise_kernel,
    density_prefactor,
    eval_n,
    tabulated_model,
    truncated_exponential,
)

REL = 1e-13


def assert_rel(got, want, rel=REL):
    assert abs(got - want) <= rel * abs(want), (got, want, abs(got - want) / abs(want))


# ------------------------------------------------ lowered exponentials

def mp_lowered(p, m, omega):
    """Gamma(m+1) e^omega P(p+m+2, omega) at 50 digits."""
    with mpmath.workdps(50):
        m, w = mpmath.mpf(m), mpmath.mpf(omega)
        return float(mpmath.gamma(m + 1) * mpmath.exp(w)
                     * mpmath.gammainc(p + m + 2, 0, w, regularized=True))


def scipy_lowered(p, m, omega):
    return math.gamma(m + 1.0) * math.exp(omega) * float(gammainc(p + m + 2.0, omega))


HALF_INTEGER_L = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
LOG_OMEGA = (-8.0, math.log10(700.0))


def lowered_cases(seed, shifts):
    """(p, l, shift, log10 omega): each p, l in HALF_INTEGER_L or -0.999 and shift at both
    ends of LOG_OMEGA, then 150 draws from `seed`, l in [-0.999, 3] in half of them."""
    ends = itertools.product((0, 1, 2), (-0.999, *HALF_INTEGER_L), shifts, LOG_OMEGA)
    rng = random.Random(seed)
    return [*ends, *((rng.choice((0, 1, 2)),
                      rng.choice((rng.choice(HALF_INTEGER_L), rng.uniform(-0.999, 3.0))),
                      rng.choice(shifts), rng.uniform(*LOG_OMEGA)) for _ in range(150))]


def test_lowered_kernel_matches_scipy_and_mpmath():
    for p, l, shift, log_omega in lowered_cases(62, (0.5, 1.5)):
        # m = l + 1/2 is the density kernel, m = l + 3/2 the pressure kernel
        m, omega = l + shift, 10.0 ** log_omega
        got = TruncatedExponential(p).kernel(m)(omega)
        assert_rel(got, mp_lowered(p, m, omega))
        assert_rel(got, scipy_lowered(p, m, omega))


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("l", [-0.5, 0.0, 0.5, 1.0, -0.4, 0.3])
def test_lowered_kernel_across_its_switch_points(p, l):
    # a dense scan through the series / elementary-form switch (near the 10%
    # quantile of Gamma(a)) and the series / continued-fraction switch at a + 1
    m = l + 0.5
    a = p + m + 2.0
    kernel = TruncatedExponential(p).kernel(m)
    for omega in np.linspace(0.02, a + 2.0, 90):
        assert_rel(kernel(omega), mp_lowered(p, m, float(omega)))
    for omega in (a + 1.0, math.nextafter(a + 1.0, 0.0), math.nextafter(a + 1.0, 9.0)):
        assert_rel(kernel(omega), mp_lowered(p, m, omega))


def mp_lowered_index(p, l, omega):
    """-l + omega + omega^a e^-omega / gamma(a, omega), a = p + l + 5/2, at 50 digits."""
    with mpmath.workdps(50):
        a, w = p + mpmath.mpf(l) + mpmath.mpf(5) / 2, mpmath.mpf(omega)
        return float(-mpmath.mpf(l) + w + w ** a * mpmath.exp(-w) / mpmath.gammainc(a, 0, w))


def test_lowered_index_over_its_domain():
    # the ratio form n = -l + omega + 1/S on the kernel's Horner polynomial,
    # its elementary form and the continued fraction
    for p, l, _, log_omega in lowered_cases(96, (0.5,)):
        omega = 10.0 ** log_omega
        assert_rel(eval_n(truncated_exponential(p, l=l), omega), mp_lowered_index(p, l, omega))


def test_lowered_index_past_the_switch_at_large_l():
    # King l = 148.5 (a = 151): omega ** 151 and g_149 leave double precision
    # between the kernel's switch, 135.48, and a + 1, so the index sums its
    # series up to a + 1 instead of dividing by the kernel
    model = truncated_exponential(0, l=148.5)
    switch = model.kernel(149.0).switch
    omegas = [math.nextafter(switch, 200.0), 136.0, 140.0, 150.0,
              math.nextafter(152.0, 0.0), 152.0]
    omegas += [float(omega) for omega in np.linspace(switch, 152.0, 30)[1:-1]]
    for omega in omegas:
        assert_rel(eval_n(model, omega), mp_lowered_index(0, 148.5, omega))


def test_lowered_kernel_near_overflow():
    # Gamma(m+1) < 1 for m = 1/2 keeps g finite a little past e^omega's overflow
    kernel = TruncatedExponential(0).kernel(0.5)
    for omega in (700.0, 709.5, 709.8):
        assert_rel(kernel(omega), mp_lowered(0, 0.5, omega))


def test_lowered_kernel_where_its_power_overflows():
    # King l = 148.5: the series of g_149 (a = 151, switch 135.48) holds
    # x ** 151, which leaves double precision above x = 110.007 while the
    # kernel, 1.76e310 at x = 120, does so only above 116.4
    kernel = TruncatedExponential(0).kernel(149.0)
    for x in (110.0, 110.01, 112.0, 115.0, 116.4):
        assert_rel(kernel(x), mp_lowered(0, 149.0, x))
    with pytest.raises(EvaluationError, match=r"^g_149\(omega=120\) overflows double precision$"):
        kernel(120.0)


def mp_fraction(a, x):
    """T(x) = e^x x^-a Gamma(a, x) at 40 digits."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        return float(mpmath.exp(x) * x ** -a * mpmath.gammainc(a, x))


def fraction_cases(seed):
    """(a, x): a at both ends of (1, 170] with x = a + 1 and 745, then 150
    draws from `seed`, x within 2 of a + 1 in half of them."""
    ends = itertools.product((math.nextafter(1.0, 2.0), 170.0), (1.0, None))
    rng = random.Random(seed)
    draws = ((a, rng.choice((rng.uniform(1.0, 3.0), None)))
             for a in (rng.uniform(1.0, 170.0) for _ in range(150)))
    return [(a, a + shift if shift else 745.0) for a, shift in (*ends, *draws)]


def test_continued_fraction_is_within_4_ulp_of_mpmath():
    # the fraction as the index and a non-elementary kernel write it: cut
    # at the depth found at a + 1, evaluated bottom-up
    for a, x in fraction_cases(233):
        fraction = eval(f"lambda x: {_continued_fraction(a, 'x', a + 1.0)}")
        got, want = fraction(x), mp_fraction(a, x)
        assert abs(got - want) <= 4.0 * math.ulp(want), (a, x, (got - want) / math.ulp(want))


def test_fraction_depth_never_grows_with_x():
    # the depth is found once, at the least x the fraction takes (a + 1, or
    # for 2a an integer the larger of the kernel's switch and where scale
    # e^x overflows); no larger x finds a larger one.  The depths from a + 1
    # pin the 2^-53 step test and the two levels past it
    rng = random.Random(234)
    for a in (1.0001, 2.1, 2.5, 10.3, 50.7, 151.0, 169.9,
              *(rng.uniform(1.0, 170.0) for _ in range(60))):
        switch = a * (1.0 - 1.0 / (9.0 * a) - 1.2816 / (3.0 * math.sqrt(a))) ** 3
        low = min(switch, a + 1.0)
        xs = sorted([low + 0.02 * k for k in range(200)]
                    + [rng.uniform(low, 745.0) for _ in range(40)])
        depths = [_fraction_depth(a, x) for x in xs]
        assert all(d1 >= d2 for d1, d2 in zip(depths, depths[1:])), a
    depths = [_fraction_depth(a, a + 1.0) for a in (1.1, 2.1, 3.1, 10.3, 50.7, 169.9)]
    assert depths == [43, 30, 24, 16, 31, 49]


# ----------------------------------------------------- tabulated kernels

def random_table(rng):
    """4 to 40 nodes from a start in [-1, 0] by steps in [0.02, 0.5], values from [0, 1]
    rising by [0, 2]; the start lies above 0.06 less the steps, so E ends above 0.05."""
    steps = [rng.uniform(0.02, 0.5) for _ in range(rng.randint(4, 40) - 1)]
    rises = [rng.uniform(0.0, 2.0) for _ in steps]
    start = rng.uniform(max(-1.0, 0.06 - sum(steps)), 0.0)
    return (start + np.concatenate([[0.0], np.cumsum(steps)]),
            rng.uniform(0.0, 1.0) + np.concatenate([[0.0], np.cumsum(rises)]))


def mp_beta_u(j, m, u):
    """B_u(j+1, m+1) by the binomial finite sum, exact enough at 50 digits."""
    v = 1 - u
    return sum(math.comb(j, k) * (-1) ** k * (1 - v ** (m + 1 + k)) / (m + 1 + k)
               for k in range(j + 1))


def reference_sums(x0, x1, coef, m, omega):
    """The piece sums through scipy's incomplete Beta, and at 50 digits in mpmath."""
    n = int(np.searchsorted(x0, omega))
    span = omega - x0[:n]
    u = np.minimum((x1[:n] - x0[:n]) / span, 1.0)
    a = np.arange(1.0, coef.shape[0] + 1.0)[:, None]
    by_scipy = float((coef[:, :n] * span ** (a + m) * beta(a, m + 1.0)
                      * betainc(a, m + 1.0, u)).sum())
    with mpmath.workdps(50):
        w, mm = mpmath.mpf(omega), mpmath.mpf(m)
        by_mpmath = mpmath.mpf(0)
        for i in range(n):
            s = w - mpmath.mpf(float(x0[i]))
            ui = min(mpmath.mpf(float(x1[i] - x0[i])) / s, mpmath.mpf(1))
            for j in range(coef.shape[0]):
                if coef[j, i] != 0.0:
                    by_mpmath += (mpmath.mpf(float(coef[j, i])) * s ** (j + mm + 1)
                                  * mp_beta_u(j, mm, ui))
    return by_scipy, float(by_mpmath)


# 17 nodes 1/8 apart on [0, 2], so omega = 2 where exactly: piece i has
# u = 1/2 at omega = i/8 + 1/4 and u = 1/4 at i/8 + 1/2, the pieces a call
# classes change at every node, and from just above omega = 1 pieces 0 and 1
# are one block
EIGHTHS = (np.linspace(0.0, 2.0, 17), np.expm1(np.linspace(0.0, 2.0, 17)))
FORM_SWITCHES = [0.25, 0.375, 0.5, 0.625, 0.75, 1.0, 1.5]


def around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)]


def test_tabulated_kernels_match_scipy_and_mpmath():
    # the eighths table on both sides of each form switch; two end tables (flat
    # zero on 4 nodes from E = 0 by 0.02, and 40 nodes from E = -1 by 0.5
    # rising by 2 from 1) at the ends of l in [-0.999, 3] and where in [1e-3,
    # 1]; then 80 draws of a random table, l and where
    cases = [(EIGHTHS, l, w) for omega in FORM_SWITCHES for w in around(omega / 2.0)
             for l in (-0.5, 1.0)]
    ends = ((0.02 * np.arange(4.0), np.zeros(4)),
            (0.5 * np.arange(40.0) - 1.0, 1.0 + 2.0 * np.arange(40.0)))
    cases += itertools.product(ends, (-0.999, 3.0), (1e-3, 1.0))
    rng = random.Random(176)
    cases += [(random_table(rng), rng.uniform(-0.999, 3.0), rng.uniform(1e-3, 1.0))
              for _ in range(80)]
    for (energies, values), l, where in cases:
        model = tabulated_model(energies, values, l=l, k=0.0, holder_index=1.0)
        family, m = model.family, model.l + 0.5
        omega = where * float(energies[-1])
        x0, x1 = np.array(family._pieces[0]), np.array(family._pieces[1])
        coef, dcoef = (np.array(rows).T for rows in family._pieces[2:])
        got = family.kernel(m)(omega)
        got_d = family.kernel(m, derivative=True)(omega)
        by_scipy, by_mpmath = reference_sums(x0, x1, coef, m, omega)
        assert_rel(got, by_mpmath)
        assert_rel(got, by_scipy)
        # dg_m = phi(0+) omega^m + the same sums over phi', all terms non-negative
        jump = float(coef[0, 0]) * omega ** m
        d_scipy, d_mpmath = reference_sums(x0, x1, dcoef, m, omega)
        assert_rel(got_d, jump + d_mpmath)
        assert_rel(got_d, jump + d_scipy)


def test_single_piece_beta_integrals():
    # omega = 1 against the piece [0, u]: the piece sum of the monomial t^j is
    # B_u(j+1, m+1), and against the piece [0, 1], which holds omega, the
    # complete Beta column B(j+1, m+1).  Both sides of the recurrence / series
    # cut at u = 1/4 (4/(m+1) for m > 15, past this range) and of the old one
    # at u = 1/2 (the recurrence at u = 10^-0.875 would be 2.8e-13 off for
    # m = -1/2), the ends of m in [-0.999, 10] and of u, then 150 draws
    cases = [(m, u) for u in around(0.25) + around(0.5) for m in (-0.999, -0.5, 0.5, 3.0, 10.0)]
    cases += [(-0.5, 10.0 ** -0.875), *itertools.product((-0.999, 10.0), (1e-6, 0.5, 1.0))]
    rng = random.Random(208)
    cases += [(rng.uniform(-0.999, 10.0),
               rng.choice((10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(0.5, 1.0))))
              for _ in range(150)]
    for (m, u), j in itertools.product(cases, range(4)):
        coef = ((0.0,) * j + (1.0,) + (0.0,) * (3 - j),)
        full = _piecewise_kernel((0.0,), (1.0,), coef, m)(1.0)
        got = _piecewise_kernel((0.0,), (u,), coef, m)(1.0)
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            assert_rel(full, float(mpmath.beta(j + 1, mm + 1)))
            assert_rel(got, float(mpmath.betainc(j + 1, mm + 1, 0, mpmath.mpf(u))))
        assert_rel(full, float(beta(j + 1.0, m + 1.0)))
        assert_rel(got, float(beta(j + 1.0, m + 1.0) * betainc(j + 1.0, m + 1.0, u)))


# ----------------------------------------------------------- prefactor

def test_density_prefactor_matches_scipy_and_mpmath():
    # both ends of l in [-0.999, 5], then 150 draws
    rng = random.Random(230)
    for l in [-0.999, 5.0, *(rng.uniform(-0.999, 5.0) for _ in range(150))]:
        got = density_prefactor(l)
        assert_rel(got, 2.0 ** (l + 1.5) * math.pi ** 1.5
                   * math.exp(gammaln(l + 1.0) - gammaln(l + 1.5)))
        with mpmath.workdps(50):
            lm = mpmath.mpf(l)
            want = 2 ** (lm + 1.5) * mpmath.pi ** 1.5 * mpmath.gamma(lm + 1) / mpmath.gamma(lm + 1.5)
        assert_rel(got, float(want))


# ------------------------------------------------------ benchmark tracer

def test_benchmark_tracer_patches_and_restores_its_hooks(monkeypatch):
    # perfbench/tracing.py wraps the layers' public functions and patches
    # PolytropicIndexTable.__init__, SolutionProfile.samples and
    # vpequil._quadrature._adaptive by name: installing it must find every
    # one, trace a call, and uninstalling it must put every original back
    import vpequil.cli  # noqa: F401  (the tracer patches the loaded layers)
    from vpequil import _quadrature, compactsys, physical
    from vpequil.compactsys import CompactState

    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec.loader.exec_module(tracing)

    def snapshot():
        owners = [mod for name, mod in sys.modules.items() if name.startswith("vpequil")]
        owners += [compactsys.PolytropicIndexTable, physical.SolutionProfile]
        return {id(owner): (owner, dict(vars(owner))) for owner in owners}

    model, start = truncated_exponential(0), CompactState(0.6, 0.3, 0.3)
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        compactsys.integrate_compact(model, start, lambda_max=5.0)
        assert [s[0] for s in tracer.spans] == ["compactsys.integrate_compact"]
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    for key in [(id(compactsys.PolytropicIndexTable), "__init__"),
                (id(physical.SolutionProfile), "samples"),
                (id(compactsys), "integrate_compact"), (id(vpequil.cli), "integrate_compact"),
                (id(_quadrature), "_adaptive")]:
        assert key in patched
    after = snapshot()
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        assert all(now[name] is value for name, value in attrs.items()), owner
