"""Property tests of the special-function ports on the run path.

The lowered-exponential kernels and index, the tabulated incomplete-Beta
sums and the density prefactor are evaluated without scipy.  Each is held
here to 1e-13 relative against 50-digit mpmath, and all but the index
against ``scipy.special`` (the functions they replace), over each family's
domain: p in {0, 1, 2}, l in (-1, 3] with 2l an integer as well as
general l, omega in [1e-8, 700], random monotone tables (some starting
below E = 0), and l in (-1, 5] for the prefactor.

The benchmark's tracer (``perfbench/tracing.py``) patches names of the
package; one test installs it and checks that it finds and restores them.
"""

import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import beta, betainc, gammainc, gammaln

from vpequil.distmodels import (
    TruncatedExponential,
    _piecewise_kernel,
    density_prefactor,
    eval_n,
    tabulated_model,
    truncated_exponential,
)

REL = 1e-13
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


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


@SETTINGS
@given(p=st.sampled_from([0, 1, 2]),
       l=st.one_of(st.sampled_from(HALF_INTEGER_L), st.floats(-0.999, 3.0)),
       shift=st.sampled_from([0.5, 1.5]),
       log_omega=st.floats(-8.0, math.log10(700.0)))
def test_lowered_kernel_matches_scipy_and_mpmath(p, l, shift, log_omega):
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


@SETTINGS
@given(p=st.sampled_from([0, 1, 2]),
       l=st.one_of(st.sampled_from(HALF_INTEGER_L), st.floats(-0.999, 3.0)),
       log_omega=st.floats(-8.0, math.log10(700.0)))
def test_lowered_index_over_its_domain(p, l, log_omega):
    # the ratio form n = -l + omega + 1/S on the kernel's Horner polynomial,
    # its elementary form and the continued fraction
    omega = 10.0 ** log_omega
    assert_rel(eval_n(truncated_exponential(p, l=l), omega), mp_lowered_index(p, l, omega))


def test_lowered_kernel_near_overflow():
    # Gamma(m+1) < 1 for m = 1/2 keeps g finite a little past e^omega's overflow
    kernel = TruncatedExponential(0).kernel(0.5)
    for omega in (700.0, 709.5, 709.8):
        assert_rel(kernel(omega), mp_lowered(0, 0.5, omega))


# ----------------------------------------------------- tabulated kernels

@st.composite
def monotone_tables(draw):
    n = draw(st.integers(4, 40))
    start = draw(st.floats(-1.0, 0.0))
    steps = draw(st.lists(st.floats(0.02, 0.5), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1))
    energies = start + np.concatenate([[0.0], np.cumsum(steps)])
    values = draw(st.floats(0.0, 1.0)) + np.concatenate([[0.0], np.cumsum(rises)])
    assume(energies[-1] > 0.05)
    return energies, values


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


def tabulated_examples(test):
    for omega in FORM_SWITCHES:
        for w in around(omega / 2.0):
            for l in (-0.5, 1.0):
                test = example(table=EIGHTHS, l=l, where=w)(test)
    return test


@settings(derandomize=True, max_examples=80, deadline=None)
@given(table=monotone_tables(), l=st.floats(-0.999, 3.0), where=st.floats(1e-3, 1.0))
@tabulated_examples
def test_tabulated_kernels_match_scipy_and_mpmath(table, l, where):
    energies, values = table
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


def single_piece_examples(test):
    # both sides of the recurrence / series cut at u = 1/4 (4/(m+1) for
    # m > 15, past this range), and of the old one at u = 1/2; the
    # recurrence at u = 10^-0.875 < 1/4 would be 2.8e-13 off for m = -1/2
    for u in around(0.25) + around(0.5):
        for m in (-0.999, -0.5, 0.5, 3.0, 10.0):
            test = example(m=m, u=u)(test)
    return example(m=-0.5, u=10.0 ** -0.875)(test)


@SETTINGS
@given(m=st.floats(-0.999, 10.0),
       u=st.one_of(st.floats(-6.0, 0.0).map(lambda t: 10.0 ** t), st.floats(0.5, 1.0)))
@single_piece_examples
def test_single_piece_beta_integrals(m, u):
    # omega = 1 against the piece [0, u]: the piece sum of the monomial t^j is
    # B_u(j+1, m+1), and against the piece [0, 1], which holds omega, the
    # complete Beta column B(j+1, m+1)
    for j in range(4):
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

@SETTINGS
@given(l=st.floats(-0.999, 5.0))
def test_density_prefactor_matches_scipy_and_mpmath(l):
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
