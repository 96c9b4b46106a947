"""Tests for steady-state construction in physical radius.

The oracles are closed-form self-gravitating equilibria: the linear-density
solution omega = omega_c sin(ar)/(ar) (index n = 1, compact support) and the
n = 5 family with omega = omega_c (1 + (r/b)^2)^(-1/2) (infinite extent,
finite mass), plus homology scaling relations and a mass-quadrature
consistency check that is independent of the ODE right-hand side.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from vpequil import _ode, physical
from vpequil.distmodels import (
    EvaluationError,
    density,
    eval_n,
    polytrope,
    tabulated_model,
    truncated_exponential,
)
from vpequil.physical import (
    FINITE_RADIUS,
    INFINITE_FINITE_MASS,
    INFINITE_UNDETERMINED,
    PhysicalState,
    SolveSettings,
    center_series,
    density_scale,
    integrate_physical,
    natural_length,
    write_profile_csv,
)

from oracles import rhs_physical

# linear-density model: rho = rho_minus * omega with rho_minus = 2^(3/2) pi^2,
# hence omega(r) = omega_c sin(ar)/(ar) with a = sqrt(4 pi rho_minus)
RHO_MINUS_N1 = 2.0 ** 1.5 * math.pi ** 2
A_N1 = math.sqrt(4.0 * math.pi * RHO_MINUS_N1)

# n = 5 coefficient rho = rho_minus * omega^5
RHO_MINUS_N5 = 2.0 ** 1.5 * math.pi ** 2 * 7.0 / 128.0


def sine_omega(omega_c, r):
    x = A_N1 * r
    return omega_c * math.sin(x) / x


def sine_mass(omega_c, r):
    x = A_N1 * r
    return omega_c / A_N1 * (math.sin(x) - x * math.cos(x))


@pytest.fixture(scope="module")
def king_profile():
    return integrate_physical(truncated_exponential(0), omega_c=0.5)


@pytest.fixture(scope="module")
def plummer_profile():
    return integrate_physical(polytrope(n=5), omega_c=1.0)


# ------------------------------------------------------------ small pieces

def test_natural_length_linear_model():
    # for n = 1 the density is linear in omega, so the length is omega_c-free
    model = polytrope(n=1)
    assert natural_length(model, 1.0) == pytest.approx(1.0 / A_N1, rel=1e-14)
    assert natural_length(model, 7.3) == pytest.approx(1.0 / A_N1, rel=1e-14)


def test_settings_resolution_defaults(plummer_profile):
    # rel_tol is the one setting; abs_tol is 1e-30, and a solve runs from
    # 1e-6 natural lengths to where omega falls through 1e-12 omega_c, or to
    # 1e6 natural lengths; the profile keeps the length
    model = polytrope(n=1)
    length = natural_length(model, 2.0)
    assert physical._radii(model, 2.0) == (length, 1e-6 * length, 1e6 * length)
    assert SolveSettings().rel_tol == 1e-10
    assert physical._ABS_TOL == 1e-30
    prof = integrate_physical(model, 2.0)
    assert prof.natural_length == length
    assert prof.r[0] == 1e-6 * length
    assert prof.omega[-1] == pytest.approx(2e-12, abs=1e-14)
    assert plummer_profile.r[-1] == 1e6 * natural_length(polytrope(n=5), 1.0)


@pytest.mark.parametrize("make", [truncated_exponential, lambda l: polytrope(n=3.0, l=l)],
                         ids=["king", "n3"])
@pytest.mark.parametrize("l", [-0.5, -0.45, 0.0, 1.0, 2.5])
def test_start_at_a_millionth_natural_length_for_l_from_minus_half(make, l):
    # the start rule changes only below l = -1/2: above it the start is the
    # float 1e-6 * natural_length, bit for bit
    model = make(l)
    for omega_c in (0.5, 1.0, 2.0):
        start = integrate_physical(model, omega_c).r[0]
        assert start == 1e-6 * natural_length(model, omega_c)
        assert physical._radii(model, omega_c)[1] == start


@pytest.mark.parametrize("make", [lambda l: truncated_exponential(0, l),
                                  lambda l: truncated_exponential(1, l),
                                  lambda l: polytrope(n=1.0, l=l),
                                  lambda l: polytrope(n=3.0, l=l)],
                         ids=["king", "wilson", "n1", "n3"])
def test_start_keeps_the_series_correction_small_as_l_nears_minus_one(make):
    # the series' first correction goes as (r/L)^(2 + 2l): at a fixed 1e-6 L
    # it would be 5.6 omega_c at l = -0.95 and 2,190 omega_c at -0.99; at
    # L 1e-6 ** (1/(2 + 2l)) it stays near 1e-6, so omega never starts at or
    # below the floor.  Where that start underflows the solve names l
    for l in (-0.6, -0.75, -0.85, -0.9, -0.95, -0.97, -0.98, -0.99, -0.995):
        model = make(l)
        for omega_c in (0.5, 1.0, 2.0):
            try:
                start = physical._radii(model, omega_c)[1]
                _, omega = center_series(model, omega_c, start)
                assert start ** (2.0 * l) < math.inf
            except (EvaluationError, ArithmeticError):
                with pytest.raises(EvaluationError, match=rf"^(l = {l:g}|natural_length)"):
                    integrate_physical(model, omega_c)
                continue
            assert abs(omega / omega_c - 1.0) < 1e-4, (l, omega_c, omega)


def test_king_near_l_minus_one_starts_where_its_series_holds():
    # at l = -0.95 a start at 1e-6 natural lengths would have omega = 3.6
    # omega_c and give a spurious FiniteRadius; the scaled start leaves it
    # unbounded, as l = -0.85 is with either start
    for l in (-0.95, -0.85):
        profile = integrate_physical(truncated_exponential(0, l), 1.0)
        assert profile.classification == INFINITE_UNDETERMINED
        assert profile.omega[0] == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("model, start", [
    (truncated_exponential(0, -0.99), "0"),       # 1e-300 natural lengths underflow to 0
    (polytrope(n=1.0, l=-0.97), "1.16886e-163"),   # r ** (2 l) overflows there
], ids=["underflow", "power-overflow"])
def test_start_radius_that_leaves_double_precision_names_l(model, start):
    with pytest.raises(EvaluationError, match=rf"^l = {model.l:g}, omega_c = 1: the start leaves "
                                              rf"double precision: \(r, m, omega\) = \({start}, "):
        integrate_physical(model, 1.0)


def test_centre_series_overflow_is_an_evaluation_error():
    # g g' of the series' second term overflows: a nan start would stall the
    # step loop
    model = polytrope(n=2.4631169675838342, l=1.1810654395208215)
    with pytest.raises(EvaluationError, match=r"omega_c = 1e\+60: the start leaves double "
                                              r"precision: \(r, m, omega\) = \(1.9.*, nan, nan\)"):
        integrate_physical(model, 1e60)


def test_physical_state_record():
    st = PhysicalState(r=1.5, m=0.25, omega=0.8)
    assert (st.r, st.m, st.omega) == (1.5, 0.25, 0.8)
    with pytest.raises(ValueError):
        PhysicalState(r=0.0, m=0.1, omega=0.5)
    with pytest.raises(ValueError):
        PhysicalState(r=1.0, m=-0.1, omega=0.5)


def test_rhs_physical_closed_form():
    model = polytrope(n=1)
    dm, domega = rhs_physical(model, 1.0, (0.3, 0.8))
    assert dm == pytest.approx(4.0 * math.pi * RHO_MINUS_N1 * 0.8, rel=1e-12)
    assert domega == pytest.approx(-0.3, rel=1e-15)


def test_rhs_physical_clamps_exhausted_potential():
    # past the surface the vacuum region must not feed negative density back
    model = polytrope(n=1)
    dm, domega = rhs_physical(model, 2.0, (0.5, -1e-15))
    assert dm == 0.0
    assert domega == pytest.approx(-0.125, rel=1e-15)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.floats(0.55, 8.0), l=st.floats(-0.45, 3.0), phi_minus=st.floats(1e-3, 1e3),
       r=st.floats(1e-6, 1e3), m=st.floats(0.0, 10.0),
       omega=st.one_of(st.floats(-1.0, 0.0), st.floats(1e-12, 50.0)))
def test_inlined_polytrope_kernel_is_density(n, l, phi_minus, r, m, omega):
    # the physical field writes the polytrope's closed form into its source;
    # its floats are those of 4 pi r^2 density(...), with rho = 0 for omega <= 0
    model = polytrope(n=n, l=l, phi_minus=phi_minus)
    rho = density(model, r, omega) if omega > 0.0 else 0.0
    assert rhs_physical(model, r, (m, omega)) == (4.0 * math.pi * r * r * rho, -m / (r * r))


def test_polytrope_solves_share_one_physical_loop():
    # the polytrope's constants are bound, not written as literals: solves at
    # three n compile the field, the floor event, the loop and the
    # interpolant once, not once per model
    assert "kernel(" not in "".join(physical._physical_field(polytrope(n=3.0)).field[0].body)
    _ode._compiled.cache_clear()
    sizes = []
    for n in (1.5, 3.0, 4.5):
        integrate_physical(polytrope(n=n), 1.0)
        sizes.append(_ode._compiled.cache_info().currsize)
    assert sizes == [4, 4, 4]
    assert _ode._compiled.cache_info().misses == 4


def test_density_scale_is_4pi_rho_over_r2l():
    for model in (polytrope(n=1.0), truncated_exponential(0, l=-0.4),
                  polytrope(n=3.0, l=1.0)):
        for omega in (0.2, 1.0, 3.0):
            want = 4.0 * math.pi * density(model, 2.0, omega) / 2.0 ** (2.0 * model.l)
            assert density_scale(model, omega) == pytest.approx(want, rel=1e-14)
    # linear-density model: 4 pi rho_minus omega, so the natural length is 1/a
    assert density_scale(polytrope(n=1.0), 1.0) == pytest.approx(A_N1 ** 2, rel=1e-14)


def test_tabulated_solve_runs_no_numpy_kernel_loop(monkeypatch):
    # once the step loop starts, the tabulated kernels run on floats: no
    # einsum, searchsorted or power, whose SIMD loops could move a float
    energies = np.linspace(0.0, 3.0, 61)
    model = tabulated_model(energies, np.expm1(energies), k=1.0)
    solve = physical.dop853

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy loop ran in the step loop")

    def guarded(*args, **kwargs):
        for name in ("einsum", "searchsorted", "power"):
            monkeypatch.setattr(np, name, refuse)
        return solve(*args, **kwargs)
    monkeypatch.setattr(physical, "dop853", guarded)
    profile = integrate_physical(model, 0.6)
    assert profile.classification == FINITE_RADIUS
    assert all(math.isfinite(eval_n(model, w)) for w in (1e-6, 0.3, 2.9))


def test_center_series_matches_sine_taylor():
    model = polytrope(n=1)
    r = 1e-3
    m, omega = center_series(model, 1.0, r)
    # the two-term series reproduces the sine solution through (ar)^4
    assert omega == pytest.approx(sine_omega(1.0, r), abs=1e-12)
    assert m == pytest.approx(sine_mass(1.0, r), rel=1e-9)


# ----------------------------------------------------- closed-form solves

def test_linear_model_radius_and_mass():
    profile = integrate_physical(polytrope(n=1), omega_c=1.0)
    assert profile.classification == FINITE_RADIUS
    assert profile.radius == pytest.approx(math.pi / A_N1, rel=1e-8)
    assert profile.total_mass == pytest.approx(math.pi / A_N1, rel=1e-8)


@pytest.mark.parametrize("r", [0.02, 0.05, 0.12])
def test_linear_model_pointwise(r):
    profile = integrate_physical(polytrope(n=1), omega_c=1.0)
    m, omega = profile.dense(r)
    assert omega == pytest.approx(sine_omega(1.0, r), rel=1e-9)
    assert m == pytest.approx(sine_mass(1.0, r), rel=1e-9)


@pytest.mark.parametrize("n,l", [(1.5, 0.0), (2.0, 1.0)])
def test_homology_scaling(n, l):
    """Power-law profiles scale: R ~ omega_c^(1-n-l)/(2+2l), M ~ omega_c R."""
    ex_r = (n + l - 1.0) / (2.0 + 2.0 * l)
    ex_m = -(1.0 + (1.0 - n - l) / (2.0 + 2.0 * l))
    model = polytrope(n=n, l=l)
    invariants = []
    for omega_c in (0.5, 1.0, 2.0):
        p = integrate_physical(model, omega_c)
        assert p.classification == FINITE_RADIUS
        invariants.append((p.radius * omega_c ** ex_r, p.total_mass * omega_c ** ex_m))
    base_r, base_m = invariants[0]
    for rr, mm in invariants[1:]:
        assert rr == pytest.approx(base_r, rel=1e-8)
        assert mm == pytest.approx(base_m, rel=1e-8)


@st.composite
def polytrope_draws(draw):
    l = draw(st.floats(-0.45, 1.0))
    n = draw(st.floats(0.8, 4.6 + 3.0 * l))
    return n, l, draw(st.floats(0.2, 5.0))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(polytrope_draws())
def test_homology_scaling_property(draw):
    """g_{l+1/2} ~ omega^(n+l), so omega(r) = omega_c w(omega_c^e r) with
    e = (n+l-1)/(2+2l): R ~ omega_c^-e and M ~ omega_c^(1-e)."""
    n, l, omega_c = draw
    e = (n + l - 1.0) / (2.0 + 2.0 * l)
    model = polytrope(n=n, l=l)
    scaled, unit = integrate_physical(model, omega_c), integrate_physical(model, 1.0)
    assert scaled.classification == unit.classification == FINITE_RADIUS
    assert scaled.radius * omega_c ** e == pytest.approx(unit.radius, rel=1e-7)
    assert scaled.total_mass * omega_c ** (e - 1.0) == pytest.approx(unit.total_mass, rel=1e-7)


def test_king_finite_radius(king_profile):
    assert king_profile.classification == FINITE_RADIUS
    assert math.isfinite(king_profile.radius)
    assert king_profile.diagnostics["termination"] == "surface"
    # regression pins for this solver configuration
    assert king_profile.radius == pytest.approx(1.1353255, rel=1e-6)
    assert king_profile.total_mass == pytest.approx(0.2197707, rel=1e-6)


def test_king_mass_quadrature_consistency(king_profile):
    """4 pi int rho r^2 dr recovers the ODE mass without using dm/dr."""
    model = king_profile.model

    def integrand(r):
        _, omega = king_profile.dense(r)
        return 4.0 * math.pi * r * r * density(model, r, max(omega, 0.0))

    r0 = king_profile.r[0]
    quad_mass, _ = integrate.quad(integrand, r0, king_profile.radius,
                                  epsabs=1e-13, epsrel=1e-11, limit=200)
    m0 = king_profile.m[0]
    assert quad_mass + m0 == pytest.approx(king_profile.total_mass, rel=1e-7)


def test_surface_location_insensitive_to_floor(monkeypatch):
    model = truncated_exponential(0)
    tight = integrate_physical(model, 0.5)
    monkeypatch.setattr(physical, "_FLOOR_FRACTION", 1e-9)
    loose = integrate_physical(model, 0.5)
    assert tight.radius == pytest.approx(loose.radius, rel=1e-8)
    assert tight.total_mass == pytest.approx(loose.total_mass, rel=1e-10)


def test_plummer_classification_and_mass(plummer_profile):
    alpha = 1.0 / math.sqrt(4.0 * math.pi * RHO_MINUS_N5)
    assert plummer_profile.classification == INFINITE_FINITE_MASS
    assert math.isinf(plummer_profile.radius)
    assert plummer_profile.total_mass == pytest.approx(math.sqrt(3.0) * alpha, rel=1e-8)
    assert plummer_profile.diagnostics["decade_mass_ratio"] < 1e-3


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_plummer_pointwise_omega(plummer_profile, r):
    alpha = 1.0 / math.sqrt(4.0 * math.pi * RHO_MINUS_N5)
    exact = (1.0 + r * r / (3.0 * alpha * alpha)) ** -0.5
    _, omega = plummer_profile.dense(r)
    assert omega == pytest.approx(exact, rel=1e-9)


def test_plummer_tail_mass_deficit(plummer_profile):
    # 1 - m(r)/M ~ (3/2)(b/r)^2 for the n = 5 family, b = sqrt(3) alpha
    b = plummer_profile.total_mass   # M = omega_c * b with omega_c = 1
    r = 1e3
    m, _ = plummer_profile.dense(r)
    deficit = (plummer_profile.total_mass - m) / plummer_profile.total_mass
    assert deficit == pytest.approx(1.5 * (b / r) ** 2, rel=1e-3)


def test_plummer_central_potential_scaling():
    # M = sqrt(3) (4 pi rho_minus)^(-1/2) / omega_c for the n = 5 family
    profile = integrate_physical(polytrope(n=5), omega_c=2.0)
    expected = math.sqrt(3.0) / math.sqrt(4.0 * math.pi * RHO_MINUS_N5) / 2.0
    assert profile.classification == INFINITE_FINITE_MASS
    assert profile.total_mass == pytest.approx(expected, rel=1e-8)


def test_infinite_mass_control():
    profile = integrate_physical(polytrope(n=6), omega_c=1.0)
    assert profile.classification == INFINITE_UNDETERMINED
    assert math.isinf(profile.radius)
    assert math.isinf(profile.total_mass)
    assert profile.diagnostics["decade_mass_ratio"] > 0.1


@pytest.mark.parametrize("make", [lambda: polytrope(n=3), lambda: truncated_exponential(1)])
def test_profile_monotonicity(make):
    profile = integrate_physical(make(), omega_c=1.0)
    assert np.all(np.diff(profile.omega) < 0)
    assert np.all(np.diff(profile.m) >= 0)
    assert profile.m[-1] > profile.m[0]


# ------------------------------------------------------------- profile API

def test_dense_matches_stored_nodes(king_profile):
    for i in (1, len(king_profile.r) // 2, -2):
        m, omega = king_profile.dense(king_profile.r[i])
        assert m == pytest.approx(king_profile.m[i], rel=1e-12)
        assert omega == pytest.approx(king_profile.omega[i], rel=1e-12)


def test_dense_rejects_out_of_domain(king_profile):
    # the range check forgives a rounding of the end points, no more
    lo, hi = king_profile.r[0], king_profile.r[-1]
    assert king_profile.dense(hi * (1.0 + 1e-13)) == king_profile.dense(hi)
    assert king_profile.dense(lo * (1.0 - 1e-13)) == king_profile.dense(lo)
    for r in (hi * 2.0, hi * (1.0 + 1e-9), lo * (1.0 - 1e-9)):
        with pytest.raises(ValueError, match="outside the integrated range"):
            king_profile.dense(r)


def test_samples_expose_density_and_pressure(king_profile):
    s = king_profile.samples
    assert set(s) == {"r", "m", "omega", "rho", "p_rad"}
    assert np.all(np.asarray(s["rho"]) >= 0)
    assert np.all(np.asarray(s["p_rad"]) >= 0)
    i = len(s["r"]) // 3
    direct = density(king_profile.model, s["r"][i], s["omega"][i])
    assert s["rho"][i] == pytest.approx(direct, rel=1e-12)


def test_write_profile_csv(tmp_path, king_profile):
    path = tmp_path / "profile.csv"
    write_profile_csv(king_profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,m,omega,rho,p_rad"
    assert len(lines) == 1 + len(king_profile.r)
    row = [float(tok) for tok in lines[5].split(",")]
    assert row[0] == king_profile.r[4]     # %.17g round-trips doubles exactly
    assert row[1] == king_profile.m[4]
    # repeated writes are byte-identical
    path2 = tmp_path / "profile2.csv"
    write_profile_csv(king_profile, path2)
    assert path.read_bytes() == path2.read_bytes()
    write_profile_csv(king_profile, path2, precision=6)
    lines = path2.read_text().splitlines()
    assert len(lines) == 1 + len(king_profile.r)
    assert lines[5].split(",")[0] == f"{king_profile.r[4]:.6g}"
