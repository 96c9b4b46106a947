"""Tests for finiteness criteria, critical potentials, and sweeps.

The theorem checkers are exercised on models whose index behaviour is known
in closed form (power laws, lowered exponentials), on models of a stub
family whose index is a synthetic function engineered to hit the edge cases
(boundary equality, multiple crossings), and cross-checked against the
solver: a Guaranteed verdict must come with a finite-radius profile.  The
sweep tests replace `analysis.integrate_physical` with fake solvers.
"""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpequil import analysis
from vpequil.analysis import (
    GUARANTEED,
    INCONCLUSIVE,
    _geomspace,
    _linspace,
    check_theorem1,
    check_theorem2,
    classify_solution,
    omega_crit,
    sweep_omega_c,
    write_sweep_csv,
)
from vpequil.distmodels import (
    DistributionModel,
    Regularity,
    eval_n,
    polytrope,
    tabulated_model,
    truncated_exponential,
)
from vpequil.physical import (
    FINITE_RADIUS,
    INFINITE_FINITE_MASS,
    INFINITE_UNDETERMINED,
    integrate_physical,
)

from oracles import compare_representations, map_profile

WILSON_OMEGA_CRIT = 3.9023231626784796   # regression pin for p=1, l=0


@dataclass(frozen=True, eq=False)
class IndexFamily:
    """A stub family whose local index is the function ``n_of``: the
    criteria read nothing else of a model."""

    n_of: object

    energy_max = None

    def default_regularity(self):
        return Regularity(k=0.0, holder_index=1.0)

    def kernel(self, m, derivative=False, memo=None):
        def unused(omega):
            raise AssertionError("the criteria read only the index")
        return unused

    def index(self, l, kernel):
        return self.n_of


def index_model(n_of, l=0.0):
    return DistributionModel(l=l, family=IndexFamily(n_of))


@pytest.fixture(scope="module")
def king_profile():
    return integrate_physical(truncated_exponential(0), omega_c=0.5)


@pytest.fixture(scope="module")
def plummer_profile():
    return integrate_physical(polytrope(n=5), omega_c=1.0)


# -------------------------------------------------------------- theorem 1

def test_theorem1_polytrope_inside_bound():
    verdict = check_theorem1(polytrope(n=2), omega_0=1.0)
    assert verdict.theorem == "T1"
    assert verdict.holds == GUARANTEED
    assert verdict.witness["sup_excess"] < 0
    assert verdict.witness["omega_interval"][1] == 1.0


def test_theorem1_king_low_cutoff():
    verdict = check_theorem1(truncated_exponential(0), omega_0=0.1)
    assert verdict.holds == GUARANTEED
    assert verdict.witness["sup_excess"] == pytest.approx(-0.5, abs=0.05)


def test_theorem1_polytrope_outside_bound():
    assert check_theorem1(polytrope(n=4), omega_0=1.0).holds == INCONCLUSIVE


def test_theorem1_boundary_equality_is_inconclusive():
    # the hypothesis check runs with a strict numerical slack
    assert check_theorem1(polytrope(n=3), omega_0=1.0).holds == INCONCLUSIVE
    verdict = check_theorem1(index_model(lambda w: 3.0), omega_0=1.0)
    assert verdict.holds == INCONCLUSIVE


def test_theorem1_guaranteed_implies_finite_radius():
    cases = [(polytrope(n=2), 1.0), (truncated_exponential(0), 0.1)]
    for model, omega_c in cases:
        assert check_theorem1(model, omega_c).holds == GUARANTEED
        profile = integrate_physical(model, omega_c)
        assert profile.classification == FINITE_RADIUS


# ----------------------------------------------------------- index grids

def test_linspace_port_is_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(25)
    n = 10_000
    starts = (10.0 ** rng.uniform(-12.0, 6.0, n)).tolist()
    ratios = (10.0 ** rng.uniform(-6.0, 8.0, n)).tolist()
    for start, ratio, count in zip(starts, ratios, rng.integers(2, 100, n).tolist()):
        stop = start * (1.0 + ratio)
        grid = _linspace(start, stop, count)
        assert grid == np.linspace(start, stop, count).tolist(), (start, stop, count)


def test_geomspace_port_is_numpy_geomspace_bit_for_bit_without_avx512():
    # with numpy's AVX-512 loops switched off np.geomspace is libm's 10.0 ** x
    # over a linspace of log10, and the port makes the same floats.  On a CPU
    # without AVX-512 numpy warns that there is nothing to switch off
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(analysis.__file__).parents[1])!r})
        import numpy as np
        from vpequil.analysis import _geomspace

        rng = np.random.default_rng(26)
        n = 15_000
        starts = (10.0 ** rng.uniform(-12.0, 6.0, n)).tolist()
        spans = (10.0 ** rng.uniform(0.01, 12.0, n)).tolist()
        counts = rng.integers(2, 130, n).tolist()
        print(sum(_geomspace(a, a * s, k) != np.geomspace(a, a * s, k).tolist()
                  for a, s, k in zip(starts, spans, counts)))
    """)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0"]


def test_geomspace_port_is_near_numpy_geomspace_with_its_ends_exact():
    # with numpy's own dispatch its power may differ from libm's by some ulps
    rng = np.random.default_rng(27)
    n = 2_000
    starts = (10.0 ** rng.uniform(-12.0, 6.0, n)).tolist()
    spans = (10.0 ** rng.uniform(0.01, 12.0, n)).tolist()
    for a, s, k in zip(starts, spans, rng.integers(2, 1100, n).tolist()):
        got, want = _geomspace(a, a * s, k), np.geomspace(a, a * s, k)
        assert got[0] == want[0] == a and got[-1] == want[-1] == a * s
        assert np.max(np.abs(np.asarray(got) - want) / want) <= 1e-13


# ----------------------------------------------------------- omega_crit

def test_omega_crit_wilson():
    model = truncated_exponential(1)
    oc = omega_crit(model)
    assert oc == pytest.approx(WILSON_OMEGA_CRIT, rel=1e-7)
    assert eval_n(model, oc) == pytest.approx(5.0, abs=1e-8)


def mp_omega_crit(p, l):
    """Root of n(omega) = 5 + 3l for phi_p, in 50-digit mpmath."""
    with mpmath.workdps(50):
        m = mpmath.mpf(l) + mpmath.mpf(1) / 2
        a = p + m + 2

        def excess(w):
            s = mpmath.hyp1f1(1, a + 1, w) / a   # sum_k w^k/(a)_{k+1}
            return -l + w + 1 / s - (5 + 3 * mpmath.mpf(l))
        return float(mpmath.findroot(excess, 4.0))


def test_omega_crit_scan_runs_to_1e12():
    # the lowered-exponential index is finite up to 1e12, so the scan probes
    # 1e-10 * 2^k for k = 0..73 (2^74 * 1e-10 > 1e12) and stops at no error
    grid = [1e-10 * 2.0 ** k for k in range(74)]
    recorded = {(0, 0.0): 4.622808966605007, (1, 0.0): 3.9023231626784103}
    for p in (0, 1):
        for l in (0.0, 0.5):
            model = truncated_exponential(p, l=l)
            probes = []
            probed = index_model(lambda w, f=model._index: probes.append(w) or f(w), l=l)
            oc = omega_crit(probed)
            assert probes[:74] == grid
            assert max(probes) == grid[-1]
            assert omega_crit(model) == oc
            assert oc == pytest.approx(mp_omega_crit(p, l), rel=1e-12, abs=0.0)
            if (p, l) in recorded:
                assert oc == pytest.approx(recorded[p, l], rel=1e-12, abs=0.0)


def test_omega_crit_flags():
    assert omega_crit(polytrope(n=3)) == math.inf
    assert omega_crit(polytrope(n=6)) == 0.0


def test_omega_crit_synthetic_multiple_crossings():
    # two upward crossings of the bound: the supremum (largest) wins
    with pytest.warns(RuntimeWarning):
        oc = omega_crit(index_model(lambda w: 5.0 + math.sin(math.log(w))))
    assert math.sin(math.log(oc)) == pytest.approx(0.0, abs=1e-9)
    bigger = omega_crit(index_model(lambda w: 5.0 + math.sin(math.log(w)) - 2.0))
    assert bigger == math.inf


def test_omega_crit_synthetic_never_below_bound():
    oc = omega_crit(index_model(lambda w: 6.0 + w))
    assert oc == 0.0


# -------------------------------------------------------------- theorem 2

def test_theorem2_wilson_below_critical():
    model = truncated_exponential(1)
    verdict = check_theorem2(model, omega_c=WILSON_OMEGA_CRIT / 2)
    assert verdict.theorem == "T2"
    assert verdict.holds == GUARANTEED
    assert verdict.witness["omega_c"] == pytest.approx(WILSON_OMEGA_CRIT / 2)
    assert verdict.witness["omega_crit"] == pytest.approx(WILSON_OMEGA_CRIT, rel=1e-6)


def test_theorem2_wilson_above_critical():
    model = truncated_exponential(1)
    assert check_theorem2(model, omega_c=2 * WILSON_OMEGA_CRIT).holds == INCONCLUSIVE


def test_theorem2_identically_critical_family():
    # n identically equal to the bound violates the hypothesis
    assert check_theorem2(polytrope(n=5), omega_c=1.0).holds == INCONCLUSIVE


def test_theorem2_power_law_guaranteed():
    verdict = check_theorem2(polytrope(n=2), omega_c=7.0)
    assert verdict.holds == GUARANTEED
    assert verdict.witness["omega_crit"] == math.inf


def test_theorem2_guaranteed_implies_finite_radius():
    model = truncated_exponential(1)
    omega_c = WILSON_OMEGA_CRIT / 2
    assert check_theorem2(model, omega_c).holds == GUARANTEED
    assert integrate_physical(model, omega_c).classification == FINITE_RADIUS


@st.composite
def theorem_models(draw):
    """A polytrope below the critical index 5 + 3l, or a lowered exponential,
    with l in (-0.45, 2] and omega_c log-uniform in [0.05, 20]."""
    l = draw(st.floats(-0.45, 2.0, exclude_min=True))
    model = draw(st.one_of(
        st.floats(0.6, 5.0 + 3.0 * l - 0.02, exclude_min=True).map(lambda n: polytrope(n, l=l)),
        st.sampled_from([0, 1, 2]).map(lambda p: truncated_exponential(p, l=l))))
    return model, math.exp(draw(st.floats(math.log(0.05), math.log(20.0))))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=theorem_models())
def test_guaranteed_verdict_implies_finite_radius(case):
    model, omega_c = case
    verdicts = (check_theorem1(model, omega_c).holds, check_theorem2(model, omega_c).holds)
    if GUARANTEED in verdicts:
        assert integrate_physical(model, omega_c).classification == FINITE_RADIUS, verdicts


# ---------------------------------------------------------- classification

def test_classify_king(king_profile):
    labels = classify_solution(truncated_exponential(0), king_profile)
    assert labels.classification == FINITE_RADIUS
    assert labels.forward_label == "(0,1,0)"
    assert labels.backward_label == "L2"
    assert labels.mass_convergent


def test_classify_plummer(plummer_profile):
    labels = classify_solution(polytrope(n=5), plummer_profile)
    assert labels.classification == INFINITE_FINITE_MASS
    assert labels.forward_label == "unresolved"
    assert labels.backward_label == "L2"
    assert labels.mass_convergent


def test_classify_infinite_mass():
    profile = integrate_physical(polytrope(n=6), omega_c=1.0)
    labels = classify_solution(polytrope(n=6), profile)
    assert labels.classification == INFINITE_UNDETERMINED
    assert not labels.mass_convergent


def reference_labels(model, profile):
    """The labels as read from every compactified step point by map_profile."""
    U, Q, Om = map_profile(model, profile)
    end = np.array([U[-1], Q[-1], Om[-1]])
    forward = "unresolved"
    for corner, label in (((0.0, 1.0, 0.0), "(0,1,0)"), ((1.0, 1.0, 0.0), "(1,1,0)")):
        if np.linalg.norm(end - np.asarray(corner)) < 0.05:
            forward = label
            break
    u_center = (3.0 + 2.0 * model.l) / (4.0 + 2.0 * model.l)
    backward = ("L2" if abs(float(U[0]) - u_center) < 0.05 and float(Q[0]) < 0.05
                else "unresolved")
    return forward, backward


@pytest.mark.parametrize("make_model, omega_c", [
    (lambda: truncated_exponential(0), 0.5),
    (lambda: polytrope(n=5), 1.0),
    (lambda: polytrope(n=6), 1.0),
    (lambda: truncated_exponential(1, l=-0.4), 0.5),
    (lambda: tabulated_model(np.linspace(0.0, 3.0, 61), np.expm1(np.linspace(0.0, 3.0, 61)),
                             k=1.0), 2.0),
    (lambda: polytrope(n=3, l=1.0), 1.0),
    # past omega = 2^53 the first point's Omega rounds to 1; it still starts on L2
    (lambda: polytrope(n=3), 1e17),
], ids=["king", "plummer", "n6", "wilson-l-0.4", "tabulated-61", "n3-l1", "n3-omega-1e17"])
def test_labels_read_first_and_last_step_points(make_model, omega_c):
    model = make_model()
    profile = integrate_physical(model, omega_c)
    labels = classify_solution(model, profile)
    assert profile._samples is None   # no density or pressure sample was built
    assert (labels.forward_label, labels.backward_label) == reference_labels(model, profile)
    assert labels.backward_label == "L2"
    sweep = sweep_omega_c(model, [omega_c])
    assert [e.limit_label for e in sweep.entries] == [labels.forward_label]


@pytest.mark.parametrize("first, last, labels", [
    # the last point 0.01, then 0.1, from the corner (0,1,0); the corner radius is 0.05
    ((0.75, 0.0, 0.9), (0.0, 0.99, 0.0), ("(0,1,0)", "L2")),
    ((0.75, 0.0, 0.9), (0.0, 0.9, 0.0), ("unresolved", "L2")),
    # the first point on U = (3 + 2l)/(4 + 2l) = 3/4 at Q = 0.01, then 0.1
    ((0.75, 0.01, 0.9), (0.0, 0.99, 0.0), ("(0,1,0)", "L2")),
    ((0.75, 0.1, 0.9), (0.0, 0.99, 0.0), ("(0,1,0)", "unresolved")),
], ids=["last-0.01-from-corner", "last-0.1-from-corner", "first-Q-0.01", "first-Q-0.1"])
def test_labels_hold_within_the_corner_radius_only(monkeypatch, first, last, labels):
    # the two step points map to the given compact points: to_dimensionless
    # returns x = c/(1 - c) for each coordinate c, and the labels map x back
    # to x/(1 + x)
    def mapped(model, state):
        return [c / (1.0 - c) for c in (first if state.r == 1.0 else last)]
    monkeypatch.setattr(analysis, "to_dimensionless", mapped)
    profile = FakeProfile(1.0, 1.0, FINITE_RADIUS, r=np.array([1.0, 2.0]),
                          m=np.array([1.0, 1.0]), omega=np.array([1.0, 1.0]))
    found = classify_solution(polytrope(n=1), profile)
    assert (found.forward_label, found.backward_label) == labels


# ------------------------------------------------------------------ sweeps

def test_sweep_power_law_scaling():
    # for the linear-density family the radius is independent of omega_c
    result = sweep_omega_c(polytrope(n=1), [0.5, 1.0, 2.0])
    assert [e.omega_c for e in result.entries] == [0.5, 1.0, 2.0]
    radii = [e.radius for e in result.entries]
    assert radii[1] == pytest.approx(radii[0], rel=1e-8)
    assert radii[2] == pytest.approx(radii[0], rel=1e-8)
    for e in result.entries:
        assert e.classification == FINITE_RADIUS
        assert e.limit_label == "(0,1,0)"
        assert e.total_mass == pytest.approx(e.omega_c * e.radius, rel=1e-8)
    assert result.critical_values == []
    assert result.failures == []


def test_sweep_infinite_family():
    result = sweep_omega_c(polytrope(n=6), [0.5, 1.0])
    assert all(e.classification == INFINITE_UNDETERMINED for e in result.entries)
    assert all(math.isinf(e.radius) for e in result.entries)
    assert result.critical_values == []


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_omega_c(polytrope(n=1), [1.0, 0.5])
    with pytest.raises(ValueError):
        sweep_omega_c(polytrope(n=1), [-1.0, 0.5])


@dataclass
class FakeProfile:
    radius: float
    total_mass: float
    classification: str
    # the one step point the labels map, at (Q, Omega) = (1/2, 1/2): away
    # from both corners and from the line of regular centres
    r: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    m: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    omega: np.ndarray = field(default_factory=lambda: np.array([1.0]))


def transition_solver(omega_star):
    def solve(model, omega_c, settings=None):
        if omega_c > omega_star:
            return FakeProfile(math.inf, math.inf, INFINITE_UNDETERMINED)
        return FakeProfile(1.0 + omega_c, omega_c, FINITE_RADIUS)
    return solve


def spike_solver(omega_star, cap=1e7):
    def solve(model, omega_c, settings=None):
        r = min(1.0 / abs(omega_c - omega_star), cap)
        return FakeProfile(r, omega_c, FINITE_RADIUS)
    return solve


def test_sweep_locates_transition_by_bisection(monkeypatch):
    omega_star = 1.2345
    grid = list(np.linspace(0.5, 2.0, 7))
    monkeypatch.setattr(analysis, "integrate_physical", transition_solver(omega_star))
    result = sweep_omega_c(polytrope(n=1), grid)
    assert len(result.critical_values) == 1
    assert result.critical_values[0] == pytest.approx(omega_star, rel=1e-5)


def test_sweep_critical_values_stable_under_refinement(monkeypatch):
    omega_star = 1.2345
    monkeypatch.setattr(analysis, "integrate_physical", transition_solver(omega_star))
    coarse = sweep_omega_c(polytrope(n=1), list(np.linspace(0.5, 2.0, 7)))
    fine = sweep_omega_c(polytrope(n=1), list(np.linspace(0.5, 2.0, 13)))
    assert fine.critical_values[0] == pytest.approx(coarse.critical_values[0],
                                                    rel=1e-5)


def test_sweep_detects_radius_spike(monkeypatch):
    # spike visible only as a huge but finite radius at one grid node: at the
    # node 0.7 the radius is 1.3e5 times its neighbours' median 7.5 for
    # omega_star 0.700001, and 1.0e4 times it for 0.7 + 1/7.5e4, above the
    # detection factor 1e3 by one decade
    grid = list(np.linspace(0.3, 1.1, 9))
    for omega_star in (0.700001, 0.7 + 1.0 / 7.5e4):
        monkeypatch.setattr(analysis, "integrate_physical", spike_solver(omega_star))
        result = sweep_omega_c(polytrope(n=1), grid)
        assert len(result.critical_values) == 1, omega_star
        assert result.critical_values[0] == pytest.approx(omega_star, rel=1e-4)


def test_sweep_ignores_modest_bumps(monkeypatch):
    def bumpy(model, omega_c, settings=None):
        r = 1.0 + (50.0 if abs(omega_c - 0.7) < 0.05 else 0.0)
        return FakeProfile(r, omega_c, FINITE_RADIUS)
    monkeypatch.setattr(analysis, "integrate_physical", bumpy)
    result = sweep_omega_c(polytrope(n=1), list(np.linspace(0.3, 1.1, 9)))
    assert result.critical_values == []


def test_sweep_records_failures_and_continues(monkeypatch):
    def flaky(model, omega_c, settings=None):
        if abs(omega_c - 1.0) < 1e-12:
            raise RuntimeError("synthetic failure")
        return FakeProfile(1.0, omega_c, FINITE_RADIUS)
    monkeypatch.setattr(analysis, "integrate_physical", flaky)
    result = sweep_omega_c(polytrope(n=1), [0.5, 1.0, 1.5])
    assert len(result.entries) == 2
    assert [e.omega_c for e in result.entries] == [0.5, 1.5]
    assert len(result.failures) == 1
    assert result.failures[0][0] == 1.0
    assert "synthetic failure" in result.failures[0][1]


@pytest.mark.parametrize("exc", [TypeError, AttributeError])
def test_sweep_propagates_programming_errors(monkeypatch, exc):
    # only numerical failures are recorded; a bug in the solver surfaces
    def broken(model, omega_c, settings=None):
        raise exc("synthetic bug")
    monkeypatch.setattr(analysis, "integrate_physical", broken)
    with pytest.raises(exc, match="synthetic bug"):
        sweep_omega_c(polytrope(n=1), [0.5, 1.0, 1.5])


@pytest.mark.parametrize("exc", [TypeError, AttributeError])
def test_forward_label_propagates_programming_errors(monkeypatch, plummer_profile, exc):
    def broken(model, state):
        raise exc("synthetic label bug")
    monkeypatch.setattr(analysis, "to_dimensionless", broken)
    with pytest.raises(exc, match="synthetic label bug"):
        classify_solution(polytrope(n=5), plummer_profile)
    monkeypatch.setattr(analysis, "integrate_physical",
                        lambda m, w, settings=None: FakeProfile(1.0, w, FINITE_RADIUS))
    with pytest.raises(exc, match="synthetic label bug"):
        sweep_omega_c(polytrope(n=1), [0.5, 1.0])


def test_forward_label_numerical_failure_is_unresolved(monkeypatch, king_profile):
    model = truncated_exponential(0)
    real = analysis.to_dimensionless

    def failing_at(radius):
        def mapped(model, state):
            if state.r == radius:
                raise FloatingPointError("synthetic overflow")
            return real(model, state)
        return mapped
    # a failure at one end leaves that label unresolved and the other intact
    monkeypatch.setattr(analysis, "to_dimensionless", failing_at(king_profile.r[-1]))
    labels = classify_solution(model, king_profile)
    assert (labels.forward_label, labels.backward_label) == ("unresolved", "L2")
    monkeypatch.setattr(analysis, "to_dimensionless", failing_at(king_profile.r[0]))
    labels = classify_solution(model, king_profile)
    assert (labels.forward_label, labels.backward_label) == ("(0,1,0)", "unresolved")
    monkeypatch.setattr(analysis, "integrate_physical",
                        lambda m, w, settings=None: king_profile)
    sweep = sweep_omega_c(model, [0.5])
    assert sweep.entries[0].limit_label == "(0,1,0)"


@pytest.mark.parametrize("make_solver, grid", [
    (lambda: transition_solver(1.2345), list(np.linspace(0.5, 2.0, 7))),
    (lambda: spike_solver(0.700001), list(np.linspace(0.3, 1.1, 9))),
], ids=["bisection", "spike"])
def test_refinement_probes_propagate_programming_errors(monkeypatch, make_solver, grid):
    solve = make_solver()

    def probe_bug(model, omega_c, settings=None):
        if omega_c not in grid:
            raise TypeError("synthetic bug in a probe")
        return solve(model, omega_c, settings)
    monkeypatch.setattr(analysis, "integrate_physical", probe_bug)
    with pytest.raises(TypeError, match="synthetic bug in a probe"):
        sweep_omega_c(polytrope(n=1), grid)


def test_write_sweep_csv(tmp_path):
    result = sweep_omega_c(polytrope(n=6), [0.5, 1.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_c,R,M,class,label"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert fields[1] == "inf"
    assert fields[3] == INFINITE_UNDETERMINED
    write_sweep_csv(result, tmp_path / "sweep2.csv")
    assert (tmp_path / "sweep2.csv").read_bytes() == path.read_bytes()
    write_sweep_csv(result, tmp_path / "sweep3.csv", precision=3)
    row = (tmp_path / "sweep3.csv").read_text().splitlines()[2].split(",")
    assert row[:3] == ["1", "inf", "inf"]
    assert row[3] == INFINITE_UNDETERMINED


# ------------------------------------------------- representation matching

def test_compare_representations_king(king_profile):
    report = compare_representations(truncated_exponential(0), king_profile)
    assert report["n_points"] == 100
    assert report["max_abs_error"] < 1e-6


def test_compare_representations_rejects_unstarted():
    with pytest.raises(ValueError):
        compare_representations(truncated_exponential(0), None)
