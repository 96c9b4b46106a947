"""Distribution-function families and their kernel-integral reductions.

A model is the pair (l, phi): an anisotropy exponent l > -1 and an energy
profile phi(E) that vanishes for E <= 0.  Everything macroscopic reduces to
one-dimensional kernel integrals

    g_m(omega) = int_0^omega phi(E) (omega - E)^m dE,      m > -1,

through which the mass density, the radial pressure, and the local
polytropic index are computed.  Every family evaluates g_m and dg_m/domega
in closed form for all m > -1, with numpy and the standard library only:
a Beta function for polytropes, e^omega P(a, omega) (P the regularized
lower incomplete gamma function, a = p + m + 2) for the lowered
exponentials, and incomplete Beta integrals summed over the cubic pieces of
a tabulated interpolant.

The lowered exponentials rest on two functions, with a = p + l + 5/2 or
a = p + m + 2:

    S(omega) = sum_k omega^k / (a (a+1) ... (a+k))    (DLMF 8.7.1),
    T(omega) = e^omega omega^-a Gamma(a, omega)        (continued fraction, DLMF 8.9.2),

S below omega = a + 1 and T above it.  With them e^omega P(a, omega) is
omega^a S/Gamma(a), or e^omega - omega^a T/Gamma(a); S is summed by
Horner's rule on coefficients fixed when a kernel is built.  Which form runs
above the series depends on a only: when 2a is an integer (isotropic King
and Wilson models among others) it is e^omega, or e^omega erf(sqrt(omega)),
minus a finite sum, and the series gives way to it well below a + 1, where
the difference stops cancelling.  phi itself is the kernel at a = p + 1.

A family is a kernel builder: `kernel(m, derivative=False)` returns the
float function omega -> g_m(omega), or dg_m/domega, and `index(l, kernel)`
the local index n = -l + omega g'/g at m = l + 1/2, where `kernel` is the
model's memoized `kernel` (a family that needs kernels for its index takes
them from there, so none is built twice).  Each family checks its own
parameters when it is built and keeps no cache.  The model holds the one
memo, a kernel per (m, derivative) built on first use, and binds two float
functions when it is built: the density kernel g_{l+1/2} (the memo's entry
at m = l + 1/2) and the family's index.  Both flows and the criteria call
these and nothing else per step.  A polytrope's kernel is compiled from
one expression, `_POLYTROPE_KERNEL`, and carries it as ``kernel.source``
(the expression, the names it reads and their values), so the physical
flow writes the same closed form into its step loop.  A polytrope's index
is the constant n.  A lowered exponential's index is taken in ratio form,
g'/g = 1 + 1/(omega S), so n = -l + omega + 1/S, and T replaces S above
a + 1: the index neither overflows nor needs P.  Below a + 1 it reads S off the memoized g_{l+1/2}
(the same a): the kernel's Horner polynomial below its switch, its
elementary form above.  A tabulated model's index is the quotient of its two
kernels.

`eval_g` and `eval_dg` check their arguments and return the float of the
model's memoized kernel.  Gauss-Jacobi quadrature of phi(E)/E^k against the
endpoint weights (`eval_g_quadrature`, which returns the value with its
relative error estimate, and `eval_dg_quadrature`) and the direct double
integral (`density_bruteforce`) are kept as independent oracles; no
production path runs them.  They load the quadrature module and scipy on
first use, so they need the `test` extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_QUAD_TOL = 1e-10
_OMEGA_MIN = 1e-300   # below this the index n(omega) is refused, not extrapolated
_LOG_MAX = math.log(np.finfo(float).max)
_TINY = 1e-300             # modified Lentz: stand-in for a vanishing denominator
_LENTZ_MAX_TERMS = 1000    # the continued fraction T needs < 100 terms above a + 1

# g_m(omega) of a polytrope: the expression in omega and the names it reads,
# compiled once into the factory of the bound kernel
_POLYTROPE_KERNEL = "phi_minus * omega ** power * beta_nm", ("phi_minus", "power", "beta_nm")
_polytrope_kernel = eval(f"lambda {', '.join(_POLYTROPE_KERNEL[1])}: "
                         f"lambda omega: {_POLYTROPE_KERNEL[0]}")


class ModelError(ValueError):
    """Invalid model construction or parameters."""


class EvaluationError(RuntimeError):
    """A numerical evaluation could not reach the requested accuracy."""


# --------------------------------------------------------------- families

@dataclass(frozen=True, eq=False)
class Polytrope:
    """Power-law profile phi(E) = phi_minus * E^(n - 3/2) for E > 0."""

    n: float
    phi_minus: float = 1.0

    energy_max = None   # the largest energy phi accepts; None: unbounded

    def __post_init__(self):
        if not self.n > 0.5:
            raise ModelError(f"polytrope exponent n must exceed 1/2, got {self.n}")
        if not self.phi_minus > 0:
            raise ModelError("polytrope amplitude phi_minus must be positive")

    def default_regularity(self):
        return Regularity(k=self.n - 1.5, holder_index=min(1.0, self.n - 0.5))

    def phi(self, e):
        e = np.asarray(e, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(e > 0.0,
                           self.phi_minus * np.power(np.maximum(e, _OMEGA_MIN),
                                                     self.n - 1.5),
                           0.0)
        return out

    def kernel(self, m, derivative=False):
        """omega -> g_m(omega) = omega^(n+m-1/2) phi_minus B(n-1/2, m+1), or dg_m/domega."""
        n, phi_minus = self.n, self.phi_minus
        power = n + m - 0.5
        beta_nm = math.exp(math.lgamma(n - 0.5) + math.lgamma(m + 1.0)
                           - math.lgamma(n + m + 0.5))
        values = phi_minus, power, beta_nm
        g_m = _polytrope_kernel(*values)
        g_m.source = *_POLYTROPE_KERNEL, values
        if derivative:
            return lambda omega: power * g_m(omega) / omega
        return g_m

    def index(self, l, kernel):
        n = self.n
        return lambda omega: n


@dataclass(frozen=True, eq=False)
class TruncatedExponential:
    """phi_p(E) = e^E - sum_{j<=p} E^j/j!  (p=0: King-type; p=1: Wilson).

    Evaluated as e^E P(p+1, E), with P the regularized lower incomplete
    gamma function in the elementary form of `_lowered_kernel`, which is
    free of the catastrophic cancellation the literal difference suffers
    at small E.
    """

    p: int

    energy_max = None

    def __post_init__(self):
        if self.p < 0 or int(self.p) != self.p:
            raise ModelError(f"truncation order p must be a non-negative integer, got {self.p}")
        object.__setattr__(self, "_phi", _lowered_kernel(self.p + 1.0, 1.0, "phi"))

    def default_regularity(self):
        return Regularity(k=self.p + 1.0, holder_index=1.0)

    def phi(self, e):
        e = np.asarray(e, dtype=float)
        return np.array([self._phi(x) if x > 0.0 else 0.0
                         for x in e.ravel().tolist()]).reshape(e.shape)

    def kernel(self, m, derivative=False):
        """omega -> g_m(omega) = Gamma(m+1) e^omega P(p+m+2, omega), or dg_m/domega."""
        a = self.p + m + 2.0
        g = _lowered_kernel(a, math.gamma(m + 1.0), f"g_{m:g}")
        if not derivative:
            return g
        # d/domega [e^omega P(a, omega)] = e^omega P(a, omega) + omega^(a-1)/Gamma(a)
        log_gamma_m, log_gamma_a = math.lgamma(m + 1.0), math.lgamma(a)
        return lambda omega: g(omega) + math.exp(
            log_gamma_m + (a - 1.0) * math.log(omega) - log_gamma_a)

    def index(self, l, kernel):
        """omega -> -l + omega + 1/S(omega), S = e^omega omega^-a gamma(a, omega).

        Up to a + 1 the numbers come from the model's memoized g_{l+1/2}
        (the same a, and scale = Gamma(l+3/2)): below its switch
        g = omega^a H(omega), so 1/S = scale/(Gamma(a) H) needs no power of
        omega, and between the switch and a + 1 (2a an integer)
        1/S = scale omega^a/(Gamma(a) g).  scale/Gamma(a) is taken as a times
        H's constant term scale/Gamma(a+1), whose rounding every coefficient
        of H shares, so n tends to a - l as omega -> 0 up to one rounding.
        """
        a = self.p + l + 2.5
        g = kernel(l + 0.5)
        switch, horner = g.switch, g.horner
        ratio = a * horner[-1]
        log_gamma_a = math.lgamma(a)
        top = a + 1.0

        def n(omega):
            if omega <= switch:
                h = 0.0
                for c in horner:
                    h = h * omega + c
                return -l + omega + ratio / h
            if omega <= top:
                return -l + omega + ratio * omega ** a / g(omega)
            # 1/S = E/(1 - E T) with E = omega^a e^-omega/Gamma(a); E
            # underflows to 0 for large omega, where n = omega - l exactly
            e = math.exp(a * math.log(omega) - omega - log_gamma_a)
            return -l + omega + e / (1.0 - e * _fraction(a, omega))
        return n


def _fraction(a, x):
    """T(x) = e^x x^-a Gamma(a, x), for x > a + 1, by modified Lentz (DLMF 8.9.2).

    e^x P(a, x) = e^x - x^a T(x) / Gamma(a).
    """
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    tail = d
    for i in range(1, _LENTZ_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        step = c * d
        tail *= step
        if abs(step - 1.0) <= 2.5e-16:   # one ulp of 1 from above
            return tail
    raise EvaluationError(f"continued fraction for Gamma({a:g}, x) did not converge "
                          f"at x={x:g}")


def _lowered_kernel(a, scale, what):
    """x -> scale * e^x P(a, x) for x > 0, P the regularized lower incomplete gamma.

    Below a switch point the positive series x^a S(x)/Gamma(a) =
    x^a sum_j x^j/Gamma(a+j+1) runs, by Horner's rule on coefficients fixed
    here.  Above it, when 2a is an integer (every lowered exponential with
    2l an integer, isotropic King and Wilson models among them), the kernel
    is elementary (DLMF 8.4, 8.8.1):

        e^x P(n, x)     = e^x        - sum_{k<n} x^k / k!,
        e^x P(n+1/2, x) = e^x erf(x^(1/2)) - x^(1/2) sum_{k<n} x^k / Gamma(k+3/2),

    and the switch sits near the 10% quantile of the Gamma(a) distribution
    (Wilson-Hilferty), below which the difference would cost more than a
    digit.  For any other a the switch is a + 1, and above it
    e^x P = e^x (1 - x^a e^-x T(x)/Gamma(a)); that form also takes over
    where e^x overflows.  `what` names the kernel in the overflow errors.
    """
    log_scale, log_gamma_a = math.log(scale), math.lgamma(a)
    big = _LOG_MAX - max(log_scale, 0.0)   # e^x and scale e^x are finite up to here
    elementary = (2.0 * a).is_integer()
    if elementary:
        switch = a * (1.0 - 1.0 / (9.0 * a) - 1.2816 / (3.0 * math.sqrt(a))) ** 3
    else:
        switch = a + 1.0
    try:
        coef, ratio, k = scale / math.gamma(a + 1.0), 1.0, 1.0
    except OverflowError:
        raise OverflowError(f"Gamma({a + 1.0:g}) of the {what} kernel overflows double "
                            "precision") from None
    series = [coef]
    while ratio > 1e-17:   # a term against the first, at the switch
        coef /= a + k
        ratio *= switch / (a + k)
        series.append(coef)
        k += 1.0
    series = tuple(reversed(series))
    half = a != int(a)
    finite = tuple(1.0 / math.gamma(k + (1.5 if half else 1.0))
                   for k in range(int(a) - 1, -1, -1))

    def lowered(x):
        if x <= switch:
            s = 0.0
            for c in series:
                s = s * x + c
            return x ** a * s
        if elementary and x <= big:
            s = 0.0
            for c in finite:
                s = s * x + c
            if half:
                r = math.sqrt(x)
                return scale * (math.exp(x) * math.erf(r) - r * s)
            return scale * (math.exp(x) - s)
        frac = 1.0 - math.exp(a * math.log(x) - x - log_gamma_a) * _fraction(a, x)
        if x <= big:
            return scale * math.exp(x) * frac   # frac <= 1: cannot overflow
        if x + log_scale + math.log(frac) <= _LOG_MAX:
            return math.exp(x + log_scale + math.log(frac))
        raise EvaluationError(f"{what}(omega={x:g}) overflows double precision")
    # what the index reads: below the switch the kernel is x^a H(x), with H
    # the polynomial of these coefficients (highest power first)
    lowered.switch, lowered.horner = switch, series
    return lowered


@dataclass(frozen=True, eq=False)
class Tabulated:
    """phi given as (E, phi) samples, interpolated monotone piecewise-cubic.

    The low-energy exponent k is user-declared metadata (through the model's
    Regularity record), never inferred from the data.  The grid must start
    at or below E = 0; queries beyond its end raise instead of
    extrapolating; values are clamped at zero.
    """

    energies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape or e.size < 4:
            raise ModelError("tabulated family needs matching 1-d grids with >= 4 samples")
        if not np.all(np.diff(e) > 0):
            raise ModelError("tabulated energy grid must be strictly increasing")
        if np.any(v < 0):
            raise ModelError("tabulated phi samples must be non-negative")
        if e[0] > 0.0:
            raise ModelError(f"tabulated energy grid must start at or below E = 0, "
                             f"got first energy {e[0]:g}")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)
        interp = _Pchip(e, v)
        object.__setattr__(self, "_interp", interp)
        # pieces phi = sum_j c_j (E - x0)^j on the cells reaching E > 0, the
        # cell straddling E = 0 re-expanded about 0 so every piece starts at x0 >= 0
        keep = interp.x[1:] > 0.0
        x0 = interp.x[:-1][keep].copy()
        coef = interp.c[::-1, keep].copy()
        if x0.size and x0[0] < 0.0:
            shift = -x0[0]
            coef[:, 0] = [sum(math.comb(j, i) * coef[j, 0] * shift ** (j - i)
                              for j in range(i, 4)) for i in range(4)]
            x0[0] = 0.0
        x1 = interp.x[1:][keep]
        object.__setattr__(self, "_pieces", (x0, x1, coef,
                                             coef[1:] * np.arange(1.0, 4.0)[:, None]))

    def default_regularity(self):
        return None   # k is declarative: the caller must supply it

    def phi(self, e):
        e = np.asarray(e, dtype=float)
        hi = float(self.energies[-1])
        if np.any(e > hi):
            raise EvaluationError(
                f"tabulated phi queried at E={float(np.max(e)):g} beyond grid end {hi:g}")
        out = np.where(e > 0.0, self._interp(np.clip(e, float(self.energies[0]), hi)), 0.0)
        return np.maximum(np.nan_to_num(out, nan=0.0), 0.0)

    @property
    def energy_max(self):
        return float(self.energies[-1])

    def _check_range(self, omega):
        hi = float(self.energies[-1])
        if omega > hi:
            raise EvaluationError(
                f"tabulated phi queried at E={omega:g} beyond grid end {hi:g}")

    def kernel(self, m, derivative=False):
        """omega -> g_m(omega), or dg_m/domega, with the per-piece constants fixed once.

        g_m(omega) = int_0^omega phi(omega - s) s^m ds, so the jump of phi at
        E = 0 gives dg_m a term phi(0+) omega^m; the rest is phi' (piecewise
        quadratic) against (omega - E)^m.
        """
        x0, x1, coef, dcoef = self._pieces
        check = self._check_range
        if not derivative:
            pieces = _piecewise_kernel(x0, x1, coef, m)

            def g_m(omega):
                check(omega)
                return pieces(omega)
            return g_m
        phi0 = float(coef[0, 0])
        pieces = _piecewise_kernel(x0, x1, dcoef, m)

        def dg_m(omega):
            check(omega)
            return phi0 * omega ** m + pieces(omega)
        return dg_m

    def index(self, l, kernel):
        """omega -> -l + omega dg_m/g_m at m = l + 1/2, from the model's memoized kernels."""
        m = l + 0.5
        g, dg = kernel(m), kernel(m, derivative=True)

        def n(omega):
            gv = g(omega)
            if not gv > _OMEGA_MIN:
                raise EvaluationError(
                    f"index undefined: g_{m:g}({omega:g}) at or below the floor")
            return -l + omega * dg(omega) / gv
        return n


class _Pchip:
    """Monotone piecewise-cubic (PCHIP) interpolant of samples y at x.

    The same floating-point operations as scipy's PchipInterpolator, so
    the numbers agree to the bit: Fritsch-Carlson weighted harmonic-mean
    slopes inside, Moler's shape-preserving one-sided slopes at the ends,
    and cubic Hermite coefficients ``c`` (shape (4, len(x) - 1), highest
    power first, about each cell's left node ``x``).  Needs len(x) >= 3;
    a query outside [x[0], x[-1]] extends the end cells.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        slope = np.diff(y) / h
        sign = np.sign(slope)
        flat = (sign[1:] != sign[:-1]) | (slope[1:] == 0) | (slope[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / slope[:-1] + w2 / slope[1:]) / (w1 + w2)
            d = np.concatenate(([_pchip_end(h[0], h[1], slope[0], slope[1])],
                                np.where(flat, 0.0, 1.0 / whmean),
                                [_pchip_end(h[-1], h[-2], slope[-1], slope[-2])]))
        t = (d[:-1] + d[1:] - 2 * slope) / h
        self.x = x
        self.c = np.array([t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, e):
        i = np.clip(np.searchsorted(self.x, e, side="right") - 1, 0, self.x.size - 2)
        s = e - self.x[i]
        c0, c1, c2, c3 = self.c[:, i]
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _piecewise_kernel(x0, x1, coef, m):
    """omega -> sum over pieces of int_x0^min(x1, omega) sum_j c_j (E-x0)^j (omega-E)^m dE.

    With E = x0 + (omega - x0) t each monomial is (omega - x0)^(j+m+1) times
    the incomplete Beta integral B_u(j+1, m+1) = int_0^u t^j (1-t)^m dt with
    u = min(1, (x1 - x0)/(omega - x0)), so no power of (omega - E) is
    expanded.  The first Beta parameter is an integer, and B_u takes one of
    three forms, none of which cancels:

    * the piece holding omega (u = 1): the complete B(j+1, m+1) =
      j!/((m+1)(m+2)...(m+j+1));
    * u <= 1/2 (pieces at least two widths below omega): the positive series
      u^(j+1) (1-u)^(m+1)/(j+1) sum_k (j+m+2)_k/(j+2)_k u^k (DLMF 8.17.8).
      Summed over j, a piece contributes (omega - x1)^(m+1)/(omega - x0)
      times a polynomial in u whose coefficients are fixed here;
    * 1/2 < u < 1: B_u(1, m+1) = -expm1((m+1) log(1-u))/(m+1) and the upward
      recurrence (j+m+1) B_u(j+1, m+1) = j B_u(j, m+1) - u^j (1-u)^(m+1),
      from integration by parts, whose subtracted term is the smaller one.

    ``coef`` holds c_j, j = 0, 1, ..., one column per piece.
    """
    rows = coef.shape[0]
    width = x1 - x0
    b = m + 1.0
    full = [math.factorial(j) / math.prod(b + i for i in range(j + 1)) for j in range(rows)]
    series = []
    for j in range(rows):
        c, row = 1.0 / (j + 1.0), []
        while not row or c * (j + 1.0) * 0.5 ** len(row) > 1e-17:   # against the first term
            row.append(c)
            c *= (j + b + len(row)) / (j + 1.0 + len(row))
        series.append(row)
    terms = max(map(len, series))
    series = np.array([row + [0.0] * (terms - len(row)) for row in series])
    # per piece, sum_j c_j width^(j+1) times row j of the series
    far_coef = np.einsum("ji,ji,jk->ik", coef, width ** np.arange(1.0, rows + 1.0)[:, None],
                         series)
    k_pow = np.arange(float(terms))
    near_coef = coef.T.tolist()
    held_coef = (coef.T * full).tolist()
    starts, ends = x0.tolist(), x1.tolist()

    def kernel(omega):
        n = int(np.searchsorted(x0, omega))   # the pieces that start below omega
        total = 0.0
        if n and omega <= ends[n - 1]:
            n -= 1
            s = omega - starts[n]
            total = sum(h * s ** (b + j) for j, h in enumerate(held_coef[n]))
        span = omega - x0[:n]
        u = width[:n] / span
        far = u <= 0.5
        vals = np.einsum("ik,ik->i", far_coef[:n], np.power.outer(u, k_pow))
        total += float(np.dot((omega - x1[:n]) ** b / span * vals, far))
        for i in np.flatnonzero(~far).tolist():
            s = omega - starts[i]
            u_i = (ends[i] - starts[i]) / s
            log_v = math.log((omega - ends[i]) / s)
            v_b = math.exp(b * log_v)
            beta_u = -math.expm1(b * log_v) / b
            total += near_coef[i][0] * s ** b * beta_u
            u_j = 1.0
            for j in range(1, rows):
                u_j *= u_i
                beta_u = (j * beta_u - u_j * v_b) / (j + b)
                total += near_coef[i][j] * s ** (j + b) * beta_u
        return total
    return kernel


@dataclass(frozen=True)
class Regularity:
    """Low-energy behaviour metadata: phi ~ E^k, Hölder index of E*phi."""

    k: float
    holder_index: float | None = None

    def __post_init__(self):
        if not self.k > -1.0:
            raise ModelError(f"low-energy exponent k must exceed -1, got {self.k}")


@dataclass(frozen=True, eq=False)
class DistributionModel:
    """The pair (l, phi) with regularity metadata; immutable once built."""

    l: float
    family: Polytrope | TruncatedExponential | Tabulated
    regularity: Regularity | None = None

    def __post_init__(self):
        if not self.l > -1.0:
            raise ModelError(f"anisotropy exponent l must exceed -1, got {self.l}")
        if self.regularity is None:
            reg = self.family.default_regularity()
            if reg is None:
                raise ModelError("tabulated models require an explicit Regularity record "
                                 "(the low-energy exponent k is declared, not inferred)")
            object.__setattr__(self, "regularity", reg)
        if self.l < -0.5:
            h = self.regularity.holder_index
            if h is None:
                raise ModelError("models with l < -1/2 require a Hölder index for E*phi(E)")
            if not h > -self.l - 0.5:
                raise ModelError(
                    f"Hölder index {h:g} insufficient: needs > {-self.l - 0.5:g} for l={self.l:g}")
        object.__setattr__(self, "_prefactor", density_prefactor(self.l))
        object.__setattr__(self, "_kernels", {})   # (m, derivative) -> kernel
        # the per-step functions of omega, bound once: g_{l+1/2} and n
        object.__setattr__(self, "_kernel", self.kernel(self.l + 0.5))
        object.__setattr__(self, "_index", self.family.index(self.l, self.kernel))

    def kernel(self, m, derivative=False):
        """omega -> g_m(omega), or dg_m/domega; the family builds each once per model."""
        key = (m, derivative)
        if key not in self._kernels:
            self._kernels[key] = self.family.kernel(m, derivative)
        return self._kernels[key]


def polytrope(n, l=0.0, phi_minus=1.0) -> DistributionModel:
    return DistributionModel(l=float(l), family=Polytrope(n=float(n), phi_minus=float(phi_minus)))


def truncated_exponential(p, l=0.0) -> DistributionModel:
    return DistributionModel(l=float(l), family=TruncatedExponential(p=int(p)))


def king_model(l=0.0) -> DistributionModel:
    """Lowered-exponential profile with linear low-energy behaviour."""
    return truncated_exponential(0, l=l)


def wilson_model(l=0.0) -> DistributionModel:
    """Lowered-exponential profile with quadratic low-energy behaviour."""
    return truncated_exponential(1, l=l)


def tabulated_model(energies, values, l=0.0, k=None, holder_index=None) -> DistributionModel:
    if k is None:
        raise ModelError("tabulated models require the declared low-energy exponent k")
    return DistributionModel(l=float(l), family=Tabulated(np.asarray(energies), np.asarray(values)),
                             regularity=Regularity(k=float(k), holder_index=holder_index))


def load_tabulated(path, l=0.0, k=None, holder_index=None) -> DistributionModel:
    """Build a tabulated model from a two-column (E, phi) CSV file."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ModelError(f"expected two columns (E, phi) in {path}, got {data.shape[1]}")
    return tabulated_model(data[:, 0], data[:, 1], l=l, k=k, holder_index=holder_index)


# ----------------------------------------------------------- evaluations

def eval_phi(model: DistributionModel, energy):
    """phi(E); exactly 0 for E <= 0.  Vectorized over `energy`."""
    out = model.family.phi(energy)
    if np.isscalar(energy) or np.ndim(energy) == 0:
        return float(out)
    return out


def eval_g_quadrature(model: DistributionModel, m, omega,
                      rel_tol=DEFAULT_QUAD_TOL) -> tuple:
    """(g_m(omega), relative error estimate) by singularity-adapted quadrature
    (test oracle; needs scipy).

    After x = E/omega both endpoint singularities are algebraic with exponents
    known from model metadata (x^k at 0, (1-x)^m at 1), so Gauss-Jacobi rules
    absorb them; the error estimate is certified by the N-vs-2N comparison.
    """
    _check_gm_args(m, omega)
    if omega == 0.0:
        return 0.0, 0.0
    from ._quadrature import QuadratureError, integrate_weighted   # loaded on first use

    k = model.regularity.k
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


def eval_g(model: DistributionModel, m, omega) -> float:
    """Kernel integral g_m(omega) = int_0^omega phi(E)(omega-E)^m dE, in closed form."""
    _check_gm_args(m, omega)
    if omega == 0.0:
        return 0.0
    return _finite(model.kernel(m)(omega), f"g_{m:g}", omega)


def _check_gm_args(m, omega):
    if not m > -1.0:
        raise ValueError(f"kernel exponent m must exceed -1, got {m}")
    if omega < 0.0:
        raise ValueError(f"omega must be non-negative, got {omega}")


def _check_dg_args(model, m, omega):
    _check_gm_args(m, omega)
    if omega <= 0.0:
        raise ValueError("derivative requires omega > 0")
    if m < 0.0:
        holder = model.regularity.holder_index
        if holder is None or not holder > -m:
            raise EvaluationError(
                f"derivative of g_{m:g} needs a Hölder index above {-m:g}; "
                f"model declares {holder}")


def _finite(value, what, omega):
    if not math.isfinite(value):
        raise EvaluationError(f"{what}(omega={omega:g}) is not finite in double precision")
    return value


def eval_dg(model: DistributionModel, m, omega) -> float:
    """d g_m/d omega in closed form for every m > -1.

    For -1 < m < 0 the derivative exists only when E*phi(E) is Hölder with
    index above -m, so the model must declare that index.
    """
    _check_dg_args(model, m, omega)
    return _finite(model.kernel(m, derivative=True)(omega), f"dg_{m:g}", omega)


def eval_dg_quadrature(model: DistributionModel, m, omega,
                       rel_tol=DEFAULT_QUAD_TOL) -> float:
    """d g_m/d omega via the reduction identity for the sign of m (test oracle; needs scipy).

    m > 0 lowers the exponent (m * g_{m-1} by quadrature); m = 0 returns
    phi(omega); for -1 < m < 0 the difference-quotient identity is integrated
    against the (1-x)^m endpoint weight.
    """
    _check_dg_args(model, m, omega)
    if m > 0.0:
        return m * eval_g_quadrature(model, m - 1.0, omega, rel_tol=rel_tol)[0]
    if m == 0.0:
        return float(eval_phi(model, omega))
    from ._quadrature import QuadratureError, integrate_weighted   # loaded on first use

    phi_w = float(eval_phi(model, omega))
    k = model.regularity.k
    try:
        # [0, 1/2]: phi(omega*x)(1-x)^(m-1) keeps only the x^k endpoint weight
        inner_a, _ = integrate_weighted(
            lambda t: _reduced(model, omega * t / 2.0) * (1.0 - t / 2.0) ** (m - 1.0),
            0.0, k, rel_tol=rel_tol)
        piece_a = phi_w * (1.0 - 2.0 ** (-m)) / m - 0.5 ** (k + 1.0) * omega ** k * inner_a
        # [1/2, 1]: difference quotient against the (1-x)^m weight
        def diff_quot(t):
            x = 0.5 * (1.0 + t)
            return (phi_w - model.family.phi(omega * x)) / (1.0 - x)
        inner_b, _ = integrate_weighted(diff_quot, m, 0.0, rel_tol=rel_tol)
        piece_b = 0.5 ** (m + 1.0) * inner_b
    except QuadratureError as exc:
        raise EvaluationError(f"dg_{m:g}({omega:g}) quadrature failed: {exc}") from exc
    return omega ** m * phi_w - m * omega ** m * (piece_a + piece_b)


def _reduced(model: DistributionModel, e):
    """phi(E)/E^k, k the declared exponent: the oracles' integrand (E > 0)."""
    e = np.asarray(e, dtype=float)
    return model.family.phi(e) / e ** model.regularity.k


def eval_n(model: DistributionModel, omega) -> float:
    """Local polytropic index n(omega) = -l + omega * g'/g at m = l + 1/2.

    Calls the model's bound index; the argument checks of eval_g and eval_dg
    cannot fail here, since m = l + 1/2 > -1/2 and the model has already
    checked, for l < -1/2, the Hölder index the derivative needs.
    """
    if omega < _OMEGA_MIN:
        raise EvaluationError(f"index n(omega) refused below omega={_OMEGA_MIN:g}")
    return model._index(omega)


def density_prefactor(l) -> float:
    """Angular-integration constant 2^(l+3/2) pi^(3/2) Gamma(l+1)/Gamma(l+3/2).

    The gamma quotient is taken directly while Gamma(l+3/2) is finite: it is
    within an ulp or two of exact, where exp(lgamma - lgamma) can be off by six.
    """
    ratio = (math.gamma(l + 1.0) / math.gamma(l + 1.5) if l < 170.0
             else math.exp(math.lgamma(l + 1.0) - math.lgamma(l + 1.5)))
    return 2.0 ** (l + 1.5) * math.pi ** 1.5 * ratio


def density(model: DistributionModel, r, omega) -> float:
    """Mass density rho(r, omega) = C_l r^(2l) g_{l+1/2}(omega)."""
    if r <= 0.0:
        raise ValueError("density requires r > 0")
    g = eval_g(model, model.l + 0.5, omega)
    return model._prefactor * r ** (2.0 * model.l) * g


def radial_pressure(model: DistributionModel, r, omega) -> float:
    """Radial pressure p(r, omega) = C_l r^(2l) g_{l+3/2}(omega)/(l + 3/2)."""
    if r <= 0.0:
        raise ValueError("pressure requires r > 0")
    g = eval_g(model, model.l + 1.5, omega)
    return model._prefactor * r ** (2.0 * model.l) * g / (model.l + 1.5)


def density_bruteforce(model: DistributionModel, r, omega) -> float:
    """Mass density by direct 2-d integration over (E, L^2) — test oracle; needs scipy.

    Integrates phi(E) L^(2l) / |v_r| over the support with
    |v_r| = sqrt(2(omega-E) - L^2/r^2), using nested QUADPACK rules (the
    inner one with the exact algebraic endpoint weights), deliberately
    independent of the Gauss-Jacobi reduction path.
    """
    if r <= 0.0 or omega <= 0.0:
        raise ValueError("brute-force density requires r > 0 and omega > 0")
    from scipy import integrate   # loaded on first use: no run path needs it

    l = model.l

    def inner(e):
        l2max = 2.0 * r * r * (omega - e)
        if l2max <= 0.0:
            return 0.0
        # int_0^l2max (L2)^l (l2max - L2)^(-1/2) dL2, weights handled by QAWS
        val, _ = integrate.quad(lambda _: 1.0, 0.0, l2max,
                                weight="alg", wvar=(l, -0.5))
        return val * r

    outer, _ = integrate.quad(lambda e: float(eval_phi(model, e)) * inner(e),
                              0.0, omega, epsabs=1e-300, epsrel=1e-9, limit=400)
    return 2.0 * math.pi / (r * r) * outer
