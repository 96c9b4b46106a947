"""Distribution-function families and their kernel-integral reductions.

A model is the pair (l, phi): an anisotropy exponent l > -1 and an energy
profile phi(E) that vanishes for E <= 0.  Everything macroscopic reduces to
one-dimensional kernel integrals

    g_m(omega) = int_0^omega phi(E) (omega - E)^m dE,      m > -1,

through which the mass density, the radial pressure, and the local
polytropic index are computed.  Every family evaluates g_m and dg_m/domega
in closed form for all m > -1: a Beta function for polytropes,
e^omega P(a, omega) (P the regularized lower incomplete gamma function,
a = p + m + 2) for the lowered exponentials, and incomplete Beta integrals
summed over the cubic pieces of a tabulated interpolant.  The module runs
on floats and imports no numpy: the kernels, phi and a table's build alike.

The lowered exponentials rest on two functions, with a = p + l + 5/2 or
a = p + m + 2:

    S(omega) = sum_k omega^k / (a (a+1) ... (a+k))    (DLMF 8.7.1),
    T(omega) = e^omega omega^-a Gamma(a, omega)        (continued fraction, DLMF 8.9.2),

S below omega = a + 1 and T above it.  With them e^omega P(a, omega) is
omega^a S/Gamma(a), or e^omega - omega^a T/Gamma(a).  A kernel's generated
source writes both out when it is built, S by Horner's rule and T as a
continued fraction of fixed depth evaluated bottom-up, each on literal
coefficients, so no call runs a loop.  Which form runs above the series
depends on a only: when 2a is an integer (isotropic King and Wilson models
among others) it is e^omega, or e^omega erf(sqrt(omega)), minus a finite
sum, and the series gives way to it well below a + 1, where the difference
stops cancelling.  phi itself is the kernel at a = p + 1.

A family is a kernel builder: `kernel(m, derivative, memo)` returns the
float function omega -> g_m(omega), or dg_m/domega, and `index(l, kernel)`
the local index n = -l + omega g'/g at m = l + 1/2; `memo` and `kernel`
are the model's memoized `kernel` (a family that needs a kernel for a
derivative or its index takes it from there, so none is built twice).
Each family checks its own parameters when it is built and keeps no cache
but a lowered exponential's phi kernel, built on first use.  The model
holds the one memo, a kernel per (m, derivative) built on first use, and
binds two float functions when it is built: the density kernel g_{l+1/2}
(the memo's entry at m = l + 1/2) and the family's index.  Both flows and
the criteria call these and nothing else per step.  A polytrope's kernel
is compiled from one expression, `_POLYTROPE_KERNEL`, and carries it as
``kernel.source`` (the expression, the names it reads and their values),
so the physical flow writes the same closed form into its step loop.  A
polytrope's index is the constant n.  A lowered exponential's index is
taken in ratio form, g'/g = 1 + 1/(omega S), so n = -l + omega + 1/S, with
T in place of S above a + 1 and S read off g_{l+1/2} below: it neither
overflows nor needs P.  A tabulated model's index is the quotient of its
two kernels.

A family's `series(m, omega, memo)` gives, one by one, the coefficients of
g_m(omega w(s))/g_m(omega) for a power series w(s) = 1 + w_1 s + ..., in
O(k) each from its closed form: J.C.P. Miller's power recurrence for a
polytrope's w^(n+m-1/2), the same with f' = f + omega^(a-1)/Gamma(a) for a
lowered exponential's f = e^omega P(a, omega), and for a table only the
first, omega g'/g w_1.  The physical flow's centre series reads them.

`eval_g` and `eval_dg` check their arguments and return the float of the
model's memoized kernel.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from bisect import bisect_left, bisect_right

_OMEGA_MIN = 1e-300   # below this the index n(omega) is refused, not extrapolated
_LOG_MAX = math.log(sys.float_info.max)   # e^x is finite up to here

# g_m(omega) of a polytrope: the expression in omega and the names it reads,
# compiled once into the factory of the bound kernel
_POLYTROPE_KERNEL = "phi_minus * omega ** power * beta_nm", ("phi_minus", "power", "beta_nm")
_polytrope_kernel = eval(f"lambda {', '.join(_POLYTROPE_KERNEL[1])}: "
                         f"lambda omega: {_POLYTROPE_KERNEL[0]}")


class ModelError(ValueError):
    """Invalid model construction or parameters; ``key`` names the parameter
    at fault (``n``, ``l``, ...), None for the data of a table."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SettingError(ValueError):
    """A run setting outside its range; ``key`` names it (``rel_tol``,
    ``omega_grid[3]``, ...), and the message reads on from the key."""

    def __init__(self, key, message):
        super().__init__(f"{key} {message}")
        self.key = key


class EvaluationError(RuntimeError):
    """A numerical evaluation could not reach the requested accuracy."""


# --------------------------------------------------------------- families

class _ReadOnly:
    """Attributes set once, by the constructor through ``vars(self)``:
    assigning or deleting one raises AttributeError.  Equality is identity;
    the repr lists the public fields in the order the constructor set them."""

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items()
                           if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Polytrope(_ReadOnly):
    """Power-law profile phi(E) = phi_minus * E^(n - 3/2) for E > 0."""

    energy_max = None   # the largest energy phi accepts; None: unbounded

    def __init__(self, n, phi_minus=1.0):
        if not n > 0.5:
            raise ModelError(f"polytrope exponent n must exceed 1/2, got {n}", "n")
        if not phi_minus > 0:
            raise ModelError("polytrope amplitude phi_minus must be positive", "phi_minus")
        vars(self).update(n=n, phi_minus=phi_minus)

    @property
    def holder_index(self):
        """The Hölder index of E phi(E) ~ E^(n - 1/2), at most 1."""
        return min(1.0, self.n - 0.5)

    def phi(self, e):
        return self.phi_minus * max(e, _OMEGA_MIN) ** (self.n - 1.5) if e > 0.0 else 0.0

    def kernel(self, m, derivative=False, memo=None):
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

    def series(self, m, omega, memo):
        """The coefficients c_k of g_m(omega w(s))/g_m(omega) = w^p,
        p = n + m - 1/2 (see `DistributionModel.series`), by J.C.P. Miller's
        recurrence for the power of a series with w_0 = 1:
        k c_k = sum_{j=1}^k ((p + 1) j - k) w_j c_{k-j}."""
        p1, p1jw = self.n + m + 0.5, []   # (p + 1) j w_j

        def coefficient(w, c):
            k = len(c)
            p1jw.append(p1 * k * w[k])
            total = 0.0
            for p1jw_j, w_j, c_j in zip(p1jw, w[1:], reversed(c)):
                total += (p1jw_j - k * w_j) * c_j
            return total / k
        return coefficient


class TruncatedExponential(_ReadOnly):
    """phi_p(E) = e^E - sum_{j<=p} E^j/j!  (p=0: King-type; p=1: Wilson).

    Evaluated as e^E P(p+1, E), with P the regularized lower incomplete
    gamma function in the elementary form of `_lowered_kernel`, which is
    free of the catastrophic cancellation the literal difference suffers
    at small E.
    """

    energy_max = None
    holder_index = 1.0   # E phi(E) is smooth

    def __init__(self, p):
        if p < 0 or int(p) != p:
            raise ModelError(f"truncation order p must be a non-negative integer, got {p}", "p")
        _series_head(p + 1.0, 1.0, "phi")   # the kernel `phi` builds must exist
        vars(self)["p"] = p

    @functools.cached_property
    def _phi(self):
        """phi's own kernel, built on the first `phi` call: no run path needs it."""
        return _lowered_kernel(self.p + 1.0, 1.0, "phi")

    def phi(self, e):
        return self._phi(e) if e > 0.0 else 0.0

    def kernel(self, m, derivative=False, memo=None):
        """omega -> g_m(omega) = Gamma(m+1) e^omega P(p+m+2, omega), or dg_m/domega,
        which reads g_m from ``memo``, the model's memoized `kernel`, if given."""
        a = self.p + m + 2.0
        if not derivative:
            return _lowered_kernel(a, math.gamma(m + 1.0), f"g_{m:g}")
        g = (memo or self.kernel)(m)
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
        1/S = scale omega^a/(Gamma(a) g).  Where omega^a or g can leave double
        precision below a + 1 (a above about 142), H's series is summed up
        to a + 1 instead, as it is when 2a is not an integer, and the middle
        branch is never reached.  scale/Gamma(a) is taken as a times
        H's constant term scale/Gamma(a+1), whose rounding every coefficient
        of H shares, so n tends to a - l as omega -> 0 up to one rounding.
        Generated like the kernel, with no loop: H is written out as a
        literal polynomial, T as a fraction cut at the depth found
        at a + 1, and every other number of the index is a literal too.
        """
        a, m = self.p + l + 2.5, l + 0.5
        g = kernel(m)
        switch, horner = g.switch, g.horner
        scale = math.gamma(m + 1.0)
        if max(a * math.log(a + 1.0), math.log(scale) + a + 1.0) >= _LOG_MAX - 1.0:
            switch, horner = a + 1.0, _lowered_series(a, scale, f"g_{m:g}", a + 1.0)
        ratio, t_expr = a * horner[-1], _continued_fraction(a, "omega", a + 1.0)
        source = f"""def bind(g):
    def n(omega):
        if omega <= {switch!r}:
            return {-l!r} + omega + {ratio!r} / ({_horner(horner, "omega")})
        if omega <= {a + 1.0!r}:
            return {-l!r} + omega + {ratio!r} * omega ** {a!r} / g(omega)
        # 1/S = E/(1 - E T) with E = omega^a e^-omega/Gamma(a); E
        # underflows to 0 for large omega, where n = omega - l exactly
        e = exp({a!r} * log(omega) - omega - {math.lgamma(a)!r})
        return {-l!r} + omega + (e / (1.0 - e * {t_expr}) if e else 0.0)
    return n
"""
        return _compiled(source)(g)

    def series(self, m, omega, memo):
        """The coefficients of F(s) = f(omega w(s))/f(omega), f = e^omega P(a, omega),
        a = p + m + 2 (see `DistributionModel.series`).  With
        f' = f + omega^(a-1)/Gamma(a), F' = w' (omega F + eta H) for
        H = w^(a-1) and eta = omega^a/(Gamma(a) f(omega)), so
        k F_k = sum_{j=1}^k j w_j (omega F_{k-j} + eta H_{k-j}), and H_k comes
        from the same w_j by `Polytrope.series`' recurrence, in the same
        loop.  The function keeps the H_k and the sums z_k = omega F_k + eta H_k,
        newest first, and the products j w_j and a j w_j."""
        a = self.p + m + 2.0
        eta = math.exp(math.lgamma(m + 1.0) + a * math.log(omega) - math.lgamma(a)
                       - math.log(memo(m)(omega)))
        h, z, jw, ajw = [1.0], [omega + eta], [], []

        def coefficient(w, gamma):
            k = len(gamma)
            jw.append(k * w[k])
            ajw.append(a * k * w[k])
            total = power = 0.0
            for jw_j, ajw_j, w_j, z_j, h_j in zip(jw, ajw, w[1:], z, h):
                total += jw_j * z_j
                power += (ajw_j - k * w_j) * h_j
            f_k, h_k = total / k, power / k
            h.insert(0, h_k)
            z.insert(0, omega * f_k + eta * h_k)
            return f_k
        return coefficient


def _fraction_depth(a, low):
    """The depth of `_continued_fraction` for x >= ``low``: the levels before
    the first convergent step, at x = low, below 2^-53 of the sum, and two
    more.  Steps are products, D_i = i(i - a) r_{i-1} r_i D_{i-1} with
    r_i = 1/(x + 2i + 1 - a - i(i - a) r_{i-1}), so each is found to a few
    ulp.  No bound is proved: the tests show the depth never grows with x."""
    i, total, r, last = 1, low + 1.0 - a, 0.0, -1.0   # last = r_{i-1} D_{i-1}, -1 at i = 1
    while True:
        k = i * (i - a)
        r = 1.0 / (low + (2 * i + 1 - a) - k * r)
        step = k * r * last
        if abs(step) <= 2.0 ** -53 * abs(total):
            return i + 1
        total, last, i = total + step, r * step, i + 1


def _continued_fraction(a, var, low):
    """T(x) = e^x x^-a Gamma(a, x) at x = ``var`` >= ``low`` as one expression,
    the even part of DLMF 8.9.2, 1/(x + 1 - a - 1(1 - a)/(x + 3 - a - ...)),
    cut at the depth `_fraction_depth` finds at ``low`` and so evaluated
    bottom-up, with every i(i - a) and 2i + 1 - a a literal."""
    depth = _fraction_depth(a, low)
    expr = f"{var} + {2 * depth + 1 - a!r}"
    for i in range(depth, 0, -1):
        expr = f"{var} + {2 * i - 1 - a!r} - {i * (i - a)!r} / ({expr})"
    return f"(1.0 / ({expr}))"


def _horner(coefs, var):
    """Horner's rule on ``coefs`` (highest power first) in ``var`` as one
    expression, with the operations of ``s = 0.0; for c in coefs: s = s*var + c``
    (0.0 * var + c is c).  A kernel's series has at most about 130 terms
    (Gamma(a+1) overflows above a = 170), within the parser's nesting limit."""
    if not coefs:
        return "0.0"
    expr = repr(coefs[0])
    for c in coefs[1:]:
        expr = f"({expr}) * {var} + {c!r}"
    return expr


def _compiled(source):
    """The factory ``bind`` of a generated kernel or index, in no cache: the
    source holds the model's own coefficients, so a cache would grow."""
    namespace = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "erf": math.erf,
                 "EvaluationError": EvaluationError}
    exec(compile(source, "<lowered kernel>", "exec"), namespace)
    return namespace["bind"]


def _series_head(a, scale, what):
    """scale/Gamma(a+1), the first coefficient of a lowered kernel's series."""
    try:
        return scale / math.gamma(a + 1.0)
    except OverflowError:
        raise OverflowError(f"Gamma({a + 1.0:g}) of the {what} kernel overflows double "
                            "precision") from None


def _lowered_series(a, scale, what, top):
    """The coefficients scale/Gamma(a+j+1) of the series of `_lowered_kernel`,
    highest power first, up to the first whose term at x = ``top`` is below
    1e-17 of the first term."""
    coef, ratio, k = _series_head(a, scale, what), 1.0, 1.0
    series = [coef]
    while ratio > 1e-17:
        coef /= a + k
        ratio *= top / (a + k)
        series.append(coef)
        k += 1.0
    return tuple(reversed(series))


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
    where e^x overflows.  For a above about 140 x^a itself overflows below
    the switch, before the kernel does: where it does, the series runs as
    x^(a/2) times the sum times x^(a/2).  `what` names the kernel in the
    overflow errors.

    The kernel is generated as straight-line source, so a call runs no
    loop: both polynomials are written out by `_horner` on literal
    coefficients, T by `_continued_fraction` at the depth found at the
    least x it takes, and the switch, the scale and every other constant
    are literals.  The model's memo keeps the compiled kernel.
    """
    log_scale, log_gamma_a = math.log(scale), math.lgamma(a)
    big = _LOG_MAX - max(log_scale, 0.0)   # e^x and scale e^x are finite up to here
    elementary = (2.0 * a).is_integer()
    switch = (a * (1.0 - 1.0 / (9.0 * a) - 1.2816 / (3.0 * math.sqrt(a))) ** 3
              if elementary else a + 1.0)
    series = _lowered_series(a, scale, what, switch)
    overflow = f"raise EvaluationError('%s(omega=%g) overflows double precision' % ({what!r}, x))"
    lines = [f"if x <= {switch!r}:"]
    if a * math.log(switch) < _LOG_MAX - 1.0:   # x ** a is finite up to the switch, e to spare
        lines.append(f"    return x ** {a!r} * ({_horner(series, 'x')})")
    else:   # where x ** a alone overflows, x^(a/2) h x^(a/2) may not (large a only)
        lines += [f"    h = {_horner(series, 'x')}",
                  "    try:",
                  f"        return x ** {a!r} * h",
                  "    except OverflowError:",
                  f"        h = x ** {a / 2.0!r} * h * x ** {a / 2.0!r}",
                  f"    if h <= {sys.float_info.max!r}:",
                  "        return h",
                  "    " + overflow]
    if elementary:
        half = a != int(a)
        finite = _horner([1.0 / math.gamma(k + (1.5 if half else 1.0))
                          for k in range(int(a) - 1, -1, -1)], "x")
        lines.append(f"if x <= {big!r}:")
        if half:
            lines += ["    r = sqrt(x)",
                      f"    return {scale!r} * (exp(x) * erf(r) - r * ({finite}))"]
        else:
            lines.append(f"    return {scale!r} * (exp(x) - ({finite}))")
    lines += [f"frac = 1.0 - exp({a!r} * log(x) - x - {log_gamma_a!r}) * "
              + _continued_fraction(a, "x", max(switch, big) if elementary else switch),
              f"if x <= {big!r}:",
              f"    return {scale!r} * exp(x) * frac   # frac <= 1: cannot overflow",
              f"if x + {log_scale!r} + log(frac) <= {_LOG_MAX!r}:",
              f"    return exp(x + {log_scale!r} + log(frac))",
              overflow]
    lowered = _compiled("def bind():\n    def lowered(x):\n        "
                        + "\n        ".join(lines) + "\n    return lowered\n")()
    # what the index reads: below the switch the kernel is x^a H(x), with H
    # the polynomial of these coefficients (highest power first)
    lowered.switch, lowered.horner = switch, series
    return lowered


class Tabulated(_ReadOnly):
    """phi given as (E, phi) samples, interpolated monotone piecewise-cubic.

    The low-energy exponent k of phi ~ E^k (k > -1) and the Hölder index of
    E phi(E) are declared with the samples, never inferred from them; k is
    required, the index only where l < -1/2 or a derivative needs it.  The
    grid must start at or below E = 0; queries beyond its end raise instead
    of extrapolating; values are clamped at zero.  Every sample must be
    finite; both grids are kept as ``array('d')``.
    """

    def __init__(self, energies, values, k=None, holder_index=None):
        if k is None:
            raise ModelError("tabulated models require the declared low-energy exponent k", "k")
        try:
            e, v = array("d", energies), array("d", values)
        except TypeError:   # not a flat sequence of numbers
            e = v = ()
        if len(e) != len(v) or len(e) < 4:
            raise ModelError("tabulated family needs matching 1-d grids with >= 4 samples")
        if not all(map(math.isfinite, e + v)):
            raise ModelError("tabulated energies and phi samples must be finite")
        if not all(a < b for a, b in zip(e, e[1:])):
            raise ModelError("tabulated energy grid must be strictly increasing")
        if any(x < 0.0 for x in v):
            raise ModelError("tabulated phi samples must be non-negative")
        if e[0] > 0.0:
            raise ModelError(f"tabulated energy grid must start at or below E = 0, "
                             f"got first energy {e[0]:g}")
        k = float(k)
        if not k > -1.0:
            raise ModelError(f"low-energy exponent k must exceed -1, got {k}", "k")
        interp = _Pchip(e, v)
        # pieces phi = sum_j c_j (E - x0)^j on the cells reaching E > 0, on
        # floats: the cell straddling E = 0 re-expanded about 0 so every
        # piece starts at x0 >= 0
        cells = [(x0, x1, (c0, c1, c2, c3)) for x0, x1, c3, c2, c1, c0
                 in zip(e, e[1:], *interp.c) if x1 > 0.0]
        x0, x1, coef = cells[0]
        if x0 < 0.0:   # summed left to right: sum() of floats is compensated from 3.12
            shifted = [0.0] * 4
            for i in range(4):
                for j in range(i, 4):
                    shifted[i] += math.comb(j, i) * coef[j] * (-x0) ** (j - i)
            cells[0] = 0.0, x1, tuple(shifted)
        starts, ends, coefs = zip(*cells)
        dcoefs = tuple((c1, 2.0 * c2, 3.0 * c3) for _, c1, c2, c3 in coefs)
        vars(self).update(energies=e, values=v, k=k, holder_index=holder_index, _interp=interp,
                          _pieces=(starts, ends, coefs, dcoefs), _energy_max=e[-1])

    def phi(self, e):
        self._check_range(e)
        value = self._interp(e) if e > 0.0 else 0.0
        return value if value > 0.0 else 0.0

    @property
    def energy_max(self):
        return self._energy_max

    def _check_range(self, omega):
        if omega > self._energy_max:
            raise EvaluationError(f"tabulated phi queried at E={omega:g} beyond grid end "
                                  f"{self._energy_max:g}")

    def kernel(self, m, derivative=False, memo=None):
        """omega -> g_m(omega), or dg_m/domega, with the per-piece constants fixed once.

        g_m(omega) = int_0^omega phi(omega - s) s^m ds, so the jump of phi at
        E = 0 gives dg_m a term phi(0+) omega^m; the rest is phi' (piecewise
        quadratic) against (omega - E)^m.
        """
        starts, ends, coefs, dcoefs = self._pieces
        check = self._check_range
        if not derivative:
            pieces = _piecewise_kernel(starts, ends, coefs, m)

            def g_m(omega):
                check(omega)
                return pieces(omega)
            return g_m
        phi0 = coefs[0][0]
        pieces = _piecewise_kernel(starts, ends, dcoefs, m)

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

    def series(self, m, omega, memo):
        """The first coefficient of g_m(omega w(s))/g_m(omega) only, omega
        g_m'/g_m w_1: a piecewise phi has no closed form beyond it (see
        `DistributionModel.series`)."""
        ratio = omega * memo(m, True)(omega) / memo(m)(omega)
        return lambda w, gamma: ratio * w[1] if len(gamma) == 1 else None


class _Pchip:
    """Monotone piecewise-cubic (PCHIP) interpolant of samples y at x.

    The same floating-point operations as scipy's PchipInterpolator, so
    the numbers agree to the bit: Fritsch-Carlson weighted harmonic-mean
    slopes inside, Moler's shape-preserving one-sided slopes at the ends,
    and cubic Hermite coefficients ``c``: four rows of len(x) - 1 floats,
    scipy's layout, highest power first, about each cell's left node ``x``.
    Built and called on floats.  Needs len(x) >= 3; a query outside
    [x[0], x[-1]] extends the end cells.
    """

    def __init__(self, x, y):
        x, y = [float(v) for v in x], [float(v) for v in y]
        h = [b - a for a, b in zip(x, x[1:])]
        slope = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
        d = [_pchip_end(h[0], h[1], slope[0], slope[1])]
        for h0, h1, m0, m1 in zip(h, h[1:], slope, slope[1:]):
            if _sign(m0) * _sign(m1) <= 0:   # flat or an extremum
                d.append(0.0)
            else:   # the reciprocal of the weighted harmonic mean of the slopes
                w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
                d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        d.append(_pchip_end(h[-1], h[-2], slope[-1], slope[-2]))
        t = [(d0 + d1 - 2.0 * m) / w for d0, d1, m, w in zip(d, d[1:], slope, h)]
        self.x = x
        self.c = ([ti / w for ti, w in zip(t, h)],
                  [(m - d0) / w - ti for m, d0, w, ti in zip(slope, d, h, t)],
                  d[:-1], y[:-1])

    def __call__(self, e):
        i = min(max(bisect_right(self.x, e) - 1, 0), len(self.x) - 2)
        s = e - self.x[i]
        c0, c1, c2, c3 = (row[i] for row in self.c)
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def _sign(x):
    return (x > 0.0) - (x < 0.0)


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _piecewise_kernel(starts, ends, coefs, m):
    """omega -> sum over pieces of int_x0^min(x1, omega) sum_j c_j (E-x0)^j (omega-E)^m dE.

    ``coefs`` holds one tuple (c_0, c_1, ...) per piece [x0, x1) of
    ``starts`` and ``ends``.  With E = x0 + (omega - x0) t each monomial is
    (omega - x0)^(j+m+1) times the incomplete Beta integral
    B_u(j+1, m+1) = int_0^u t^j (1-t)^m dt, u = min(1, (x1 - x0)/(omega - x0)),
    so no power of (omega - E) is expanded.  The first Beta parameter is an
    integer, and the sum takes one of three forms, none of which cancels:

    * the piece holding omega (u = 1): the complete B(j+1, m+1) =
      j!/((m+1)(m+2)...(m+j+1)), so the piece is (omega - x0)^(m+1) times a
      polynomial in omega - x0;
    * u above a cut, 1/4 (4/(m+1) for m > 15): B_u(1, m+1) =
      -expm1((m+1) log(1-u))/(m+1) and the upward recurrence
      (j+m+1) B_u(j+1, m+1) = j B_u(j, m+1) - u^j (1-u)^(m+1), from
      integration by parts, whose subtracted term is the smaller one there
      (at u = 1/8 and m = -1/2 it would cost 2.8e-13);
    * u at or below the cut, pieces alone or in blocks: a piece or a block
      of half-width H, whose width is at most the cut times omega minus
      its start, is d^m sum_k (-1)^k binom(m, k) mu_k/d^k, with d = omega
      minus its centre and mu_k its moments about the centre
      (`_block_series`): a series in z = H/d <= cut/(2 - cut), 1/7 at most.
      Its terms cancel by at most ((1 + z)/(1 - z))^m, which the smaller
      cut of large m keeps near e^4.

    A call finds the pieces below omega with one ``bisect``, and their
    count fixes its plan, made on first use: from the first piece up, the
    largest aligned block of 1, 2, 4, ... pieces that ends below the last
    piece and is far enough for the lowest omega of that count.  So about
    ten blocks cover any number of pieces, and only the last few pieces
    are classed per call.  A call runs on floats, and every coefficient is
    built on floats in a fixed order.
    """
    b = m + 1.0
    full = [math.factorial(j) / math.prod(b + i for i in range(j + 1))
            for j in range(len(coefs[0]))]
    held = [tuple(reversed([c * f for c, f in zip(row, full)])) for row in coefs]
    cut = min(0.25, 4.0 / b)
    series = _block_series(starts, ends, coefs, m, cut / (2.0 - cut))
    plans = {}

    def plan(n):
        """The blocks of pieces 0 .. n-2 that are far enough for every omega
        above starts[n-1], and the pieces left, n - 1 among them."""
        low = starts[n - 1]
        far, near = [], []
        i = 0
        while i < n - 1:
            level = min((i & -i or n).bit_length(), (n - 1 - i).bit_length()) - 1
            while level >= 0 and ends[i + (1 << level) - 1] - starts[i] > cut * (low - starts[i]):
                level -= 1
            if level < 0:
                near.append(i)
                i += 1
            else:
                far.append(series(level, i))
                i += 1 << level
        near.append(n - 1)
        plans[n] = far, near = tuple(far), tuple(near)
        return far, near

    def kernel(omega):
        n = bisect_left(starts, omega)   # the pieces that start below omega
        if not n:
            return 0.0
        far, near = plans.get(n) or plan(n)
        total = 0.0
        for start, half, coef in far:
            d = omega - start - half
            z = half / d
            h = 0.0
            for c in coef:
                h = h * z + c
            total += h * d ** m
        for i in near:
            start, end = starts[i], ends[i]
            s = omega - start
            if omega <= end:   # the piece holding omega
                h = 0.0
                for c in held[i]:
                    h = h * s + c
                total += h * s ** b
            elif end - start <= cut * s:   # far enough for its series
                _, half, coef = series(0, i)
                d = s - half
                z = half / d
                h = 0.0
                for c in coef:
                    h = h * z + c
                total += h * d ** m
            else:   # the upward recurrence
                u = (end - start) / s
                log_v = math.log((omega - end) / s)
                v_b = math.exp(b * log_v)
                beta_u = -math.expm1(b * log_v) / b
                row = coefs[i]
                h, u_j, s_j = row[0] * beta_u, 1.0, 1.0
                for j in range(1, len(row)):
                    u_j *= u
                    s_j *= s
                    beta_u = (j * beta_u - u_j * v_b) / (j + b)
                    h += row[j] * s_j * beta_u
                total += h * s ** b
        return total
    return kernel


def _block_series(starts, ends, coefs, m, z):
    """(L, i) -> (start, H, a) of the 2^L pieces from piece i (i a multiple
    of 2^L), built on the first call and kept: H the block's half-width and
    a_k = (-1)^k binom(m, k) mu_k/H^k, highest k first, mu_k its moments
    about its centre, for as many k as the worst z needs.  Only the blocks
    that some call takes are ever built.

    A piece's moments come from its polynomial about its centre, scaled by
    its half-width h, q_i = sum_j binom(j, i) c_j h^j: mu_k/h^k =
    2h sum_{i + k even} q_i/(i + k + 1).  A block's come from its two halves,
    each normalized moment nu_i of a half (centre c, half-width h) entering
    nu_k = sum_i binom(k, i) (h/H)^i ((c - C)/H)^(k-i) nu_i of the block
    (centre C).  h/H + |c - C|/H <= 1, so no sum cancels more than the
    moments themselves.
    """
    weights = _binomial_weights(m, z)
    terms = len(weights)
    moments, built = {}, {}

    def normalized(level, i):
        nu = moments.get((level, i))
        if nu is not None:
            return nu
        half = 0.5 * (ends[i + (1 << level) - 1] - starts[i])
        if not level:
            c0, c1, c2, c3 = coefs[i] + (0.0,) * (4 - len(coefs[i]))
            s1, s2, s3 = c1 * half, c2 * half * half, c3 * half * half * half
            q0, q1, q2, q3 = c0 + s1 + s2 + s3, s1 + 2.0 * s2 + 3.0 * s3, s2 + 3.0 * s3, s3
            nu = [2.0 * half * (q0 / (k + 1) + q2 / (k + 3)) if k % 2 == 0 else
                  2.0 * half * (q1 / (k + 2) + q3 / (k + 4)) for k in range(terms)]
        else:
            mid = i + (1 << (level - 1))
            nu = [0.0] * terms
            for j in (i, mid):
                h = 0.5 * (ends[j + (1 << (level - 1)) - 1] - starts[j])
                alpha, beta = h / half, ((starts[j] - starts[i]) + h - half) / half
                w, p = [], 1.0
                for v in normalized(level - 1, j):
                    w.append(v * p)
                    p *= alpha
                # sum_r binom(k, r) beta^(k-r) w_r for every k, in place by Pascal's rule
                for r in range(1, terms):
                    for k in range(terms - 1, r - 1, -1):
                        w[k] += beta * w[k - 1]
                nu = [x + y for x, y in zip(nu, w)]
        moments[level, i] = nu = array("d", nu)
        return nu

    def series(level, i):
        block = built.get((level, i))
        if block is None:
            half = 0.5 * (ends[i + (1 << level) - 1] - starts[i])
            coef = array("d", reversed([w * v for w, v in zip(weights, normalized(level, i))]))
            built[level, i] = block = starts[i], half, coef
        return block
    return series


def _binomial_weights(m, z):
    """(-1)^k binom(m, k) for k = 0, 1, ...: as many as the series
    sum_k (-1)^k binom(m, k) x^k, |x| <= z, needs for a relative 1e-17 of
    its sum, which is at least (1 - z)^m for m > 0 and (1 + z)^m otherwise."""
    floor = 1e-17 * (1.0 - z) * ((1.0 - z) ** m if m > 0.0 else (1.0 + z) ** m)
    weights, w, k = [1.0], 1.0, 0
    while True:
        w *= (k - m) / (k + 1.0)
        k += 1
        if k > m and abs(w) * z ** k <= floor:
            return weights
        weights.append(w)


class DistributionModel(_ReadOnly):
    """The pair (l, phi), ``family`` a Polytrope, TruncatedExponential or
    Tabulated; immutable once built.  For l < -1/2 the family's Hölder
    index of E phi(E) must exceed -l - 1/2."""

    def __init__(self, l, family):
        if not l > -1.0:
            raise ModelError(f"anisotropy exponent l must exceed -1, got {l}", "l")
        if l < -0.5:
            h = family.holder_index
            if h is None:
                raise ModelError("models with l < -1/2 require a Hölder index for E*phi(E)",
                                 "holder_index")
            if not h > -l - 0.5:
                raise ModelError(f"Hölder index {h:g} insufficient: needs > {-l - 0.5:g} "
                                 f"for l={l:g}", "holder_index")
        vars(self).update(l=l, family=family, _prefactor=density_prefactor(l),
                          _kernels={})   # (m, derivative) -> kernel
        # the per-step functions of omega, bound once: g_{l+1/2} and n
        vars(self).update(_kernel=self.kernel(l + 0.5), _index=family.index(l, self.kernel))

    def kernel(self, m, derivative=False):
        """omega -> g_m(omega), or dg_m/domega; the family builds each once per model."""
        key = (m, derivative)
        if key not in self._kernels:
            self._kernels[key] = self.family.kernel(m, derivative, self.kernel)
        return self._kernels[key]

    def series(self, omega):
        """(w, gamma) -> gamma_k, k = len(gamma): the s^k coefficient of
        g_{l+1/2}(omega w(s))/g_{l+1/2}(omega) for a power series w(s) of
        which ``w`` holds w_0 = 1, w_1, ..., w_k and ``gamma`` the
        coefficients before; None where the family's closed form gives no
        more.  Each coefficient costs O(k), and the function may keep state:
        call it for k = 1, 2, ... in turn."""
        return self.family.series(self.l + 0.5, omega, self.kernel)


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
    return DistributionModel(l=float(l), family=Tabulated(energies, values, k, holder_index))


def load_tabulated(path, l=0.0, k=None, holder_index=None) -> DistributionModel:
    """Build a tabulated model from a two-column (E, phi) CSV file.

    As numpy's ``loadtxt`` reads it, ``#`` starts a comment and blank lines
    are skipped.  A row that is not two finite numbers, a header row among
    them, raises ModelError naming the file and the line.
    """
    import csv   # read with the first table: no other model needs the module

    energies, values = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(line.partition("#")[0] for line in fh)
        for row in rows:
            if len(row) < 2 and not "".join(row).strip():   # blank
                continue
            where = f"{path}, line {rows.line_num}"
            if len(row) != 2:
                raise ModelError(f"{where}: expected two columns (E, phi), got {len(row)}")
            try:
                e, v = float(row[0]), float(row[1])
            except ValueError:
                raise ModelError(f"{where}: {','.join(row)!r} is not two numbers") from None
            if not (math.isfinite(e) and math.isfinite(v)):
                raise ModelError(f"{where}: E and phi must be finite, got {e!r}, {v!r}")
            energies.append(e)
            values.append(v)
    return tabulated_model(energies, values, l=l, k=k, holder_index=holder_index)


# ----------------------------------------------------------- evaluations

def eval_phi(model: DistributionModel, energy: float) -> float:
    """phi(E); exactly 0 for E <= 0."""
    return model.family.phi(float(energy))


def eval_g(model: DistributionModel, m, omega) -> float:
    """Kernel integral g_m(omega) = int_0^omega phi(E)(omega-E)^m dE, in closed form."""
    _check_gm_args(m, omega)
    if omega == 0.0:
        return 0.0
    return _kernel_value(model, m, False, omega)


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
        holder = model.family.holder_index
        if holder is None or not holder > -m:
            raise EvaluationError(
                f"derivative of g_{m:g} needs a Hölder index above {-m:g}; "
                f"model declares {holder}")


def _kernel_value(model, m, derivative, omega):
    """g_m(omega) or dg_m/domega, finite; names a polytrope's omega ** (n + m - 1/2) overflow.
    The kernel's name, g_m or dg_m, is formatted only for a message."""
    try:
        value = model.kernel(m, derivative)(omega)
    except OverflowError:
        if not isinstance(model.family, Polytrope):
            raise
        raise OverflowError(f"omega ** {model.family.n + m - 0.5:g} of the polytrope kernel "
                            f"{'dg' if derivative else 'g'}_{m:g} overflows double precision "
                            f"at omega = {omega:g}") from None
    if not math.isfinite(value):
        raise EvaluationError(f"{'dg' if derivative else 'g'}_{m:g}(omega={omega:g}) is not "
                              "finite in double precision")
    return value


def eval_dg(model: DistributionModel, m, omega) -> float:
    """d g_m/d omega in closed form for every m > -1.

    For -1 < m < 0 the derivative exists only when E*phi(E) is Hölder with
    index above -m, so the model must declare that index.
    """
    _check_dg_args(model, m, omega)
    return _kernel_value(model, m, True, omega)


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
    try:
        return 2.0 ** (l + 1.5) * math.pi ** 1.5 * ratio
    except OverflowError:
        raise OverflowError(f"2 ** (l + 3/2) of the density prefactor overflows double "
                            f"precision at l = {l:g}") from None


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
