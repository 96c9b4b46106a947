"""Weighted Gaussian quadrature on [0, 1] for algebraic endpoint weights.

Evaluates integrals of the form

    I = int_0^1 (1-x)^alpha x^beta f(x) dx,      alpha, beta > -1,

where f is smooth (or at least piecewise smooth).  The endpoint weights are
absorbed into Gauss-Jacobi rules so that algebraic singularities at x=0 and
x=1 cost nothing in accuracy.  The error is estimated by comparing an N-point
rule with a 2N-point rule; if the fast path fails to converge (non-smooth f,
e.g. tabulated interpolants), an adaptive bisection fallback splits [0, 1]
and applies endpoint-aware rules on each piece.

The rules come from ``scipy.special.roots_jacobi``, imported on first use:
the quadrature serves the kernel oracles of ``tests/oracles.py`` only, so it
needs the ``test`` extra.  It stays in the package because the benchmark's
tracer (``perfbench/tracing.py``) imports it and wraps ``_adaptive``.
"""

from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be certified."""


@lru_cache(maxsize=512)
def _rule(npts: int, alpha: float, beta: float):
    """Nodes/weights for int_0^1 (1-x)^alpha x^beta f(x) dx ~ sum w_i f(x_i)."""
    from scipy.special import roots_jacobi   # loaded on first use: no run path needs it

    t, w = roots_jacobi(npts, alpha, beta)
    # map [-1,1] -> [0,1]: x=(t+1)/2 pulls out a factor 2^-(alpha+beta+1)
    return (t + 1.0) / 2.0, w * 0.5 ** (alpha + beta + 1.0)


def _pair(f, alpha, beta, order):
    """Value from a 2*order rule plus the |2N - N| error estimate."""
    x1, w1 = _rule(order, alpha, beta)
    x2, w2 = _rule(2 * order, alpha, beta)
    coarse = w1 @ f(x1)
    fine = w2 @ f(x2)
    return fine, abs(fine - coarse)


def integrate_weighted(f, alpha, beta, rel_tol=1e-10, order=24, max_intervals=2048):
    """Integrate (1-x)^alpha x^beta f(x) over [0, 1] to a certified tolerance.

    Parameters
    ----------
    f : callable
        Vectorized smooth factor of the integrand.
    alpha, beta : float
        Endpoint weight exponents at x=1 and x=0; both must exceed -1.
    rel_tol : float
        Target relative error; the N-vs-2N estimate must fall below it.
    order : int
        Base rule order for the fast path (the check uses 2*order points).
    max_intervals : int
        Subdivision budget for the adaptive fallback.

    Returns
    -------
    (value, err) : tuple of float
        Integral value and the absolute error estimate.

    Raises
    ------
    QuadratureError
        If the estimate cannot be brought below the tolerance.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("weight exponents must exceed -1")
    value, err = _pair(f, alpha, beta, order)
    if not np.isfinite(value):
        raise QuadratureError("non-finite integrand")
    scale = max(abs(value), np.finfo(float).tiny)
    if err <= rel_tol * scale:
        return value, err
    # retry once at double order before subdividing
    value, err = _pair(f, alpha, beta, 2 * order)
    scale = max(abs(value), np.finfo(float).tiny)
    if err <= rel_tol * scale:
        return value, err
    return _adaptive(f, alpha, beta, rel_tol, max_intervals)


def _piece(f, alpha, beta, a, b, order=16):
    """One subinterval [a, b] of [0, 1] with endpoint-aware rule selection."""
    if a == 0.0:
        # x = b*t: weight x^beta stays singular, (1-x)^alpha is smooth
        x, w = _rule(order, 0.0, beta)
        x2, w2 = _rule(2 * order, 0.0, beta)
        g = lambda t: (1.0 - b * t) ** alpha * f(b * t)
        jac = b ** (beta + 1.0)
    elif b == 1.0:
        # x = a + (1-a)*t: weight (1-x)^alpha stays singular
        x, w = _rule(order, alpha, 0.0)
        x2, w2 = _rule(2 * order, alpha, 0.0)
        g = lambda t: (a + (1.0 - a) * t) ** beta * f(a + (1.0 - a) * t)
        jac = (1.0 - a) ** (alpha + 1.0)
    else:
        # interior: plain Gauss-Legendre, both weights in the integrand
        x, w = _rule(order, 0.0, 0.0)
        x2, w2 = _rule(2 * order, 0.0, 0.0)
        g = lambda t: ((1.0 - (a + (b - a) * t)) ** alpha
                       * (a + (b - a) * t) ** beta * f(a + (b - a) * t))
        jac = b - a
    coarse = jac * (w @ g(x))
    fine = jac * (w2 @ g(x2))
    return fine, abs(fine - coarse)


def _adaptive(f, alpha, beta, rel_tol, max_intervals):
    """Bisection fallback: split the worst interval until the sum converges."""
    segments = [(0.0, 0.5), (0.5, 1.0)]
    vals = {}
    for seg in segments:
        vals[seg] = _piece(f, alpha, beta, *seg)
    while True:
        total = sum(v for v, _ in vals.values())
        toterr = sum(e for _, e in vals.values())
        if not np.isfinite(total):
            raise QuadratureError("non-finite integrand in adaptive fallback")
        if toterr <= rel_tol * max(abs(total), np.finfo(float).tiny):
            return total, toterr
        if len(vals) >= max_intervals:
            raise QuadratureError(
                f"tolerance {rel_tol:g} not met after {len(vals)} subintervals "
                f"(estimate {toterr:.3e} on value {total:.3e})")
        worst = max(vals, key=lambda s: vals[s][1])
        a, b = worst
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            raise QuadratureError("subinterval underflow before reaching tolerance")
        del vals[worst]
        vals[(a, mid)] = _piece(f, alpha, beta, a, mid)
        vals[(mid, b)] = _piece(f, alpha, beta, mid, b)
