"""Dormand-Prince 8(5,3) on plain Python floats, with terminal events and
lazy dense output.

The method is scipy's DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5-6): the same Butcher tableau, taken from
``scipy.integrate._ivp.dop853_coefficients``, the same initial-step rule,
error norm, step-size control and minimum step, the same 7th-order
interpolant, and the same event rule (a sign change in the event's
direction over an accepted step, then ``brentq`` on the interpolant with
``xtol = rtol = 4 eps``).  The states here have two to four components, so
numpy calls on arrays of that length cost more than the arithmetic; every
step runs on floats and lists instead.

The interpolant of a step needs three extra right-hand-side calls.  They
are made only for a step that an event root or a ``dense`` query lands in;
every accepted step keeps its node and its 13 stages in one packed float
buffer, so any step can build its interpolant later.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from operator import mul

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _coef
from scipy.optimize import brentq

from .distmodels import EvaluationError

_N_STAGES = _coef.N_STAGES                        # 12 stages per attempt
_N_K = _N_STAGES + 1                              # plus f at the step end
_C = _coef.C[:_N_STAGES].tolist()
_A = [None] + [_coef.A[s, :s].tolist() for s in range(1, _N_STAGES)]
_B = _coef.B.tolist()
_E3 = _coef.E3.tolist()
_E5 = _coef.E5.tolist()
_C_EXTRA = _coef.C[_N_K:].tolist()
_A_EXTRA = [_coef.A[s, :s].tolist() for s in range(_N_K, _coef.N_STAGES_EXTENDED)]
_D = _coef.D.tolist()

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0                      # error estimator of order 7
_ROOT_TOL = 4.0 * np.finfo(float).eps


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values)) / math.sqrt(len(values))


def _initial_step(fun, t0, y0, f0, t_end, direction, rtol, atol) -> float:
    """Hairer-Norsett-Wanner starting step, as scipy's select_initial_step."""
    interval = abs(t_end - t0)
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    step = h0 * direction
    f1 = fun(t0 + step, [v + step * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _interpolant(fun, t_old, h, y_old, y_new, K):
    """Coefficients of the 7th-order interpolant of one step.

    K holds the 13 stages of each component (K[j][0] is f at the step start,
    K[j][12] f at its end); the three extra stages are appended to K.
    """
    n = len(y_old)
    for a, c in zip(_A_EXTRA, _C_EXTRA):
        f = fun(t_old + c * h, [y_old[j] + sum(map(mul, a, K[j])) * h
                                for j in range(n)])
        for j in range(n):
            K[j].append(f[j])
    F = []
    for j in range(n):
        Kj = K[j]
        delta = y_new[j] - y_old[j]
        F.append((delta, h * Kj[0] - delta, 2.0 * delta - h * (Kj[12] + Kj[0]),
                  *(h * sum(map(mul, d, Kj)) for d in _D)))
    return t_old, h, y_old, F


def _evaluate(piece, t):
    t_old, h, y_old, F = piece
    x = (t - t_old) / h
    xm = 1.0 - x
    return [(((((((f6 * x + f5) * xm + f4) * x + f3) * xm + f2) * x + f1) * xm
              + f0) * x + y0)
            for y0, (f0, f1, f2, f3, f4, f5, f6) in zip(y_old, F)]


class Trajectory:
    """Accepted-step nodes of one solve and its dense output.

    ``t`` and ``y`` (shape (n, len(t))) are the nodes; the last one is the
    event point when ``event`` (the index of the terminal event that fired)
    is not None.  ``nfev`` counts right-hand-side calls so far, including
    the extra stages of every interpolant built, ``n_rejected`` the
    rejected step attempts.  Calling the trajectory at ``t`` returns the
    interpolated state as a list; at a node the step ending there is used.
    """

    def __init__(self, fun, n, buf, pieces, nfev, n_rejected, event):
        self._fun = fun
        self._n = n
        self._stride = 1 + n + _N_K * n
        self._buf = buf
        self._pieces = pieces
        rows = np.frombuffer(buf, dtype=float).reshape(-1, self._stride)
        self.t = rows[:, 0].copy()
        self.y = rows[:, 1:1 + n].T.copy()
        sign = 1.0 if self.t[-1] >= self.t[0] else -1.0
        self._keys = array("d", (sign * v for v in self.t.tolist()))
        self._sign = sign
        self.nfev = nfev
        self.n_rejected = n_rejected
        self.event = event

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1

    @property
    def n_interpolants(self) -> int:
        """Steps whose extra stages have been computed."""
        return len(self._pieces)

    def _piece(self, i):
        piece = self._pieces.get(i)
        if piece is None:
            n, stride, buf = self._n, self._stride, self._buf
            base = i * stride
            t_old = buf[base]
            y_old = buf[base + 1:base + 1 + n].tolist()
            y_new = buf[base + stride + 1:base + stride + 1 + n].tolist()
            k0 = base + 1 + n
            K = [buf[k0 + j * _N_K:k0 + (j + 1) * _N_K].tolist() for j in range(n)]
            piece = _interpolant(self._fun, t_old, buf[base + stride] - t_old,
                                 y_old, y_new, K)
            self.nfev += 3
            self._pieces[i] = piece
        return piece

    def __call__(self, t: float) -> list:
        t = float(t)
        i = bisect_left(self._keys, self._sign * t)
        return _evaluate(self._piece(min(max(i - 1, 0), len(self._keys) - 2)), t)


def dop853(fun, t0: float, y0, t_end: float, rtol: float, atol, events=()) -> Trajectory:
    """Integrate y' = fun(t, y) from t0 towards t_end.

    ``fun`` takes a float and a list of floats and returns a sequence of
    floats; ``atol`` is a float or one per component.  ``events`` is a
    sequence of ``(fn, direction)`` pairs with direction +1 (upward
    crossings of ``fn(t, y) = 0``) or -1 (downward); every event is
    terminal.  Raises EvaluationError when the step size falls below ten
    spacings of floating-point numbers at t.
    """
    y = [float(v) for v in y0]
    n = len(y)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (n,)).tolist()
    if any(d not in (1, -1) for _, d in events):
        raise ValueError("event directions must be +1 or -1")
    direction = 1.0 if t_end > t0 else -1.0
    t = float(t0)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end, direction, rtol, atol)
    nfev, n_rejected = 2, 0
    g = [fn(t, y) for fn, _ in events]
    buf = array("d", [t, *y])
    pieces = {}
    step = 0
    event = None
    K = [[0.0] * _N_K for _ in range(n)]
    rng = range(n)

    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise EvaluationError(
                    f"step size collapsed below {min_step:.3g} at t={t:.17g}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)

            for j in rng:
                K[j][0] = f[j]
            for s in range(1, _N_STAGES):
                a = _A[s]
                fs = fun(t + _C[s] * h, [y[j] + sum(map(mul, a, K[j])) * h for j in rng])
                for j in rng:
                    K[j][s] = fs[j]
            y_new = [y[j] + h * sum(map(mul, _B, K[j])) for j in rng]
            f_new = fun(t_new, y_new)
            nfev += _N_STAGES
            err5 = err3 = 0.0
            for j in rng:
                Kj = K[j]
                Kj[_N_STAGES] = f_new[j]
                scale = atol[j] + max(abs(y[j]), abs(y_new[j])) * rtol
                e5 = sum(map(mul, _E5, Kj)) / scale
                e3 = sum(map(mul, _E3, Kj)) / scale
                err5 += e5 * e5
                err3 += e3 * e3
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)

            if error_norm < 1.0:
                factor = (MAX_FACTOR if error_norm == 0.0
                          else min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            n_rejected += 1

        for Kj in K:
            buf.extend(Kj)
        finished = direction * (t_new - t_end) >= 0.0
        g_new = [fn(t_new, y_new) for fn, _ in events]
        hits = [i for i, (_, d) in enumerate(events)
                if (g[i] <= 0.0 <= g_new[i] if d > 0 else g[i] >= 0.0 >= g_new[i])]
        if hits:
            piece = _interpolant(fun, t, h, y, y_new, K)
            nfev += 3
            pieces[step] = piece
            roots = [brentq(lambda s, fn=events[i][0]: fn(s, _evaluate(piece, s)),
                            t, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL) for i in hits]
            first = min(range(len(hits)), key=lambda k: direction * roots[k])
            event = hits[first]
            t_new = roots[first]
            y_new = _evaluate(piece, t_new)
            finished = True
        buf.append(t_new)
        buf.extend(y_new)
        if finished:
            break
        t, y, f, g = t_new, y_new, f_new, g_new
        step += 1

    buf.extend([0.0] * (_N_K * n))   # the last node starts no step
    return Trajectory(fun, n, buf, pieces, nfev, n_rejected, event)
