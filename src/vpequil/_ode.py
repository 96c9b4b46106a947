"""Dormand-Prince 8(5,3) on plain Python floats, with terminal events and
lazy dense output, and the Brent root finder it and the analysis layer use.

The method is scipy's DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5-6): the same Butcher tableau, written out below as the exact float
values of ``scipy.integrate._ivp.dop853_coefficients`` (the tests compare
them entry by entry), the same initial-step rule, error norm, step-size
control and minimum step, the same 7th-order interpolant, and the same
event rule (a sign change in the event's direction over an accepted step,
then ``brentq`` on the interpolant with ``xtol = rtol = 4 eps``).
``brentq`` is a port of scipy's, so roots agree to the bit; the module
imports nothing from scipy.  The states here have two to four components,
so numpy calls on arrays of that length cost more than the arithmetic;
every step runs on floats and lists instead.

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

from .distmodels import EvaluationError

_N_STAGES = 12                                    # stages per attempt
_N_K = _N_STAGES + 1                              # plus f at the step end

# The DOP853 tableau of scipy.integrate._ivp.dop853_coefficients, each value
# written as its repr so the bits are exact: nodes and rows of the 12 stages,
# the 8th-order weights, the 5th- and 3rd-order error weights, the 3 extra
# stages of the interpolant, and the interpolant's coefficients.
_C = [
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0
]
_A = [
    None,
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
]
_B = [
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259
]
_E3 = [
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0
]
_E5 = [
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0
]
_C_EXTRA = [
    0.1, 0.2, 0.7777777777777778
]
_A_EXTRA = [
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
_D = [
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0                      # error estimator of order 7
_ROOT_TOL = 4.0 * np.finfo(float).eps


def brentq(f, a, b, xtol=2e-12, rtol=_ROOT_TOL, maxiter=100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    A line-by-line port of scipy.optimize.brentq (Brent's method as in
    scipy's Zeros/brentq.c), so it returns the same float: it stops once
    the bracket half-width is below (xtol + rtol |x|) / 2.  Raises
    ValueError for xtol <= 0, rtol < 4 eps, a bracket whose ends have the
    same sign or a NaN value of f, and RuntimeError when maxiter iterations
    do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _ROOT_TOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_ROOT_TOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                             # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry                       # good short step
            else:
                spre = scur = sbis                            # bisect
        else:
            spre = scur = sbis                                # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


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
