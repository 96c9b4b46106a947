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
imports nothing from scipy, nor numpy.  The states here have two to four
components, so every step runs on floats and lists.

A solve keeps only its nodes, as ``array('d')`` columns of one buffer that
each accepted step extends by one packed write (a ``struct`` pack, then
``array.frombytes``).  A step's interpolant, from its 13 stages and three
extra calls, is built only where an event root or a ``dense`` query lands:
at an event from the stages the loop returns with, else by running the
step again through the loop, clamped to its end node, which gives the same
stages bit for bit for 1 + 12 more calls.

One step loop per flow and one interpolant are straight-line code generated
from the tableau, from a `Field`, the source of a right-hand side, and from
an `Events` source, the terminal events' values.  `bind` compiles a flow's
field or events from its source, and `dop853` runs the loop with both
bodies written in: the field's into each of the 12 stages of an attempt,
the events' once after each accepted step, with the step-size control, the
minimum step, the attempt budget and the node buffer, so a step calls no
Python function and no builtin: its own calls are ``nextafter``, the pack
and ``frombytes``.  A field that is any other callable is ``return fun(t,
[...])``: the same generator, one call per stage.  Each function is
compiled on the first solve that needs it (milliseconds; the cache holds
functions, no results).  Each stage of each component is a local name and
each coefficient a literal, so a step indexes no list, and zero entries of
the tableau are left out.  Every weighted sum of stages is written ``0.0 +
c0*k0 + c1*k1 + ...``, left to right, the order in which Python 3.11's
``sum()`` adds the products, and each ``abs()``, ``max()`` or ``min()`` of
the error scale and the step control as the comparison it makes; so the
floats, steps and roots are those of a loop over the tableau calling the
field, bit for bit for finite stages, on any Python version (3.12 made
``sum()`` of floats compensated).
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple

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
MAX_ATTEMPTS = 100_000                            # step attempts of one solve
_ROOT_TOL = 4.0 * sys.float_info.epsilon


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
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / math.sqrt(len(values))


def _initial_step(fun, t0, y0, f0, t_end, direction, rtol, atol) -> float:
    """Hairer-Norsett-Wanner starting step, as scipy's select_initial_step."""
    interval = abs(t_end - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0.0:   # d1 overflowed
        raise EvaluationError(f"the derivatives at t = {t0:g} are too large for the step "
                              "control in double precision")
    step = h0 * direction
    f1 = fun(t0 + step, [v + step * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _dot(coefs, j):
    """``0.0 + c0*_k0_j + c1*_k1_j + ...`` over the nonzero coefficients.

    The products are added left to right from 0.0, as ``sum()`` adds a
    sequence of floats on 3.11; a dropped ``0.0*k`` adds a zero, which
    changes no partial sum of finite stages (none is -0.0).
    """
    return " + ".join(["0.0", *(f"{c!r} * _k{i}_{j}" for i, c in enumerate(coefs) if c != 0.0)])


def _scale(j):
    """``_sc_j = _atol + max(abs(_y_j), abs(_yn_j)) * _rtol`` as two sign tests,
    then one comparison.  ``v if v > 0.0 else 0.0 - v`` is ``abs(v)``, -0.0
    included; the comparison keeps the first argument unless the second is
    greater, as ``max`` does, nan included."""
    return [f"_sc_{j} = _y_{j} if _y_{j} > 0.0 else 0.0 - _y_{j}",
            f"_sn_{j} = _yn_{j} if _yn_{j} > 0.0 else 0.0 - _yn_{j}",
            f"_sc_{j} = _atol + (_sn_{j} if _sn_{j} > _sc_{j} else _sc_{j}) * _rtol"]


def _names(prefix, n):
    """``_prefix_0, _prefix_1, ..., `` as an unpacking target or tuple items."""
    return "".join(f"_{prefix}_{j}, " for j in range(n))


# A right-hand side as source: ``def f(var, y)``, ``y`` unpacked to
# ``states``, then ``body``, whose last line returns the n derivatives;
# ``consts`` name the values `bind` gives.  A variable the body does not read
# is named ``_``, and no stage computes it.  Every name the generated field,
# loop and interpolant write for themselves starts with ``_``, so the var,
# the states, the consts and the names the body assigns may be any other
# identifier (``_`` itself aside); a name the field or the events assign
# must not be a const of either.  Generating the loop raises ValueError
# naming the clash (`_check_names`).
Field = namedtuple("Field", "var states body consts")

# Terminal events as source: a `Field` whose body returns one value per
# event, and ``directions``, +1 (the event fires on an upward crossing of 0)
# or -1 (downward) for each.  A const it shares with the field is bound once
# in the loop, so both must give it the same value.
Events = namedtuple("Events", "var states body consts directions")


def _generic(n):
    """The field of a plain callable ``fun``: one call per stage."""
    z = tuple(f"z{j}" for j in range(n))
    return Field("tau", z, (f"return fun(tau, [{', '.join(z)}])",), ("fun",))


def _check_names(*sources):
    """Raise ValueError when a source's var, a state, a const or a name its
    body assigns starts with ``_``, as the loop's own names do (see `Field`),
    or when a name one source assigns is a const of either: written into the
    loop, it would silently replace the loop's value."""
    consts = {name for source in sources for name in source.consts}

    def check(role, names):
        for name in names:
            if name != "_" and name.startswith("_"):
                raise ValueError(f"{role} {name!r} starts with '_', as the step loop's names do")
            if role != "const" and name in consts:
                raise ValueError(f"{role} {name!r} is also a bound const")
    for source in sources:
        check("variable", (source.var,))
        check("state", source.states)
        check("const", source.consts)
        code = _compiled(source, "field")(*[None] * len(source.consts)).__code__
        check("body name", {*code.co_varnames[2:], *code.co_cellvars} - {*source.states})


def _inline(source, var, args, targets):
    """Lines of ``source``'s body at var and the states args, its return
    bound to ``targets``."""
    *body, ret = source.body
    return [*(f"{name} = {arg}" for name, arg in zip((source.var, *source.states), (var, *args))
              if name != "_"),
            *body, f"{targets}= {ret.removeprefix('return ')}"]


def _stage(s, t, field, a=None):
    """The field's body at t and at the state of tableau row a (_yn for
    None), its return bound to ``_k{s}_0, _k{s}_1, ...``."""
    n = len(field.states)
    args = [f"_yn_{j}" if a is None else f"_y_{j} + ({_dot(a, j)}) * _h" for j in range(n)]
    return _inline(field, t, args, _names(f"k{s}", n))


def _indent(depth, lines):
    return [" " * (4 * depth) + line for line in lines]


def _source(field, name, events=None):
    """Source of ``_bind(*consts)``, which returns ``_<name>`` bound.

    ``_field(var, _y)`` is the field (or the events) itself, with consts
    ``field.consts``.  ``_loop(_t, _y, _f, _g, _h_abs, _t_end, _direction,
    _atol, _rtol, _buf, _max_attempts)`` binds the field's consts, then
    those of ``events`` the field does not bind (ValueError here when a name
    of either clashes, see `Field`).  It takes accepted steps from (t, y), f
    the field and g the event values there, and writes the end node of each
    step to ``_buf`` (``_buf.frombytes(_pack_step(...))``), except the step
    that reaches t_end or fires an event, where it returns ``(t, h, t_new,
    y, y_new, hits, attempts, K)``: hits the events fired, K the step's 13
    stages, component by component.  It raises EvaluationError when the
    step size falls below ten spacings of floats at t, or at attempt
    ``_max_attempts + 1``.  ``_interpolant(t_old, h, y_old, y_new, K)``
    gives the piece ``_evaluate`` reads.  Every name the source writes for
    itself starts with ``_``.
    """
    n = len(field.states)
    rng = range(n)
    stages = "".join(f"_k{s}_{j}, " for j in rng for s in range(_N_K))   # K's order
    consts = field.consts
    if name == "field":
        lines = [f"def _field({field.var}, _y):", f"    {', '.join(field.states)}, = _y",
                 *(f"    {line}" for line in field.body)]
    elif name == "loop":
        _check_names(field, events)
        consts = tuple(dict.fromkeys((*field.consts, *events.consts)))   # each name once
        m = len(events.directions)
        # the event rule: a sign change in the event's direction over the step
        fired = [f"_g_{i} <= 0.0 <= _gn_{i}" if d > 0 else f"_g_{i} >= 0.0 >= _gn_{i}"
                 for i, d in enumerate(events.directions)]
        attempt = [
            "if _h_abs < _min_step:",
            "    raise _EvaluationError(",
            '        f"step size collapsed below {_min_step:.3g} at t={_t:.17g}")',
            "_attempts += 1",
            "if _attempts > _max_attempts:",
            "    raise _EvaluationError(",
            '        f"step budget of {_max_attempts} attempts exhausted at t={_t:.17g}")',
            "_t_new = _t + _h_abs * _direction",
            "if _direction * (_t_new - _t_end) > 0.0:",
            "    _t_new = _t_end",
            "_h = _t_new - _t",
            "_h_abs = _h * _direction",                 # h has the sign of direction
            *(line for s in range(1, _N_STAGES)
              for line in _stage(s, f"_t + {_C[s]!r} * _h", field, _A[s])),
            *(f"_yn_{j} = _y_{j} + _h * ({_dot(_B, j)})" for j in rng),
            *_stage(12, "_t_new", field),
            *(line for j in rng for line in (
                *_scale(j),
                f"_e5_{j} = ({_dot(_E5, j)}) / _sc_{j}",
                f"_e3_{j} = ({_dot(_E3, j)}) / _sc_{j}")),
            f"_err5 = 0.0 + {' + '.join(f'_e5_{j} * _e5_{j}' for j in rng)}",
            f"_err3 = 0.0 + {' + '.join(f'_e3_{j} * _e3_{j}' for j in rng)}",
            # the step-size control of scipy's DOP853, with max() and min()
            # written as the comparisons they make.  err5 = 0 gives the norm 0
            # whatever err3 is: where 0.01 err3 underflows, scipy divides 0 by
            # 0 (nan, a rejection), and a float division would raise
            "if _err5 == 0.0:",
            "    _err_norm = 0.0",
            "else:",
            f"    _err_norm = _h_abs * _err5 / _sqrt((_err5 + 0.01 * _err3) * {n})",
            "if _err_norm < 1.0:",
            "    if _err_norm == 0.0:",
            f"        _factor = {MAX_FACTOR!r}",
            "    else:",
            f"        _factor = {SAFETY!r} * _err_norm ** {_ERROR_EXPONENT!r}",
            f"        if not _factor < {MAX_FACTOR!r}:",
            f"            _factor = {MAX_FACTOR!r}",
            "    if _rejected and not _factor < 1.0:",
            "        _factor = 1.0",
            "    _h_abs *= _factor",
            "    break",
            f"_factor = {SAFETY!r} * _err_norm ** {_ERROR_EXPONENT!r}",
            f"_h_abs *= _factor if _factor > {MIN_FACTOR!r} else {MIN_FACTOR!r}",
            "_rejected = True",
        ]
        lines = [
            "def _loop(_t, _y, _f, _g, _h_abs, _t_end, _direction, _atol, _rtol, _buf, "
            "_max_attempts):",
            f"    {_names('y', n)}= _y",
            f"    {_names('k0', n)}= _f",
            *([f"    {_names('g', m)}= _g"] if m else []),
            "    _toward = _direction * _inf",
            "    _attempts = 0",
            "    while True:",
            # the spacing has the sign of direction: times it, its abs()
            "        _min_step = 10.0 * (_direction * (_nextafter(_t, _toward) - _t))",
            "        if _min_step > _h_abs:",
            "            _h_abs = _min_step",
            "        _rejected = False",
            "        while True:",
            *_indent(3, attempt),
            *(_indent(2, _inline(events, "_t_new", [f"_yn_{j}" for j in rng], _names("gn", m)))
              if m else []),
            f"        if {' or '.join(['_direction * (_t_new - _t_end) >= 0.0', *fired])}:",
            f"            return (_t, _h, _t_new, [{_names('y', n)}], [{_names('yn', n)}], "
            f"[_i for _i, _hit in _enumerate(({''.join(f'{c}, ' for c in fired)})) if _hit], "
            f"_attempts, ({stages}))",
            f"        _buf.frombytes(_pack_step(_t_new, {_names('yn', n)}))",
            "        _t = _t_new",
            *(f"        _y_{j} = _yn_{j}" for j in rng),
            *(f"        _k0_{j} = _k12_{j}" for j in rng),
            *(f"        _g_{i} = _gn_{i}" for i in range(m)),
        ]
    else:
        lines = [
            "def _interpolant(_t_old, _h, _y_old, _y_new, _K):",
            f"    {_names('y', n)}= _y_old",
            f"    {stages}= _K",
            *(f"    {line}" for s, (c, a) in enumerate(zip(_C_EXTRA, _A_EXTRA), start=_N_K)
              for line in _stage(s, f"_t_old + {c!r} * _h", field, a)),
            f"    {_names('yn', n)}= _y_new",
            *(f"    _d_{j} = _yn_{j} - _y_{j}" for j in rng),
            "    return _t_old, _h, _y_old, [",
            *(f"        (_d_{j}, _h * _k0_{j} - _d_{j}, 2.0 * _d_{j} - _h * (_k12_{j} + _k0_{j}), "
              + ", ".join(f"_h * ({_dot(d, j)})" for d in _D) + ")," for j in rng),
            "    ]",
        ]
    return "\n    ".join([f"def _bind({', '.join(consts)}):", *lines,
                           f"return _{name}"]) + "\n"


# the names the generated sources read beside their consts
_LOOP_GLOBALS = {"_inf": math.inf, "_nextafter": math.nextafter, "_sqrt": math.sqrt,
                 "_EvaluationError": EvaluationError, "_enumerate": enumerate}


@functools.cache
def _compiled(field, name, events=None):
    """``_bind`` of ``_source(field, name, events)``, compiled on first use
    and on its own, so the compiler's peak memory is that of one function
    (about 1.2 MB for the compact flow's loop).  A loop gets the pack of a
    node of its state size n: n + 1 native doubles."""
    namespace = dict(_LOOP_GLOBALS)
    if name == "loop":
        namespace["_pack_step"] = struct.Struct(f"{len(field.states) + 1}d").pack
    exec(compile(_source(field, name, events), f"<dop853 {name}>", "exec"), namespace)
    return namespace["_bind"]


def bind(field, *values):
    """The function of a `Field` or `Events` source with its constants bound
    to values; `dop853` writes the same source into its loop."""
    fun = _compiled(field, "field")(*values)
    fun.field = field, values
    return fun


def _evaluate(piece, t):
    t_old, h, y_old, F = piece
    x = (t - t_old) / h
    xm = 1.0 - x
    return [(((((((f6 * x + f5) * xm + f4) * x + f3) * xm + f2) * x + f1) * xm
              + f0) * x + y0)
            for y0, (f0, f1, f2, f3, f4, f5, f6) in zip(y_old, F)]


class Trajectory:
    """Accepted-step nodes of one solve and its dense output.

    ``t`` and the n columns of ``y`` are the nodes, each an ``array('d')``;
    the last node is the event point when ``event`` (the index of the
    terminal event that fired) is not None.  ``nfev`` counts right-hand-side
    calls so far, including those of every interpolant built, ``n_rejected``
    the rejected step attempts.  Calling the trajectory at ``t`` returns the
    interpolated state as a list; at a node the step ending there is used.
    """

    __slots__ = ("t", "y", "nfev", "n_rejected", "event", "_pieces", "_fun", "_events",
                 "_atol", "_rtol")

    def __init__(self, t, y, nfev, n_rejected, event, pieces, fun, events, atol, rtol):
        self.t, self.y, self.nfev, self.n_rejected, self.event = t, y, nfev, n_rejected, event
        self._pieces, self._fun, self._events = pieces, fun, events
        self._atol, self._rtol = atol, rtol

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1

    def _step(self, i):
        """Step i run again, clamped to its end node: ``(t, h, y, y_new, K)``
        of one attempt, accepted as before (g may be anything: the loop
        returns at t_end whatever fires).  An event's step ends at its root."""
        fun, t_old, t_new = self._fun, self.t[i], self.t[i + 1]
        y = [column[i] for column in self.y]
        t, h, _, y, y_new, _, _, K = _bound_loop(fun, self._events, len(y))(
            t_old, y, fun(t_old, y), [0.0] * len(self._events[0].directions), math.inf,
            t_new, 1.0 if t_new > t_old else -1.0, self._atol, self._rtol, None, 1)
        return t, h, y, y_new, K

    def _piece(self, i):
        piece = self._pieces.get(i)
        if piece is None:
            interpolant = _compiled(_generic(len(self.y)), "interpolant")(self._fun)
            piece = self._pieces[i] = interpolant(*self._step(i))
            self.nfev += 1 + _N_STAGES + 3
        return piece

    def __call__(self, t: float) -> list:
        t, nodes = float(t), self.t
        i = (bisect_left(nodes, t) if nodes[-1] >= nodes[0]
             else bisect_left(nodes, -t, key=operator.neg))
        return _evaluate(self._piece(min(max(i - 1, 0), len(nodes) - 2)), t)


def _bound_loop(fun, events, n):
    """The step loop of ``fun`` on n states and of ``events``, the ``field``
    of bound events, with both's consts bound: ValueError if they differ."""
    field, values = getattr(fun, "field", None) or (_generic(n), (fun,))
    source, event_values = events
    consts = dict(zip(field.consts, values))
    for name, value in zip(source.consts, event_values):
        if consts.setdefault(name, value) is not value and consts[name] != value:
            raise ValueError(f"the field and the events bind {name} to different values")
    return _compiled(field, "loop", source)(*consts.values())


def dop853(fun, t0: float, y0, t_end: float, rtol: float, atol: float,
           events) -> Trajectory:
    """Integrate y' = fun(t, y) from t0 towards t_end.

    ``fun`` takes a float and a list of floats and returns a sequence of
    floats; ``atol`` is one float for every component.  ``events`` is the
    function `bind` makes of an `Events` source; every event is terminal.
    The accepted steps are taken by one generated loop per field and
    events, with the events' body written into it, and the field's too
    when ``fun`` is made by `bind`; any other ``fun`` is called once per
    stage.  Raises EvaluationError when the step size falls below ten
    spacings of floating-point numbers at t, or when the solve would make
    more than ``MAX_ATTEMPTS`` step attempts.
    """
    y = [float(v) for v in y0]
    n = len(y)
    if any(d not in (1, -1) for d in events.field[0].directions):
        raise ValueError("event directions must be +1 or -1")
    loop = _bound_loop(fun, events.field, n)
    direction = 1.0 if t_end > t0 else -1.0
    t = float(t0)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end, direction, rtol, atol)
    buf = array("d", [t, *y])
    t, h, t_new, y, y_new, hits, attempts, K = loop(
        t, y, f, events(t, y), h_abs, t_end, direction, atol, rtol, buf, MAX_ATTEMPTS)
    step = len(buf) // (n + 1) - 1          # accepted steps before the last
    nfev = 2 + _N_STAGES * attempts
    pieces, event = {}, None
    if hits:
        piece = pieces[step] = _compiled(_generic(n), "interpolant")(fun)(t, h, y, y_new, K)
        nfev += 3
        roots = [brentq(lambda s, i=i: events(s, _evaluate(piece, s))[i],
                        t, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL) for i in hits]
        first = min(range(len(hits)), key=lambda k: direction * roots[k])
        event = hits[first]
        t_new = roots[first]
        y_new = _evaluate(piece, t_new)
    buf.extend([t_new, *y_new])
    return Trajectory(buf[::n + 1], [buf[j::n + 1] for j in range(1, n + 1)], nfev,
                      attempts - step - 1, event, pieces, fun, events.field, atol, rtol)
