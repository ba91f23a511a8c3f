"""The scalar tanh-sinh and Carlson paths, kept as the references for the
lockstep kernels.

`tanh_sinh` (its list-of-tuples node cache, pair loop and per-panel stopping
rule `_verdict`), `_log_abs_root` and the per-arc `half_measures` are the
one-call-per-node implementations that `quadrature.tanh_sinh_panels` and
`mahler.half_measures_lockstep` replaced.  `carlson_rf`, `carlson_rc`,
`carlson_rj` (with `_rj_scaled` and `_rj`), `_pi_k` and the scalar entry
points over them (`ell_k`, `ell_pi`, `ell_pi_k`, `ell_k_imag`,
`ell_pi_imag`) are the duplication loops, one call per argument tuple, that
the lockstep kernels of `elliptic` replaced.  `carlson_rd` is R_D's own
duplication loop, which R_J's case p = z replaced; it agrees with that
case to a few ulps, not bit for bit.  `r_value` and `f_value` are
the per-point steps of the identity coefficients r and f, from scalar jets,
that the array pass of `identities` replaced.  The tests assert that the
lockstep kernels and the scalar entry points over them give their values
and errors bit for bit.  `bisection_break_points` is the 2D oracle's outer
break-point search as a grid pass and 40 bisection steps, one eigenvalue
call each, which the batched passes of `mahler._outer_break_points`
replaced; the tests hold those passes to its breaks within 1e-12.
`dhdk_integral_form` is d/dk of m+ - m- by direct quadrature, the route
the closed form `mahler.dhdk` is checked against.  `exp_integral_e1` is
E1 with each continued-fraction numerator -k^2 formed as an integer and an
`abs` stopping test, which the loop of `lseries` over precomputed floats
must match bit for bit, and `_char_sum` is the character sum with one
power-mod Legendre symbol per x, which the residue list of `curves`
replaced.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from mahlerlab import identities as I
from mahlerlab import mahler as M
from mahlerlab.curves import legendre_symbol
from mahlerlab.elliptic import (
    _EPS,
    _NORMAL,
    _RD_BIG,
    _RF_BIG,
    _RF_TINY,
    _RJ_BIG,
    _RJ_SPREAD,
    _RJ_TINY,
    _check_finite,
    _check_nonneg,
    _checked,
    _pi_through_n,
    _rd_rj_series,
    _rf_series,
    _scale_exponent,
)
from mahlerlab.errors import AccuracyError, DivergenceError, DomainError, SingularPointError
from mahlerlab.lseries import _EULER_GAMMA
from mahlerlab.quadrature import _HALF_PI, _MAX_LEVEL, _T_MAX, quadrature_oracle

# _LEVEL_NODES[0] holds the nodes at t = k (k >= 1); _LEVEL_NODES[L] for L >= 1
# holds the new nodes at odd multiples of h = 2**-L.  Entries are
# (offset, weight) with offset = 1 - |u|.
_LEVEL_NODES: list[list[tuple[float, float]]] = []


def _make_nodes(ts: list[float]) -> list[tuple[float, float]]:
    nodes = []
    for t in ts:
        v = _HALF_PI * math.sinh(t)
        if v > 350.0:
            break  # offset < 1e-304; weights are double-exponentially dead
        offset = 2.0 / (math.exp(2.0 * v) + 1.0)
        if offset == 0.0:
            break
        w = _HALF_PI * math.cosh(t) / math.cosh(v) ** 2
        nodes.append((offset, w))
    return nodes


def _nodes_for_level(level: int) -> list[tuple[float, float]]:
    while len(_LEVEL_NODES) <= level:
        lv = len(_LEVEL_NODES)
        if lv == 0:
            ts = [float(k) for k in range(1, int(_T_MAX) + 1)]
        else:
            h = 2.0 ** (-lv)
            ts = []
            t = h
            while t <= _T_MAX:
                ts.append(t)
                t += 2.0 * h
        _LEVEL_NODES.append(_make_nodes(ts))
    return _LEVEL_NODES[level]


def _unconverged(tol: float, max_level: int, prev: float, est: float) -> AccuracyError:
    """A refinement missed tol by level max_level; prev is the level before."""
    return AccuracyError(
        f"tanh-sinh did not reach tol={tol:g} after {max_level} levels "
        f"(last change {est:g})",
        best_estimate=prev,
        error_estimate=est,
    )


def _verdict(
    terms: Sequence[float], half: float, level: int, prev: float, tol: float
) -> tuple[float, float, bool]:
    """The stopping rule of `tanh_sinh_panels`, one panel at a time.

    terms are the weighted node values through `level` and prev the value at
    the level before.  Returns (value, error_estimate, met), met where the
    change is within tol or within the rounding noise of the sum; the noise
    is summed only when the change misses tol.
    """
    h = 2.0 ** (-level)
    value = half * h * math.fsum(terms)
    est = abs(value - prev)
    met = est <= tol or est <= 30.0 * 2.2e-16 * (
        abs(value) + half * math.fsum(map(abs, terms)) * h
    )
    return value, est, met


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_level: int = _MAX_LEVEL,
) -> tuple[float, float, int]:
    """Integrate f over [a, b]; return (value, error_estimate, level).

    Raises AccuracyError (with the best estimate attached) if successive
    refinements do not agree to tol within max_level halvings (at least one).
    """
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        value, est, lv = tanh_sinh(f, b, a, tol, max_level)
        return -value, est, lv

    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)

    def pair_term(offset: float, w: float) -> float:
        xl = a + half * offset
        xr = b - half * offset
        fl = f(xl) if xl > a else 0.0
        fr = f(xr) if xr < b else 0.0
        if not math.isfinite(fl):
            fl = 0.0
        if not math.isfinite(fr):
            fr = 0.0
        return w * (fl + fr)

    f0 = f(mid)
    if not math.isfinite(f0):
        f0 = 0.0
    terms = [_HALF_PI * f0]
    terms.extend(pair_term(off, w) for off, w in _nodes_for_level(0))
    prev = half * math.fsum(terms)
    for level in itertools.count(1):
        terms.extend(pair_term(off, w) for off, w in _nodes_for_level(level))
        value, est, met = _verdict(terms, half, level, prev, tol)
        if met:
            return value, est, level
        if level >= max_level:
            raise _unconverged(tol, max_level, prev, est)
        prev = value


def _log_abs_root(fac: M.QuadraticFactorization, s: float) -> Callable[[float], float]:
    """log|y| of the root that leaves the unit disc where b = s B(theta) is
    large (b > 2 for sigma = +1, b > 0 for sigma = -1): y- for s = +1, y+ for
    s = -1.  In terms of h = b/2 it is acosh(h)
    for sigma = +1 (0 where h <= 1, which a node next to the crossing can
    round onto) and asinh(h) for sigma = -1; neither overflows.  Each is one
    flat closure, since this runs once per quadrature node.
    """
    hb, hg = 0.5 * s * fac.beta, 0.5 * s * fac.gamma
    if fac.sigma > 0:
        def f(th: float) -> float:
            h = hb * math.cos(th) + hg
            return math.acosh(h) if h > 1.0 else 0.0
    else:
        def f(th: float) -> float:
            return math.asinh(hb * math.cos(th) + hg)
    return f


def half_measures(fac: M.QuadraticFactorization, tol: float = 1e-8) -> M.HalfMeasures:
    """Half-measures (m+, m-) of y^2 + B(theta) y + sigma by Jensen's formula,
    one `tanh_sinh` per arc of `_jensen_arcs`; absolute error <= tol.  est
    is the arcs' `tanh_sinh` estimates summed, over pi."""
    m, est = [0.0, 0.0], 0.0
    for slot, s, lo, hi, arc_tol in M._jensen_arcs(fac, tol):
        value, arc_est, _ = tanh_sinh(_log_abs_root(fac, s), lo, hi, arc_tol)
        m[slot] = value / math.pi
        est += arc_est
    return M.HalfMeasures(m_plus=m[1], m_minus=m[0], est=est / math.pi)


def dhdk_integral_form(k: float, tol: float = 1e-10) -> float:
    """d/dk of m+ - m- by quadrature of its cos(theta)-substituted t-integral."""
    if k <= 4.0:
        raise DomainError(f"dhdk_integral_form: requires k > 4, got {k}")
    sk4 = math.sqrt(k + 4.0)
    c0 = (k * k + 4.0 * k - 16.0) / (4.0 * (k + 4.0))

    def g(th: float) -> float:
        t = math.cos(th)
        return (t - (k - 8.0) * sk4 / 16.0) / math.sqrt(t * t + k * t / sk4 + c0)

    val = quadrature_oracle(g, 0.0, math.pi, 0.1 * min(tol, 1e-9))
    return -4.0 / (k * k - 16.0) * val / math.pi


# ----------------------------------------------------------------------------
# the scalar Carlson duplication loops, with the kernels' limits: DomainError
# where a kernel comes back NaN on arguments its entry point accepts


def _scaled(fn, halves: int, big: float, args: tuple[float, ...]) -> float:
    """fn(*args) for fn homogeneous of degree -halves/2, from fn at args
    scaled by the power of 4 that brings their largest into [big/4, big):
    powers of 2 scale exactly."""
    e = int(_scale_exponent(max(args), big))
    return math.ldexp(fn(*(math.ldexp(v, -2 * e) for v in args)), -halves * e)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z))."""
    _check_nonneg("carlson_rf", x, y, z)
    if max(x, y, z) > _RF_BIG or max(x, y, z) < _RF_TINY:
        e = int(_scale_exponent(max(x, y, z), _RF_BIG))
        if e > 0 and math.ldexp(min(v for v in (x, y, z) if v), -2 * e) < _NORMAL:
            return _checked("carlson_rf", (x, y, z), math.nan)
        return _scaled(carlson_rf, 1, _RF_BIG, (x, y, z))
    A = (x + y + z) / 3.0
    Q = (3.0 * _EPS) ** (-0.125) * max(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    while Q >= f * abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 4.0
    return _rf_series(x, y, z, A) / math.sqrt(A)


def carlson_rc(x: float, y: float) -> float:
    """Degenerate form R_C(x, y) = R_F(x, y, y), for finite x >= 0, y > 0."""
    if not (0.0 <= x < math.inf and 0.0 < y < math.inf):
        raise DomainError(f"carlson_rc: requires finite x >= 0, y > 0, got ({x}, {y})")
    if x == 0.0:
        return _HALF_PI / math.sqrt(y)
    if x == y:
        return 1.0 / math.sqrt(x)
    if y > x:
        s = math.sqrt(y - x)
        return math.atan(s / math.sqrt(x)) / s
    s = math.sqrt(x - y)
    if y > 0.5 * x:
        return math.atanh(s / math.sqrt(x)) / s
    q = (math.sqrt(x) + s) / math.sqrt(y)
    if q == math.inf:
        return (math.log(math.sqrt(x) + s) - math.log(math.sqrt(y))) / s
    return math.log(q) / s


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson R_D(x, y, z) = R_J(x, y, z, z) by its own duplication, with
    the arguments scaled into [2^-332, 2^664]."""
    if z <= 0.0:
        raise DomainError(f"carlson_rd: requires z > 0, got {z}")
    _check_nonneg("carlson_rd", x, y, z)
    args, e = (x, y, z), 0
    if max(args) > _RD_BIG or min(v for v in args if v) < _RJ_TINY:
        e = int(_scale_exponent(max(args), _RD_BIG))
        x, y, z = (math.ldexp(v, -2 * e) for v in args)
        if e > 0 and math.ldexp(min(v for v in args if v), -2 * e) < _NORMAL:
            return _checked("carlson_rd", args, math.nan)
    A = (x + y + 3.0 * z) / 5.0
    Q = (0.25 * _EPS) ** (-0.125) * max(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    acc = 0.0
    A0 = A
    x0, y0 = x, y
    while Q >= f * abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        acc += 1.0 / (f * sz * (z + lam))
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 4.0
    X = (A0 - x0) / (f * A)
    Y = (A0 - y0) / (f * A)
    Z = -(X + Y) / 3.0
    # R_D series is the R_J series with P = Z
    s = _rd_rj_series(X, Y, Z, Z)
    return _checked("carlson_rd", args, 3.0 * acc + s / (f * A * math.sqrt(A)), -3 * e)


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson R_J(x, y, z, p) = (3/2) int_0^inf dt / ((t+p) sqrt((t+x)(t+y)(t+z)))."""
    _check_nonneg("carlson_rj", x, y, z)
    if not 0.0 < p < math.inf:
        raise DomainError(f"carlson_rj: requires finite p > 0, got {p}")
    try:
        value, e = _rj_scaled(x, y, z, p)
    except DomainError:
        value, e = math.nan, 0
    return _checked("carlson_rj", (x, y, z, p), value, -3 * e)


def _rj_scaled(x: float, y: float, z: float, p: float) -> tuple[float, int]:
    """(v, e) with R_J(x, y, z, p) = 2**(-3e) v: v is R_J at the arguments
    times 4**-e, where e = 0 unless one of them lies outside [_RJ_TINY,
    _RJ_BIG] (a zero x, y or z aside), and v is 3 R_F(x, y, z)/p with e = 0
    where p exceeds _RJ_SPREAD times x, y and z.  Where p = z, _RD_BIG takes
    _RJ_BIG's place.  DomainError where a nonzero argument is scaled below
    the normal doubles."""
    args, big = (x, y, z, p), _RD_BIG if p == z else _RJ_BIG
    if p > _RJ_SPREAD * max(x, y, z):
        return 3.0 * carlson_rf(x, y, z) / p, 0
    if max(args) <= big and min(v for v in args if v) >= _RJ_TINY:
        return _rj(*args), 0
    e = int(_scale_exponent(max(args), big))
    if e > 0 and math.ldexp(min(v for v in args if v), -2 * e) < _NORMAL:
        raise DomainError("spread")
    return _rj(*(math.ldexp(v, -2 * e) for v in args)), e


def _rj(x: float, y: float, z: float, p: float) -> float:
    """R_J by duplication; DomainError where a step's D^2 falls below the
    normal doubles, except where p = z: there delta and each step's E are 0."""
    rd = p == z
    A = (x + y + z + 2.0 * p) / 5.0
    A0 = A
    x0, y0, z0 = x, y, z
    delta = (p - x) * (p - y) * (p - z)
    if abs((p - x) * (p - y)) < _NORMAL:
        delta = (p - x) * ((p - y) * (p - z))
    Q = (0.2 * _EPS) ** (-0.125) * max(
        abs(A - x), abs(A - y), abs(A - z), abs(A - p)
    )
    f = 1.0
    acc = 0.0
    while Q >= f * abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        D = (sp + sx) * (sp + sy) * (sp + sz)
        if not rd and D * D < _NORMAL:
            raise DomainError("spread")
        E = 0.0 if rd else delta / (D * D)
        if -1.5 < E < -0.5:
            # rewrite R_C(1, 1+E) to dodge cancellation near E = -1
            acc += (1.0 / (f * D)) * carlson_rc(
                1.0, 2.0 * sp * (p + sx * (sy + sz) + sy * sz) / D
            )
        else:
            acc += (1.0 / (f * D)) * carlson_rc(1.0, 1.0 + E)
        lam = sx * sy + sx * sz + sy * sz
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        A = 0.25 * (A + lam)
        delta /= 64.0
        f *= 4.0
    X = (A0 - x0) / (f * A)
    Y = (A0 - y0) / (f * A)
    Z = (A0 - z0) / (f * A)
    P = -0.5 * (X + Y + Z)
    s = _rd_rj_series(X, Y, Z, P)
    return s / (f * A * math.sqrt(A)) + 6.0 * acc


def _pi_k(n: float, m: float, zc: float) -> tuple[float, float]:
    """(Pi(n), R_F(0, zc, 1)) at parameter m and zc = 1 - m, from one R_F."""
    rf = carlson_rf(0.0, zc, 1.0)
    if n == 0.0:
        return rf, rf
    far = n < -1.0 and m - n >= zc
    e = int(_scale_exponent(max(zc, 1.0), _RJ_BIG)) if far else 0
    s = math.ldexp(1.0, -2 * e)
    v, e_rj = _rj_scaled(0.0, zc * s, s, zc * s / (1.0 - n) if far else 1.0 - n)
    e += e_rj
    if far:
        return _pi_through_n(n, m, zc, rf, math.ldexp(v, -3 * e)), rf
    return rf + math.ldexp((n / 3.0) * v, -3 * e), rf


def ell_k(z: float) -> float:
    """K(z) with modulus z in [0, 1)."""
    _check_finite("ell_k", z)
    if z < 0.0:
        raise DomainError(
            f"ell_k: modulus must be >= 0 (integrand depends on z^2; pass |z|), got {z}"
        )
    if z >= 1.0:
        raise DivergenceError(f"ell_k: K diverges as z -> 1, got z = {z}")
    return carlson_rf(0.0, (1.0 - z) * (1.0 + z), 1.0)


def ell_pi(n: float, z: float) -> float:
    """Pi(n, z) with characteristic n < 1 and modulus z in [0, 1)."""
    return ell_pi_k(n, z)[0]


def ell_pi_k(n: float, z: float) -> tuple[float, float]:
    """(Pi(n, z), K(z)) from one R_F, with ell_pi's domain and errors."""
    _check_finite("ell_pi", n, z)
    if n >= 1.0:
        raise DomainError(
            f"ell_pi: characteristic n must be < 1 (singular case rejected), got {n}"
        )
    if z < 0.0:
        raise DomainError(f"ell_pi: modulus must be >= 0, got {z}")
    if z >= 1.0:
        raise DivergenceError(f"ell_pi: diverges as z -> 1, got z = {z}")
    return _pi_k(n, z * z, (1.0 - z) * (1.0 + z))


def ell_k_imag(m: float) -> float:
    """K at purely imaginary modulus."""
    _check_finite("ell_k_imag", m)
    if m < 0.0:
        raise DomainError(f"ell_k_imag: requires m >= 0, got {m}")
    if 1.0 + m * m == math.inf:
        return (math.log(4.0) + math.log(m)) / m
    return carlson_rf(0.0, 1.0 + m * m, 1.0)


def ell_pi_imag(n: float, m: float) -> float:
    """Pi at purely imaginary modulus."""
    _check_finite("ell_pi_imag", n, m)
    if n >= 1.0:
        raise DomainError(f"ell_pi_imag: characteristic n must be < 1, got {n}")
    if m < 0.0:
        raise DomainError(f"ell_pi_imag: requires m >= 0, got {m}")
    try:
        return _pi_k(n, -(m * m), 1.0 + m * m)[0]
    except DomainError:
        raise DomainError(
            f"ell_pi_imag: m = {m} too large for double precision at n = {n}"
        ) from None


# ----------------------------------------------------------------------------
# the identity coefficients at one point, from its scalar p/q jets


def r_value(cand: I.IdentityCandidate, x: float, pj, qj) -> float:
    """r at x; SingularPointError where its denominator vanishes or is not
    finite."""
    num, den = I._r_num_den(pj.value, pj.d1, qj.value, qj.d1)
    if den == 0.0 or not math.isfinite(den):
        raise SingularPointError(f"{cand.name}: r denominator vanishes at x = {x}")
    return num / den


def f_value(cand: I.IdentityCandidate, x: float, pj, qj) -> float:
    """f at x; SingularPointError where its denominator vanishes or is not
    finite."""
    num, den = I._f_num_den(pj.value, pj.d1, qj.value, qj.d1)
    if den == 0.0 or not math.isfinite(den):
        raise SingularPointError(f"{cand.name}: f denominator vanishes at x = {x}")
    return num / den


# ----------------------------------------------------------------------------
# the 2D oracle's outer break-point search: a grid pass, then bisection

_BISECTIONS = 40


def bisection_break_points(coeffs_at: Callable, hx: float) -> list[float]:
    """The grid pass of `mahler._outer_break_points`, then _BISECTIONS
    bisection steps per break, each one eigenvalue call for all breaks that
    follows the roots from the bracket's left end to its midpoint and keeps
    the left half when a followed root changed side there."""
    t = np.linspace(0.0, hx, round(M._SEARCH_INTERVALS * hx) + 1)
    roots = M._y_roots_at(coeffs_at(t))
    moved = (M._side(M._follow(roots[:-1], roots[1:])) != M._side(roots[:-1])).any(axis=1)
    lo, hi, r_lo = t[:-1][moved], t[1:][moved], roots[:-1][moved]
    if not len(lo):
        return []
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        r_mid = M._follow(r_lo, M._y_roots_at(coeffs_at(mid)))
        left = (M._side(r_mid) != M._side(r_lo)).any(axis=1)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        r_lo = np.where(left[:, None], r_lo, r_mid)
    return (0.5 * (lo + hi)).tolist()


# ----------------------------------------------------------------------------
# L-series kernels: E1 and the character sum


def exp_integral_e1(x: float) -> float:
    """E1(x) = int_x^inf e^{-t}/t dt for x > 0, abs error <= 1e-15.

    Power series below x = 1, modified-Lentz continued fraction above.
    """
    if x <= 0.0:
        raise DomainError(f"exp_integral_e1: requires x > 0, got {x}")
    if x < 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 40):
            term *= -x / k
            delta = -term / k
            total += delta
            if abs(delta) < 1e-18 * max(1.0, abs(total)):
                break
        return total
    # E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, 120):
        a = -k * k
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def _char_sum(a2: int, a4: int, a6: int, p: int) -> int:
    """-sum_x (x^3 + a2 x^2 + a4 x + a6 | p): a_p at an odd prime of good
    reduction of the model."""
    a2, a4, a6 = a2 % p, a4 % p, a6 % p
    return -sum(legendre_symbol(((x + a2) * x + a4) * x + a6, p) for x in range(p))
