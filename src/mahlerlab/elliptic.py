"""Complete elliptic integrals via Carlson symmetric forms.

Modulus convention: the argument z of K, E, Pi is the *modulus*,
    K(z) = int_0^1 dx / sqrt((1-x^2)(1-z^2 x^2)),
not the parameter m = z^2 (scipy/mpmath take m).  Pi takes the
characteristic n with the sign convention
    Pi(n, z) = int_0^1 dx / ((1 - n x^2) sqrt((1-x^2)(1-z^2 x^2))).

The Carlson forms R_F, R_C, R_D, R_J are evaluated by the duplication
algorithm (Carlson 1994), which converges at AGM rate and is uniformly
accurate up to the z -> 1 divergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError
from .quadrature import _each

_EPS = 2.220446049250313e-16
_HALF_PI = math.pi / 2.0
#: largest argument R_F, R_D and R_J take as given: their stopping bounds,
#: R_D's A^(3/2) and R_J's delta stay finite below these powers of 2
_RF_BIG, _RD_BIG, _RJ_BIG = 2.0 ** 996, 2.0 ** 664, 2.0 ** 332
#: smallest positive argument R_J takes as given: below it the square of its
#: D = (sp + sx)(sp + sy)(sp + sz) can underflow
_RJ_TINY = 2.0 ** -332
#: p above this multiple of x, y and z: there R_J = 3 R_F(x, y, z)/p to
#: within sqrt(max(x, y, z)/p), while the duplication's D^2 underflows once
#: the ratio passes ~1e200 even after scaling
_RJ_SPREAD = 2.0 ** 600


def _check_finite(kind: str, *args: float) -> None:
    if not all(map(math.isfinite, args)):
        raise DomainError(f"{kind}: arguments must be finite, got {args}")


def _check_nonneg(kind: str, *args: float) -> None:
    _check_finite(kind, *args)
    if min(args) < 0.0:
        raise DomainError(f"{kind}: arguments must be nonnegative, got {args}")
    if args.count(0.0) > 1:
        raise DivergenceError(f"{kind}: diverges with two or more zero arguments")


def _scale_exponent(hi, big: float):
    """The e for which 4**-e hi lies in [big/4, big), for floats or arrays."""
    return (np.frexp(hi)[1] - math.frexp(big)[1] + 2) // 2


def _scaled(fn, halves: int, big: float, args: tuple[float, ...]) -> float:
    """fn(*args) for fn homogeneous of degree -halves/2, from fn at args
    scaled by the power of 4 that brings their largest into [big/4, big):
    powers of 2 scale exactly."""
    e = int(_scale_exponent(max(args), big))
    return math.ldexp(fn(*(math.ldexp(v, -2 * e) for v in args)), -halves * e)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    x, y, z >= 0 with at most one of them zero.  Relative error <= 1e-14.
    """
    _check_nonneg("carlson_rf", x, y, z)
    if max(x, y, z) > _RF_BIG:
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


def _rf_series(x, y, z, A):
    """R_F's closing series after the duplication steps, for floats and
    arrays alike."""
    # A0 terms propagated through the scaling: X+Y+Z = 0 by construction
    X = ((x + y + z) / 3.0 - x) / A
    Y = ((x + y + z) / 3.0 - y) / A
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (
        1.0
        - E2 / 10.0
        + E3 / 14.0
        + E2 * E2 / 24.0
        - 3.0 * E2 * E3 / 44.0
        - 5.0 * _cube(E2) / 208.0
        + 3.0 * E3 * E3 / 104.0
        + E2 * E2 * E3 / 16.0
    )


def carlson_rc(x: float, y: float) -> float:
    """Degenerate form R_C(x, y) = R_F(x, y, y), for finite x >= 0, y > 0."""
    # comparisons rather than _check_finite: R_J calls this in its loop
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
        # the log's argument nears 1 as y nears x; x - y is exact here
        return math.atanh(s / math.sqrt(x)) / s
    return math.log((math.sqrt(x) + s) / math.sqrt(y)) / s


def _cube(v):
    """v ** 3 by Python's pow, element by element for arrays: numpy's power
    rounds differently on some inputs."""
    if isinstance(v, np.ndarray):
        return np.array([e ** 3 for e in v.tolist()])
    return v ** 3


def _rd_rj_series(X, Y, Z, P):
    """The R_D/R_J closing series, for floats and arrays alike."""
    P3 = _cube(P)
    E2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * P3
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * P3) * P
    E5 = X * Y * Z * P * P
    return (
        1.0
        - 3.0 * E2 / 14.0
        + E3 / 6.0
        + 9.0 * E2 * E2 / 88.0
        - 3.0 * E4 / 22.0
        - 9.0 * E2 * E3 / 52.0
        + 3.0 * E5 / 26.0
        - _cube(E2) / 16.0
        + 3.0 * E3 * E3 / 40.0
        + 3.0 * E2 * E4 / 20.0
        + 45.0 * E2 * E2 * E3 / 272.0
        - 9.0 * (E3 * E4 + E2 * E5) / 68.0
    )


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson R_D(x, y, z) = R_J(x, y, z, z); z > 0, at most one of x, y zero."""
    if z <= 0.0:
        raise DomainError(f"carlson_rd: requires z > 0, got {z}")
    _check_nonneg("carlson_rd", x, y, z)
    if max(x, y, z) > _RD_BIG:
        return _scaled(carlson_rd, 3, _RD_BIG, (x, y, z))
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
    return 3.0 * acc + s / (f * A * math.sqrt(A))


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson R_J(x, y, z, p) = (3/2) int_0^inf dt / ((t+p) sqrt((t+x)(t+y)(t+z))).

    Requires x, y, z >= 0 with at most one zero, and p > 0 (the principal-value
    case p < 0 is rejected).  Relative error <= 1e-13.
    """
    _check_nonneg("carlson_rj", x, y, z)
    if not 0.0 < p < math.inf:
        raise DomainError(f"carlson_rj: requires finite p > 0, got {p}")
    value, e = _rj_scaled(x, y, z, p)
    return math.ldexp(value, -3 * e)


def _rj_scaled(x: float, y: float, z: float, p: float) -> tuple[float, int]:
    """(v, e) with R_J(x, y, z, p) = 2**(-3e) v, for carlson_rj's domain:
    v is R_J at the arguments times 4**-e, where e = 0 unless one of them
    lies outside [_RJ_TINY, _RJ_BIG] (a zero x, y or z aside), and v is
    3 R_F(x, y, z)/p with e = 0 where p exceeds _RJ_SPREAD times x, y and z.
    Callers that scale the value further keep the 2**(-3e) to the end, since
    R_J itself can underflow."""
    args = (x, y, z, p)
    if p > _RJ_SPREAD * max(x, y, z):
        return 3.0 * carlson_rf(x, y, z) / p, 0
    if max(args) <= _RJ_BIG and min(v for v in args if v) >= _RJ_TINY:
        return _rj(*args), 0
    e = int(_scale_exponent(max(args), _RJ_BIG))
    return _rj(*(math.ldexp(v, -2 * e) for v in args)), e


def _rj(x: float, y: float, z: float, p: float) -> float:
    """R_J by duplication."""
    A = (x + y + z + 2.0 * p) / 5.0
    A0 = A
    x0, y0, z0 = x, y, z
    delta = (p - x) * (p - y) * (p - z)
    Q = (0.2 * _EPS) ** (-0.125) * max(
        abs(A - x), abs(A - y), abs(A - z), abs(A - p)
    )
    f = 1.0
    acc = 0.0
    while Q >= f * abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        D = (sp + sx) * (sp + sy) * (sp + sz)
        E = delta / (D * D)
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


def _rc1_array(y: np.ndarray) -> np.ndarray:
    """carlson_rc(1.0, y) per element, bitwise; NaN where it raises."""
    out = np.where(y == 1.0, 1.0, math.nan)
    up = (1.0 < y) & (y < math.inf)
    s = np.sqrt(y[up] - 1.0)
    out[up] = _each(math.atan, s) / s
    down = (0.0 < y) & (y <= 0.5)
    s = np.sqrt(1.0 - y[down])
    out[down] = _each(math.log, (1.0 + s) / np.sqrt(y[down])) / s
    near = (0.5 < y) & (y < 1.0)
    s = np.sqrt(1.0 - y[near])
    out[near] = _each(math.atanh, s) / s
    return out


def _rf_array(x, y, z) -> np.ndarray:
    """carlson_rf per element, bitwise, for arguments in its domain or NaN.

    The duplication steps run in lockstep and each element stops at its own
    step count.  Elements whose stopping bound is not finite come back NaN.
    """
    A = (x + y + z) / 3.0
    Q = (3.0 * _EPS) ** (-0.125) * np.maximum(np.maximum(abs(A - x), abs(A - y)), abs(A - z))
    live = np.isfinite(Q)
    f = np.ones_like(A)
    while (active := live & (Q >= f * abs(A))).any():
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, A = (np.where(active, 0.25 * (v + lam), v) for v in (x, y, z, A))
        f = np.where(active, f * 4.0, f)
    return np.where(live, _rf_series(x, y, z, A) / np.sqrt(A), math.nan)


def _rj_array(x, y, z, p) -> tuple[np.ndarray, np.ndarray]:
    """`_rj_scaled` per element, bitwise, as the pair of arrays (v, e), for
    arguments in carlson_rj's domain or NaN; the duplication steps run in
    lockstep like `_rf_array`'s.  Elements where its R_C step would raise or
    its stopping bound is not finite come back NaN."""
    x, y, z, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z, p)))
    far = p > _RJ_SPREAD * np.fmax(np.fmax(x, y), z)
    hi = np.fmax(np.fmax(x, y), np.fmax(z, p))
    lo = np.fmin.reduce([np.where(v > 0.0, v, np.inf) for v in (x, y, z, p)])
    e = np.where(((hi > _RJ_BIG) | (lo < _RJ_TINY)) & ~far, _scale_exponent(hi, _RJ_BIG), 0)
    # the far elements take 3 R_F/p; 1.0 keeps them out of the duplication
    v = _rj_duplication_array(*(np.where(far, 1.0, np.ldexp(a, -2 * e)) for a in (x, y, z, p)))
    if far.any():
        v[far] = 3.0 * _rf_array(x[far], y[far], z[far]) / p[far]
    return v, e


def _rj_duplication_array(x, y, z, p) -> np.ndarray:
    A = (x + y + z + 2.0 * p) / 5.0
    A0 = A
    x0, y0, z0 = x, y, z
    delta = (p - x) * (p - y) * (p - z)
    Q = (0.2 * _EPS) ** (-0.125) * np.maximum(
        np.maximum(abs(A - x), abs(A - y)), np.maximum(abs(A - z), abs(A - p))
    )
    live = np.isfinite(Q)
    f = np.ones_like(A)
    acc = np.zeros_like(A)
    while (active := live & (Q >= f * abs(A))).any():
        sx, sy, sz, sp = np.sqrt(x), np.sqrt(y), np.sqrt(z), np.sqrt(p)
        D = (sp + sx) * (sp + sy) * (sp + sz)
        E = delta / (D * D)
        # carlson_rj's rewrite of R_C(1, 1+E) near E = -1
        y_rc = np.where(
            (-1.5 < E) & (E < -0.5), 2.0 * sp * (p + sx * (sy + sz) + sy * sz) / D, 1.0 + E
        )
        acc[active] += (1.0 / (f * D))[active] * _rc1_array(y_rc[active])
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, p, A = (np.where(active, 0.25 * (v + lam), v) for v in (x, y, z, p, A))
        delta = np.where(active, delta / 64.0, delta)
        f = np.where(active, f * 4.0, f)
    X = (A0 - x0) / (f * A)
    Y = (A0 - y0) / (f * A)
    Z = (A0 - z0) / (f * A)
    P = -0.5 * (X + Y + Z)
    s = _rd_rj_series(X, Y, Z, P)
    return np.where(live, s / (f * A * np.sqrt(A)) + 6.0 * acc, math.nan)


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


def ell_e(z: float) -> float:
    """E(z) with modulus z in [0, 1]."""
    _check_finite("ell_e", z)
    if z < 0.0:
        raise DomainError(f"ell_e: modulus must be >= 0, got {z}")
    if z > 1.0:
        raise DomainError(f"ell_e: modulus must be <= 1, got {z}")
    if z == 1.0:
        return 1.0
    zc = (1.0 - z) * (1.0 + z)
    return carlson_rf(0.0, zc, 1.0) - (z * z / 3.0) * carlson_rd(0.0, zc, 1.0)


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


def _pi_through_n(n, m, zc, rf, rj):
    """Pi(n) at parameter m (z^2, or -m^2 at imaginary modulus) and zc =
    1 - m by the characteristic N = (m - n)/(1 - n), whose 1 - N is
    zc/(1 - n), from rf = R_F(0, zc, 1) and rj = R_J(0, zc, 1, zc/(1 - n)).
    Floats or arrays.

    Pi takes this route where n < -1 and m - n >= zc, which at real modulus
    is wherever n < -1: there rf + (n/3) R_J(0, zc, 1, 1 - n) cancels,
    losing about eps sqrt(-n/zc).  The callers take R_J at its arguments
    times the 4**-e that brings max(zc, 1) into R_J's window, dividing by
    1 - n only then: zc/(1 - n) itself can be subnormal."""
    N = (m - n) / (1.0 - n)
    # one division by m - n, last: zc/(m - n) alone can be subnormal
    return ((-n / (1.0 - n)) * zc * (rf + (N / 3.0) * rj) + m * rf) / (m - n)


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


def ell_pi_k_array(n: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ell_pi_k per element, bitwise, on lockstep Carlson kernels; NaN where
    ell_pi_k raises."""
    with np.errstate(all="ignore"):
        ok = np.isfinite(n) & (n < 1.0) & (0.0 <= z) & (z < 1.0)
        # NaN keeps the elements outside the domain out of the duplication
        zc = np.where(ok, (1.0 - z) * (1.0 + z), math.nan)
        rf = _rf_array(0.0, zc, 1.0)
        m = z * z
        far = (n < -1.0) & (m - n >= zc)
        # _pi_k's scaling of the far elements; e = 0 leaves the others as given
        e = np.where(far, _scale_exponent(np.fmax(zc, 1.0), _RJ_BIG), 0)
        s = np.ldexp(1.0, -2 * e)
        v, e_rj = _rj_array(0.0, zc * s, s, np.where(far, zc * s / (1.0 - n), 1.0 - n))
        e += e_rj
        pi = np.where(far, _pi_through_n(n, m, zc, rf, np.ldexp(v, -3 * e)),
                      rf + np.ldexp((n / 3.0) * v, -3 * e))
        pi = np.where(n == 0.0, rf, pi)
    return pi, rf


def ell_k_imag(m: float) -> float:
    """K at purely imaginary modulus: int_0^1 dx / sqrt((1-x^2)(1+m^2 x^2))."""
    _check_finite("ell_k_imag", m)
    if m < 0.0:
        raise DomainError(f"ell_k_imag: requires m >= 0, got {m}")
    return carlson_rf(0.0, 1.0 + m * m, 1.0)


def ell_pi_imag(n: float, m: float) -> float:
    """Pi at purely imaginary modulus:
    int_0^1 dx / ((1 - n x^2) sqrt((1-x^2)(1+m^2 x^2)))."""
    _check_finite("ell_pi_imag", n, m)
    if n >= 1.0:
        raise DomainError(f"ell_pi_imag: characteristic n must be < 1, got {n}")
    if m < 0.0:
        raise DomainError(f"ell_pi_imag: requires m >= 0, got {m}")
    return _pi_k(n, -(m * m), 1.0 + m * m)[0]
