"""Complete elliptic integrals via Carlson symmetric forms.

Modulus convention: the argument z of K, E, Pi is the *modulus*,
    K(z) = int_0^1 dx / sqrt((1-x^2)(1-z^2 x^2)),
not the parameter m = z^2 (scipy/mpmath take m).  Pi takes the
characteristic n with the sign convention
    Pi(n, z) = int_0^1 dx / ((1 - n x^2) sqrt((1-x^2)(1-z^2 x^2))).

The Carlson forms R_F, R_C, R_D, R_J are evaluated by the duplication
algorithm (Carlson 1995), which converges at AGM rate and is uniformly
accurate up to the z -> 1 divergence.  R_F, R_C and R_J each have one
kernel, a lockstep numpy loop over arrays of arguments (`_rf_array`,
`_rc_array`, `_rj_array`), and Pi/K one core over them (`_pi_k_array`).
R_D is R_J's case p = z.  The scalar entry points check their arguments and
make a one-element call of these kernels; callers with many arguments use
`ell_k_array` and `ell_pi_k_array`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError
from .quadrature import _each

_EPS = 2.220446049250313e-16
#: the window R_F, R_D (R_J at p = z) and R_J take their arguments in as given:
#: above it their stopping bounds, R_D's A^(3/2) and R_J's delta overflow;
#: below it R_F's sums (of its largest argument), R_D's z^(3/2) and R_J's D^2 underflow
_RF_BIG, _RD_BIG, _RJ_BIG = 2.0 ** 996, 2.0 ** 664, 2.0 ** 332
_RF_TINY = _RJ_TINY = 2.0 ** -332
#: the smallest normal double: a duplication whose scaled arguments, or R_J's
#: D^2, fall below it has lost bits
_NORMAL = 2.0 ** -1022
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


def _scale_exponent(hi, big):
    """The e for which 4**-e hi lies in [big/4, big), for floats or arrays."""
    return (np.frexp(hi)[1] - np.frexp(big)[1] + 2) // 2


def _checked(kind: str, args: tuple[float, ...], value: float, e: int = 0) -> float:
    """value * 2**e, a Carlson form at args; a DomainError where the kernel
    came back NaN (see the Carlson limits in the README) or that overflows."""
    if math.isnan(value):
        raise DomainError(f"{kind}: arguments spread too far apart for double precision, "
                          f"got {args}")
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise DomainError(f"{kind}: the value overflows the doubles, got {args}") from None


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    x, y, z >= 0 with at most one of them zero.  Relative error <= 1e-14.
    """
    _check_nonneg("carlson_rf", x, y, z)
    return _checked("carlson_rf", (x, y, z), _at(_rf_array, x, y, z))


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
    if not (0.0 <= x < math.inf and 0.0 < y < math.inf):
        raise DomainError(f"carlson_rc: requires finite x >= 0, y > 0, got ({x}, {y})")
    return _at(_rc_array, x, y)


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
    """Carlson R_D(x, y, z) = R_J(x, y, z, z); z > 0, at most one of x, y zero.

    Relative error <= 1e-14.  Arguments outside [2^-332, 2^664] are scaled by
    the power of 4 that brings the largest into [2^662, 2^664); a DomainError
    where that leaves a nonzero argument below the normal doubles, or where
    the value overflows.
    """
    if z <= 0.0:
        raise DomainError(f"carlson_rd: requires z > 0, got {z}")
    _check_nonneg("carlson_rd", x, y, z)
    value, e = _at(_rj_array, x, y, z, z)
    return _checked("carlson_rd", (x, y, z), value, -3 * e)


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson R_J(x, y, z, p) = (3/2) int_0^inf dt / ((t+p) sqrt((t+x)(t+y)(t+z))).

    Requires x, y, z >= 0 with at most one zero, and p > 0 (the principal-value
    case p < 0 is rejected).  Relative error <= 1e-13.  A DomainError where
    the arguments spread too far for the duplication to keep its bits (see
    `_rj_array`), or where the value overflows.
    """
    _check_nonneg("carlson_rj", x, y, z)
    if not 0.0 < p < math.inf:
        raise DomainError(f"carlson_rj: requires finite p > 0, got {p}")
    value, e = _at(_rj_array, x, y, z, p)
    return _checked("carlson_rj", (x, y, z, p), value, -3 * e)


def _at(kernel, *args: float):
    """A lockstep kernel at one point, its value or values as Python scalars."""
    with np.errstate(all="ignore"):
        out = kernel(*(np.array([a], dtype=float) for a in args))
    return tuple(v.item(0) for v in out) if isinstance(out, tuple) else out.item(0)


def _rc_array(x, y: np.ndarray) -> np.ndarray:
    """R_C(x, y) per element, x a float or an array like y, for finite
    x >= 0, y > 0; NaN at NaN arguments."""
    sx = np.sqrt(x)
    s = np.sqrt(abs(x - y))
    # at x = 0 the quotient is inf and its atan pi/2
    r = s / sx
    out = np.where(x == y, 1.0 / sx, math.nan)
    up = x < y
    out[up] = _each(math.atan, r[up]) / s[up]
    # the log's argument nears 1 as y nears x; x - y is exact here
    near = (0.5 * x < y) & (y < x)
    out[near] = _each(math.atanh, r[near]) / s[near]
    down = (0.0 < y) & (y <= 0.5 * x)
    num, sy = (sx + s)[down], np.sqrt(y[down])
    q = num / sy
    log_q = _each(math.log, q)
    # the quotient overflows where y < ~x/2^1024: its log is taken in parts there
    if (split := q == math.inf).any():
        log_q[split] = _each(math.log, num[split]) - _each(math.log, sy[split])
    out[down] = log_q / s[down]
    return out


def _smallest_nonzero(*args: np.ndarray) -> np.ndarray:
    return np.fmin.reduce([np.where(v > 0.0, v, np.inf) for v in args])


def _rf_array(x, y, z) -> np.ndarray:
    """R_F per element for arguments in carlson_rf's domain; NaN where the
    stopping bound is not finite.

    Arguments whose largest lies outside [2^-332, 2^996] are scaled by the
    power of 4 that brings it into [2^994, 2^996): powers of 2 scale exactly.
    NaN also where that puts a nonzero argument below the normal doubles.
    The duplication steps run in lockstep and each element stops at its own
    step count.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    hi = np.fmax(np.fmax(x, y), z)
    e = np.where((hi > _RF_BIG) | (hi < _RF_TINY), _scale_exponent(hi, _RF_BIG), 0)
    lost = e > 0
    if e.any():
        lost &= np.ldexp(_smallest_nonzero(x, y, z), -2 * e) < _NORMAL
        x, y, z = (np.ldexp(v, -2 * e) for v in (x, y, z))
    A = (x + y + z) / 3.0
    Q = (3.0 * _EPS) ** (-0.125) * np.maximum(np.maximum(abs(A - x), abs(A - y)), abs(A - z))
    live = np.isfinite(Q) & ~lost
    f = np.ones_like(A)
    # the rows x, y, z and A take each duplication step together
    V = np.array([x, y, z, A])
    while (active := live & (Q >= f * abs(V[3]))).any():
        sx, sy, sz = np.sqrt(V[:3])
        lam = sx * sy + sx * sz + sy * sz
        V = np.where(active, 0.25 * (V + lam), V)
        f = np.where(active, f * 4.0, f)
    return np.ldexp(np.where(live, _rf_series(*V) / np.sqrt(V[3]), math.nan), -e)


def _rj_array(x, y, z, p) -> tuple[np.ndarray, np.ndarray]:
    """R_J per element as the pair (v, e) with R_J = 2**(-3e) v, for
    arguments in carlson_rj's domain or NaN.

    v is R_J at the arguments times 4**-e, where e = 0 unless one of them
    lies outside [_RJ_TINY, _RJ_BIG] (a zero x, y or z aside), and v is
    3 R_F(x, y, z)/p with e = 0 where p exceeds _RJ_SPREAD times x, y and z.
    Where p = z (R_D), _RD_BIG takes _RJ_BIG's place and each step's E is 0.
    Callers that scale the value further keep the 2**(-3e) to the end, since
    R_J itself can underflow.  NaN where the stopping bound is not finite,
    or where a nonzero argument is scaled, or a step's D^2 (p != z) falls,
    below the normal doubles (nonzero arguments more than ~1e300 apart).
    """
    given = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z, p)))
    x, y, z, p = given
    rd = p == z
    big = np.where(rd, _RD_BIG, _RJ_BIG)
    far = p > _RJ_SPREAD * np.fmax(np.fmax(x, y), z)
    hi = np.fmax(np.fmax(x, y), np.fmax(z, p))
    lo = _smallest_nonzero(x, y, z, p)
    e = np.where(((hi > big) | (lo < _RJ_TINY)) & ~far, _scale_exponent(hi, big), 0)
    lost = (e > 0) & (np.ldexp(lo, -2 * e) < _NORMAL)
    # the far elements take 3 R_F/p; 1.0 keeps them out of the duplication
    x, y, z, p = (np.where(far, 1.0, np.ldexp(a, -2 * e)) for a in given)
    A = (x + y + z + 2.0 * p) / 5.0
    # (p - x)(p - y) underflows only where p, x and y lie far below z: the
    # product is then taken with p - z first
    pxy = (p - x) * (p - y)
    delta = np.where(abs(pxy) < _NORMAL, (p - x) * ((p - y) * (p - z)), pxy * (p - z))
    Q = (0.2 * _EPS) ** (-0.125) * np.maximum(
        np.maximum(abs(A - x), abs(A - y)), np.maximum(abs(A - z), abs(A - p))
    )
    live = np.isfinite(Q) & ~lost
    f = np.ones_like(A)
    acc = np.zeros_like(A)
    # the rows x, y, z, p and A take each duplication step together
    V = np.array([x, y, z, p, A])
    while (active := live & (Q >= f * abs(V[4]))).any():
        sx, sy, sz, sp = np.sqrt(V[:4])
        D = (sp + sx) * (sp + sy) * (sp + sz)
        DD = D * D
        live &= (DD >= _NORMAL) | ~active | rd
        E = np.where(rd, 0.0, delta / DD)
        # R_C(1, 1+E) rewritten to dodge cancellation near E = -1
        y_rc = np.where(
            (-1.5 < E) & (E < -0.5), 2.0 * sp * (V[3] + sx * (sy + sz) + sy * sz) / D, 1.0 + E
        )
        acc[active] += (1.0 / (f * D))[active] * _rc_array(1.0, y_rc[active])
        lam = sx * sy + sx * sz + sy * sz
        V = np.where(active, 0.25 * (V + lam), V)
        delta = np.where(active, delta / 64.0, delta)
        f = np.where(active, f * 4.0, f)
    # x, y, z and A still hold their values before the steps
    fA = f * V[4]
    X, Y, Z = ((A - v) / fA for v in (x, y, z))
    P = -0.5 * (X + Y + Z)
    v = np.where(live, _rd_rj_series(X, Y, Z, P) / (fA * np.sqrt(V[4])) + 6.0 * acc, math.nan)
    if far.any():
        x, y, z, p = (a[far] for a in given)
        v[far] = 3.0 * _rf_array(x, y, z) / p
    return v, e


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
    """E(z) with modulus z in [0, 1], as (zc/3) (R_D(0, zc, 1) + R_D(0, 1, zc))
    with zc = 1 - z^2 (DLMF 19.25.1): a sum of positive terms, where
    R_F(0, zc, 1) - (z^2/3) R_D(0, zc, 1) cancels as z -> 1."""
    _check_finite("ell_e", z)
    if z < 0.0:
        raise DomainError(f"ell_e: modulus must be >= 0, got {z}")
    if z > 1.0:
        raise DomainError(f"ell_e: modulus must be <= 1, got {z}")
    if z == 1.0:
        return 1.0
    zc = (1.0 - z) * (1.0 + z)
    return (zc / 3.0) * (carlson_rd(0.0, zc, 1.0) + carlson_rd(0.0, 1.0, zc))


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
    return _at(_pi_k_array, n, z * z, (1.0 - z) * (1.0 + z))


def _pi_through_n(n, m, zc, rf, rj):
    """Pi(n) at parameter m (z^2, or -m^2 at imaginary modulus) and zc =
    1 - m by the characteristic N = (m - n)/(1 - n), whose 1 - N is
    zc/(1 - n), from rf = R_F(0, zc, 1) and rj = R_J(0, zc, 1, zc/(1 - n)).
    Pi takes this route where n < -1 and m - n >= zc (at real modulus,
    wherever n < -1): there rf + (n/3) R_J(0, zc, 1, 1 - n) cancels, losing
    about eps sqrt(-n/zc)."""
    N = (m - n) / (1.0 - n)
    # one division by m - n, last: zc/(m - n) alone can be subnormal
    return ((-n / (1.0 - n)) * zc * (rf + (N / 3.0) * rj) + m * rf) / (m - n)


def _pi_k_array(n, m, zc) -> tuple[np.ndarray, np.ndarray]:
    """(Pi(n), R_F(0, zc, 1)) per element at parameter m and zc = 1 - m,
    from one R_F; NaN where zc is NaN."""
    rf = _rf_array(0.0, zc, 1.0)
    far = (n < -1.0) & (m - n >= zc)
    # R_J of the far elements at its arguments times the 4**-e that brings
    # max(zc, 1) into its window, dividing by 1 - n only then: zc/(1 - n)
    # itself can be subnormal; e = 0 leaves the other elements as given
    e = np.where(far, _scale_exponent(np.fmax(zc, 1.0), _RJ_BIG), 0)
    s = np.ldexp(1.0, -2 * e)
    v, e_rj = _rj_array(0.0, zc * s, s, np.where(far, zc * s / (1.0 - n), 1.0 - n))
    e += e_rj
    pi = np.where(far, _pi_through_n(n, m, zc, rf, np.ldexp(v, -3 * e)),
                  rf + np.ldexp((n / 3.0) * v, -3 * e))
    return np.where(n == 0.0, rf, pi), rf


def ell_k_array(z: np.ndarray) -> np.ndarray:
    """ell_k per element; NaN where ell_k raises."""
    with np.errstate(all="ignore"):
        zc = np.where((0.0 <= z) & (z < 1.0), (1.0 - z) * (1.0 + z), math.nan)
        return _rf_array(0.0, zc, 1.0)


def ell_pi_k_array(n: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ell_pi_k per element; NaN where ell_pi_k raises."""
    with np.errstate(all="ignore"):
        ok = np.isfinite(n) & (n < 1.0) & (0.0 <= z) & (z < 1.0)
        # NaN keeps the elements outside the domain out of the duplication
        zc = np.where(ok, (1.0 - z) * (1.0 + z), math.nan)
        return _pi_k_array(n, z * z, zc)


def ell_k_imag(m: float) -> float:
    """K at purely imaginary modulus: int_0^1 dx / sqrt((1-x^2)(1+m^2 x^2))."""
    _check_finite("ell_k_imag", m)
    if m < 0.0:
        raise DomainError(f"ell_k_imag: requires m >= 0, got {m}")
    if 1.0 + m * m == math.inf:
        # K = log(4m)/m to within a relative log(m)/m^2, below 1e-300 here
        return (math.log(4.0) + math.log(m)) / m
    return carlson_rf(0.0, 1.0 + m * m, 1.0)


def ell_pi_imag(n: float, m: float) -> float:
    """Pi at purely imaginary modulus:
    int_0^1 dx / ((1 - n x^2) sqrt((1-x^2)(1+m^2 x^2)))."""
    _check_finite("ell_pi_imag", n, m)
    if n >= 1.0:
        raise DomainError(f"ell_pi_imag: characteristic n must be < 1, got {n}")
    if m < 0.0:
        raise DomainError(f"ell_pi_imag: requires m >= 0, got {m}")
    pi = _at(_pi_k_array, n, -(m * m), 1.0 + m * m)[0]
    if math.isnan(pi):
        # 1 + m^2 overflows, or R_J's D^2 underflows (m beyond ~1e148-1e151)
        raise DomainError(f"ell_pi_imag: m = {m} too large for double precision at n = {n}")
    return pi
