"""Mahler and half-Mahler measures of the family a(x + 1/x) + y + 1/y + c.

The one-parameter slice P_k(x, y) = x + 1/x + y + 1/y + k is tied to the
two-parameter member with a = sqrt((4+k)/(4-k)), c = k/sqrt(4-k).  For k > 4
those coefficients turn imaginary and the working polynomial is the real form

    Ptilde_k(x, y) = sqrt((k+4)/(k-4)) (x + 1/x) + y - 1/y - k/sqrt(k-4),

whose half-measures coincide with those of the (a, c) member.  All integrals
are taken in the angle theta (x = e^{i theta}), which removes the
1/sqrt(1-t^2) endpoint weight of the t = cos(theta) form, and are split at the
angles where the root moduli cross 1 so each panel is smooth.  One kernel,
`half_measures`, does this for every member written as the y-quadratic
y^2 + (beta cos(theta) + gamma) y +- 1.

Everything here is a pure function; tolerances are absolute.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elliptic import ell_k_array, ell_pi_k_array
from .errors import (
    AccuracyError,
    DomainError,
    MahlerLabError,
    RegimeError,
    SingularParameterError,
)
from .quadrature import _each, quadrature_oracle, tanh_sinh_panels

#: regime boundary: the root-modulus crossing leaves the unit circle here
K_LARGE = 2.0 * (1.0 + math.sqrt(5.0))

_MIN_TOL = 1e-13


@dataclass(frozen=True)
class HalfMeasures:
    """The pair (m+, m-) in nats and their sum."""

    m_plus: float
    m_minus: float

    @property
    def m_total(self) -> float:
        return self.m_plus + self.m_minus


@dataclass(frozen=True)
class QuadraticFactorization:
    """Monic quadratic-in-y on the circle x = e^{i theta}:

        y^2 + B(theta) y + sigma = (y - y+)(y - y-),   B = beta cos(theta) + gamma,

    with beta > 0, sigma = y+ y- = +1 (plain family) or -1 (tilde form), and
    y+-(theta) = (-B +- sqrt(B^2 - 4 sigma))/2 on the principal branch.
    """

    beta: float
    gamma: float
    sigma: int


def factor_p1k(k: float) -> QuadraticFactorization:
    """y P_k: B = 2 cos(theta) + k, sigma = +1, for finite k > 0."""
    if not 0.0 < k < math.inf:
        raise DomainError(f"factor_p1k: requires finite k > 0, got {k}")
    return QuadraticFactorization(beta=2.0, gamma=k, sigma=1)


def factor_ptilde(k: float) -> QuadraticFactorization:
    """y Ptilde_k: B = 2 a_tilde cos(theta) - c_tilde, sigma = -1, for finite
    k > 4, with a_tilde = sqrt((k+4)/(k-4)) and c_tilde = k/sqrt(k-4).

    The roots satisfy y+ y- = -1 and |y-| crosses 1 at
    theta* = arccos(k / (2 sqrt(k+4))); for k > 2(1+sqrt(5)) the crossing
    leaves [-1, 1] and m- = 0 identically.
    """
    if not 4.0 < k < math.inf:
        raise DomainError(f"factor_ptilde: requires finite k > 4, got {k}")
    return QuadraticFactorization(
        beta=2.0 * math.sqrt((k + 4.0) / (k - 4.0)), gamma=-k / math.sqrt(k - 4.0), sigma=-1
    )


def factor_pac_small(k: float) -> QuadraticFactorization:
    """y P_{a,c}: B = 2 a cos(theta) + c, sigma = +1, for the real-coefficient
    member 0 < k < 4, with a = sqrt((4+k)/(4-k)) and c = k/sqrt(4-k).

    With principal square roots, the root y- = (-B - sqrt(B^2-4))/2 exceeds
    1 in modulus on the arc B > 2 near theta = 0 and y+ does on the arc
    B < -2 near theta = pi; in between the roots sit on the unit circle and
    contribute nothing.  The B < -2 arc is nonempty for every k in (0, 4),
    shrinking to a point as k -> 0.
    """
    if not 0.0 < k < 4.0:
        raise DomainError(f"factor_pac_small: requires 0 < k < 4, got {k}")
    return QuadraticFactorization(
        beta=2.0 * math.sqrt((4.0 + k) / (4.0 - k)), gamma=k / math.sqrt(4.0 - k), sigma=1
    )


def factor_member(k: float) -> QuadraticFactorization:
    """The family member at k: `factor_ptilde` for k > 4, else
    `factor_pac_small`."""
    return factor_ptilde(k) if k > 4.0 else factor_pac_small(k)


def regime(k: float) -> str:
    """The regime of k: "small" for 0 < k < 4, "mid" for
    4 < k <= 2(1+sqrt(5)), and "large" past that, where m- vanishes."""
    if not math.isfinite(k):
        raise DomainError(f"regime: requires finite k, got {k}")
    if k <= 0.0 or k == 4.0:
        raise SingularParameterError(f"k must be positive and != 4, got {k}")
    return "small" if k < 4.0 else "large" if k > K_LARGE else "mid"


def _check_tol(tol: float) -> None:
    if tol < _MIN_TOL:
        raise AccuracyError(
            f"requested tol={tol:g} below the double-precision floor {_MIN_TOL:g}"
        )


def _jensen_arcs(fac: QuadraticFactorization, tols: tuple[float, ...]) -> list[tuple]:
    """The non-empty Jensen arcs of `fac` as (slot, s, lo, hi, arc_tols),
    m- (slot 0, s = +1) before m+ (slot 1, s = -1).

    m- = (1/pi) int log|y-| over the arc [0, theta-] where |y-| > 1, and
    m+ = (1/pi) int log|y+| over [theta+, pi] where |y+| > 1.  The arc ends
    are where B = 2 and B = -2 (sigma = +1) or where B changes sign
    (sigma = -1); a crossing off the circle clamps to an empty arc, which
    contributes exactly 0.  For each tol in tols every non-empty arc gets an
    equal share of 0.1 tol, so the absolute error is <= tol.
    """
    for tol in tols:
        _check_tol(tol)
    if fac.sigma > 0:
        c_minus, c_plus = (2.0 - fac.gamma) / fac.beta, (-2.0 - fac.gamma) / fac.beta
    else:
        c_minus = c_plus = -fac.gamma / fac.beta
    arcs = (
        (0, 1.0, 0.0, math.acos(min(1.0, max(-1.0, c_minus)))),
        (1, -1.0, math.acos(min(1.0, max(-1.0, c_plus))), math.pi),
    )
    arcs = [arc for arc in arcs if arc[2] < arc[3]]
    return [(*arc, tuple(0.1 * tol / len(arcs) for tol in tols)) for arc in arcs]


def half_measures(fac: QuadraticFactorization, tol: float = 1e-8) -> HalfMeasures:
    """Half-measures (m+, m-) of y^2 + B(theta) y + sigma by Jensen's formula,
    absolute error <= tol: `half_measures_lockstep` of this one factorization."""
    return half_measures_lockstep([fac], [(tol,)])[0][0]


#: factorizations refined together: the pieces bound the per-level arrays
#: of large grids.  In process on a 2-CPU host, `sweep h --k-grid
#: 5:50:10000` peaks at 38.8 MB RSS in pieces of 32 against 111 MB as one
#: piece, for 1.0 s against 0.84 s
_LOCKSTEP_FACS = 32


def half_measures_lockstep(
    facs: Sequence[QuadraticFactorization], ladders: Sequence[tuple[float, ...]]
) -> list[list[HalfMeasures]]:
    """out[j][r] holds the half-measures of facs[j] at tol ladders[j][r],
    each ladder decreasing, from one lockstep refinement of the arcs of each
    _LOCKSTEP_FACS factorizations; each value is bit for bit the one a
    refinement of its arc at its tol alone stops at.  Raises the
    AccuracyError that refining one by one would raise first: first fac,
    then first tol, then the m- arc before the m+ arc.
    """
    if len(facs) > _LOCKSTEP_FACS:
        return [row for i in range(0, len(facs), _LOCKSTEP_FACS)
                for row in half_measures_lockstep(facs[i:i + _LOCKSTEP_FACS],
                                                  ladders[i:i + _LOCKSTEP_FACS])]
    panels = [(j, *arc) for j, (fac, tols) in enumerate(zip(facs, ladders))
              for arc in _jensen_arcs(fac, tols)]
    # the coefficients of log_abs_root, one entry per panel
    hb = np.array([0.5 * s * facs[j].beta for j, _, s, *_ in panels])
    hg = np.array([0.5 * s * facs[j].gamma for j, _, s, *_ in panels])
    plus = np.array([facs[j].sigma > 0 for j, *_ in panels], dtype=bool)

    def log_abs_root(th: np.ndarray, panel: np.ndarray) -> np.ndarray:
        """log|y| of the root that leaves the unit disc where b = s B(theta)
        is large (b > 2 for sigma = +1, b > 0 for sigma = -1): y- for s = +1,
        y+ for s = -1.  In terms of h = b/2 it is acosh(h) for sigma = +1 (0
        where h <= 1, which a node next to the crossing can round onto) and
        asinh(h) for sigma = -1; neither overflows."""
        h = np.cos(th)
        h *= hb[panel]
        h += hg[panel]
        p = plus[panel]
        acosh, asinh = p & (h > 1.0), ~p
        h[asinh] = _each(math.asinh, h[asinh])
        h[acosh] = _each(math.acosh, h[acosh])
        h[p & ~acosh] = 0.0
        return h

    values, failures = tanh_sinh_panels(
        log_abs_root, [p[3] for p in panels], [p[4] for p in panels], [p[5] for p in panels]
    )
    if failures:
        first = min(failures, key=lambda i: (panels[i][0], len(values[i]), panels[i][1]))
        raise failures[first]
    m = [[[0.0, 0.0] for _ in tols] for tols in ladders]
    for (j, slot, *_), vals in zip(panels, values):
        for r, v in enumerate(vals):
            m[j][r][slot] = v / math.pi
    return [[HalfMeasures(m_plus=p, m_minus=q) for q, p in row] for row in m]


#: the measures `sweep_measures` traces: the factorization at k and the
#: value read off its half-measures
_SWEPT = {
    "f": (factor_p1k, lambda hm: hm.m_total),
    "h": (factor_ptilde, lambda hm: hm.m_plus - hm.m_minus),
    "m_plus": (factor_member, lambda hm: hm.m_plus),
    "m_minus": (factor_member, lambda hm: hm.m_minus),
}


def sweep_measures(
    quantity: str, ks: Sequence[float], tols: tuple[float, ...]
) -> list[list[float]]:
    """out[j][r] is `quantity` at ks[j] and tols[r] (a decreasing ladder),
    by `half_measures_lockstep`: f = m(P_k), h = m+ - m- of Ptilde_k, and
    m_plus or m_minus of Ptilde_k for k > 4 and of the (a, c) member for
    k < 4."""
    factor, value = _SWEPT[quantity]
    facs = [factor(k) for k in ks]
    rows = half_measures_lockstep(facs, [tols] * len(facs))
    return [[value(hm) for hm in row] for row in rows]


def m_p1k(k: float, tol: float = 1e-8) -> float:
    """Mahler measure of x + 1/x + y + 1/y + k for finite k > 0.

    For k > 4 the root modulus |y-| exceeds 1 on the whole circle; for
    0 < k <= 4 it does only where 2 cos(theta) + k > 2.  Absolute error <= tol.
    """
    return half_measures(factor_p1k(k), tol).m_total


def derivative_grid(quantity: str, ks: Sequence[float]) -> np.ndarray:
    """`dfdk` or `dhdk` (the quantity) at every k of ks from one Carlson
    kernel call; raises their DomainError at the first k not above 4."""
    for k in ks:
        if not k > 4.0:
            raise DomainError(f"{quantity}: closed form requires k > 4, got {k}")
    k = np.array(ks, dtype=float)
    z = 4.0 / k
    if quantity == "dfdk":
        return 2.0 / (k * math.pi) * ell_k_array(z)
    pi, kz = ell_pi_k_array(-z, z)
    return (kz - 2.0 * z * pi) / ((k - 4.0) * math.pi)


def dfdk(k: float) -> float:
    """d/dk of m_p1k in closed form, (2/(k pi)) K(4/k), for k > 4."""
    return derivative_grid("dfdk", [k]).item(0)


def dhdk(k: float) -> float:
    """d/dk of m+ - m- for Ptilde_k in closed form, for k > 4:
    (K(4/k) - (8/k) Pi(-4/k, 4/k)) / ((k-4) pi)."""
    return derivative_grid("dhdk", [k]).item(0)


def dhdk_integral_form(k: float, tol: float = 1e-10) -> float:
    """d/dk of m+ - m- by direct quadrature of the cos(theta)-substituted
    t-integral; certifies the reduction chain to the closed form dhdk.

    Note the 1/pi prefactor carried over from the half-measure definitions.
    """
    if k <= 4.0:
        raise DomainError(f"dhdk_integral_form: requires k > 4, got {k}")
    sk4 = math.sqrt(k + 4.0)
    c0 = (k * k + 4.0 * k - 16.0) / (4.0 * (k + 4.0))

    def g(th: float) -> float:
        t = math.cos(th)
        return (t - (k - 8.0) * sk4 / 16.0) / math.sqrt(t * t + k * t / sk4 + c0)

    val = quadrature_oracle(g, 0.0, math.pi, 0.1 * min(tol, 1e-9))
    return -4.0 / (k * k - 16.0) * val / math.pi


def _with_p1k(
    ks: Sequence[float], factor: Callable[[float], QuadraticFactorization], tols: Sequence[float]
) -> list[list[tuple[HalfMeasures, HalfMeasures]]]:
    """out[j][r] holds the half-measures of factor(ks[j]) and of P_k at
    tols[r], all from one `half_measures_lockstep`.  They are refined in the
    order of a loop over k, then tol, then the two, so the first error is
    the one that loop raises: an error of factor(k) comes only once the k
    before it are refined."""
    jobs, error = [], None
    for k in ks:
        try:
            pair = factor(k), factor_p1k(k)
        except MahlerLabError as exc:
            error = exc
            break
        jobs += [(fac, (tol,)) for tol in tols for fac in pair]
    rows = half_measures_lockstep([fac for fac, _ in jobs], [tol for _, tol in jobs])
    if error is not None:
        raise error
    pairs = [(hm, p1k) for [hm], [p1k] in zip(rows[::2], rows[1::2])]
    return [pairs[i:i + len(tols)] for i in range(0, len(pairs), len(tols))]


def verify_thm_main(ks: Sequence[float], tol: float = 1e-8) -> list[float]:
    """Residuals of m(P_k) = 2(m+ - m-) + (1/2) log((k-4)/(k+4)) at each
    k > 4, from one lockstep refinement."""

    def factor(k):
        if k <= 4.0:
            raise DomainError(f"verify_thm_main: requires k > 4, got {k}")
        return factor_ptilde(k)

    return [
        abs(p1k.m_total - (2.0 * (hm.m_plus - hm.m_minus) + 0.5 * math.log((k - 4.0) / (k + 4.0))))
        for k, [(hm, p1k)] in zip(ks, _with_p1k(ks, factor, (0.01 * tol,)))
    ]


def verify_corollary(ks: Sequence[float], tol: float = 1e-8) -> list[tuple[float, float]]:
    """(m-, residual) of m(P_k) = 2 m(P_{a,c}) + (1/2) log((k-4)/(k+4)) at
    each k, from one lockstep refinement.

    Only valid for k > 2(1+sqrt(5)), where m- vanishes identically; the MID
    regime is rejected.
    """

    def factor(k):
        if k <= K_LARGE:
            raise RegimeError(
                f"verify_corollary: requires k > 2(1+sqrt(5)) = {K_LARGE:.6f}, got {k}"
            )
        return factor_ptilde(k)

    return [
        (hm.m_minus, abs(p1k.m_total - (2.0 * hm.m_total + 0.5 * math.log((k - 4.0) / (k + 4.0)))))
        for k, [(hm, p1k)] in zip(ks, _with_p1k(ks, factor, (0.01 * tol,)))
    ]


# ----------------------------------------------------------------------------
# generic two-variable Mahler measure (brute-force oracle)


@dataclass(frozen=True)
class LaurentPoly2:
    """Laurent polynomial: terms (i, j, coeff) standing for coeff * x^i y^j."""

    terms: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("LaurentPoly2: needs at least one term")
        if all(abs(c) == 0.0 for _, _, c in self.terms):
            raise DomainError("LaurentPoly2: all coefficients vanish")

    def __call__(self, x: complex, y: complex) -> complex:
        return sum(c * x**i * y**j for i, j, c in self.terms)


def poly_p1k(k: float) -> LaurentPoly2:
    """x + 1/x + y + 1/y + k."""
    return LaurentPoly2(((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0), (0, 0, complex(k))))


def poly_pac(a: complex, c: complex) -> LaurentPoly2:
    """a (x + 1/x) + y + 1/y + c."""
    return LaurentPoly2(((1, 0, complex(a)), (-1, 0, complex(a)), (0, 1, 1.0), (0, -1, 1.0), (0, 0, complex(c))))


#: the break-point search counts a y-root with ||y| - 1| below this as on
#: the unit circle: well above the eigenvalue noise of a root on the circle
_ON_CIRCLE = 1e-10
#: grid intervals of the outer break-point search, and bisection steps per
#: break (1/256 halved 40 times is below 1e-14)
_SEARCH_INTERVALS = 256
_BISECTIONS = 40


def _y_coefficients(P: LaurentPoly2) -> Callable:
    """x -> the coefficients of y^(-jmin) P(x, y) in y, highest power first.

    x may be one complex number or an array of them; each coefficient is then
    a complex number or an array (a slot no term reaches stays 0j).
    """
    js = [j for _, j, _ in P.terms]
    jmax, n = max(js), max(js) - min(js) + 1

    def at(x):
        coeffs = [0j] * n
        for i, j, c in P.terms:
            coeffs[jmax - j] += c * x**i
        return coeffs

    return at


def _circle_roots_in_y(coeffs: list[complex]) -> list[float]:
    """Angles (in turns) of the roots of the y-polynomial `coeffs` (highest
    power first) that sit on the unit circle."""
    arr = np.array(coeffs, dtype=complex)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return []
    nz = np.nonzero(np.abs(arr) > 1e-14 * scale)[0]
    arr = arr[nz[0] : nz[-1] + 1]
    if len(arr) < 2:
        return []
    roots = np.roots(arr)
    out = []
    for r in roots:
        if abs(abs(r) - 1.0) < 1e-7:
            out.append((cmath.phase(r) / (2.0 * math.pi)) % 1.0)
    return sorted(out)


def _y_roots_at(coeffs_at: Callable, t1: np.ndarray) -> np.ndarray:
    """Row i holds the y-roots of P(e^{2 pi i t1[i]}, .), as the eigenvalues of
    stacked companion matrices.  Where the leading coefficient vanishes, a
    root has gone to infinity, and the whole row is set to infinity."""
    x = np.exp(2j * np.pi * t1)
    C = np.stack([np.broadcast_to(c, x.shape) for c in coeffs_at(x)], axis=1)
    d = C.shape[1] - 1
    comp = np.zeros((len(x), d, d), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        comp[:, 0, :] = -C[:, 1:] / C[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    bad = ~np.isfinite(comp).all(axis=(1, 2))
    comp[bad] = 0.0
    roots = np.linalg.eigvals(comp)
    roots[bad] = np.inf
    return roots


def _side(roots: np.ndarray) -> np.ndarray:
    """-1 inside the unit circle, 0 on it, +1 outside."""
    dist = np.abs(roots) - 1.0
    return np.sign(dist) * (np.abs(dist) >= _ON_CIRCLE)


def _follow(prev: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The roots reordered row by row so that column j continues prev[:, j]:
    the closest remaining (previous, new) pair is matched first, so each new
    root is used once."""
    n, d = prev.shape
    rows = np.arange(n)
    dist = np.abs(roots[:, None, :] - prev[:, :, None])
    out = np.empty_like(roots)
    for _ in range(d):
        j, i = np.divmod(dist.reshape(n, -1).argmin(axis=1), d)
        out[rows, j] = roots[rows, i]
        dist[rows, j, :] = np.inf
        dist[rows, :, i] = np.inf
    return out


def _outer_break_points(coeffs_at: Callable) -> list[float]:
    """The t1 in [0, 1] where a y-root of P(e^{2 pi i t1}, .) enters, leaves or
    crosses the unit circle: the square-root and corner kinks of the inner
    integral as a function of t1.

    The roots are sampled on a grid of t1 and each root is followed to the
    next sample by continuity, so a root that leaves the circle while another
    enters (the count outside unchanged) is still seen.  Each interval in
    which a followed root changes side is bisected.  Two changes closer
    together than the grid spacing may show as one break, or none.
    """
    if len(coeffs_at(1.0)) < 2:
        return []
    t = np.linspace(0.0, 1.0, _SEARCH_INTERVALS + 1)
    roots = _y_roots_at(coeffs_at, t)
    moved = (_side(_follow(roots[:-1], roots[1:])) != _side(roots[:-1])).any(axis=1)
    lo, hi, r_lo = t[:-1][moved], t[1:][moved], roots[:-1][moved]
    if not len(lo):
        return []
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        r_mid = _follow(r_lo, _y_roots_at(coeffs_at, mid))
        left = (_side(r_mid) != _side(r_lo)).any(axis=1)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        r_lo = np.where(left[:, None], r_lo, r_mid)
    return (0.5 * (lo + hi)).tolist()


def _quadpack_failure(out: tuple) -> str | None:
    """The first sentence of QUADPACK's message when `quad(..., full_output=1)`
    reports a non-zero ier, else None."""
    return " ".join(out[3].split(".")[0].split()) if len(out) > 3 else None


def m_generic_2d(P: LaurentPoly2, tol: float = 1e-6) -> float:
    """Brute-force Mahler measure: nested adaptive quadrature of
    log|P(e^{2 pi i t1}, e^{2 pi i t2})| over the unit square.

    Independent of the one-variable Jensen route: both integrals are QUADPACK,
    each with explicit break points found from the polynomial itself.  The
    inner one, over t2, breaks at the y-roots on the unit circle.  The outer
    one, over t1, breaks where a y-root enters, leaves or crosses the unit
    circle (found on a grid of t1 by following each root, then bisected),
    because the inner integral has a kink there.  A non-zero QUADPACK ier in
    either integral, or an outer error estimate above tol, raises
    `AccuracyError` carrying the outer value as `best_estimate`.  Supports
    tol >= 1e-6; cost grows quadratically as tol shrinks.
    """
    if tol < 1e-8:
        raise AccuracyError(f"m_generic_2d: tol={tol:g} below supported range")
    # scipy costs most of the start-up time and only this oracle needs it
    from scipy import integrate as _spi

    coeffs_at = _y_coefficients(P)
    inner_failures = []

    def inner(t1: float) -> float:
        coeffs = coeffs_at(cmath.exp(2j * math.pi * t1))

        def g(t2: float) -> float:
            y = cmath.exp(2j * math.pi * t2)
            acc = 0j
            for co in coeffs:
                acc = acc * y + co
            return math.log(max(abs(acc), 1e-300))

        pts = _circle_roots_in_y(coeffs)
        out = _spi.quad(
            g,
            0.0,
            1.0,
            points=pts or None,
            limit=200,
            epsabs=0.02 * tol,
            epsrel=1e-10,
            full_output=1,
        )
        failure = _quadpack_failure(out)
        if failure:
            inner_failures.append(f"t1={t1!r}: {failure}")
        return out[0]

    breaks = _outer_break_points(coeffs_at)
    out = _spi.quad(inner, 0.0, 1.0, points=breaks or None, limit=200,
                    epsabs=0.5 * tol, epsrel=1e-10, full_output=1)
    val, err = out[0], out[1]
    failure = _quadpack_failure(out)
    if failure:
        msg = f"m_generic_2d: outer QUADPACK integral failed: {failure}"
    elif inner_failures:
        msg = (
            f"m_generic_2d: inner QUADPACK integral failed at "
            f"{len(inner_failures)} t1, first {inner_failures[0]}"
        )
    elif err > tol:
        msg = f"m_generic_2d: estimated error {err:g} exceeds tol {tol:g}"
    else:
        return val
    raise AccuracyError(msg, best_estimate=val, error_estimate=err)


def lsz_branch_verdict(ks: Sequence[float], tols: Sequence[float] = (1e-10,)) -> list[list[dict]]:
    """Try both branch labelings of the small-k identity m(P_k) = m- - 3 m+
    and report which one holds; the family's principal-root convention wins.
    out[j][r] is the verdict at ks[j] from the measures at tols[r], all from
    one lockstep refinement.
    """

    def verdict(k, hm, target):
        res_principal = abs(hm.m_minus - 3.0 * hm.m_plus - target)
        res_swapped = abs(hm.m_plus - 3.0 * hm.m_minus - target)
        return {
            "k": k,
            "m_plus": hm.m_plus,
            "m_minus": hm.m_minus,
            "m_p1k": target,
            "residual_principal": res_principal,
            "residual_swapped": res_swapped,
            "winner": "principal" if res_principal < res_swapped else "swapped",
        }

    return [[verdict(k, hm, p1k.m_total) for hm, p1k in row]
            for k, row in zip(ks, _with_p1k(ks, factor_pac_small, tols))]
