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
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .elliptic import ell_k_array, ell_pi_k_array
from .errors import AccuracyError, DomainError, SingularParameterError
from .quadrature import _each, tanh_sinh_panels

#: regime boundary: the root-modulus crossing leaves the unit circle here
K_LARGE = 2.0 * (1.0 + math.sqrt(5.0))

#: the lowest tol a measure (and any `--tol` of the CLI) may ask for
MIN_TOL = 1e-13


@dataclass(frozen=True)
class HalfMeasures:
    """The pair (m+, m-) in nats and their sum.  est is the quadrature's own
    error estimate, the two arcs' summed over pi; it takes no part in
    equality."""

    m_plus: float
    m_minus: float
    est: float = field(compare=False)

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
    if tol < MIN_TOL:
        raise AccuracyError(
            f"requested tol={tol:g} below the double-precision floor {MIN_TOL:g}"
        )


def _jensen_arcs(fac: QuadraticFactorization, tol: float) -> list[tuple]:
    """The non-empty Jensen arcs of `fac` as (slot, s, lo, hi, arc_tol),
    m- (slot 0, s = +1) before m+ (slot 1, s = -1).

    m- = (1/pi) int log|y-| over the arc [0, theta-] where |y-| > 1, and
    m+ = (1/pi) int log|y+| over [theta+, pi] where |y+| > 1.  The arc ends
    are where B = 2 and B = -2 (sigma = +1) or where B changes sign
    (sigma = -1); a crossing off the circle clamps to an empty arc, which
    contributes exactly 0.  Every non-empty arc gets an equal share of
    0.1 tol, so the absolute error is <= tol.
    """
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
    return [(*arc, 0.1 * tol / len(arcs)) for arc in arcs]


def half_measures(fac: QuadraticFactorization, tol: float = 1e-8) -> HalfMeasures:
    """Half-measures (m+, m-) of y^2 + B(theta) y + sigma by Jensen's formula,
    absolute error <= tol: `half_measures_lockstep` of this one factorization."""
    return half_measures_lockstep([fac], [tol])[0]


#: factorizations refined together: the pieces bound the per-level arrays
#: of large grids.  In process on a 2-CPU host, `sweep h --k-grid
#: 5:50:10000` peaks at 38.8 MB RSS in pieces of 32 against 111 MB as one
#: piece, for 1.0 s against 0.84 s
_LOCKSTEP_FACS = 32


def half_measures_lockstep(
    facs: Sequence[QuadraticFactorization], tols: Sequence[float]
) -> list[HalfMeasures]:
    """out[j] holds the half-measures of facs[j] at tol tols[j], from one
    lockstep refinement of the arcs of each _LOCKSTEP_FACS factorizations;
    each value is bit for bit the one a refinement of its arc alone stops
    at.  Raises the AccuracyError that refining one by one would raise
    first: first fac, then the m- arc before the m+ arc.
    """
    if len(facs) > _LOCKSTEP_FACS:
        return [hm for i in range(0, len(facs), _LOCKSTEP_FACS)
                for hm in half_measures_lockstep(facs[i:i + _LOCKSTEP_FACS],
                                                 tols[i:i + _LOCKSTEP_FACS])]
    panels = [(j, *arc) for j, (fac, tol) in enumerate(zip(facs, tols))
              for arc in _jensen_arcs(fac, tol)]
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

    values, ests, failures = tanh_sinh_panels(
        log_abs_root, [p[3] for p in panels], [p[4] for p in panels], [p[5] for p in panels]
    )
    if failures:
        raise failures[min(failures)]
    m = [[0.0, 0.0, 0.0] for _ in facs]
    for (j, slot, *_), v, est in zip(panels, values, ests):
        m[j][slot] = v / math.pi
        m[j][2] += est
    return [HalfMeasures(m_plus=p, m_minus=q, est=e / math.pi) for q, p, e in m]


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


# ----------------------------------------------------------------------------
# generic two-variable Mahler measure (brute-force oracle)


@dataclass(frozen=True)
class LaurentPoly2:
    """Laurent polynomial: terms (i, j, coeff) standing for coeff * x^i y^j."""

    terms: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("LaurentPoly2: needs at least one term")
        for i, j, c in self.terms:
            if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
                raise DomainError(f"LaurentPoly2: exponents must be integers, got ({i!r}, {j!r})")
            if not cmath.isfinite(c):
                raise DomainError(f"LaurentPoly2: coefficient of x^{i} y^{j} is not finite: {c!r}")
        if all(abs(c) == 0.0 for _, _, c in self.terms):
            raise DomainError("LaurentPoly2: all coefficients vanish")


def poly_p1k(k: float) -> LaurentPoly2:
    """x + 1/x + y + 1/y + k."""
    return LaurentPoly2(((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0), (0, 0, complex(k))))


#: the break-point search counts a y-root with ||y| - 1| below this as on
#: the unit circle: well above the eigenvalue noise of a root on the circle
_ON_CIRCLE = 1e-10
#: the inner integral breaks at each y-root with ||y| - 1| below this: the
#: eigenvalues put a double root on the circle up to ~sqrt(eps) off it, and a
#: spare break point costs only one more subinterval
_NEAR_CIRCLE = 1e-7
#: grid intervals per unit of t1 of the outer break-point search, then passes
#: that cut each bracket in 2**_PASS_BITS: 8 x 5 = 40 halvings, 2**-48 < 1e-14
_SEARCH_INTERVALS = 256
_PASS_BITS, _PASSES = 5, 8

#: QUADPACK's qk21 rule (Piessens et al. 1983), as scipy's
#: `integrate/_quad_vec.py` tabulates it: the 21 Kronrod nodes on [-1, 1],
#: their weights, and the 10-point Gauss weights at the odd-indexed nodes
_GK21_NODES = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
               0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
               0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
               0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
               0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_GK21_KRONROD = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821)
_GK21_GAUSS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_GK21_X = np.array([*_GK21_NODES, 0.0, *(-x for x in reversed(_GK21_NODES))])
_GK21_K = np.array([*_GK21_KRONROD, *reversed(_GK21_KRONROD[:-1])])
_GK21_G = np.zeros(21)
_GK21_G[1::2] = [*_GK21_GAUSS, *reversed(_GK21_GAUSS)]
#: QUADPACK's limit: the subintervals one adaptive integral may use
_LIMIT = 200
#: ascending coefficients of the endpoint maps t = lo + (hi - lo) phi(u),
#: u in [0, 1], of a segment [lo, hi] of an adaptive integral, by the order p
#: and by which of its ends are break points (row 2 left + right): u, then
#: the regularised incomplete beta functions I_u(1, p) = 1 - (1 - u)^p,
#: I_u(p, 1) = u^p and I_u(p, p).  phi' vanishes to order p - 1 at a break,
#: so p = 2 smooths a square-root kink there and p = 3 a log singularity
_ENDPOINT_MAPS = {
    2: np.array([[0, 1, 0, 0, 0, 0], [0, 2, -1, 0, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 3, -2, 0, 0]], dtype=float),
    3: np.array([[0, 1, 0, 0, 0, 0], [0, 3, -3, 1, 0, 0],
                 [0, 0, 0, 1, 0, 0], [0, 0, 0, 10, -15, 6]], dtype=float),
}


def _y_coefficients(P: LaurentPoly2) -> Callable[[np.ndarray], np.ndarray]:
    """t1 -> the matrix whose row r holds the coefficients of
    y^(-jmin) P(e^{2 pi i t1[r]}, y) in y, highest power first."""
    js = [j for _, j, _ in P.terms]
    jmax, n = max(js), max(js) - min(js) + 1

    def at(t1: np.ndarray) -> np.ndarray:
        x = np.exp(2j * np.pi * t1)
        C = np.zeros((len(x), n), dtype=complex)
        for i, j, c in P.terms:
            C[:, jmax - j] += c * x**i
        return C

    return at


def _y_roots_at(C: np.ndarray) -> np.ndarray:
    """Row i holds the roots of the y-polynomial with coefficients C[i]
    (highest power first), as the eigenvalues of stacked companion matrices.
    Where the leading coefficient vanishes, a root has gone to infinity, and
    the whole row is set to infinity."""
    n, d = C.shape[0], C.shape[1] - 1
    comp = np.zeros((n, d, d), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        comp[:, :1, :] = (-C[:, 1:] / C[:, :1])[:, None, :]
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


def _outer_break_points(coeffs_at: Callable, hx: float) -> list[float]:
    """The t1 in [0, hx] where a y-root of P(e^{2 pi i t1}, .) enters, leaves
    or crosses the unit circle: the square-root and corner kinks of the inner
    integral as a function of t1.

    Each pass takes the roots at evenly spaced t1 across every bracket, ends
    included, from one eigenvalue call, and follows each root from sample to
    sample, so a root that leaves the circle while another enters is seen.
    Pass 0 spans [0, hx] at spacing 1/_SEARCH_INTERVALS and keeps each piece
    where a followed root changes side; each later pass cuts every bracket in
    2**_PASS_BITS and keeps its first such piece, else its last (where
    bisection would go).  Changes closer than the spacing may merge or vanish.
    """
    lo, hi, n = np.zeros(1), np.full(1, hx), round(_SEARCH_INTERVALS * hx)
    for p in range(_PASSES + 1):
        t = lo[:, None] + (hi - lo)[:, None] * (np.arange(n + 1) / n)
        roots = _y_roots_at(coeffs_at(t.ravel()))
        moved = (_side(_follow(roots[:-1], roots[1:])) != _side(roots[:-1])).any(axis=1)
        moved = np.append(moved, False).reshape(t.shape)[:, :-1]  # no pair across brackets
        rows, cols = np.nonzero(moved)
        if p:
            rows, cols = np.arange(len(lo)), np.where(moved.any(axis=1), moved.argmax(axis=1), n - 1)
        lo, hi, n = t[rows, cols], t[rows, cols + 1], 2**_PASS_BITS
        if not len(lo):
            break
    return (0.5 * (lo + hi)).tolist()


def _gk21_panels(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on each panel: g[p] holds the integrand at the 21 nodes
    of panel p, of half-width h[p].  Returns its values and error estimates:
    the Kronrod-Gauss difference, scaled as QUADPACK does by the mean
    deviation and floored at 50 eps times the integral of |g|."""
    resk, resg = g @ _GK21_K, g @ _GK21_G
    resabs = np.abs(g) @ _GK21_K * h
    resasc = np.abs(g - 0.5 * resk[:, None]) @ _GK21_K * h
    err = np.abs((resk - resg) * h)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err[scaled] / resasc[scaled]
    err[scaled] = resasc[scaled] * np.minimum(1.0, ratio * np.sqrt(ratio))
    floor = 50.0 * np.finfo(float).eps * resabs
    return h * resk, np.where(floor > np.finfo(float).tiny, np.maximum(err, floor), err)


def _gk21(
    f: Callable, a: np.ndarray, b: np.ndarray, breaks: np.ndarray, order: int, epsabs: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod-21 integrals of f over [a[i], b[i]] for every i,
    refined in lockstep: each round calls f once, on the nodes of every new
    panel of every integral, as f(t, row) with t[p] the 21 abscissae of
    panel p and row[p] its integral.

    The break points breaks[i] (NaN for none) strictly inside (a[i], b[i])
    split integral i into segments.  A segment end that is a break point
    gets the endpoint map of `order` (`_ENDPOINT_MAPS`); ends at a[i] and
    b[i] get none.  Each round bisects, in every
    integral not yet done, its worst panels until those left hold at most
    the target between them.  Integral i is done when its summed error
    estimate is at most the target max(epsabs, 1e-10 |I|).  It fails when
    it reaches `_LIMIT` panels short of that, or starts with more segments
    than `_LIMIT` (QUADPACK's ier = 6).  Returns (values, error estimates,
    ok).
    """
    n = len(a)
    inside = (breaks > a[:, None]) & (breaks < b[:, None])
    pts = np.concatenate(
        [a[:, None], np.sort(np.where(inside, breaks, b[:, None]), axis=1), b[:, None]], axis=1)
    keep = pts[:, 1:] > pts[:, :-1]
    seg_row = np.nonzero(keep)[0]
    lo, width = pts[:, :-1][keep], (pts[:, 1:] - pts[:, :-1])[keep]
    maps = _ENDPOINT_MAPS[order][2 * (lo > a[seg_row]) + (lo + width < b[seg_row])]
    dmaps = maps[:, 1:] * np.arange(1, 6)
    # the panels as (segment, u0, u1, value, error); each round adds the new
    # ones, which start as the whole segments, and drops those it bisects
    new = np.arange(len(lo)), np.zeros(len(lo)), np.ones(len(lo))
    panels = (np.empty(0, dtype=int), *(np.empty(0) for _ in range(4)))
    while True:
        seg, u0, u1 = new
        h = 0.5 * (u1 - u0)
        powers = ((0.5 * (u0 + u1))[:, None] + h[:, None] * _GK21_X)[..., None] ** np.arange(6)
        t = lo[seg, None] + width[seg, None] * np.einsum("pnk,pk->pn", powers, maps[seg])
        jac = width[seg, None] * np.einsum("pnk,pk->pn", powers[..., :5], dmaps[seg])
        val, err = _gk21_panels(f(t, seg_row[seg]) * jac, h)
        panels = tuple(np.concatenate(pair) for pair in zip(panels, (seg, u0, u1, val, err)))
        p_seg, p_u0, p_u1, p_val, p_err = panels
        row = seg_row[p_seg]
        total, error = np.bincount(row, p_val, n), np.bincount(row, p_err, n)
        count = np.bincount(row, minlength=n)
        target = np.maximum(epsabs, 1e-10 * np.abs(total))
        live = (error > target) & (count < _LIMIT)
        if not live.any():
            return total, error, (error <= target) & (count <= _LIMIT)
        # rank each integral's panels by error; bisect while the panels from
        # this one down hold more than the target, and the limit allows
        ranked = np.lexsort((-p_err, row))
        r, e = row[ranked], p_err[ranked]
        first = np.searchsorted(r, r)
        above = np.cumsum(e) - e
        above -= above[first]
        rank = np.arange(len(r)) - first
        split = ranked[live[r] & (error[r] - above > target[r]) & (rank < _LIMIT - count[r])]
        mid = 0.5 * (p_u0[split] + p_u1[split])
        new = (np.repeat(p_seg[split], 2), np.stack([p_u0[split], mid], axis=1).ravel(),
               np.stack([mid, p_u1[split]], axis=1).ravel())
        stay = np.ones(len(p_seg), dtype=bool)
        stay[split] = False
        panels = tuple(x[stay] for x in panels)


def _half_widths(P: LaurentPoly2) -> tuple[float, float]:
    """(h_x, h_y): 1/2 on an axis whose integrand is even in t (period 1),
    so that its integral over [0, 1] is twice that over [0, 1/2]; else 1.

    With duplicate terms summed into c[i, j], the outer integral over t1 is
    even when every c is real (|P(conj x, conj y)| = |P(x, y)|) or when
    c[i, j] == c[-i, j] (P(1/x, y) = P(x, y)); the inner one over t2 when
    c[i, j] == c[i, -j] (P(x, 1/y) = P(x, y)).  The comparisons are exact.
    """
    c: dict[tuple[int, int], complex] = {}
    for i, j, v in P.terms:
        c[i, j] = c.get((i, j), 0) + v
    real = all(complex(v).imag == 0.0 for v in c.values())
    x_even = real or all(c.get((-i, j), 0) == v for (i, j), v in c.items())
    y_even = all(c.get((i, -j), 0) == v for (i, j), v in c.items())
    return (0.5 if x_even else 1.0), (0.5 if y_even else 1.0)


def m_generic_2d(P: LaurentPoly2, tol: float = 1e-6) -> float:
    """Brute-force Mahler measure: nested adaptive quadrature of
    log|P(e^{2 pi i t1}, e^{2 pi i t2})| over the unit square.

    Independent of the one-variable Jensen route: both integrals are
    adaptive Gauss-Kronrod-21 (`_gk21`, QUADPACK's qk21 rule and error
    estimate, epsrel 1e-10), each with explicit break points found from the
    polynomial itself.  The inner one, over t2, breaks at the
    y-roots within 1e-7 of the unit circle, whose log singularities the
    cubic endpoint maps smooth.  The outer one, over t1, breaks where a
    y-root enters, leaves or crosses the unit circle (found on a grid of t1
    by following each root, then narrowed), because the inner integral has
    a square-root or corner kink there, which the quadratic maps smooth.
    Each outer round computes the inner integrals at all its t1 nodes in
    lockstep, with their break points from one eigenvalue call.  Each
    integral is folded onto [0, 1/2] and doubled where P's symmetries make
    its integrand even (see `_half_widths`); its epsabs shrinks with the
    width, so the error targets over the whole square stay 0.5 tol (outer)
    and 0.02 tol (inner).  An integral that misses its target within
    `_LIMIT` subintervals, or an outer error estimate above tol, raises
    `AccuracyError` carrying the outer value as `best_estimate`.  tol below
    1e-8 raises `AccuracyError`; cost grows quadratically as tol shrinks.
    """
    if tol < 1e-8:
        raise AccuracyError(f"m_generic_2d: tol={tol:g} below supported range")
    coeffs_at = _y_coefficients(P)
    hx, hy = _half_widths(P)
    inner_failures = []

    def inner(t1: np.ndarray, _: np.ndarray) -> np.ndarray:
        """(1/hy) int_0^hy log|P(e^{2 pi i t1}, e^{2 pi i t2})| dt2 at every t1."""
        nodes = t1.ravel()
        C = coeffs_at(nodes)
        roots = _y_roots_at(C)
        near = np.abs(np.abs(roots) - 1.0) < _NEAR_CIRCLE
        breaks = np.where(near, np.angle(roots) / (2.0 * np.pi) % 1.0, np.nan)

        def log_abs(t2: np.ndarray, row: np.ndarray) -> np.ndarray:
            y, rows = np.exp(2j * np.pi * t2), C[row]
            acc = np.broadcast_to(rows[:, :1], y.shape)
            for k in range(1, rows.shape[1]):
                acc = acc * y + rows[:, k : k + 1]
            return np.log(np.maximum(np.abs(acc), 1e-300))

        zero = np.zeros(len(nodes))
        val, _, ok = _gk21(log_abs, zero, zero + hy, breaks, 3, 0.02 * tol * hy)
        inner_failures.extend(nodes[~ok].tolist())
        return (val / hy).reshape(t1.shape)

    breaks = np.array([_outer_break_points(coeffs_at, hx)])
    [val], [err], [ok] = _gk21(inner, np.zeros(1), np.full(1, hx), breaks, 2, 0.5 * tol * hx)
    val, err = float(val / hx), float(err / hx)
    if not ok:
        msg = f"m_generic_2d: outer integral hit its subinterval limit with error estimate {err:g}"
    elif inner_failures:
        msg = (
            f"m_generic_2d: inner integral hit its subinterval limit at "
            f"{len(inner_failures)} t1, first t1={inner_failures[0]!r}"
        )
    elif err > tol:
        msg = f"m_generic_2d: estimated error {err:g} exceeds tol {tol:g}"
    else:
        return val
    raise AccuracyError(msg, best_estimate=val, error_estimate=err)
