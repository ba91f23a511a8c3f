"""Verifier for Pi/K elliptic-integral identities of the form

    Pi(p(x), q(x)) + r(x) K(q(x)) = s(x),

where r is forced by p and q, r must satisfy a first-order linear ODE, and
s is determined up to a constant by s'/s = f.  Given differentiable p, q the
engine computes r and f from their closed forms, checks the ODE and the
vanishing of the E-coefficient pointwise via second-order jets, reconstructs
s(x) = C exp(int f) with the constant pinned at an anchor, and reports the
residual of the identity over a grid.  The residuals at every grid point come
from one pass over numpy arrays, bitwise equal to the per-point scalar step.

Four built-in (p, q) pairs are shipped, including Jia's identity; candidates
can also be loaded from expression strings (see `expressions`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elliptic import ell_pi, ell_pi_k, ell_pi_k_array
from .errors import DomainError, RegimeError, SingularPointError
from .jets import Jet2, sqrt
from .quadrature import cumulative_integrals

Scalar = Callable[[float], float]


@dataclass(frozen=True)
class IdentityCandidate:
    """A (p, q) pair with its verification domain.

    p and q must accept both floats and Jet2 arguments (use `jets.sqrt`).
    printed_r is the closed-form K-coefficient as printed in the source of the
    identity; it is used only to pin the constant at anchors where the generic
    r-formula degenerates to 0/0.  printed_r_alts holds labelled alternative
    printed coefficients when the source is self-inconsistent.  grid_span is
    the (lo, hi) of the default verification grid, which is dense at hi.
    """

    name: str
    p: Callable
    q: Callable
    domain: tuple[float, float]
    anchor_x0: float
    printed_r: Scalar | None = None
    printed_rhs: Scalar | None = None
    printed_r_alts: tuple[tuple[str, Scalar], ...] = ()
    grid_span: tuple[float, float] = (1e-3, 0.99)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    anchor_x0: float
    constant_C: float
    grid: tuple[float, ...]
    ode_residual_max: float
    e_coeff_residual_max: float
    identity_residual_max: float
    identity_tol: float
    ode_tol: float
    e_coeff_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.identity_residual_max <= self.identity_tol
            and self.ode_residual_max <= self.ode_tol
            and self.e_coeff_residual_max <= self.e_coeff_tol
        )


def _pq_jets(cand: IdentityCandidate, x: float) -> tuple[Jet2, Jet2]:
    try:
        return cand.p(Jet2.seed(x)), cand.q(Jet2.seed(x))
    except (DomainError, ZeroDivisionError, ValueError) as exc:
        raise SingularPointError(
            f"{cand.name}: p/q jets undefined at x = {x}: {exc}"
        ) from exc


def _r_num_den(P, dP, Q, dQ):
    num = dP * Q * (1 - Q * Q) + 2 * dQ * Q * Q * (P - 1)
    den = 2 * dQ * (1 - P) * (Q * Q - P)
    return num, den


def _r_value(cand: IdentityCandidate, x: float, pj: Jet2, qj: Jet2) -> float:
    num, den = _r_num_den(pj.value, pj.d1, qj.value, qj.d1)
    if den == 0.0 or not math.isfinite(den):
        raise SingularPointError(f"{cand.name}: r denominator vanishes at x = {x}")
    return num / den


def eval_r(cand: IdentityCandidate, x: float) -> float:
    """K-coefficient r(x) forced by (p, q); raises SingularPointError on a
    vanishing denominator."""
    return _r_value(cand, x, *_pq_jets(cand, x))


def _f_num_den(p, dp, q, dq):
    num = dp * (p * p - q * q) - 2.0 * dq * q * p * (p - 1.0)
    den = 2.0 * p * (p - 1.0) * (q * q - p)
    return num, den


def _f_value(cand: IdentityCandidate, x: float, pj: Jet2, qj: Jet2) -> float:
    num, den = _f_num_den(pj.value, pj.d1, qj.value, qj.d1)
    if den == 0.0 or not math.isfinite(den):
        raise SingularPointError(f"{cand.name}: f denominator vanishes at x = {x}")
    return num / den


def eval_f(cand: IdentityCandidate, x: float) -> float:
    """Logarithmic derivative f(x) = s'(x)/s(x) forced by (p, q)."""
    return _f_value(cand, x, *_pq_jets(cand, x))


def _f_array(cand: IdentityCandidate, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs in one jet evaluation, NaN wherever eval_f
    raises SingularPointError."""
    with np.errstate(all="ignore"):
        pj, qj = cand.p(Jet2.seed(xs)), cand.q(Jet2.seed(xs))
        num, den = _f_num_den(pj.value, pj.d1, qj.value, qj.d1)
        return np.where((den == 0.0) | ~np.isfinite(den), math.nan, num / den)


def _r_jet(pj: Jet2, qj: Jet2) -> Jet2:
    """(r, r') as a first-order jet, obtained by pushing the p/q jets
    through the r-formula one derivative order higher.  Where the r
    denominator vanishes, scalar jets raise ZeroDivisionError and array jets
    give NaN."""
    P = Jet2(pj.value, pj.d1)
    dP = Jet2(pj.d1, pj.d2)
    Q = Jet2(qj.value, qj.d1)
    dQ = Jet2(qj.d1, qj.d2)
    num, den = _r_num_den(P, dP, Q, dQ)
    return num / den


def _ode_residual(f, pj: Jet2, qj: Jet2, rj: Jet2):
    """r' - (f + q'/q) r + p'/(2p(p-1)), for floats and arrays alike."""
    return rj.d1 - (f + qj.d1 / qj.value) * rj.value + pj.d1 / (
        2.0 * pj.value * (pj.value - 1.0)
    )


def ode_residual(
    cand: IdentityCandidate, x: float, r_override: float | Scalar | None = None
) -> float:
    """Residual of r' - (f + q'/q) r + p'/(2p(p-1)) at x.

    Vanishes when r from the generic formula solves the ODE.  r_override
    substitutes a different coefficient (a constant or a callable evaluated
    through jets) to demonstrate that non-solutions fail.
    """
    pj, qj = _pq_jets(cand, x)
    if r_override is None:
        try:
            rj = _r_jet(pj, qj)
        except ZeroDivisionError:
            raise SingularPointError(f"{cand.name}: r denominator vanishes at x = {x}") from None
    elif callable(r_override):
        rj = r_override(Jet2.seed(x))
        if not isinstance(rj, Jet2):
            rj = Jet2(float(rj))
    else:
        rj = Jet2(float(r_override))
    return _ode_residual(_f_value(cand, x, pj, qj), pj, qj, rj)


def _e_coefficient_residual(pj: Jet2, qj: Jet2, r):
    """The E(q) coefficient of d/dx [Pi + r K], for floats and arrays alike."""
    p, dp, q, dq = pj.value, pj.d1, qj.value, qj.d1
    return (
        dp / (2.0 * (p - 1.0) * (q * q - p))
        + dq * q / ((1.0 - q * q) * (q * q - p))
        + r * dq / (q * (1.0 - q * q))
    )


def e_coefficient_residual(cand: IdentityCandidate, x: float) -> float:
    """The E(q(x)) coefficient in d/dx [Pi + r K]; zero exactly when r takes
    its forced value."""
    pj, qj = _pq_jets(cand, x)
    if qj.value in (0.0, 1.0):
        raise SingularPointError(f"{cand.name}: q in {{0,1}} at x = {x}")
    return _e_coefficient_residual(pj, qj, _r_value(cand, x, pj, qj))


def _anchor_r(cand: IdentityCandidate, x0: float) -> float:
    try:
        return eval_r(cand, x0)
    except SingularPointError:
        if cand.printed_r is None:
            raise
        return cand.printed_r(x0)


def _values_at(cand: IdentityCandidate, x: float) -> tuple[float, float]:
    try:
        p = cand.p(float(x))
        q = cand.q(float(x))
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise SingularPointError(f"{cand.name}: p/q undefined at x = {x}: {exc}") from exc
    if isinstance(p, complex) or isinstance(q, complex):
        raise SingularPointError(f"{cand.name}: p/q undefined at x = {x}: p = {p}, q = {q}")
    if isinstance(p, Jet2) or isinstance(q, Jet2):  # pragma: no cover
        raise TypeError("candidate p/q must map floats to floats")
    if p >= 1.0:
        raise RegimeError(
            f"{cand.name}: Pi characteristic p(x) = {p} >= 1 at x = {x}"
        )
    if not 0.0 <= q < 1.0:
        raise RegimeError(f"{cand.name}: modulus q(x) = {q} outside [0,1) at x = {x}")
    return p, q


def identity_lhs(cand: IdentityCandidate, x: float, r: float | None = None) -> float:
    """Pi(p(x), q(x)) + r(x) K(q(x)) with r from the generic formula unless
    overridden."""
    p, q = _values_at(cand, x)
    if r is None:
        r = eval_r(cand, x)
    pi, k = ell_pi_k(p, q)
    return pi + r * k


def _residual_arrays(
    cand: IdentityCandidate, xs: np.ndarray, pi: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, ...]:
    """identity_lhs, ode_residual and e_coefficient_residual at every point
    of xs in one array pass, given Pi and K at the float p(xs), q(xs), and
    the mask of points where they must be replayed: some value is not
    finite, or a scalar function meets a raise condition there."""
    with np.errstate(all="ignore"):
        pj, qj = cand.p(Jet2.seed(xs)), cand.q(Jet2.seed(xs))
        rnum, rden = _r_num_den(pj.value, pj.d1, qj.value, qj.d1)
        fnum, fden = _f_num_den(pj.value, pj.d1, qj.value, qj.d1)
        r = rnum / rden
        lhs = pi + r * k
        ode = _ode_residual(fnum / fden, pj, qj, _r_jet(pj, qj))
        ec = _e_coefficient_residual(pj, qj, r)
    replay = (rden == 0.0) | (fden == 0.0) | (qj.value == 0.0) | (qj.value == 1.0)
    for v in (rden, fden, lhs, ode, ec):
        replay |= ~np.isfinite(v)
    return lhs, ode, ec, replay


def _max_abs(v: np.ndarray) -> float:
    """max |v| with a running max's semantics: 0.0 when empty, NaN skipped."""
    return float(np.fmax.reduce(np.abs(v), initial=0.0))


def verify_identity(
    cand: IdentityCandidate,
    x0: float | None = None,
    grid: Sequence[float] | None = None,
    tol: float = 1e-10,
    ode_tol: float = 1e-10,
    e_coeff_tol: float = 1e-11,
) -> IdentityReport:
    """Pin C = Pi + r K at the anchor, rebuild s(x) = C exp(int_x0^x f) by
    cumulative quadrature, and report max residuals over the grid."""
    if x0 is None:
        x0 = cand.anchor_x0
    xs = sorted(grid) if grid is not None else list(default_grid(cand))
    pq = [_values_at(cand, x) for x in xs]  # regime gate before any reconstruction work
    p0, q0 = _values_at(cand, x0)
    if not math.isfinite(p0):
        ell_pi(p0, q0)  # raises its DomainError
    # Pi and K at every grid point but the anchor, and last at the anchor,
    # from one call of the Carlson kernels; the anchor holds by construction
    off = [i for i, x in enumerate(xs) if x != x0]
    p, q = (np.array([pq[i][j] for i in off] + [(p0, q0)[j]], dtype=float) for j in (0, 1))
    pi, k = ell_pi_k_array(p, q)
    C = pi[-1].item() + _anchor_r(cand, x0) * k[-1].item()

    # at a degenerate anchor the f-formula underflows to 0/0 while f itself
    # stays bounded; the NaN there makes the quadrature drop those nodes
    f = functools.partial(_f_array, cand)
    s_at: dict[float, float] = {}
    above = [x for x in xs if x > x0]
    below = [x for x in xs if x < x0]
    below.reverse()
    for chain in (above, below):
        if chain:
            for x, integral in zip(chain, cumulative_integrals(f, x0, chain)):
                s_at[x] = C * math.exp(integral)
    if x0 in xs:
        s_at[x0] = C

    pts = np.array([xs[i] for i in off], dtype=float)
    lhs, ode, ec, replay = _residual_arrays(cand, pts, pi[:-1], k[:-1])
    # in grid order, so the first point where a scalar function raises raises
    for i in np.flatnonzero(replay):
        x = xs[off[i]]
        lhs[i] = identity_lhs(cand, x)
        ode[i] = ode_residual(cand, x)
        ec[i] = e_coefficient_residual(cand, x)
    s = np.array([s_at[xs[i]] for i in off], dtype=float)
    return IdentityReport(
        name=cand.name,
        anchor_x0=x0,
        constant_C=C,
        grid=tuple(xs),
        ode_residual_max=_max_abs(ode),
        e_coeff_residual_max=_max_abs(ec),
        identity_residual_max=_max_abs(lhs - s),
        identity_tol=tol,
        ode_tol=ode_tol,
        e_coeff_tol=e_coeff_tol,
    )


def check_printed_variants(
    cand: IdentityCandidate, grid: Sequence[float] | None = None, tol: float = 1e-10
) -> dict[str, float]:
    """Max |Pi + r_printed K - printed RHS| per printed coefficient variant.

    Resolves self-inconsistent sources: exactly one variant should pass.
    """
    if cand.printed_rhs is None:
        raise DomainError(f"{cand.name}: no printed closed form to check against")
    xs = sorted(grid) if grid is not None else list(default_grid(cand))
    variants = [("printed", cand.printed_r)] if cand.printed_r else []
    variants += list(cand.printed_r_alts)
    out, rows = {}, []
    for label, rfn in variants:
        # the scalar steps in identity_lhs's order; the regime gate, the
        # Carlson pass and the RHS do not depend on the variant and run with
        # the first.  The Carlson kernels raise nowhere else on the gate's (p, q)
        r = []
        for x in xs:
            r.append(rfn(x))
            if len(rows) < len(xs):
                p, q = _values_at(cand, x)
                if not math.isfinite(p):
                    ell_pi(p, q)  # raises its DomainError
                rows.append((p, q, cand.printed_rhs(x)))
        if not out:
            p, q, rhs = np.array(rows, dtype=float).reshape(-1, 3).T
            pi, k = ell_pi_k_array(p, q)
        out[label] = _max_abs(pi + np.array(r, dtype=float) * k - rhs)
    return out


# ----------------------------------------------------------------------------
# built-in candidates


def _geom_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points of [lo, hi], geometrically packed toward hi."""
    # distances from the dense end, log-spaced
    span = abs(hi - lo)
    emin, emax = math.log10(span * 1e-3), math.log10(span)
    step = (emax - emin) / (n - 1)
    pts = [hi + math.copysign(10.0 ** (emin + i * step), lo - hi) for i in range(n)]
    return sorted(pts)


def default_grid(cand: IdentityCandidate, n: int = 200) -> list[float]:
    """Verification grid over cand.grid_span, log-spaced toward the
    residual-critical end (q -> 1, or the degenerate anchor for the
    unbounded-domain candidate)."""
    return _geom_grid(*cand.grid_span, n)


def builtin_candidates() -> list[IdentityCandidate]:
    """The four shipped (p, q) pairs with their real-evaluable domains; the
    same candidate objects on every call."""
    return list(_builtins())


@functools.cache
def _builtins() -> tuple[IdentityCandidate, ...]:
    linear = IdentityCandidate(
        name="linear",
        p=lambda x: -x,
        q=lambda x: x,
        domain=(0.0, 1.0),
        anchor_x0=0.0,
        printed_r=lambda x: -0.5,
        printed_rhs=lambda x: math.pi / (4.0 * (x + 1.0)),
    )
    jia = IdentityCandidate(
        name="jia",
        p=lambda x: (1 + x) * (1 - 3 * x) / ((1 - x) * (1 + 3 * x)),
        q=lambda x: sqrt((1 + x) ** 3 * (1 - 3 * x) / ((1 - x) ** 3 * (1 + 3 * x))),
        domain=(-math.inf, -1.0),
        anchor_x0=-1.0,
        printed_r=lambda x: -(1 + 3 * x) / (6 * x),
        printed_rhs=lambda x: -math.pi / 12.0 * math.sqrt((1 + 3 * x) * (x - 1) ** 3) / x,
        grid_span=(-10.0, -1.001),
    )
    cubic = IdentityCandidate(
        name="cubic",
        p=lambda x: -(x * x) / (1 + 2 * x),
        q=lambda x: sqrt(x**3 * (2 + x) / (1 + 2 * x)),
        domain=(0.0, 1.0),
        anchor_x0=0.0,
        printed_r=lambda x: -(2 + x) * (1 + 2 * x) / (3.0 * (1 + x) ** 2),
        printed_rhs=lambda x: math.pi / 6.0 * math.sqrt(1 + 2 * x) / (1 + x) ** 2,
        printed_r_alts=(("displayed", lambda x: -(1 + 3 * x) / (6.0 * x)),),
    )
    surd = IdentityCandidate(
        name="surd",
        p=lambda x: x * (sqrt(x * x + 1) + 1) * (sqrt(x * x + 1) - x),
        q=lambda x: x * x,
        domain=(0.0, 1.0),
        anchor_x0=0.0,
        printed_r=lambda x: (1 - x - 2 * math.sqrt(1 + x * x)) / (4 * math.sqrt(1 + x * x)),
        printed_rhs=lambda x: 3 * math.pi / (8 * (1 - x) * math.sqrt(1 + x * x)),
        grid_span=(1e-3, 0.95),
    )
    return linear, jia, cubic, surd
