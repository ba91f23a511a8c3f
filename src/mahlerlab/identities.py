"""Verifier for Pi/K elliptic-integral identities of the form

    Pi(p(x), q(x)) + r(x) K(q(x)) = s(x),

where r is forced by p and q, r must satisfy a first-order linear ODE, and
s is determined up to a constant by s'/s = f.  Given differentiable p, q the
engine computes r and f from their closed forms, checks the ODE and the
vanishing of the E-coefficient pointwise via second-order jets, reconstructs
s(x) = C exp(int f) with the constant pinned at an anchor, and reports the
residual of the identity over a grid.  The residuals at every grid point come
from one pass over numpy arrays; the pointwise functions are one-element
calls of the same pass.

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

#: bounds on the ODE and E-coefficient residuals over the grid
ODE_TOL = 1e-10
E_COEFF_TOL = 1e-11


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
    # (label, max |Pi + r_printed K - printed RHS|) per printed coefficient
    printed_residual_max: tuple[tuple[str, float], ...]
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


def _pq_jets(cand: IdentityCandidate, x) -> tuple[Jet2, Jet2]:
    """p and q as jets at x, a float or an array; an expression without x,
    which gives a plain float, becomes a constant jet of x's shape."""
    seed = Jet2.seed(x)
    try:
        pq = cand.p(seed), cand.q(seed)
    except (DomainError, ZeroDivisionError, ValueError) as exc:
        raise SingularPointError(
            f"{cand.name}: p/q jets undefined at x = {x}: {exc}"
        ) from exc
    return tuple(v if isinstance(v, Jet2) else Jet2(v + 0.0 * seed.value) for v in pq)


def _r_num_den(P, dP, Q, dQ):
    num = dP * Q * (1 - Q * Q) + 2 * dQ * Q * Q * (P - 1)
    den = 2 * dQ * (1 - P) * (Q * Q - P)
    return num, den


def _f_num_den(p, dp, q, dq):
    num = dp * (p * p - q * q) - 2.0 * dq * q * p * (p - 1.0)
    den = 2.0 * p * (p - 1.0) * (q * q - p)
    return num, den


def _coefficients(cand: IdentityCandidate, xs: Sequence[float], faults: str):
    """(p jet, q jet, r, f) over xs from one array-jet evaluation.  At the
    first point where one fires, raises SingularPointError for undefined p/q
    jets (from the scalar `_pq_jets`), then for each of `faults` in order:
    "r" or "f", that denominator vanishes or is not finite; "q", q in {0, 1}.
    A NaN that the jets carry without raising stays in place."""
    with np.errstate(all="ignore"):
        pj, qj = _pq_jets(cand, np.array(xs, dtype=float))
        rnum, rden = _r_num_den(pj.value, pj.d1, qj.value, qj.d1)
        fnum, fden = _f_num_den(pj.value, pj.d1, qj.value, qj.d1)
        r, f = rnum / rden, fnum / fden
    fired = {
        "r": ((rden == 0.0) | ~np.isfinite(rden), "r denominator vanishes"),
        "f": ((fden == 0.0) | ~np.isfinite(fden), "f denominator vanishes"),
        "q": ((qj.value == 0.0) | (qj.value == 1.0), "q in {0,1}"),
    }
    flagged = np.logical_or.reduce([fired[c][0] for c in faults])
    if flagged.any():
        i = int(np.argmax(flagged))
        _pq_jets(cand, xs[i])
        what = next(fired[c][1] for c in faults if fired[c][0][i])
        raise SingularPointError(f"{cand.name}: {what} at x = {xs[i]}")
    return pj, qj, r, f


def eval_r(cand: IdentityCandidate, x: float) -> float:
    """K-coefficient r(x) forced by (p, q); raises SingularPointError on a
    vanishing denominator."""
    return _coefficients(cand, [x], "r")[2].item()


def eval_f(cand: IdentityCandidate, x: float) -> float:
    """Logarithmic derivative f(x) = s'(x)/s(x) forced by (p, q)."""
    return _coefficients(cand, [x], "f")[3].item()


def _f_array(cand: IdentityCandidate, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs in one jet evaluation, NaN wherever eval_f
    raises SingularPointError."""
    with np.errstate(all="ignore"):
        pj, qj = _pq_jets(cand, xs)
        num, den = _f_num_den(pj.value, pj.d1, qj.value, qj.d1)
        return np.where((den == 0.0) | ~np.isfinite(den), math.nan, num / den)


def _r_jet(pj: Jet2, qj: Jet2) -> Jet2:
    """(r, r') as a first-order jet, obtained by pushing the p/q jets
    through the r-formula one derivative order higher."""
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
    pj, qj, _, f = _coefficients(cand, [x], "rfq" if r_override is None else "fq")
    if r_override is None:
        rj = _r_jet(pj, qj)
    else:
        rj = r_override(Jet2.seed(x)) if callable(r_override) else r_override
        rj = rj if isinstance(rj, Jet2) else Jet2(float(rj))
    with np.errstate(all="ignore"):
        return _ode_residual(f, pj, qj, rj).item()


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
    pj, qj, r, _ = _coefficients(cand, [x], "qr")
    with np.errstate(all="ignore"):
        return _e_coefficient_residual(pj, qj, r).item()


def _anchor_r(cand: IdentityCandidate, x0: float) -> float:
    try:
        return eval_r(cand, x0)
    except SingularPointError:
        if cand.printed_r is None:
            raise
        return cand.printed_r(x0)


def _values_at(cand: IdentityCandidate, x: float) -> tuple[float, float]:
    """The float p(x), q(x) through the regime gate: p < 1, q in [0, 1),
    and a non-finite p refused with ell_pi's DomainError."""
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
    if not math.isfinite(p):
        ell_pi(p, q)  # raises its DomainError
    return p, q


def identity_lhs(cand: IdentityCandidate, x: float, r: float | None = None) -> float:
    """Pi(p(x), q(x)) + r(x) K(q(x)) with r from the generic formula unless
    overridden."""
    p, q = _values_at(cand, x)
    if r is None:
        r = eval_r(cand, x)
    pi, k = ell_pi_k(p, q)
    return pi + r * k


def _max_abs(v: np.ndarray) -> float:
    """max |v| with a running max's semantics: 0.0 when empty, NaN skipped."""
    return float(np.fmax.reduce(np.abs(v), initial=0.0))


def verify_identity(
    cand: IdentityCandidate,
    x0: float | None = None,
    grid: Sequence[float] | None = None,
    tol: float = 1e-10,
) -> IdentityReport:
    """Pin C = Pi + r K at the anchor, rebuild s(x) = C exp(int_x0^x f) by
    cumulative quadrature, and report max residuals over the grid, with
    those of the printed coefficients against the printed RHS."""
    if x0 is None:
        x0 = cand.anchor_x0
    xs = sorted(grid) if grid is not None else default_grid(cand)
    # the regime gate at every grid point, then at the anchor, before any
    # reconstruction work; Pi and K there, anchor last, from one call of the
    # Carlson kernels
    pq = [_values_at(cand, x) for x in (*xs, x0)]
    pi, k = ell_pi_k_array(*np.array(pq, dtype=float).T)
    C = pi[-1].item() + _anchor_r(cand, x0) * k[-1].item()

    # at a degenerate anchor the f-formula underflows to 0/0 while f itself
    # stays bounded; the NaN there makes the quadrature drop those nodes
    f = functools.partial(_f_array, cand)
    s_at: dict[float, float] = {}
    for chain in ([x for x in xs if x > x0], [x for x in reversed(xs) if x < x0]):
        if chain:
            for x, integral in zip(chain, cumulative_integrals(f, x0, chain)):
                s_at[x] = C * math.exp(integral)

    # the identity holds at the anchor by construction
    off = np.array(xs, dtype=float) != x0
    pts = [x for x in xs if x != x0]
    pj, qj, r, fx = _coefficients(cand, pts, "rfq")
    with np.errstate(all="ignore"):
        lhs = pi[:-1][off] + r * k[:-1][off]
        ode = _ode_residual(fx, pj, qj, _r_jet(pj, qj))
        ec = _e_coefficient_residual(pj, qj, r)
    s = np.array([s_at[x] for x in pts], dtype=float)

    printed = []
    if cand.printed_rhs is not None:
        rhs = np.array([cand.printed_rhs(x) for x in xs], dtype=float)
        variants = [("printed", cand.printed_r)] if cand.printed_r else []
        for label, rfn in variants + list(cand.printed_r_alts):
            r_printed = np.array([rfn(x) for x in xs], dtype=float)
            printed.append((label, _max_abs(pi[:-1] + r_printed * k[:-1] - rhs)))
    return IdentityReport(
        name=cand.name,
        anchor_x0=x0,
        constant_C=C,
        grid=tuple(xs),
        ode_residual_max=_max_abs(ode),
        e_coeff_residual_max=_max_abs(ec),
        identity_residual_max=_max_abs(lhs - s),
        printed_residual_max=tuple(printed),
        identity_tol=tol,
        ode_tol=ODE_TOL,
        e_coeff_tol=E_COEFF_TOL,
    )


def check_printed_variants(
    cand: IdentityCandidate, grid: Sequence[float] | None = None
) -> dict[str, float]:
    """Max |Pi + r_printed K - printed RHS| per printed coefficient variant,
    as `verify_identity` reports it over the grid.

    Resolves self-inconsistent sources: exactly one variant should pass.
    """
    if cand.printed_rhs is None:
        raise DomainError(f"{cand.name}: no printed closed form to check against")
    return dict(verify_identity(cand, grid=grid).printed_residual_max)


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
