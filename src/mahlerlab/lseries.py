"""L(E, 2) and L'(E, 0) by a smoothed split of the completed L-function.

With Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) = eps Lambda(2 - s),
cutting the Mellin integral at y = A and folding the lower half through the
functional equation gives, termwise,

    L(E, 2) = sum a_n/n^2 e^{-2 pi n A} (1 + 2 pi n A)
            + eps (4 pi^2 / N) sum a_n E1(2 pi n / (N A)),

independent of the split point A.  That independence is a sharp numerical
certificate: a wrong sign or a wrong bad-prime coefficient makes the two
half-sums disagree at the 1e-4 level while the true data agree to 1e-10, so
the sign (and any coefficient local analysis could not fix) is *detected*,
never assumed.  L'(E, 0) = eps N/(4 pi^2) L(E, 2) then follows from the
Gamma-factor pole at s = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    CurveModel,
    ap_with_route,
    curve_from_k,
    extend_multiplicatively,
    hasse_range,
    primes_up_to,
)
from .errors import AccuracyError, DomainError, LDataError

_EULER_GAMMA = 0.5772156649015328606065

#: split points (in units of 1/sqrt(N)) probed by the independence test
_SPLIT_PROBES = (0.8, 1.0, 1.3)
_SPREAD_ACCEPT = 1e-10
_SPREAD_REJECT = 1e-6


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


@dataclass(frozen=True)
class LFunctionData:
    """Hecke coefficients a_1..a_nmax with conductor, sign, and audit trail."""

    an: tuple[int, ...]  # an[n] for n >= 1; an[0] unused
    eps: int
    N: int
    k_label: float
    ap_routes: dict[int, str]

    @property
    def n_max(self) -> int:
        return len(self.an) - 1


@dataclass(frozen=True)
class LValueResult:
    L2: float
    Lprime0: float
    n_used: int
    tail_bound: float


def default_n_max(N: int) -> int:
    """Terms needed for tail < 1e-15 at conductors up to 64."""
    return math.ceil(18.0 * math.sqrt(N) / (2.0 * math.pi)) + 50


def _split_weights(N: int, A: float, n_max: int) -> tuple[list[float], list[float]]:
    """w_dir[n] = e^{-2 pi n A}(1 + 2 pi n A)/n^2 and w_fold[n] = E1(2 pi n/(N A))
    for n <= n_max (index 0 is 0.0).  They depend on (N, A) only, so one pair
    scores every coefficient table and both signs at that split point."""
    w_dir = [0.0]
    w_fold = [0.0]
    for n in range(1, n_max + 1):
        x1 = 2.0 * math.pi * n * A
        w_dir.append(math.exp(-x1) * (1.0 + x1) / (n * n))
        w_fold.append(exp_integral_e1(2.0 * math.pi * n / (N * A)))
    return w_dir, w_fold


def _split_sums(an, weights, N: int) -> tuple[float, float]:
    """(a.w_dir, (4 pi^2/N) a.w_fold), so L(E, 2) = direct + eps * folded.

    A plain loop in index order: built-in sum() compensates on Python >= 3.12
    and would change the printed digits."""
    w_dir, w_fold = weights
    direct = 0.0
    folded = 0.0
    for a, wd, wf in zip(an, w_dir, w_fold):
        if a:
            direct += a * wd
            folded += a * wf
    return direct, 4.0 * math.pi**2 / N * folded


def _tail_bound(weights, n_max: int, N: int) -> float:
    # |a_n| <= n^{3/2} crudely dominates sigma_0(n) sqrt(n); the 60 extra terms
    # of the slower-decaying folded sum bound the rest by the decay ratio
    w_dir, w_fold = weights
    total = 0.0
    for n in range(n_max + 1, len(w_dir)):
        total += n ** 1.5 * (w_dir[n] + (4.0 * math.pi**2 / N) * w_fold[n])
    return 2.0 * total


def _probe_weights(N: int, n_max: int, probes=_SPLIT_PROBES) -> list:
    rootN = math.sqrt(N)
    return [_split_weights(N, c / rootN, n_max) for c in probes]


def _spread(sums, eps: int) -> float:
    vals = [direct + eps * folded for direct, folded in sums]
    return max(abs(u - v) for u in vals for v in vals)


def split_point_spread(data: LFunctionData, probes=_SPLIT_PROBES) -> float:
    """Max pairwise difference of L(E,2) across split points; the numerical
    certificate for eps and the delicate a_p."""
    weights = _probe_weights(data.N, data.n_max, probes)
    return _spread([_split_sums(data.an, w, data.N) for w in weights], data.eps)


def l2(
    curve: CurveModel,
    data: LFunctionData,
    tol: float = 1e-12,
    split: float | None = None,
) -> LValueResult:
    """L(E, 2) and L'(E, 0) from the coefficient table.

    `split` overrides the split point A (default 1/sqrt(N)); the tail bound
    must come in under tol or the caller is asked for a larger table.
    """
    N = curve.conductor_N
    if data.N != N:
        raise DomainError("l2: data and curve disagree on the conductor")
    A = split if split is not None else 1.0 / math.sqrt(N)
    weights = _split_weights(N, A, data.n_max + 60)
    tail = _tail_bound(weights, data.n_max, N)
    if tail > tol:
        raise AccuracyError(
            f"l2: tail bound {tail:g} exceeds tol {tol:g}; raise n_max",
            error_estimate=tail,
        )
    direct, folded = _split_sums(data.an, weights, N)
    val = direct + data.eps * folded
    return LValueResult(
        L2=val,
        Lprime0=data.eps * N / (4.0 * math.pi**2) * val,
        n_used=data.n_max,
        tail_bound=tail,
    )


def an_table(curve: CurveModel, n_max: int | None = None) -> LFunctionData:
    """Full coefficient table with eps and any delicate a_p resolved by the
    split-point-independence search."""
    if n_max is None:
        n_max = default_n_max(curve.conductor_N)
    if n_max < 1:
        raise DomainError(f"an_table: n_max must be >= 1, got {n_max}")
    N = curve.conductor_N
    known: dict[int, int] = {}
    routes: dict[int, str] = {}
    unresolved: list[tuple[int, list[int]]] = []
    for p in primes_up_to(max(n_max, 3)):
        value, route = ap_with_route(curve, p)
        routes[p] = route
        if value is not None:
            known[p] = value
            continue
        vN = 0 if N % p else (1 if (N // p) % p else 2)
        candidates = [1, -1] if vN == 1 else hasse_range(p)
        unresolved.append((p, candidates))

    # a_n once per choice of the unresolved a_p, then both signs from the
    # same sums; the stable sort keeps the first of equal spreads in
    # (eps, choice) order
    weights = _probe_weights(N, n_max)
    tables = []
    for choice in itertools.product(*[c for _, c in unresolved]):
        trial_ap = dict(known)
        trial_ap.update({p: a for (p, _), a in zip(unresolved, choice)})
        an = extend_multiplicatively(trial_ap, N, n_max)
        tables.append((an, [_split_sums(an, w, N) for w in weights]))
    scores = sorted(
        ((_spread(sums, eps), eps, an, sums) for eps in (1, -1) for an, sums in tables),
        key=lambda score: score[0],
    )
    (spread, eps, an, sums), runner = scores[0], scores[1][0]
    if spread > _SPREAD_ACCEPT or runner < _SPREAD_REJECT:
        raise LDataError(
            f"an_table: consistency search failed (winner {spread:g}, "
            f"runner-up {runner:g}) for k = {curve.k_label}"
        )
    # positivity: L(E,2) is an absolutely convergent Euler product; probe
    # 1.0 is the default split point A = 1/sqrt(N)
    direct, folded = sums[_SPLIT_PROBES.index(1.0)]
    if direct + eps * folded <= 0.0:
        raise LDataError(f"an_table: nonpositive L(E,2) for k = {curve.k_label}")
    return LFunctionData(
        an=tuple(an), eps=eps, N=N, k_label=curve.k_label, ap_routes=routes
    )


def lvalue_from_k(
    k: float, n_max: int | None = None, tol: float = 1e-12
) -> tuple[CurveModel, LFunctionData, LValueResult]:
    """Convenience pipeline: curve, coefficients, and L-values for one k."""
    curve = curve_from_k(k)
    data = an_table(curve, n_max)
    return curve, data, l2(curve, data, tol)


# ----------------------------------------------------------------------------
# exports


def an_table_text(data: LFunctionData) -> str:
    """Plain-text (n, a_n) table, one pair per line."""
    lines = [f"{n} {data.an[n]}" for n in range(1, data.n_max + 1)]
    return "\n".join(lines) + "\n"


def summary_record(
    curve: CurveModel, data: LFunctionData, result: LValueResult
) -> dict:
    return {
        "k": curve.k_label,
        "k_squared": curve.k_squared,
        "N": curve.conductor_N,
        "eps": data.eps,
        "L2": result.L2,
        "Lprime0": result.Lprime0,
        "n_used": result.n_used,
        "r_k": str(Fraction(curve.r_k)),
        "ap_routes": {str(p): r for p, r in sorted(data.ap_routes.items())},
    }
