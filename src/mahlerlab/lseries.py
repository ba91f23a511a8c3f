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
Gamma-factor pole at s = 0.  The search's winning sums give L(E, 2), its
tail bound and its certificate, so each call builds its weights once.
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

#: split points (in units of 1/sqrt(N)) probed by the independence test;
#: 1.0 is the default split point A = 1/sqrt(N), where L(E, 2) is read
_SPLIT_PROBES = (0.8, 1.0, 1.3)
_DEFAULT_PROBE = _SPLIT_PROBES.index(1.0)
#: the search's winner spreads at most SPREAD_ACCEPT, its runner-up at least _SPREAD_REJECT
SPREAD_ACCEPT = 1e-10
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
    """Hecke coefficients a_1..a_nmax with conductor, sign and audit trail,
    and the consistency search's winning split sums with their tail bound."""

    an: tuple[int, ...]  # an[n] for n >= 1; an[0] unused
    eps: int
    N: int
    k_label: float
    ap_routes: dict[int, str]
    sums: tuple[tuple[float, float], ...]  # (direct, folded) per split probe
    tail_bound: float

    @property
    def n_max(self) -> int:
        return len(self.an) - 1

    @property
    def L2(self) -> float:
        direct, folded = self.sums[_DEFAULT_PROBE]
        return direct + self.eps * folded

    @property
    def Lprime0(self) -> float:
        return self.eps * self.N / (4.0 * math.pi**2) * self.L2

    def spread(self, eps: int | None = None) -> float:
        """Max pairwise difference of L(E, 2) across the split points, the
        certificate for eps and the delicate a_p; pass -eps for the contrast."""
        return _spread(self.sums, self.eps if eps is None else eps)


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


def _spread(sums, eps: int) -> float:
    vals = [direct + eps * folded for direct, folded in sums]
    return max(abs(u - v) for u in vals for v in vals)


def an_table(curve: CurveModel, n_max: int | None = None) -> LFunctionData:
    """Full coefficient table with eps and any delicate a_p resolved by the
    split-point-independence search, carrying the winner's sums."""
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
        unresolved.append((p, [1, -1] if N % p == 0 else hasse_range(p)))

    # a_n once per choice of the unresolved a_p, then both signs from the
    # same sums; the stable sort keeps the first of equal spreads in
    # (eps, choice) order.  The default probe runs 60 terms past n_max for
    # the tail bound; the sums zip against an and stop at n_max.
    rootN = math.sqrt(N)
    weights = [_split_weights(N, c / rootN, n_max + 60 * (c == 1.0)) for c in _SPLIT_PROBES]
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
    if spread > SPREAD_ACCEPT or runner < _SPREAD_REJECT:
        raise LDataError(
            f"an_table: consistency search failed (winner {spread:g}, "
            f"runner-up {runner:g}) for k = {curve.k_label}"
        )
    data = LFunctionData(
        an=tuple(an), eps=eps, N=N, k_label=curve.k_label, ap_routes=routes,
        sums=tuple(sums), tail_bound=_tail_bound(weights[_DEFAULT_PROBE], n_max, N),
    )
    # positivity: L(E,2) is an absolutely convergent Euler product
    if data.L2 <= 0.0:
        raise LDataError(f"an_table: nonpositive L(E,2) for k = {curve.k_label}")
    return data


def lvalue_from_k(
    k: float, n_max: int | None = None, tol: float = 1e-12
) -> tuple[CurveModel, LFunctionData]:
    """Curve and certified coefficient table for one k; the table's tail
    bound must come in under tol or the caller is asked for a larger one."""
    curve = curve_from_k(k)
    data = an_table(curve, n_max)
    if data.tail_bound > tol:
        raise AccuracyError(
            f"lvalue: tail bound {data.tail_bound:g} exceeds tol {tol:g}; raise n_max",
            error_estimate=data.tail_bound,
        )
    return curve, data


# ----------------------------------------------------------------------------
# exports


def an_table_text(data: LFunctionData) -> str:
    """Plain-text (n, a_n) table, one pair per line."""
    lines = [f"{n} {data.an[n]}" for n in range(1, data.n_max + 1)]
    return "\n".join(lines) + "\n"


def summary_record(curve: CurveModel, data: LFunctionData) -> dict:
    return {
        "k": curve.k_label,
        "k_squared": curve.k_squared,
        "N": curve.conductor_N,
        "eps": data.eps,
        "L2": data.L2,
        "Lprime0": data.Lprime0,
        "n_used": data.n_max,
        "r_k": str(Fraction(curve.r_k)),
        "ap_routes": {str(p): r for p, r in sorted(data.ap_routes.items())},
    }
