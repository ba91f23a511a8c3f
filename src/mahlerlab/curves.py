"""Integral models and Hecke coefficients for the curves attached to the family.

The parameter k with k^2 rational gives the curve

    y^2 = x^3 + (k^2/8)(k^2/8 - 1) x^2 + (k^4/256) x,

cleared to an integral model by the smallest scaling (x, y) -> (x/d^2, y/d^3).
Conductors and the Mahler-measure multipliers r_k come from the published
numerical table for this family; minimality is enforced only locally where a
coefficient computation needs it.

`ap_with_route` picks one route per prime and records its label:
  * "char-sum": odd p not dividing the model discriminant; the character sum
    -sum_x (x^3 + a2 x^2 + a4 x | p) on the model;
  * "additive": v_p(N) >= 2, a_p = 0;
  * "node": odd p exactly dividing N, model p-minimal; the node sign
    (3 x0 + a2 | p) at the singular x0 of the model
    (split -> +1, non-split -> -1);
  * "reduced-node": as "node", but the model is p-non-minimal (p >= 5); the
    node sign on the short model y^2 = x^3 - 27 c4 x - 54 c6 built from
    (c4, c6) divided by (p^4, p^6) until minimal;
  * "reduced-count": p >= 5 dividing the discriminant but not N; the
    character sum on that short model;
  * "consistency": p = 2 with v2(N) <= 1, and p = 3 dividing the
    discriminant on a 3-non-minimal model or with 3 not dividing N; a_p is
    left to the functional-equation consistency search in `lseries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnsupportedCurveError

#: k^2 -> (conductor N, Mahler multiplier r_k) for the supported real-k rows
TABLE1: dict[int, tuple[int, Fraction]] = {
    1: (15, Fraction(1)),
    2: (56, Fraction(1, 4)),
    4: (24, Fraction(1)),
    8: (32, Fraction(1)),
    9: (21, Fraction(2)),
    18: (24, Fraction(5, 2)),
    25: (15, Fraction(6)),
    32: (64, Fraction(1)),
    64: (24, Fraction(4)),
    144: (48, Fraction(2)),
    256: (15, Fraction(11)),
}

#: labels for pretty-printing the supported k values, keyed by k^2
K_LABELS: dict[int, str] = {
    1: "1", 2: "sqrt(2)", 4: "2", 8: "2*sqrt(2)", 9: "3", 18: "3*sqrt(2)",
    25: "5", 32: "4*sqrt(2)", 64: "8", 144: "12", 256: "16",
}


@dataclass(frozen=True)
class CurveModel:
    """Integral model y^2 = x^3 + a2 x^2 + a4 x with table metadata."""

    k_label: float
    k_squared: int
    a2: int
    a4: int
    discriminant: int
    conductor_N: int
    scaling_exponent: int
    r_k: Fraction

    @property
    def c4(self) -> int:
        return 16 * self.a2 * self.a2 - 48 * self.a4

    @property
    def c6(self) -> int:
        return -64 * self.a2**3 + 288 * self.a2 * self.a4


def curve_from_k(k: float) -> CurveModel:
    """Integral model for the supported parameter k (k^2 in the table)."""
    if k <= 0:
        raise UnsupportedCurveError(f"curve_from_k: requires k > 0, got {k}")
    k2f = float(k) * float(k)
    # k^2 overflows to inf from k ~ 1.34e154, which round() refuses
    k2 = round(k2f) if math.isfinite(k2f) else None
    if k2 not in TABLE1 or abs(k2f - k2) > 1e-9 * max(1.0, k2):
        raise UnsupportedCurveError(
            f"curve_from_k: k = {k} (k^2 = {k2f:.12g}) is not a supported table row"
        )
    A = Fraction(k2, 8) * (Fraction(k2, 8) - 1)
    B = Fraction(k2 * k2, 256)
    d = 1
    while (A * d * d).denominator != 1 or (B * d**4).denominator != 1:
        d += 1
    a2 = int(A * d * d)
    a4 = int(B * d**4)
    disc = 16 * a4 * a4 * (a2 * a2 - 4 * a4)
    if disc == 0:
        raise UnsupportedCurveError(f"curve_from_k: singular model at k = {k}")
    N, r = TABLE1[k2]
    return CurveModel(
        k_label=float(k),
        k_squared=k2,
        a2=a2,
        a4=a4,
        discriminant=disc,
        conductor_N=N,
        scaling_exponent=d,
        r_k=r,
    )


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def primes_up_to(n: int) -> list[int]:
    """Eratosthenes sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i, v in enumerate(sieve) if v]


def _vp(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _minimal_c4c6(curve: CurveModel, p: int) -> tuple[int, int, int]:
    """(c4, c6, disc) of a p-minimal model, p odd; at p = 3 reduction stops if
    the reduced pair is not realizable by an integral model (v3(c6') = 2)."""
    c4, c6 = curve.c4, curve.c6
    disc = (c4**3 - c6 * c6) // 1728
    while _vp(c4, p) >= 4 and _vp(c6, p) >= 6 and _vp(disc, p) >= 12:
        nc4, nc6 = c4 // p**4, c6 // p**6
        if p == 3 and _vp(nc6, 3) == 2:
            break
        c4, c6 = nc4, nc6
        disc = (c4**3 - c6 * c6) // 1728
    return c4, c6, disc


def _char_sum(a2: int, a4: int, a6: int, p: int) -> int:
    """-sum_x (x^3 + a2 x^2 + a4 x + a6 | p): a_p at an odd prime of good
    reduction of the model."""
    a2, a4, a6 = a2 % p, a4 % p, a6 % p
    return -sum(legendre_symbol(((x + a2) * x + a4) * x + a6, p) for x in range(p))


def _node_sign(a2: int, a4: int, a6: int, p: int) -> int:
    """(3 x0 + a2 | p) at the singular x0 of y^2 = x^3 + a2 x^2 + a4 x + a6
    mod p: +1 for a split node, -1 for a non-split one."""
    x0 = next(
        x
        for x in range(p)
        if (((x + a2) * x + a4) * x + a6) % p == 0 and ((3 * x + 2 * a2) * x + a4) % p == 0
    )
    return legendre_symbol(3 * x0 + a2, p)


def ap_with_route(curve: CurveModel, p: int) -> tuple[int | None, str]:
    """(a_p, route) for the prime p; (None, "consistency") leaves a_p to the
    functional-equation search in `lseries`."""
    N = curve.conductor_N
    if p == 2:
        return (0, "additive") if N % 4 == 0 else (None, "consistency")
    if curve.discriminant % p:
        return _char_sum(curve.a2, curve.a4, 0, p), "char-sum"
    if _vp(N, p) >= 2:
        return 0, "additive"
    c4, c6, disc = _minimal_c4c6(curve, p)
    reduced = (c4, c6) != (curve.c4, curve.c6)
    if p == 3 and (reduced or N % 3):
        return None, "consistency"
    short = (0, -27 * c4, -54 * c6)
    if N % p:
        # good reduction hidden by a non-minimal model
        if disc % p == 0:  # pragma: no cover - table curves never hit this
            raise DomainError(f"p = {p}: bad reduction despite p not dividing N")
        return _char_sum(*short, p), "reduced-count"
    if not reduced:
        return _node_sign(curve.a2, curve.a4, 0, p), "node"
    return _node_sign(*short, p), "reduced-node"


def hasse_range(p: int) -> list[int]:
    """Integers allowed by the Hasse bound |a_p| <= 2 sqrt(p)."""
    b = int(math.isqrt(4 * p))
    return list(range(-b, b + 1))


def extend_multiplicatively(
    ap: dict[int, int], N: int, n_max: int
) -> list[int]:
    """a_n for n <= n_max from prime data: a_{p^{r+1}} = a_p a_{p^r} - p a_{p^{r-1}}
    at good p, a_{p^r} = a_p^r at p | N, multiplicative across prime powers.

    Returns a list indexed 1..n_max (index 0 unused)."""
    an = [0] * (n_max + 1)
    an[1] = 1
    for p, a in sorted(ap.items()):
        if p > n_max:
            continue
        powers = [1, a]
        while p ** len(powers) <= n_max:
            r = len(powers)
            if N % p == 0:
                powers.append(powers[1] * powers[r - 1])
            else:
                powers.append(a * powers[r - 1] - p * powers[r - 2])
        pe = p
        e = 1
        while pe <= n_max:
            for m in range(1, n_max // pe + 1):
                if m % p and an[m]:
                    an[m * pe] = an[m] * powers[e]
            pe *= p
            e += 1
    # an[m * pe] assignments above touch composites whose smaller prime parts
    # were already filled; the loop over sorted primes makes this exhaustive
    return an
