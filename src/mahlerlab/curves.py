"""Integral models and Hecke coefficients for the curves attached to the family.

The parameter k with k^2 rational gives the curve

    y^2 = x^3 + (k^2/8)(k^2/8 - 1) x^2 + (k^4/256) x,

cleared to an integral model by the smallest scaling (x, y) -> (x/d^2, y/d^3).
Conductors and the Mahler-measure multipliers r_k come from the published
numerical table for this family; minimality is enforced only locally where a
coefficient computation needs it.

Coefficient routes per prime:
  * odd p not dividing the model discriminant: character sum (Legendre symbol);
  * odd p >= 5 where the model is non-minimal: divide (c4, c6) by (p^4, p^6)
    until minimal, then count points or classify the node on the short
    Weierstrass model built from the reduced invariants;
  * odd p | N on a p-minimal model: node-slope classification
    (split -> +1, non-split -> -1, additive -> 0);
  * p with v_p(N) >= 2: additive, a_p = 0;
  * p in {2, 3} otherwise (p = 2 good, or p = 3 on a 3-non-minimal model):
    left to the functional-equation consistency search in `lseries`.

Every route is recorded so results are auditable.
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
    k2 = round(k2f)
    if abs(k2f - k2) > 1e-9 * max(1.0, k2) or k2 not in TABLE1:
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


def ap_good(curve: CurveModel, p: int) -> int:
    """a_p = -sum_x (x^3 + a2 x^2 + a4 x | p) for odd p not dividing the
    discriminant."""
    if p == 2:
        raise DomainError("ap_good: character sum needs an odd prime")
    if curve.discriminant % p == 0:
        raise DomainError(f"ap_good: p = {p} divides the discriminant; use ap_bad")
    a2, a4 = curve.a2 % p, curve.a4 % p
    return -sum(legendre_symbol(x * (x * x + a2 * x + a4), p) for x in range(p))


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


def _node_ap_short(c4: int, c6: int, p: int) -> int:
    """Multiplicative a_p from the node of y^2 = x^3 - 27 c4 x - 54 c6 mod p
    (valid for p >= 5)."""
    A = (-27 * c4) % p
    B = (-54 * c6) % p
    x0 = next(
        x for x in range(p) if (x**3 + A * x + B) % p == 0 and (3 * x * x + A) % p == 0
    )
    return legendre_symbol(3 * x0, p)


def _count_ap_short(c4: int, c6: int, p: int) -> int:
    """Good-reduction a_p by point count on the short model from (c4, c6),
    p >= 5."""
    A = (-27 * c4) % p
    B = (-54 * c6) % p
    return -sum(legendre_symbol(x**3 + A * x + B, p) for x in range(p))


def ap_bad(curve: CurveModel, p: int) -> tuple[int, str]:
    """(a_p, route) at a bad or locally delicate prime.

    Raises DomainError where the value is left to the functional-equation
    search: p = 2 when 2 does not divide N or v2(N) = 1, and p = 3 when the
    model is non-minimal at 3 with v3(N) <= 1.  `ap_with_route` catches it
    and marks the prime (None, "consistency").
    """
    N = curve.conductor_N
    vN = _vp(N, p)
    if vN >= 2:
        return 0, "additive"
    if p == 2:
        raise DomainError("ap_bad: p = 2 is resolved by the consistency search")
    c4, c6, disc = _minimal_c4c6(curve, p)
    reduced = (c4, c6) != (curve.c4, curve.c6)
    if p == 3 and reduced:
        raise DomainError("ap_bad: 3-non-minimal model; use the consistency search")
    if vN == 0:
        raise DomainError(f"ap_bad: p = {p} does not divide the conductor")
    if not reduced:
        # node analysis on the original model y^2 = x(x^2 + a2 x + a4)
        a2, a4 = curve.a2 % p, curve.a4 % p
        x0 = next(
            x
            for x in range(p)
            if (x**3 + a2 * x * x + a4 * x) % p == 0
            and (3 * x * x + 2 * a2 * x + a4) % p == 0
        )
        return legendre_symbol(3 * x0 + a2, p), "node"
    return _node_ap_short(c4, c6, p), "reduced-node"


def ap_with_route(curve: CurveModel, p: int) -> tuple[int | None, str]:
    """Dispatch a_p computation; (None, "consistency") marks unresolved."""
    N = curve.conductor_N
    if p == 2:
        if _vp(N, 2) >= 2:
            return 0, "additive"
        return None, "consistency"
    if curve.discriminant % p:
        return ap_good(curve, p), "char-sum"
    if N % p == 0:
        try:
            return ap_bad(curve, p)
        except DomainError:
            return None, "consistency"
    # good reduction hidden by a non-minimal model
    if p == 3:
        return None, "consistency"
    c4, c6, disc = _minimal_c4c6(curve, p)
    if disc % p == 0:  # pragma: no cover - table curves never hit this
        raise DomainError(f"p = {p}: bad reduction despite p not dividing N")
    return _count_ap_short(c4, c6, p), "reduced-count"


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
