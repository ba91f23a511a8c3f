"""Elliptic-curve L-values from first principles, closing the loop.

For each supported k the curve y^2 = x^3 + (k^2/8)(k^2/8 - 1) x^2 +
(k^4/256) x is cleared to an integral model, Hecke coefficients come from
character sums (with local reduction or a functional-equation consistency
search where the model is delicate), L(E, 2) is evaluated by a smoothed
split of the completed L-function, and L'(E, 0) = eps N/(4 pi^2) L(E, 2).

The punchline: the quadrature Mahler measures match r_k L'(E_k, 0) to
machine precision, reproducing the published table at desk scale.
"""

import math

from mahlerlab import curves as C
from mahlerlab import lseries as L
from mahlerlab import mahler as M

print("=== Curve models ===")
for k2 in sorted(C.TABLE1):
    c = C.curve_from_k(math.sqrt(k2))
    print(
        f"k = {C.K_LABELS[k2]:9}  y^2 = x^3 + {c.a2} x^2 + {c.a4} x"
        f"   (scaling d = {c.scaling_exponent}, N = {c.conductor_N})"
    )

print()
print("=== Coefficient routes and the consistency search ===")
curve, data = L.lvalue_from_k(1.0)
routes = {}
for p, route in sorted(data.ap_routes.items()):
    routes.setdefault(route, []).append(p)
for route, ps in routes.items():
    shown = ", ".join(map(str, ps[:8])) + (", ..." if len(ps) > 8 else "")
    print(f"k = 1: {route:12} -> p in {{{shown}}}")
print(f"resolved by split-point independence: a_2 = {data.an[2]}, eps = {data.eps}")
print(f"spread with the detected sign: {data.spread():.2e};  flipped sign: "
      f"{data.spread(-data.eps):.2e}  (that contrast IS the detector)")

print()
print("=== The table, reproduced ===")
print(f"{'k':9} {'N':>3} {'r':>4}   {'m(P_k) by quadrature':>22} {'r * L-engine':>22}  digits")
for k2 in sorted(C.TABLE1):
    k = math.sqrt(k2)
    m = M.m_p1k(k, 1e-9)
    curve, data = L.lvalue_from_k(k)
    rl = float(curve.r_k) * data.Lprime0
    digits = -math.log10(abs(m - rl) / rl) if m != rl else 16
    print(
        f"{C.K_LABELS[k2]:9} {curve.conductor_N:3} {str(curve.r_k):>4}   "
        f"{m:22.15f} {rl:22.15f}  {digits:5.1f}"
    )

print()
print("=== The total-measure corollary, and where it breaks ===")
for k2, label in ((32, "4*sqrt(2)"), (64, "8"), (144, "12"), (256, "16")):
    k = math.sqrt(k2)
    curve, data = L.lvalue_from_k(k)
    hm = M.half_measures(M.factor_ptilde(k), 1e-10)
    rhs = float(curve.r_k) / 2 * data.Lprime0 - 0.25 * math.log((k - 4) / (k + 4))
    flag = "OK " if abs(hm.m_total - rhs) < 1e-9 else "BAD"
    print(
        f"k = {label:9}: m+ + m- = {hm.m_total:.12f}  vs  (r/2) L' - log/4 = {rhs:.12f}  [{flag}]"
    )
print("the 4*sqrt(2) row misses by exactly 2 m- (that k is below 2(1+sqrt(5)),")
print("so the minus half-measure has not died yet); the difference form works:")
k = math.sqrt(32)
hm = M.half_measures(M.factor_ptilde(k), 1e-11)
curve, data = L.lvalue_from_k(k)
rhs = 0.5 * data.Lprime0 - 0.25 * math.log((k - 4) / (k + 4))
print(f"k = 4*sqrt(2): m+ - m- = {hm.m_plus - hm.m_minus:.15f}  vs  rhs = {rhs:.15f}")
