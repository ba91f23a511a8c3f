"""Mahler and half-Mahler measures of a(x + 1/x) + y + 1/y + c.

One parameter k drives everything: a = sqrt((4+k)/(4-k)), c = k/sqrt(4-k).
For 0 < k < 4 the coefficients are real; past k = 4 they turn imaginary and
the real tilde form takes over.  The headline identity links the measure of
the plain family x + 1/x + y + 1/y + k to the half-measure difference of the
two-parameter member:

    m(P_k) = 2 (m+ - m-) + (1/2) log((k-4)/(k+4)),   k > 4,

and m- dies identically once k > 2(1 + sqrt(5)) = 6.4721...
"""

import math

from mahlerlab import mahler as M

print("=== Measures across the regimes ===")
for k in (1.0, 2.0, 3.0, 4.5, 5.0, 8.0, 20.0):
    m = M.m_p1k(k, 1e-10)
    hm = M.half_measures(M.factor_member(k), 1e-10)
    print(
        f"k = {k:4}  regime {M.regime(k):5}  m(P_k) = {m:.12f}   "
        f"m+ = {hm.m_plus:.12f}  m- = {hm.m_minus:.12f}"
    )

print()
print("=== Small k: closed forms ===")
for k in (1.0, 2.0, 3.0):
    fac = M.factor_pac_small(k)
    hm = M.half_measures(fac, 1e-11)
    lsz = hm.m_minus - 3 * hm.m_plus
    print(
        f"k = {k}:  m+ + m- = {hm.m_total:.12f}  vs log a = {math.log(fac.beta / 2):.12f}   "
        f"m- - 3m+ = {lsz:.12f}  vs m(P_k) = {M.m_p1k(k, 1e-11):.12f}"
    )
print("(the principal-branch labeling is the one that satisfies the identity)")

print()
print("=== The main identity and its corollary ===")
for k in (4.5, 5.0, 8.0, 16.0, 50.0):
    hm = M.half_measures(M.factor_ptilde(k), 1e-10)
    rhs = 2 * (hm.m_plus - hm.m_minus) + 0.5 * math.log((k - 4) / (k + 4))
    print(f"k = {k:5}:  residual = {abs(M.m_p1k(k, 1e-10) - rhs):.2e}")
print(f"regime boundary for m- = 0: k = {M.K_LARGE:.10f}")
for k in (7.0, 16.0):
    hm = M.half_measures(M.factor_ptilde(k), 1e-10)
    rhs = 2 * hm.m_total + 0.5 * math.log((k - 4) / (k + 4))
    print(f"k = {k}:  m- = {hm.m_minus:.1e}, corollary residual = {abs(M.m_p1k(k, 1e-10) - rhs):.2e}")

print()
print("=== Derivatives in closed form ===")
for k in (5.0, 8.0, 12.0):
    h = 1e-3
    fd = (M.m_p1k(k + h, 1e-12) - M.m_p1k(k - h, 1e-12)) / (2 * h)
    print(
        f"k = {k}:  dfdk closed {M.dfdk(k):.12f}  finite-diff {fd:.12f}"
    )
print("exact relation dfdk - 2 dhdk - 4/(k^2-16):")
for k in (5.0, 8.0, 20.0):
    print(f"  k = {k}: {M.dfdk(k) - 2 * M.dhdk(k) - 4 / (k * k - 16):.2e}")

print()
print("=== Brute-force 2D oracle cross-check ===")
v1 = M.m_p1k(8.0, 1e-9)
v2 = M.m_generic_2d(M.poly_p1k(8.0), 1e-6)
print(f"k = 8:  Jensen route {v1:.12f}   2D quadrature {v2:.12f}   diff {abs(v1 - v2):.1e}")

print()
print("=== The regime-boundary finding at k = 4 sqrt(2) ===")
k = math.sqrt(32)
hm = M.half_measures(M.factor_ptilde(k), 1e-11)
print(f"k = 4 sqrt(2) = {k:.6f} < {M.K_LARGE:.6f}, so m- = {hm.m_minus:.12f} > 0;")
print("the published total-measure corollary misses here by exactly 2 m- =",
      f"{2 * hm.m_minus:.12f} (see the L-value demo).")
