"""Modular-unit parametrization of 3(x + 1/x) + y - 1/y - 5 = 0.

Level-15 eta quotients trace the k = 5 tilde curve: with tau = i t the nome
is real, every eta value is a positive product, and plugging the quotient
point into the defining polynomial returns zero to near machine precision.
"""

import math

from mahlerlab import eta

print("=== Dedekind eta on the imaginary axis ===")
print(f"eta(i) = {eta.dedekind_eta(1.0):.15f}")
print(f"Gamma(1/4)/(2 pi^0.75) = {math.gamma(0.25) / (2 * math.pi ** 0.75):.15f}")
for t in (0.5, 1.3, 2.0):
    print(f"inversion residual |eta(i/t) - sqrt(t) eta(it)| at t = {t}: "
          f"{abs(eta.dedekind_eta(1.0 / t) - math.sqrt(t) * eta.dedekind_eta(t)):.1e}")

print()
print("=== Tracing the curve ===")
print(f"{'t':>5} {'x(it)':>16} {'y(it)':>16} {'|3(x+1/x)+y-1/y-5|':>20}")
for t in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
    x, y = eta.curve_point(t)
    print(f"{t:5.2f} {x:16.10f} {y:16.10f} {eta.verify_eta_param(t):20.2e}")
print("both coordinates stay negative (leading minus signs, positive eta values)")
print("as t grows the point runs off toward the curve's point at infinity:")
print("x, y -> 0 exponentially, which is why the residual magnifies 1/y noise.")
