"""The Pi/K identity engine.

Given differentiable p(x), q(x), the coefficient r(x) and the logarithmic
derivative f(x) = s'/s are forced by closed formulas; if r satisfies a
first-order linear ODE then

    Pi(p(x), q(x)) + r(x) K(q(x)) = C exp(int f)

holds on the whole domain.  Derivatives come from second-order jet
arithmetic (machine-exact chain rule, no symbolic engine), the ODE and the
vanishing E-coefficient are checked pointwise, and the right side is
reconstructed by cumulative quadrature from an anchor.
"""

import math

from mahlerlab import identities as I
from mahlerlab.expressions import parse_expression
from mahlerlab.jets import Jet2

cands = {c.name: c for c in I.builtin_candidates()}

print("=== The four built-in (p, q) pairs ===")
reps = {}
for name, cand in cands.items():
    rep = reps[name] = I.verify_identity(cand)
    print(
        f"{name:7}  C = {rep.constant_C:.12f}   ode <= {rep.ode_residual_max:.1e}   "
        f"E-coeff <= {rep.e_coeff_residual_max:.1e}   identity <= {rep.identity_residual_max:.1e}"
    )
print(f"(constants: pi/4 = {math.pi/4:.12f}, pi/3 = {math.pi/3:.12f}, "
      f"pi/6 = {math.pi/6:.12f}, 3pi/8 = {3*math.pi/8:.12f})")

print()
print("=== Jets deliver r and r' without symbols ===")
jia = cands["jia"]
x = -2.0
print(f"jia at x = {x}: r = {I.eval_r(jia, x):.12f} (closed form -(1+3x)/(6x) = {-(1+3*x)/(6*x):.12f})")
print(f"|ODE residual|    = {I.verify_identity(jia, grid=[x]).ode_residual_max:.2e}")

print()
print("=== The anchor trick ===")
print("at x = -1 the generic r-formula is 0/0 (q and q' both vanish), but the")
print("printed coefficient extends continuously: r(-1) = -1/3, and both sides")
print(f"equal pi/3: lhs = {reps['jia'].constant_C:.15f}, rhs = {jia.printed_rhs(-1.0):.15f}")

print()
print("=== A self-inconsistent source, resolved by computation ===")
print("the cubic pair ships two printed K-coefficients; residuals over the grid:")
for label, res in reps["cubic"].printed_residual_max:
    print(f"  {label:10} -> {res:.3e}   {'VALID' if res <= 1e-10 else 'INVALID'}")
print("verdict: the defined r(x) = -(2+x)(1+2x)/(3(1+x)^2) is the correct one;")
print("the displayed -(1+3x)/(6x) belongs to the jia pair.")

print()
print("=== Custom candidates from expression strings ===")
cand = I.IdentityCandidate(
    name="custom",
    p=parse_expression("-(x^2)/(1+2*x)"),
    q=parse_expression("sqrt(x^3*(2+x)/(1+2*x))"),
    domain=(0.0, 1.0),
    anchor_x0=0.5,
)
rep = I.verify_identity(cand, x0=0.5, grid=[0.05 * i for i in range(1, 20)])
print(f"parsed cubic pair, anchored at 0.5: identity residual {rep.identity_residual_max:.2e}")
jet = cand.q(Jet2.seed(0.5))
print(f"parsed q carries exact derivatives: q(0.5) = {jet.value:.12f}, q'(0.5) = {jet.d1:.12f}")
