import dataclasses
import math
import random

import pytest
import scalar_reference as R

from mahlerlab import curves as C
from mahlerlab.errors import UnsupportedCurveError


class TestModels:
    def test_k8(self):
        c = C.curve_from_k(8.0)
        assert (c.a2, c.a4) == (56, 16)
        assert c.conductor_N == 24
        assert c.scaling_exponent == 1

    def test_k_4sqrt2(self):
        c = C.curve_from_k(math.sqrt(32.0))
        assert (c.a2, c.a4) == (12, 4)
        assert c.conductor_N == 64

    def test_k2_scaled_model(self):
        # substituting x = u/4, y = v/8 into the quarter-integer model gives
        # v^2 = u^3 - u^2 + u, checked monomial by monomial offline
        c = C.curve_from_k(2.0)
        assert (c.a2, c.a4) == (-1, 1)
        assert c.scaling_exponent == 2
        assert c.conductor_N == 24

    def test_k1_scaling(self):
        c = C.curve_from_k(1.0)
        assert (c.a2, c.a4) == (-7, 16)
        assert c.scaling_exponent == 8
        assert c.conductor_N == 15

    def test_discriminant_nonzero_all_rows(self):
        for k2 in C.TABLE1:
            c = C.curve_from_k(math.sqrt(k2))
            assert c.discriminant != 0
            assert c.discriminant == 16 * c.a4**2 * (c.a2**2 - 4 * c.a4)

    def test_conductor_divides_power_of_discriminant_radical(self):
        for k2 in C.TABLE1:
            c = C.curve_from_k(math.sqrt(k2))
            for p in C.primes_up_to(c.conductor_N):
                if c.conductor_N % p == 0:
                    assert c.discriminant % p == 0

    def test_unsupported_k(self):
        for bad in (7.0, 6.5, math.pi):
            with pytest.raises(UnsupportedCurveError):
                C.curve_from_k(bad)
        with pytest.raises(UnsupportedCurveError):
            C.curve_from_k(-8.0)


class TestPointCounts:
    def test_ap5_of_k8_matches_enumeration(self):
        # frozen brute-force count over F_5 (x ranges over 5 residues):
        # affine points 7, plus infinity: a_5 = 5 + 1 - 8 = -2
        c = C.curve_from_k(8.0)
        assert C.ap_with_route(c, 5) == (-2, "char-sum")

    def test_bad_prime_routes_to_node(self):
        # 3 divides the discriminant 2^22 * 3 and exactly divides N = 24
        assert C.ap_with_route(C.curve_from_k(8.0), 3) == (-1, "node")

    def test_hasse_bound_first_100_good_primes(self):
        for k in (1.0, 2.0, 8.0, math.sqrt(18.0)):
            c = C.curve_from_k(k)
            checked = 0
            for p in C.primes_up_to(2000):
                if p == 2 or c.discriminant % p == 0:
                    continue
                ap, route = C.ap_with_route(c, p)
                assert route == "char-sum"
                assert ap * ap <= 4 * p
                checked += 1
                if checked == 100:
                    break
            assert checked == 100

    def test_ap_even_with_rational_two_torsion(self):
        # (0,0) is a rational 2-torsion point, so the group order is even
        c = C.curve_from_k(8.0)
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            assert C.ap_with_route(c, p)[0] % 2 == 0

    def test_additive_reduction_zero(self):
        c = C.curve_from_k(2.0)  # N = 24, v2 = 3
        assert C.ap_with_route(c, 2) == (0, "additive")

    def test_node_analysis_k2_at_3(self):
        c = C.curve_from_k(2.0)
        # x0 = 2 is the node; slopes need sqrt(2), a non-residue
        assert C.ap_with_route(c, 3) == (-1, "node")

    def test_consistency_routing(self):
        c1 = C.curve_from_k(1.0)  # 2 good but the model is 2-non-minimal
        assert C.ap_with_route(c1, 2) == (None, "consistency")
        c3 = C.curve_from_k(3.0)  # 3-non-minimal, v3(N) = 1
        assert C.ap_with_route(c3, 3) == (None, "consistency")

    def test_reduced_node_k5_at_5(self):
        # v5(disc) = 14 on the scaled model; local reduction exposes the node
        c = C.curve_from_k(5.0)
        value, route = C.ap_with_route(c, 5)
        assert route == "reduced-node"
        assert value in (-1, 1)

    def test_good_prime_routes_to_char_sum(self):
        assert C.ap_with_route(C.curve_from_k(8.0), 5) == (-2, "char-sum")


def _scaled_k8(s):
    """k = 8's model under x -> x/s^2, y -> y/s^3: the same curve (N = 24),
    on a model that is non-minimal at s."""
    c = C.curve_from_k(8.0)
    return dataclasses.replace(
        c, a2=c.a2 * s**2, a4=c.a4 * s**4, discriminant=c.discriminant * s**12
    )


SCALED_K8 = {s: _scaled_k8(s) for s in (5, 7, 11)}
MODELS = [C.curve_from_k(math.sqrt(k2)) for k2 in C.TABLE1] + list(SCALED_K8.values())


def _points(a2, a4, a6, p):
    """Projective points of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p, counted
    with a table of how many y square to each residue."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return 1 + sum(roots[(x**3 + a2 * x * x + a4 * x + a6) % p] for x in range(p))


class TestRoutes:
    def test_reduced_count_on_scaled_models(self):
        k8 = C.curve_from_k(8.0)
        for s, want in ((5, -2), (7, 0), (11, 4)):
            assert C.ap_with_route(k8, s) == (want, "char-sum")
            assert C.ap_with_route(SCALED_K8[s], s) == (want, "reduced-count")

    def test_every_route_is_reached(self):
        # "additive" comes only from p = 2: no odd p has v_p(N) >= 2 here
        routes = {C.ap_with_route(c, p)[1] for c in MODELS for p in C.primes_up_to(199)}
        assert routes == {
            "char-sum", "additive", "node", "reduced-node", "reduced-count", "consistency"
        }

    def test_ap_matches_point_count(self):
        # a_p = p + 1 - #points on the model the route names; at a node the
        # singular point counts too, so split gives p points, non-split p + 2
        checked = set()
        for c in MODELS:
            for p in C.primes_up_to(199)[1:]:  # odd p
                ap, route = C.ap_with_route(c, p)
                if route == "consistency":
                    continue
                if route in ("char-sum", "node"):
                    model = (c.a2, c.a4, 0)
                else:
                    c4, c6, _ = C._minimal_c4c6(c, p)
                    model = (0, -27 * c4, -54 * c6)
                assert ap == p + 1 - _points(*model, p), (c.a2, c.a4, p, route)
                checked.add(route)
        assert checked == {"char-sum", "node", "reduced-node", "reduced-count"}


@pytest.mark.parametrize("k2", sorted(C.TABLE1))
def test_char_sum_equals_legendre_reference(k2):
    # the residue list against one power-mod Legendre symbol per x, on the
    # curve's model and on its short model y^2 = x^3 - 27 c4 x - 54 c6, at
    # every odd prime below 2,000 (good reduction or not: it is only a sum)
    c = C.curve_from_k(math.sqrt(k2))
    for model in ((c.a2, c.a4, 0), (0, -27 * c.c4, -54 * c.c6)):
        for p in C.primes_up_to(1999)[1:]:
            assert C._char_sum(*model, p) == R._char_sum(*model, p), (k2, model, p)


class TestMultiplicativity:
    def test_small_identities(self):
        ap = {2: -1, 3: 1, 5: -2, 7: 0}
        an = C.extend_multiplicatively(ap, 15, 50)  # N = 15: 3, 5 bad
        assert an[1] == 1
        assert an[6] == an[2] * an[3]
        assert an[4] == an[2] ** 2 - 2  # 2 good for N = 15
        assert an[25] == an[5] ** 2  # 5 bad: a_{p^r} = a_p^r
        assert an[8] == an[2] * an[4] - 2 * an[2]

    def test_random_coprime_products(self):
        ap = {p: C.ap_with_route(C.curve_from_k(8.0), p)[0] for p in C.primes_up_to(200) if p > 3}
        ap[2] = 0
        ap[3] = -1
        an = C.extend_multiplicatively(ap, 24, 200 * 199)
        rng = random.Random(7)
        pairs = 0
        while pairs < 50:
            m = rng.randint(2, 180)
            n = rng.randint(2, 180)
            if math.gcd(m, n) != 1:
                continue
            assert an[m * n] == an[m] * an[n]
            pairs += 1

    def test_hasse_range(self):
        assert C.hasse_range(2) == [-2, -1, 0, 1, 2]
        assert C.hasse_range(3) == [-3, -2, -1, 0, 1, 2, 3]
