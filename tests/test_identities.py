import math

import pytest

from mahlerlab import identities as I
from mahlerlab.elliptic import ell_k, ell_pi
from mahlerlab.errors import DomainError, RegimeError, SingularPointError
from mahlerlab.jets import Jet2, sqrt


def integrating_factor_residual(cand: I.IdentityCandidate, x: float) -> float:
    """Residual of u'/u + f + q'/q for u = sqrt((p-1)(q^2-p)/(p q^2)), the
    integrating factor of the ODE.  DomainError if u's argument is not
    positive at x."""
    pj, qj = I._pq_jets(cand, x)
    P = Jet2(pj.value, pj.d1)
    Q = Jet2(qj.value, qj.d1)
    arg = (P - 1) * (Q * Q - P) / (P * Q * Q)
    if arg.value <= 0.0:
        raise DomainError(
            f"{cand.name}: integrating factor argument {arg.value} <= 0 at x = {x}"
        )
    u = sqrt(arg)
    return u.d1 / u.value + I._f_value(cand, x, pj, qj) + qj.d1 / qj.value


@pytest.fixture(scope="module")
def cands():
    return {c.name: c for c in I.builtin_candidates()}


class TestBuiltins:
    def test_count(self, cands):
        assert len(cands) == 4

    def test_jia_regime_point(self, cands):
        # sign analysis at x = -2: p = 7/15 < 1, q^2 = 7/135 > 0
        jia = cands["jia"]
        assert jia.p(-2.0) == pytest.approx(7.0 / 15.0, rel=1e-15)
        assert jia.q(-2.0) ** 2 == pytest.approx(7.0 / 135.0, rel=1e-14)

    def test_domains(self, cands):
        assert cands["linear"].domain == (0.0, 1.0)
        assert cands["jia"].domain == (-math.inf, -1.0)
        assert cands["cubic"].domain == (0.0, 1.0)
        assert cands["surd"].domain == (0.0, 1.0)

    def test_cubic_rhs_at_zero(self, cands):
        assert cands["cubic"].printed_rhs(0.0) == pytest.approx(math.pi / 6.0, rel=1e-15)

    def test_grid_inside_domain(self, cands):
        for c in cands.values():
            lo, hi = c.domain
            for x in I.default_grid(c):
                assert lo < x < hi or math.isclose(x, hi)
            assert len(I.default_grid(c)) == 200


class TestCoefficients:
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.9])
    def test_r_linear_constant(self, cands, x):
        assert I.eval_r(cands["linear"], x) == pytest.approx(-0.5, abs=1e-14)

    def test_r_jia_at_minus2(self, cands):
        assert I.eval_r(cands["jia"], -2.0) == pytest.approx(-5.0 / 12.0, abs=1e-14)

    def test_r_surd_near_zero_limit(self, cands):
        # the formula is 0/0 at x = 0; the printed coefficient gives -1/4 there
        assert cands["surd"].printed_r(0.0) == pytest.approx(-0.25, rel=1e-15)
        assert I.eval_r(cands["surd"], 1e-8) == pytest.approx(-0.25, abs=1e-6)

    def test_r_singular_at_degenerate_anchor(self, cands):
        with pytest.raises(SingularPointError):
            I.eval_r(cands["linear"], 0.0)

    def test_f_linear_at_one(self, cands):
        assert I.eval_f(cands["linear"], 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_f_cubic_at_half(self, cands):
        assert I.eval_f(cands["cubic"], 0.5) == pytest.approx(0.5 - 4.0 / 3.0, abs=1e-14)

    def test_f_jia_at_minus2(self, cands):
        expected = 1.5 * (1.0 / (-3.0) + 1.0 / (-5.0)) - 1.0 / (-2.0)
        assert I.eval_f(cands["jia"], -2.0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "name,xs",
        [("linear", (0.2, 0.5, 0.9)), ("jia", (-5.0, -2.0, -1.2)), ("cubic", (0.2, 0.6)), ("surd", (0.3, 0.8))],
    )
    def test_r_matches_printed_form(self, cands, name, xs):
        cand = cands[name]
        for x in xs:
            assert I.eval_r(cand, x) == pytest.approx(cand.printed_r(x), rel=1e-11)


class TestResiduals:
    def test_ode_linear(self, cands):
        assert abs(I.ode_residual(cands["linear"], 0.5)) <= 1e-12

    def test_ode_jia(self, cands):
        assert abs(I.ode_residual(cands["jia"], -3.0)) <= 1e-11

    def test_ode_perturbed_fails(self, cands):
        assert abs(I.ode_residual(cands["linear"], 0.5, r_override=-0.49)) > 1e-3

    def test_ode_callable_override_matches_true_r(self, cands):
        res = I.ode_residual(cands["linear"], 0.5, r_override=lambda xj: Jet2(-0.5))
        assert abs(res) <= 1e-12

    @pytest.mark.parametrize(
        "name,x,tol",
        [("linear", 0.3, 1e-13), ("cubic", 0.5, 1e-12), ("surd", 0.5, 1e-12)],
    )
    def test_e_coefficient(self, cands, name, x, tol):
        assert abs(I.e_coefficient_residual(cands[name], x)) <= tol

    @pytest.mark.parametrize(
        "name,x",
        [("linear", 0.5), ("cubic", 0.3), ("jia", -2.0)],
    )
    def test_integrating_factor(self, cands, name, x):
        assert abs(integrating_factor_residual(cands[name], x)) <= 1e-11

    def test_integrating_factor_domain_error(self):
        # p in (0,1) with q^2 > p makes the factor's argument negative
        cand = I.IdentityCandidate(
            name="synthetic", p=lambda x: x / 2, q=lambda x: x, domain=(0.0, 1.0), anchor_x0=0.5
        )
        with pytest.raises(DomainError):
            integrating_factor_residual(cand, 0.8)

    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_residuals_across_grid(self, cands, name):
        cand = cands[name]
        for x in I.default_grid(cand, n=50):
            assert abs(I.ode_residual(cand, x)) <= 1e-10
            assert abs(I.e_coefficient_residual(cand, x)) <= 1e-11
            assert abs(integrating_factor_residual(cand, x)) <= 1e-10


class TestVerifyIdentity:
    def test_linear_full(self, cands):
        rep = I.verify_identity(cands["linear"])
        assert rep.passed
        assert rep.constant_C == pytest.approx(math.pi / 4.0, abs=1e-14)
        assert rep.identity_residual_max <= 1e-10

    def test_linear_spec_grid(self, cands):
        grid = [0.01 * i for i in range(1, 100)] + [0.99]
        rep = I.verify_identity(cands["linear"], x0=0.0, grid=grid)
        assert rep.identity_residual_max <= 1e-10

    def test_cubic_constant(self, cands):
        assert I.verify_identity(cands["cubic"]).constant_C == pytest.approx(
            math.pi / 6.0, abs=1e-13
        )

    def test_surd_constant(self, cands):
        assert I.verify_identity(cands["surd"]).constant_C == pytest.approx(
            3.0 * math.pi / 8.0, abs=1e-13
        )

    def test_jia_constant_and_anchor(self, cands):
        jia = cands["jia"]
        rep = I.verify_identity(jia)
        assert rep.passed
        assert rep.constant_C == pytest.approx(math.pi / 3.0, abs=1e-13)
        lhs = I.identity_lhs(jia, -1.0, r=jia.printed_r(-1.0))
        assert lhs == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert jia.printed_rhs(-1.0) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_printed_rhs_tracks_reconstruction(self, cands):
        # s rebuilt from C exp(int f) must match the printed closed form
        for name in ("linear", "jia", "cubic", "surd"):
            cand = cands[name]
            grid = I.default_grid(cand, n=40)
            rep = I.verify_identity(cand, grid=grid)
            worst = max(
                abs(I.identity_lhs(cand, x, r=cand.printed_r(x)) - cand.printed_rhs(x))
                for x in grid
            )
            assert worst <= 1e-10
            assert rep.identity_residual_max <= 1e-10

    def test_one_pq_jet_evaluation_per_grid_point(self, cands, monkeypatch):
        cubic = cands["cubic"]
        grid = I.default_grid(cubic, n=30)
        calls = []
        real = I._pq_jets

        def counting(cand, x):
            calls.append(x)
            return real(cand, x)

        monkeypatch.setattr(I, "_pq_jets", counting)
        I.verify_identity(cubic, grid=grid)
        # the anchor's r, then the residual pass; quadrature nodes go as arrays
        assert sorted(calls) == sorted([cubic.anchor_x0, *grid])

    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_residual_maxima_equal_public_residuals(self, cands, name):
        cand = cands[name]
        grid = I.default_grid(cand, n=40)
        rep = I.verify_identity(cand, grid=grid)
        xs = [x for x in grid if x != cand.anchor_x0]
        assert rep.ode_residual_max == max(abs(I.ode_residual(cand, x)) for x in xs)
        assert rep.e_coeff_residual_max == max(
            abs(I.e_coefficient_residual(cand, x)) for x in xs
        )

    def test_regime_error_names_offender(self, cands):
        with pytest.raises(RegimeError) as err:
            I.verify_identity(cands["jia"], x0=-1.0, grid=[-0.2])
        assert "-0.2" in str(err.value)


class TestVariantResolution:
    def test_cubic_discrepancy_resolved(self, cands):
        verdicts = I.check_printed_variants(cands["cubic"])
        assert verdicts["printed"] <= 1e-10
        assert verdicts["displayed"] > 1e-3
        assert sum(1 for v in verdicts.values() if v <= 1e-10) == 1

    def test_cubic_displayed_equals_jia_coefficient(self, cands):
        # the inconsistent displayed coefficient is literally the jia one
        label, fn = cands["cubic"].printed_r_alts[0]
        assert label == "displayed"
        assert fn(0.5) == pytest.approx(cands["jia"].printed_r(0.5), rel=1e-15)


class TestSpecializationBridge:
    @pytest.mark.parametrize("k", [4.5, 5.0, 8.0, 20.0, 100.0])
    def test_linear_candidate_gives_pi_k_identity(self, k):
        # the linear pair at x = 4/k reduces to the derivative-chain identity
        x = 4.0 / k
        res = ell_pi(-x, x) - 0.5 * ell_k(x) - k * math.pi / (4.0 * (k + 4.0))
        assert abs(res) <= 1e-11
