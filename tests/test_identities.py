import dataclasses
import functools
import math

import numpy as np
import pytest
# the per-point references take Pi and K from the scalar Carlson loops, which
# the entry points of `elliptic` equal bit for bit
from scalar_reference import ell_k, ell_pi

from mahlerlab import identities as I
from mahlerlab.errors import DomainError, RegimeError, SingularPointError
from mahlerlab.expressions import load_candidates, parse_expression
from mahlerlab.jets import Jet2, sqrt
from mahlerlab.quadrature import cumulative_integrals


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


def reference_verify(cand, x0=None, grid=None, tol=1e-10, ode_tol=1e-10, e_coeff_tol=1e-11):
    """verify_identity with the per-point residual loop, the reference for
    the array pass: scalar jets, r' and Carlson forms at each grid point."""
    if x0 is None:
        x0 = cand.anchor_x0
    xs = sorted(grid) if grid is not None else list(I.default_grid(cand))
    for x in xs:
        I._values_at(cand, x)
    p0, q0 = I._values_at(cand, x0)
    C = ell_pi(p0, q0) + I._anchor_r(cand, x0) * ell_k(q0)
    f = functools.partial(I._f_array, cand)
    s_at = {}
    above = [x for x in xs if x > x0]
    below = [x for x in xs if x < x0][::-1]
    for chain in (above, below):
        if chain:
            for x, integral in zip(chain, cumulative_integrals(f, x0, chain)):
                s_at[x] = C * math.exp(integral)
    if x0 in xs:
        s_at[x0] = C

    id_max = ode_max = ec_max = 0.0
    for x in xs:
        if x == x0:
            lhs = C
        else:
            pj, qj = I._pq_jets(cand, x)
            r = I._r_value(cand, x, pj, qj)
            p, q = I._values_at(cand, x)
            lhs = ell_pi(p, q) + r * ell_k(q)
            P, dP = Jet2(pj.value, pj.d1), Jet2(pj.d1, pj.d2)
            Q, dQ = Jet2(qj.value, qj.d1), Jet2(qj.d1, qj.d2)
            num, den = I._r_num_den(P, dP, Q, dQ)
            rj = num / den
            fx = I._f_value(cand, x, pj, qj)
            ode = rj.d1 - (fx + qj.d1 / qj.value) * rj.value + pj.d1 / (
                2.0 * pj.value * (pj.value - 1.0)
            )
            p, dp, q, dq = pj.value, pj.d1, qj.value, qj.d1
            if q in (0.0, 1.0):
                raise SingularPointError(f"{cand.name}: q in {{0,1}} at x = {x}")
            ec = (
                dp / (2.0 * (p - 1.0) * (q * q - p))
                + dq * q / ((1.0 - q * q) * (q * q - p))
                + r * dq / (q * (1.0 - q * q))
            )
            ode_max = max(ode_max, abs(ode))
            ec_max = max(ec_max, abs(ec))
        id_max = max(id_max, abs(lhs - s_at[x]))
    return I.IdentityReport(cand.name, x0, C, tuple(xs), ode_max, ec_max, id_max,
                            tol, ode_tol, e_coeff_tol)


def reference_printed_variants(cand, grid=None):
    """check_printed_variants point by point through the scalar forms."""
    variants = [("printed", cand.printed_r)] + list(cand.printed_r_alts)
    out = {}
    for label, rfn in variants:
        worst = 0.0
        for x in sorted(grid) if grid is not None else I.default_grid(cand):
            p, q = I._values_at(cand, x)
            lhs = ell_pi(p, q) + rfn(x) * ell_k(q)
            worst = max(worst, abs(lhs - cand.printed_rhs(x)))
        out[label] = worst
    return out


def _bits(report):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def _parsed(name, p, q, x0):
    return I.IdentityCandidate(name, parse_expression(p), parse_expression(q), (0.0, 1.0), x0)


def _minus_x_except_at_half(value, jets=True):
    """-x, except `value` with zero derivatives at exactly x = 0.5; with
    jets=False only the float evaluation takes `value`.  Quadrature nodes
    never land on a grid point, so only the residual pass sees it."""
    def fn(x):
        if not isinstance(x, Jet2):
            return value if x == 0.5 else -x
        if not jets:
            return -x
        hole = x.value == 0.5
        return Jet2(np.where(hole, value, -x.value), np.where(hole, 0.0, -x.d1),
                    np.where(hole, 0.0, -x.d2)) if isinstance(hole, np.ndarray) else (
            Jet2(value) if hole else -x)
    return fn


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

    def test_one_array_pq_jet_evaluation_covers_the_grid(self, cands):
        cubic = cands["cubic"]
        grid = I.default_grid(cubic, n=30)
        calls = {"p": [], "q": []}

        def recording(name, fn):
            def wrapped(x):
                if isinstance(x, Jet2):
                    calls[name].append(x.value.tolist() if isinstance(x.value, np.ndarray)
                                       else x.value)
                return fn(x)
            return wrapped

        probe = dataclasses.replace(cubic, p=recording("p", cubic.p), q=recording("q", cubic.q))
        I.verify_identity(probe, grid=grid)
        for evals in calls.values():
            # the anchor's scalar r, then one array call for the whole grid;
            # the other array calls are the chains' quadrature nodes
            assert [v for v in evals if not isinstance(v, list)] == [cubic.anchor_x0]
            assert sum(v == grid for v in evals) == 1

    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_array_pass_equals_per_point_reference_builtin(self, cands, name):
        cand = cands[name]
        assert _bits(I.verify_identity(cand)) == _bits(reference_verify(cand))
        # an interior anchor on the grid, and a repeated point
        grid = I.default_grid(cand, n=25)
        grid = grid + [grid[10]]
        assert _bits(I.verify_identity(cand, x0=grid[12], grid=grid)) == _bits(
            reference_verify(cand, x0=grid[12], grid=grid))

    @pytest.mark.parametrize(
        "p,q,x0",
        [
            ("-(x^2)/(1+2*x)", "sqrt(x^3*(2+x)/(1+2*x))", 0.37),
            ("-x", "x", 0.81),
            ("-x*x", "x*x", 0.5),
            ("-x", "x*0.9", 0.5),
            ("-2*x", "x^2", 0.4),
            ("x*(sqrt(x*x+1)+1)*(sqrt(x*x+1)-x)", "x^2", 0.2),
        ],
    )
    def test_array_pass_equals_per_point_reference_parsed(self, p, q, x0):
        cand = _parsed("file", p, q, x0)
        assert _bits(I.verify_identity(cand)) == _bits(reference_verify(cand))

    @pytest.mark.parametrize(
        "cand,grid,match",
        [
            # q stationary at 0.5 zeroes the r denominator there
            (_parsed("rden", "-x", "0.5+(x-0.5)^2", 0.3), [0.1, 0.2, 0.5, 0.7, 0.9],
             "r denominator vanishes at x = 0.5"),
            (I.IdentityCandidate("fden", _minus_x_except_at_half(0.0), lambda x: x, (0.0, 1.0), 0.3),
             [0.1, 0.2, 0.5, 0.7, 0.9], "f denominator vanishes at x = 0.5"),
            # sqrt(u) with u = 0 at 0.2: the float is 0, the jet undefined
            (_parsed("jets", "-x", "sqrt((x-0.2)^2)*0.5", 0.5), [0.1, 0.15, 0.2, 0.3, 0.7],
             "p/q jets undefined at x = 0.2"),
            # a NaN p passes the regime gate and ell_pi rejects it
            (I.IdentityCandidate("nan-p", _minus_x_except_at_half(math.nan, jets=False),
                                 lambda x: x, (0.0, 1.0), 0.3),
             [0.1, 0.2, 0.5, 0.7, 0.9], "ell_pi: arguments must be finite"),
            # q = 0 at 0.2: the ODE residual divides by q
            (_parsed("q-zero", "-x-0.1", "x-0.2", 0.5), [0.2, 0.3, 0.7], "float division by zero"),
        ],
        ids=["r-denominator", "f-denominator", "undefined-jets", "nan-p", "q-zero"],
    )
    def test_array_pass_raises_like_per_point_reference(self, cand, grid, match):
        with pytest.raises(Exception, match=match) as want:
            reference_verify(cand, grid=grid)
        with pytest.raises(type(want.value)) as got:
            I.verify_identity(cand, grid=grid)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_nan_residuals_are_skipped_like_the_running_max(self, cands):
        # a NaN q'' at 0.5 makes r' and the ODE residual NaN there without
        # raising; the running max skipped it, and so does the array pass
        def q(x):
            if not isinstance(x, Jet2):
                return x
            return Jet2(x.value, x.d1, np.where(x.value == 0.5, math.nan, x.d2)
                        if isinstance(x.value, np.ndarray) else
                        (math.nan if x.value == 0.5 else x.d2))

        cand = dataclasses.replace(cands["linear"], name="nan-ode", q=q, anchor_x0=0.3)
        assert math.isnan(I.ode_residual(cand, 0.5))
        grid = [0.1, 0.2, 0.5, 0.7, 0.9]
        rep = I.verify_identity(cand, grid=grid)
        assert _bits(rep) == _bits(reference_verify(cand, grid=grid))
        assert 0.0 < rep.ode_residual_max <= 1e-10

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
    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_printed_variants_equal_per_point_reference(self, cands, name):
        cand = cands[name]
        got = I.check_printed_variants(cand)
        want = reference_printed_variants(cand)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_printed_variants_reject_nan_p_like_the_reference(self, cands):
        lin = cands["linear"]
        cand = dataclasses.replace(lin, name="nan-p", p=_minus_x_except_at_half(math.nan))
        grid = [0.1, 0.5, 0.9]
        with pytest.raises(DomainError, match="ell_pi: arguments must be finite") as want:
            reference_printed_variants(cand, grid)
        with pytest.raises(DomainError) as got:
            I.check_printed_variants(cand, grid)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("pole,error", [(0.9, RegimeError), (0.3, ZeroDivisionError)])
    def test_printed_variants_raise_in_point_order(self, tmp_path, pole, error):
        # p leaves the regime at x = 0.6, the printed r has a pole at `pole`
        # and the alternative one at 0.1: at each x the printed r raises
        # before the gate, and the first variant runs over the grid first
        path = tmp_path / "cands.json"
        path.write_text('[{"name": "steep", "p": "4*x - 0.5", "q": "x", "domain": [0, 1]}]')
        (cand,) = load_candidates(str(path))
        cand = dataclasses.replace(
            cand, printed_r=lambda x: 1.0 / (x - pole), printed_rhs=lambda x: 0.0,
            printed_r_alts=(("alt", lambda x: 1.0 / (x - 0.1)),))
        with pytest.raises(error) as err:
            I.check_printed_variants(cand, [0.1, 0.3, 0.6, 0.9])
        if error is RegimeError:
            assert "at x = 0.6" in str(err.value)

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


class TestUndefinedFloatValues:
    @pytest.mark.parametrize(
        "p,q,detail",
        [
            ("-x", "sqrt(x-0.5)", "math domain error"),
            ("-x", "(x-0.5)^(1/2)", "q = ("),
            ("-1/(x-0.001000000000000334)", "x", "float division by zero"),
        ],
        ids=["sqrt-of-negative", "complex-power", "division-by-zero"],
    )
    def test_regime_gate_names_candidate_and_point(self, p, q, detail):
        cand = _parsed("bad", p, q, 0.7)
        x = I.default_grid(cand)[0]
        with pytest.raises(SingularPointError) as err:
            I.verify_identity(cand)
        assert str(err.value).startswith(f"bad: p/q undefined at x = {x}: ")
        assert detail in str(err.value)

    def test_identity_lhs_computes_one_rf(self, cands, monkeypatch):
        from mahlerlab import elliptic
        # Pi and K come from one one-element call of the R_F kernel
        calls = []
        real = elliptic._rf_array
        monkeypatch.setattr(elliptic, "_rf_array", lambda *a: calls.append(a) or real(*a))
        cubic = cands["cubic"]
        lhs = I.identity_lhs(cubic, 0.4, r=-0.3)
        assert len(calls) == 1 and calls[0][1].shape == (1,)
        p, q = cubic.p(0.4), cubic.q(0.4)
        assert lhs == ell_pi(p, q) + -0.3 * ell_k(q)

    def test_identity_lhs_rejects_nan_p(self):
        cand = I.IdentityCandidate("nan-p", lambda x: math.nan, lambda x: x, (0.0, 1.0), 0.5)
        with pytest.raises(DomainError, match="ell_pi: arguments must be finite"):
            I.identity_lhs(cand, 0.5, r=0.1)


class TestSpecializationBridge:
    @pytest.mark.parametrize("k", [4.5, 5.0, 8.0, 20.0, 100.0])
    def test_linear_candidate_gives_pi_k_identity(self, k):
        # the linear pair at x = 4/k reduces to the derivative-chain identity
        x = 4.0 / k
        res = ell_pi(-x, x) - 0.5 * ell_k(x) - k * math.pi / (4.0 * (k + 4.0))
        assert abs(res) <= 1e-11
