import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
# the per-point references take Pi and K from the scalar Carlson loops, which
# the entry points of `elliptic` equal bit for bit, and r and f from scalar jets
from scalar_reference import ell_k, ell_pi, f_value, r_value
from test_expressions import _TREES, _tokens

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
    return u.d1 / u.value + f_value(cand, x, pj, qj) + qj.d1 / qj.value


def reference_gate(cand, x):
    """The regime gate at one point on the scalar jets: undefined p/q, then
    p >= 1, then q outside [0, 1), then a non-finite p refused by ell_pi.
    Returns the jets."""
    pj, qj = I._pq_jets(cand, x)
    p, q = pj.value, qj.value
    if p >= 1.0:
        raise RegimeError(f"{cand.name}: Pi characteristic p(x) = {p} >= 1 at x = {x}")
    if not 0.0 <= q < 1.0:
        raise RegimeError(f"{cand.name}: modulus q(x) = {q} outside [0,1) at x = {x}")
    if not math.isfinite(p):
        ell_pi(p, q)  # raises its DomainError
    return pj, qj


def reference_verify(cand, x0=None, grid=None, tol=1e-10):
    """verify_identity with the per-point residual loop, the reference for
    the array pass: the regime gate, scalar jets, r' and Carlson forms at
    each grid point."""
    if x0 is None:
        x0 = cand.anchor_x0
    xs = sorted(grid) if grid is not None else list(I.default_grid(cand))
    for x in xs:
        reference_gate(cand, x)
    pj, qj = reference_gate(cand, x0)
    try:
        r0 = r_value(cand, x0, pj, qj)
    except SingularPointError:  # the printed r where the formula is 0/0
        if cand.printed_r is None:
            raise
        r0 = cand.printed_r(x0)
    C = ell_pi(pj.value, qj.value) + r0 * ell_k(qj.value)
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
            r = r_value(cand, x, pj, qj)
            lhs = ell_pi(pj.value, qj.value) + r * ell_k(qj.value)
            P, dP = Jet2(pj.value, pj.d1), Jet2(pj.d1, pj.d2)
            Q, dQ = Jet2(qj.value, qj.d1), Jet2(qj.d1, qj.d2)
            num, den = I._r_num_den(P, dP, Q, dQ)
            rj = num / den
            fx = f_value(cand, x, pj, qj)
            p, dp, q, dq = pj.value, pj.d1, qj.value, qj.d1
            # before the ODE divides by q
            if q in (0.0, 1.0):
                raise SingularPointError(f"{cand.name}: q in {{0,1}} at x = {x}")
            ode = rj.d1 - (fx + qj.d1 / qj.value) * rj.value + pj.d1 / (
                2.0 * pj.value * (pj.value - 1.0)
            )
            ec = (
                dp / (2.0 * (p - 1.0) * (q * q - p))
                + dq * q / ((1.0 - q * q) * (q * q - p))
                + r * dq / (q * (1.0 - q * q))
            )
            ode_max = max(ode_max, abs(ode))
            ec_max = max(ec_max, abs(ec))
        id_max = max(id_max, abs(lhs - s_at[x]))
    printed = reference_printed_variants(cand, xs) if cand.printed_rhs else {}
    return I.IdentityReport(cand.name, x0, C, tuple(xs), ode_max, ec_max, id_max,
                            tuple(printed.items()), tol, I.ODE_TOL, I.E_COEFF_TOL)


def reference_printed_variants(cand, grid=None):
    """The printed-variant residuals point by point through the scalar forms."""
    variants = [("printed", cand.printed_r)] if cand.printed_r else []
    variants += list(cand.printed_r_alts)
    out = {}
    for label, rfn in variants:
        worst = 0.0
        for x in sorted(grid) if grid is not None else I.default_grid(cand):
            pj, qj = reference_gate(cand, x)
            lhs = ell_pi(pj.value, qj.value) + rfn(x) * ell_k(qj.value)
            worst = max(worst, abs(lhs - cand.printed_rhs(x)))
        out[label] = worst
    return out


def one_point_residuals(cand, x, r=None):
    """verify_identity's (ODE, E-coefficient) residuals at x; a jet `r` replaces r in the ODE."""
    pj, qj, rx, f, fired = I._coefficients(cand, [x])
    I._refuse(cand, [x], {c: fired[c] for c in ("rfq" if r is None else "fq")})
    with np.errstate(all="ignore"):
        ode = I._ode_residual(f, pj, qj, I._r_jet(pj, qj) if r is None else r)
        return ode.item(), I._e_coefficient_residual(pj, qj, rx).item()


def _bits(report):
    """The report's fields with every float, nested ones included, as hex."""
    def bits(v):
        if isinstance(v, float):
            return v.hex()
        return tuple(map(bits, v)) if isinstance(v, tuple) else v
    return bits(dataclasses.astuple(report))


def _parsed(name, p, q, x0):
    return I.IdentityCandidate(name, parse_expression(p), parse_expression(q), (0.0, 1.0), x0)


def _minus_x_except_at_half(value):
    """The jet of -x, except `value` with zero derivatives at exactly
    x = 0.5.  Quadrature nodes never land on a grid point, so only the
    evaluation over the grid sees it."""
    def fn(x):
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
        assert I._f_array(cands["linear"], np.array([1.0])).item() == pytest.approx(-0.5, abs=1e-14)

    def test_f_cubic_at_half(self, cands):
        assert I._f_array(cands["cubic"], np.array([0.5])).item() == pytest.approx(0.5 - 4.0 / 3.0, abs=1e-14)

    def test_f_jia_at_minus2(self, cands):
        expected = 1.5 * (1.0 / (-3.0) + 1.0 / (-5.0)) - 1.0 / (-2.0)
        assert I._f_array(cands["jia"], np.array([-2.0])).item() == pytest.approx(expected, abs=1e-14)

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
        assert I.verify_identity(cands["linear"], grid=[0.5]).ode_residual_max <= 1e-12

    def test_ode_jia(self, cands):
        assert I.verify_identity(cands["jia"], grid=[-3.0]).ode_residual_max <= 1e-11

    def test_ode_perturbed_fails(self, cands):
        assert abs(one_point_residuals(cands["linear"], 0.5, r=Jet2(-0.49))[0]) > 1e-3

    def test_ode_callable_override_matches_true_r(self, cands):
        assert abs(one_point_residuals(cands["linear"], 0.5, r=Jet2(-0.5))[0]) <= 1e-12

    @pytest.mark.parametrize(
        "name,x,tol",
        [("linear", 0.3, 1e-13), ("cubic", 0.5, 1e-12), ("surd", 0.5, 1e-12)],
    )
    def test_e_coefficient(self, cands, name, x, tol):
        assert I.verify_identity(cands[name], grid=[x]).e_coeff_residual_max <= tol

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
        rep = I.verify_identity(cand, grid=I.default_grid(cand, n=50))
        assert rep.ode_residual_max <= 1e-10
        assert rep.e_coeff_residual_max <= 1e-11
        for x in rep.grid:
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
        # C is the anchor's lhs, with the printed r where the formula is 0/0
        assert rep.constant_C == pytest.approx(jia.printed_rhs(-1.0), abs=1e-12)
        assert jia.printed_rhs(-1.0) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_printed_rhs_tracks_reconstruction(self, cands):
        # s rebuilt from C exp(int f) must match the printed closed form
        for name in ("linear", "jia", "cubic", "surd"):
            cand = cands[name]
            grid = I.default_grid(cand, n=40)
            rep = I.verify_identity(cand, grid=grid)
            assert dict(rep.printed_residual_max)["printed"] <= 1e-10
            assert rep.identity_residual_max <= 1e-10

    def test_one_array_pq_jet_evaluation_covers_the_grid(self, cands, monkeypatch):
        # a passing candidate's p and q are called once on the grid and the
        # anchor, as one array jet, and once per quadrature level of f; never
        # on a float or a scalar jet (cubic's r is 0/0 at its anchor, jia's
        # grid lies below the anchor)
        levels = []
        f_array = I._f_array
        monkeypatch.setattr(I, "_f_array", lambda cand, xs: levels.append(xs) or f_array(cand, xs))
        file_cand = _parsed("file", "-(x^2)/(1+2*x)", "sqrt(x^3*(2+x)/(1+2*x))", 0.37)
        for cand in (cands["cubic"], cands["jia"], file_cand):
            grid = I.default_grid(cand, n=30)
            calls = {"p": [], "q": []}

            def recording(name, fn):
                def wrapped(x):
                    calls[name].append(x.value.tolist() if isinstance(x, Jet2)
                                       and isinstance(x.value, np.ndarray) else x)
                    return fn(x)
                return wrapped

            levels.clear()
            probe = dataclasses.replace(cand, p=recording("p", cand.p), q=recording("q", cand.q))
            assert I.verify_identity(probe, grid=grid).passed
            assert levels
            for evals in calls.values():
                assert all(isinstance(v, list) for v in evals), cand.name
                assert evals[0] == [*grid, cand.anchor_x0]
                assert evals[1:] == [xs.tolist() for xs in levels]

    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_array_pass_equals_per_point_reference_builtin(self, cands, name):
        cand = cands[name]
        assert _bits(I.verify_identity(cand)) == _bits(reference_verify(cand))
        # an interior anchor on the grid, and a repeated point
        grid = I.default_grid(cand, n=25)
        grid = grid + [grid[10]]
        assert _bits(I.verify_identity(cand, x0=grid[12], grid=grid)) == _bits(
            reference_verify(cand, x0=grid[12], grid=grid))

    @pytest.mark.parametrize("q", ["sqrt(x^3*(2+x)/(1+2*x))", "(x^3*(2+x)/(1+2*x))^(1/2)"],
                             ids=["sqrt", "power"])
    def test_root_of_zero_at_the_anchor_verifies(self, cands, q):
        # cubic's q is 0 at its anchor x = 0, where the printed r stands in
        # for r's 0/0: a root of 0 taken by sqrt or as a power 1/2 is 0
        cand = dataclasses.replace(cands["cubic"], p=parse_expression("-(x^2)/(1+2*x)"),
                                   q=parse_expression(q))
        rep = I.verify_identity(cand)
        assert rep.passed and _bits(rep) == _bits(reference_verify(cand))
        assert rep.constant_C == pytest.approx(I.verify_identity(cands["cubic"]).constant_C, rel=1e-15)

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
            # q = 0.01/(x - 0.2) divides by a zero jet at 0.2
            (_parsed("jets", "-x", "0.01/(x-0.2)", 0.5), [0.2, 0.3, 0.7],
             "jets: p/q undefined at x = 0.2: Jet2: division by a jet with zero value"),
            # sqrt(u) with u = 0 at 0.2: q is 0 there, its derivatives NaN
            (_parsed("root", "-x", "sqrt((x-0.2)^2)*0.5", 0.5), [0.1, 0.15, 0.2, 0.3, 0.7],
             "root: r denominator vanishes at x = 0.2"),
            # a NaN p passes the range checks and ell_pi rejects it
            (I.IdentityCandidate("nan-p", _minus_x_except_at_half(math.nan),
                                 lambda x: x, (0.0, 1.0), 0.3),
             [0.1, 0.2, 0.5, 0.7, 0.9], "ell_pi: arguments must be finite"),
            # q = 0 at 0.2, where the ODE residual divides by q
            (_parsed("q-zero", "-x-0.1", "x-0.2", 0.5), [0.2, 0.3, 0.7],
             r"q-zero: q in \{0,1\} at x = 0.2"),
        ],
        ids=["r-denominator", "f-denominator", "undefined-jets", "root-of-zero", "nan-p", "q-zero"],
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
        assert math.isnan(one_point_residuals(cand, 0.5)[0])
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
        ode, ec = zip(*(one_point_residuals(cand, x) for x in xs))
        assert rep.ode_residual_max == max(map(abs, ode))
        assert rep.e_coeff_residual_max == max(map(abs, ec))

    def test_regime_error_names_offender(self, cands):
        with pytest.raises(RegimeError) as err:
            I.verify_identity(cands["jia"], x0=-1.0, grid=[-0.2])
        assert "-0.2" in str(err.value)


class TestVariantResolution:
    @pytest.mark.parametrize("name", ["linear", "jia", "cubic", "surd"])
    def test_printed_variants_equal_per_point_reference(self, cands, name):
        cand = cands[name]
        got = dict(I.verify_identity(cand).printed_residual_max)
        want = reference_printed_variants(cand)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_printed_variants_reject_nan_p_like_the_reference(self, cands):
        lin = cands["linear"]
        cand = dataclasses.replace(lin, name="nan-p", p=_minus_x_except_at_half(math.nan))
        grid = [0.1, 0.5, 0.9]
        with pytest.raises(DomainError, match="ell_pi: arguments must be finite") as want:
            reference_printed_variants(cand, grid)
        with pytest.raises(DomainError) as got:
            I.verify_identity(cand, grid=grid)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("pole,error", [(0.9, RegimeError), (0.3, RegimeError)])
    def test_printed_variants_raise_in_point_order(self, tmp_path, pole, error):
        # p leaves the regime at x = 0.6, the printed r has a pole at `pole`
        # and the alternative one at 0.1: the regime gate covers the whole
        # grid before any printed r is evaluated, as in verify_identity
        path = tmp_path / "cands.json"
        path.write_text('[{"name": "steep", "p": "4*x - 0.5", "q": "x", "domain": [0, 1]}]')
        (cand,) = load_candidates(str(path))
        cand = dataclasses.replace(
            cand, printed_r=lambda x: 1.0 / (x - pole), printed_rhs=lambda x: 0.0,
            printed_r_alts=(("alt", lambda x: 1.0 / (x - 0.1)),))
        with pytest.raises(error) as err:
            I.verify_identity(cand, grid=[0.1, 0.3, 0.6, 0.9])
        if error is RegimeError:
            assert "at x = 0.6" in str(err.value)

    def test_cubic_discrepancy_resolved(self, cands):
        verdicts = dict(I.verify_identity(cands["cubic"]).printed_residual_max)
        assert verdicts["printed"] <= 1e-10
        assert verdicts["displayed"] > 1e-3
        assert sum(1 for v in verdicts.values() if v <= 1e-10) == 1

    def test_cubic_displayed_equals_jia_coefficient(self, cands):
        # the inconsistent displayed coefficient is literally the jia one
        label, fn = cands["cubic"].printed_r_alts[0]
        assert label == "displayed"
        assert fn(0.5) == pytest.approx(cands["jia"].printed_r(0.5), rel=1e-15)


#: the refusal of a complex constant, where the power that makes it is taken
_COMPLEX = "expression: (-8.0) ** 0.3333333333333333 is not real"


class TestUndefinedFloatValues:
    @pytest.mark.parametrize(
        "p,q,detail",
        [
            ("-x", "sqrt(x-0.5)", "Jet2 sqrt: requires value >= 0, got -0.49899999999999967"),
            ("-x", "(x-0.5)^(1/2)", "Jet2: non-integer power of non-positive value -0.49899999999999967"),
            ("-1/(x-0.001000000000000334)", "x", "Jet2: division by a jet with zero value"),
            ("(0-8)^(1/3)", "x", _COMPLEX),
            ("x+(0-8)^(1/3)", "x", _COMPLEX),
            ("-x", "x^((0-8)^(1/3))", _COMPLEX),
        ],
        ids=["sqrt-of-negative", "complex-power", "division-by-zero", "complex-constant",
             "complex-term", "complex-exponent"],
    )
    def test_regime_gate_names_candidate_and_point(self, p, q, detail):
        cand = _parsed("bad", p, q, 0.7)
        x = I.default_grid(cand)[0]
        with pytest.raises(SingularPointError) as err:
            I.verify_identity(cand)
        assert str(err.value).startswith(f"bad: p/q undefined at x = {x}: ")
        assert detail in str(err.value)

    def test_anchor_lhs_computes_one_rf(self, cands, monkeypatch):
        from mahlerlab import elliptic
        # Pi and K at the grid and the anchor come from one call of the R_F kernel
        calls = []
        real = elliptic._rf_array
        monkeypatch.setattr(elliptic, "_rf_array", lambda *a: calls.append(a) or real(*a))
        cubic = cands["cubic"]
        rep = I.verify_identity(cubic, x0=0.4, grid=[0.4])
        assert len(calls) == 1 and calls[0][1].shape == (2,)
        pj, qj = I._pq_jets(cubic, 0.4)
        assert rep.constant_C == ell_pi(pj.value, qj.value) + I.eval_r(cubic, 0.4) * ell_k(qj.value)

    def test_anchor_rejects_nan_p(self):
        cand = I.IdentityCandidate("nan-p", lambda x: math.nan, lambda x: x, (0.0, 1.0), 0.5)
        with pytest.raises(DomainError, match="ell_pi: arguments must be finite"):
            I.verify_identity(cand, grid=[])


class TestSpecializationBridge:
    @pytest.mark.parametrize("k", [4.5, 5.0, 8.0, 20.0, 100.0])
    def test_linear_candidate_gives_pi_k_identity(self, k):
        # the linear pair at x = 4/k reduces to the derivative-chain identity
        x = 4.0 / k
        res = ell_pi(-x, x) - 0.5 * ell_k(x) - k * math.pi / (4.0 * (k + 4.0))
        assert abs(res) <= 1e-11


# candidate strings: the expression tests' grammar trees, and pairs that
# verify, so that some draws get past the regime gate
_EXPRESSIONS = st.one_of(
    st.builds(lambda tree: " ".join(_tokens(tree)), _TREES),
    st.sampled_from(["-x", "x", "x^2", "0.5*x", "-(x^2)/(1+2*x)", "sqrt(x^3*(2+x)/(1+2*x))"]),
)


@given(_EXPRESSIONS, _EXPRESSIONS, st.sampled_from([0.05, 0.37, 0.5, 0.81]))
# the array pass raises on the constant division by 0; at each point the
# root of a negative value comes first
@example("-x", "sqrt ( - x ) / .0", 0.05)
@settings(max_examples=250)
def test_parsed_candidate_verifies_like_the_reference(p, q, x0):
    try:
        cand = _parsed("fuzz", p, q, x0)
    except DomainError:  # an exponent in x
        return
    grid = I.default_grid(cand, n=8)
    try:
        want = reference_verify(cand, grid=grid)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            I.verify_identity(cand, grid=grid)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert _bits(I.verify_identity(cand, grid=grid)) == _bits(want)
