import cmath
import dataclasses
import functools
import json
import math
import types

import numpy as np
import pytest
import scalar_reference as R
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import cli
from mahlerlab import mahler as M
from mahlerlab import quadrature as Q
from mahlerlab.elliptic import ell_k, ell_pi
from mahlerlab.errors import (
    AccuracyError,
    DomainError,
    RegimeError,
    SingularParameterError,
)


def run_suite(capsys, monkeypatch, suite, ks, *argv):
    """(exit code, JSON rows or None, stderr) of `mahlerlab verify suite`
    run with ks as the suite's default k values (its inputs for lsz)."""
    spec = cli.SUITES[suite]
    ks_field = "ks" if spec.ks is not None else "inputs"
    monkeypatch.setitem(cli.SUITES, suite, dataclasses.replace(spec, **{ks_field: tuple(ks)}))
    code = cli.main(["verify", suite, "--format", "json", *argv])
    out, err = capsys.readouterr()
    return code, json.loads(out)["rows"] if out else None, err


def poly_pac(a: complex, c: complex) -> M.LaurentPoly2:
    """a (x + 1/x) + y + 1/y + c."""
    return M.LaurentPoly2(((1, 0, complex(a)), (-1, 0, complex(a)), (0, 1, 1.0), (0, -1, 1.0), (0, 0, complex(c))))


def poly_ptilde(k: float) -> M.LaurentPoly2:
    """sqrt((k+4)/(k-4)) (x + 1/x) + y - 1/y - k/sqrt(k-4), for k > 4."""
    if k <= 4.0:
        raise DomainError(f"poly_ptilde: requires k > 4, got {k}")
    at = math.sqrt((k + 4.0) / (k - 4.0))
    ct = k / math.sqrt(k - 4.0)
    return M.LaurentPoly2(((1, 0, at), (-1, 0, at), (0, 1, 1.0), (0, -1, -1.0), (0, 0, -ct)))


def _at(P: M.LaurentPoly2, x: complex, y: complex) -> complex:
    """P(x, y), term by term."""
    return sum(c * x**i * y**j for i, j, c in P.terms)


@pytest.fixture
def gk21_calls(monkeypatch):
    """Wraps the adaptive driver `M._gk21`.  `spans` gets (depth, a, b) for
    each integral it starts, depth 0 the outer integral of m_generic_2d and 1
    an inner one; `calls` and `evals` count its integrand's array calls and
    their nodes, both depths together; a depth put in `limit_at` runs its
    integrals with the panel limit `M._LIMIT` set to the value there."""
    gk21, limit, depth = M._gk21, M._LIMIT, [0]
    rec = types.SimpleNamespace(spans=[], calls=0, evals=0, limit_at={})

    def counted(f):
        def g(t, row):
            rec.calls += 1
            rec.evals += t.size
            return f(t, row)

        return g

    def wrapped(f, a, b, breaks, order, epsabs):
        rec.spans.extend((depth[0], float(lo), float(hi)) for lo, hi in zip(a, b))
        outer = M._LIMIT
        M._LIMIT = rec.limit_at.get(depth[0], limit)
        depth[0] += 1
        try:
            return gk21(counted(f), a, b, breaks, order, epsabs)
        finally:
            depth[0] -= 1
            M._LIMIT = outer

    monkeypatch.setattr(M, "_gk21", wrapped)
    return rec


# frozen reference values (independent 30-digit quadrature)
M_P1K = {
    1.0: 0.251330433713252231,
    2.0: 0.511424067053503722,
    3.0: 0.794712447979541253,
    4.5: 1.36714877582673461,
    5.0: 1.50798260227951339,
    8.0: 2.04569626821401489,
    12.0: 2.47055987085138691,
    16.0: 2.76463477084577455,
    20.0: 2.99067495732348689,
}
HALF_PTILDE = {  # k: (m_plus, m_minus)
    4.5: (1.51776375265293, 0.125886028725514),
    5.0: (1.36346427307067, 0.0601668275968574),
    8.0: (1.29750120627403, 0.0),
    20.0: (1.59670375568878, 0.0),
}
HALF_PAC_K2 = (0.00947051932013778, 0.539835625013917)
M_MINUS_LOGK = {10.0: -0.020973507, 20.0: -0.0050573162, 50.0: -0.00080144428, 100.0: -0.00020009007}
#: m(x + y + 1/y + k) = (1/pi) int_0^pi log max(1, |2 cos(theta) + k|) dtheta
M_JENSEN_IN_X = {
    1.0: 0.388747872041091706851179275291,
    3.0: 0.962423650119206894995517826849,
    5.0: 1.56679923697241107866405686258,
}


class TestParams:
    def test_small_k(self):
        # below 4 the member is the real (a, c) one: beta = 2a, gamma = c
        assert M.regime(2.0) == "small"
        fac = M.factor_member(2.0)
        assert fac.beta / 2.0 == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert fac.gamma == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert fac.sigma == 1

    def test_large_k(self):
        # past 4 it is the tilde form: beta = 2 a_tilde, gamma = -c_tilde
        assert M.regime(8.0) == "large"
        fac = M.factor_member(8.0)
        assert fac.beta / 2.0 == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert -fac.gamma == pytest.approx(4.0, rel=1e-15)
        assert fac.sigma == -1

    def test_mid_k(self):
        assert M.regime(5.0) == "mid"
        assert M.regime(6.5) == "large"

    def test_regime_boundary_value(self):
        assert M.K_LARGE == pytest.approx(6.47213595499958, abs=1e-12)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_is_domain_error(self, k):
        # NaN used to fall through every comparison into the MID regime
        with pytest.raises(DomainError, match="finite"):
            M.regime(k)

    def test_singular_parameters(self):
        with pytest.raises(SingularParameterError):
            M.regime(4.0)
        with pytest.raises(SingularParameterError):
            M.regime(0.0)
        with pytest.raises(SingularParameterError):
            M.regime(-2.0)


def _roots(fac, theta):
    """(y+, y-) of y^2 + B y + sigma at x = e^{i theta}, principal branch."""
    b = fac.beta * math.cos(theta) + fac.gamma
    s = cmath.sqrt(complex(b * b - 4.0 * fac.sigma, 0.0))
    return (-b + s) / 2.0, (-b - s) / 2.0


class TestFactorization:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.9, 3.0])
    def test_root_product_p1k(self, theta):
        fac = M.factor_p1k(7.0)
        yp, ym = _roots(fac, theta)
        assert abs(yp * ym - fac.sigma) < 1e-14
        assert fac.beta * math.cos(theta) + fac.gamma > 2.0  # k > 4 keeps B above 2
        x = cmath.exp(1j * theta)
        assert abs(_at(M.poly_p1k(7.0), x, yp)) < 1e-13 and abs(_at(M.poly_p1k(7.0), x, ym)) < 1e-13

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.9, 3.0])
    def test_root_product_ptilde(self, theta):
        fac = M.factor_ptilde(6.0)
        yp, ym = _roots(fac, theta)
        assert abs(yp * ym - fac.sigma) < 1e-14
        x = cmath.exp(1j * theta)
        assert abs(_at(poly_ptilde(6.0), x, yp)) < 1e-13 and abs(_at(poly_ptilde(6.0), x, ym)) < 1e-13

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.4])
    def test_root_product_pac_small(self, theta):
        fac = M.factor_pac_small(2.0)
        yp, ym = _roots(fac, theta)
        assert abs(yp * ym - fac.sigma) < 1e-14
        poly, x = poly_pac(fac.beta / 2.0, fac.gamma), cmath.exp(1j * theta)
        assert abs(_at(poly, x, yp)) < 1e-13 and abs(_at(poly, x, ym)) < 1e-13

    def test_unimodular_roots_between_crossings(self):
        fac = M.factor_pac_small(2.0)
        yp, ym = _roots(fac, 2.0)  # |B| < 2 arc
        assert abs(abs(yp) - 1.0) < 1e-14 and abs(abs(ym) - 1.0) < 1e-14


class TestMeasure1D:
    @pytest.mark.parametrize("k,target", sorted(M_P1K.items()))
    def test_m_p1k_frozen(self, k, target):
        assert M.m_p1k(k, 1e-11) == pytest.approx(target, abs=1e-10)

    def test_m_p1k_sqrt_rows(self):
        assert M.m_p1k(math.sqrt(2.0), 1e-11) == pytest.approx(0.357402024430999466, abs=1e-10)
        assert M.m_p1k(math.sqrt(32.0), 1e-11) == pytest.approx(1.65866449838191409, abs=1e-10)

    def test_large_k_asymptote(self):
        delta = M.m_p1k(100.0, 1e-11) - math.log(100.0)
        assert abs(delta) < 2e-3
        assert delta == pytest.approx(M_MINUS_LOGK[100.0], abs=1e-9)
        for k in (1e10, 1e160, 1e300):  # 2 cos(theta) + k must not overflow
            assert abs(M.m_p1k(k, 1e-11) - math.log(k)) <= 1e-12 * math.log(k)

    def test_gap_to_log_positive_decreasing(self):
        # log k - m exceeds 0 and shrinks (m - log k is negative, rising to 0)
        gaps = [math.log(k) - M.m_p1k(k, 1e-11) for k in (10.0, 20.0, 50.0, 100.0)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        for k, ref in M_MINUS_LOGK.items():
            assert math.log(k) - M.m_p1k(k, 1e-11) == pytest.approx(-ref, abs=1e-8)

    def test_monotone_increasing(self):
        ks = [4.0 + 96.0 * i / 24.0 for i in range(25)]
        vals = [M.m_p1k(k, 1e-10) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_and_tol_errors(self):
        with pytest.raises(DomainError):
            M.m_p1k(-1.0)
        for bad in (math.nan, math.inf):
            for fn in (M.m_p1k, M.factor_ptilde, M.factor_pac_small):
                with pytest.raises(DomainError):
                    fn(bad)
        with pytest.raises(AccuracyError):
            M.m_p1k(8.0, tol=1e-14)


class TestHalfMeasures:
    @pytest.mark.parametrize("k,ref", sorted(HALF_PTILDE.items()))
    def test_ptilde_frozen(self, k, ref):
        hm = M.half_measures(M.factor_ptilde(k), 1e-11)
        assert hm.m_plus == pytest.approx(ref[0], abs=1e-10)
        assert hm.m_minus == pytest.approx(ref[1], abs=1e-10)
        assert hm.m_total == hm.m_plus + hm.m_minus

    def test_m_minus_zero_in_large_regime(self):
        assert M.half_measures(M.factor_ptilde(7.0), 1e-11).m_minus == 0.0
        assert M.half_measures(M.factor_ptilde(M.K_LARGE + 0.01), 1e-11).m_minus <= 1e-10

    def test_nonnegative(self):
        for k in (4.3, 5.0, 6.0, 6.4, 7.0, 30.0):
            hm = M.half_measures(M.factor_ptilde(k), 1e-10)
            assert hm.m_plus >= 0.0 and hm.m_minus >= 0.0

    def test_rejects_small_k(self):
        with pytest.raises(DomainError):
            M.half_measures(M.factor_ptilde(3.0))

    def test_consistency_with_m_p1k_mid_regime(self):
        # rearranged main identity: m+ - m- = (m(P_1k) - log((k-4)/(k+4))/2)/2
        k = 5.0
        hm = M.half_measures(M.factor_ptilde(k), 1e-11)
        rhs = 0.5 * (M.m_p1k(k, 1e-11) - 0.5 * math.log((k - 4.0) / (k + 4.0)))
        assert hm.m_plus - hm.m_minus == pytest.approx(rhs, abs=1e-9)

    def test_pac_small_frozen(self):
        hm = M.half_measures(M.factor_pac_small(2.0), 1e-11)
        assert hm.m_plus == pytest.approx(HALF_PAC_K2[0], abs=1e-11)
        assert hm.m_minus == pytest.approx(HALF_PAC_K2[1], abs=1e-11)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_pac_small_total_is_log_a(self, k):
        fac = M.factor_pac_small(k)
        hm = M.half_measures(fac, 1e-11)
        assert hm.m_total == pytest.approx(math.log(fac.beta / 2.0), abs=1e-10)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_lsz_branch_verdict(self, capsys, monkeypatch, k):
        code, rows, _ = run_suite(capsys, monkeypatch, "lsz", [k])
        verdict = reference_lsz_verdict(k, 1e-10)
        assert code == 0 and rows[2]["input"] == f"k={k:.6g} branch labeling"
        assert rows[2]["computed"] == verdict["winner"] == "principal"
        assert rows[2]["residual"] == verdict["residual_principal"] <= 1e-6
        assert verdict["residual_swapped"] > 1e-2

    def test_pac_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            M.half_measures(M.factor_pac_small(4.5))
        with pytest.raises(DomainError):
            M.half_measures(M.factor_pac_small(0.0))


def _jensen_mp(mpmath, coeff, sigma):
    """(m+, m-) of y^2 + (2 A cos t + C) y + sigma, coeff = (A, C), by 30-digit
    quadrature of log+|y+-| over [0, pi], split where |B| = 2 or B = 0."""
    A, C = coeff
    B = lambda t: 2 * A * mpmath.cos(t) + C
    levels = (2, -2) if sigma > 0 else (0,)
    cuts = sorted(mpmath.acos((lv - C) / (2 * A)) for lv in levels if abs(lv - C) < abs(2 * A))
    pts = [mpmath.mpf(0), *cuts, mpmath.pi]

    def m(sign):
        def f(t):
            b = B(t)
            y = (-b + sign * mpmath.sqrt(b * b - 4 * sigma)) / 2
            return max(mpmath.mpf(0), mpmath.log(abs(y)))
        return mpmath.quad(f, pts) / mpmath.pi

    return m(1), m(-1)


@pytest.mark.parametrize("k", [0.05, 3.95, 4.05, M.K_LARGE - 1e-3, M.K_LARGE + 1e-3, 1e6])
def test_jensen_regime_edges_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        kk = mpmath.mpf(k)
        p1k = _jensen_mp(mpmath, (1, kk), 1)
        if k < 4.0:
            pair = _jensen_mp(mpmath, (mpmath.sqrt((4 + kk) / (4 - kk)), kk / mpmath.sqrt(4 - kk)), 1)
            hm = M.half_measures(M.factor_pac_small(k), 1e-13)
        else:
            pair = _jensen_mp(mpmath, (mpmath.sqrt((kk + 4) / (kk - 4)), -kk / mpmath.sqrt(kk - 4)), -1)
            hm = M.half_measures(M.factor_ptilde(k), 1e-13)
        assert abs(M.m_p1k(k, 1e-13) - float(sum(p1k))) <= 1e-13
        assert abs(hm.m_plus - float(pair[0])) <= 1e-13
        assert abs(hm.m_minus - float(pair[1])) <= 1e-13


def _ks(lo, hi, edges):
    """k in (lo, hi), with the given edges among the draws."""
    return st.one_of(
        st.floats(lo, hi, exclude_min=True, exclude_max=True),
        st.sampled_from(edges),
    )


_AROUND_4 = (math.nextafter(4.0, 0.0), math.nextafter(4.0, math.inf))
_AROUND_K_LARGE = (math.nextafter(M.K_LARGE, 0.0), M.K_LARGE, math.nextafter(M.K_LARGE, math.inf))

#: the three factorizations over all three regimes, with their edges
FACTORIZATIONS = st.one_of(
    _ks(0.0, 1e6, (1e-9, *_AROUND_4, 4.0, *_AROUND_K_LARGE, 1e6)).map(M.factor_p1k),
    _ks(4.0, 1e6, (_AROUND_4[1], 4.0 + 1e-9, *_AROUND_K_LARGE, 1e6)).map(M.factor_ptilde),
    _ks(0.0, 4.0, (1e-9, 4.0 - 1e-9, _AROUND_4[0])).map(M.factor_pac_small),
)


def _hm_bits(hm):
    return hm.m_plus.hex(), hm.m_minus.hex(), hm.est.hex()


@given(FACTORIZATIONS, st.floats(1e-13, 1e-6))
@settings(max_examples=60)
def test_half_measures_equal_scalar_reference_bitwise(fac, tol):
    assert _hm_bits(M.half_measures(fac, tol)) == _hm_bits(R.half_measures(fac, tol))


@given(st.lists(FACTORIZATIONS, min_size=1, max_size=6), st.floats(1e-12, 1e-6))
@settings(max_examples=60)
def test_lockstep_half_measures_equal_scalar_bitwise(facs, tol):
    jobs = [(fac, t) for fac in facs for t in (tol, 0.1 * tol)]
    got = M.half_measures_lockstep(*zip(*jobs))
    want = [R.half_measures(fac, t) for fac, t in jobs]
    assert [_hm_bits(hm) for hm in got] == [_hm_bits(hm) for hm in want]


def test_lockstep_pieces_equal_scalar_bitwise():
    # more factorizations than one lockstep piece holds, all three kinds
    facs = [M.factor_p1k(0.1 * i) for i in range(1, 30)] + [
        M.factor_ptilde(4.0 + 0.5 * i) for i in range(1, 25)] + [
        M.factor_pac_small(0.2 * i) for i in range(1, 20)]
    jobs = [(fac, tol) for fac in facs for tol in (1e-10, 1e-11)]
    got = M.half_measures_lockstep(*zip(*jobs))
    want = [R.half_measures(fac, tol) for fac, tol in jobs]
    assert [_hm_bits(hm) for hm in got] == [_hm_bits(hm) for hm in want]


def test_lockstep_ladder_per_factorization():
    # each factorization has its own tol, as the table's measures do
    facs = [M.factor_p1k(1.0), M.factor_ptilde(8.0), M.factor_pac_small(2.0), M.factor_ptilde(5.0)]
    tols = [1e-9, 1e-10, 1e-12, 1e-13]
    got = M.half_measures_lockstep(facs, tols)
    want = [R.half_measures(fac, t) for fac, t in zip(facs, tols)]
    assert [_hm_bits(hm) for hm in got] == [_hm_bits(hm) for hm in want]


# (factorizations, max level), each at tol 1e-10 and then 1e-11: the first
# failure one by one is at the second tol of the first fac; at the first tol
# of its m- arc while its m+ arc also fails; at the second tol of its m+ arc
# while its m- arc meets both; and in the second lockstep piece
@pytest.mark.parametrize(
    "facs,max_level",
    [
        ([M.factor_p1k(2.0), M.factor_p1k(3.5)], 3),
        ([M.factor_ptilde(4.3), M.factor_ptilde(5.0)], 3),
        ([M.factor_ptilde(5.0), M.factor_ptilde(6.0)], 4),
        ([M.factor_p1k(0.5)] * M._LOCKSTEP_FACS + [M.factor_p1k(3.5)], 3),
    ],
)
def test_lockstep_nonconvergence_matches_one_by_one(monkeypatch, facs, max_level):
    jobs = [(fac, tol) for fac in facs for tol in (1e-10, 1e-11)]
    monkeypatch.setattr(R, "tanh_sinh", functools.partial(R.tanh_sinh, max_level=max_level))
    with pytest.raises(AccuracyError) as want:
        [R.half_measures(fac, tol) for fac, tol in jobs]
    monkeypatch.setattr(Q, "_MAX_LEVEL", max_level)
    with pytest.raises(AccuracyError) as got:
        M.half_measures_lockstep(*zip(*jobs))
    assert str(got.value) == str(want.value)
    assert got.value.best_estimate.hex() == want.value.best_estimate.hex()
    assert got.value.error_estimate.hex() == want.value.error_estimate.hex()


class TestDerivatives:
    def test_dfdk_closed_form_k8(self):
        assert M.dfdk(8.0) == pytest.approx(ell_k(0.5) / (4.0 * math.pi), rel=1e-14)

    def test_dhdk_closed_form_k8(self):
        expected = (ell_k(0.5) - ell_pi(-0.5, 0.5)) / (4.0 * math.pi)
        assert M.dhdk(8.0) == pytest.approx(expected, rel=1e-13)

    def test_dfdk_large_k_limit(self):
        assert M.dfdk(1e7) == pytest.approx(1e-7, rel=1e-8)

    @pytest.mark.parametrize("k", [5.0, 6.0, 8.0, 12.0, 20.0])
    def test_dfdk_matches_finite_difference(self, k):
        h = 1e-3
        fd = (M.m_p1k(k + h, 1e-12) - M.m_p1k(k - h, 1e-12)) / (2.0 * h)
        assert M.dfdk(k) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("k", [5.0, 6.0, 8.0, 12.0, 20.0])
    def test_dhdk_matches_finite_difference(self, k):
        h = 1e-3

        def hval(kk):
            hm = M.half_measures(M.factor_ptilde(kk), 1e-12)
            return hm.m_plus - hm.m_minus

        fd = (hval(k + h) - hval(k - h)) / (2.0 * h)
        assert M.dhdk(k) == pytest.approx(fd, abs=1e-6)

    def test_derivative_identity_grid(self):
        for k in (4.2, 5.0, 6.0, 8.0, 12.0, 20.0, 50.0, 100.0):
            res = M.dfdk(k) - 2.0 * M.dhdk(k) - 4.0 / (k * k - 16.0)
            assert abs(res) <= 1e-11

    def test_dfdk_positive_on_grid(self):
        assert all(M.dfdk(4.0 + 0.5 * i) > 0.0 for i in range(1, 193))

    @pytest.mark.parametrize("k", [4.5, 5.0, 8.0, 12.0])
    def test_integral_form_matches_closed_form(self, k):
        assert abs(R.dhdk_integral_form(k) - M.dhdk(k)) <= 1e-9

    def test_integral_form_odd_component_vanishes(self):
        # the x/(1-x^2) piece of the substituted integrand is odd; symmetric
        # tanh-sinh nodes cancel it to zero exactly
        k = 8.0
        beta = 2.0 / math.sqrt(k + 4.0)
        a1 = b2 = 4.0 / k
        a2 = (k - 4.0) / k
        b1 = -(k + 4.0) / k

        def odd_part(x):
            w = (b1 * x * x + a1) * (b2 * x * x + a2)
            if w <= 0.0:
                return 0.0
            return x / (1.0 - x * x) / math.sqrt(w)

        val = Q.quadrature_oracle(odd_part, -beta, beta, 1e-10)
        assert abs(val) <= 1e-12

    def test_domain_errors(self):
        for fn in (M.dfdk, M.dhdk, R.dhdk_integral_form):
            with pytest.raises(DomainError):
                fn(4.0)


class TestVerifiers:
    """The slice identities as `mahlerlab verify` states them."""

    @pytest.mark.parametrize("k", [4.5, 5.0, 8.0, 20.0])
    def test_thm_main(self, capsys, k):
        assert cli.main(["verify", "thm-main", "--k", repr(k), "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["rows"]
        assert row["residual"] <= 1e-8 and row["status"] == "PASS"

    @pytest.mark.parametrize("k", [7.0, 16.0])
    def test_corollary(self, capsys, k):
        assert cli.main(["verify", "corollary", "--k", repr(k), "--format", "json"]) == 0
        m_minus, identity = json.loads(capsys.readouterr().out)["rows"]
        assert m_minus["computed"] <= 1e-12
        assert identity["residual"] <= 1e-8

    def test_corollary_rejects_mid_regime(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "corollary", "--k", "5"])
        assert exc.value.code == 2
        assert "verify corollary: k values [5.0] not above 2(1+sqrt(5))" in capsys.readouterr().err


def reference_thm_main(k, tol=1e-8):
    """The per-k main-theorem residual, on the scalar reference half-measures."""
    if k <= 4.0:
        raise DomainError(f"reference_thm_main: requires k > 4, got {k}")
    hm = R.half_measures(M.factor_ptilde(k), tol=0.01 * tol)
    lhs = R.half_measures(M.factor_p1k(k), tol=0.01 * tol).m_total
    rhs = 2.0 * (hm.m_plus - hm.m_minus) + 0.5 * math.log((k - 4.0) / (k + 4.0))
    return abs(lhs - rhs)


def reference_corollary(k, tol=1e-8):
    """The per-k (m-, corollary residual), on the scalar reference
    half-measures."""
    if k <= M.K_LARGE:
        raise RegimeError(
            f"reference_corollary: requires k > 2(1+sqrt(5)) = {M.K_LARGE:.6f}, got {k}"
        )
    hm = R.half_measures(M.factor_ptilde(k), tol=0.01 * tol)
    lhs = R.half_measures(M.factor_p1k(k), tol=0.01 * tol).m_total
    rhs = 2.0 * hm.m_total + 0.5 * math.log((k - 4.0) / (k + 4.0))
    return hm.m_minus, abs(lhs - rhs)


def reference_lsz_verdict(k, tol):
    """The per-k branch verdict from the measures at tol, on the scalar
    reference half-measures."""
    hm = R.half_measures(M.factor_pac_small(k), tol)
    target = R.half_measures(M.factor_p1k(k), tol).m_total
    res_principal = abs(hm.m_minus - 3.0 * hm.m_plus - target)
    res_swapped = abs(hm.m_plus - 3.0 * hm.m_minus - target)
    return {
        "k": k,
        "m_plus": hm.m_plus,
        "m_minus": hm.m_minus,
        "m_p1k": target,
        "residual_principal": res_principal,
        "residual_swapped": res_swapped,
        "winner": "principal" if res_principal < res_swapped else "swapped",
    }


def _hex(values):
    """values as hex bits, strings kept."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _printed(rows):
    """What the suite rows print: each row's computed value, and the
    residual of an lsz branch row."""
    return _hex(v for r in rows
                for v in ((r["computed"], r["residual"]) if "branch" in r["input"] else (r["computed"],)))


def reference_lsz_rows(k):
    """The values the lsz rows print at k: two rows from the measures at
    1e-11, then the branch verdict and its residual at 1e-10."""
    fine, verdict = reference_lsz_verdict(k, 1e-11), reference_lsz_verdict(k, 1e-10)
    return [fine["m_plus"] + fine["m_minus"], fine["m_minus"] - 3.0 * fine["m_plus"],
            verdict["winner"], verdict["residual_principal"]]


#: per suite, the values its rows print at one k, from the per-k references
REFERENCE_ROWS = {
    "thm-main": lambda k, tol: [reference_thm_main(k, tol)],
    "corollary": lambda k, tol: list(reference_corollary(k, tol)),
    "lsz": lambda k, tol: reference_lsz_rows(k),
}


def _outcome(suite, ks, tol):
    """What a loop over ks of the per-k references prints: each row's
    values as hex bits, or the CLI's error line for its first error."""
    try:
        return _hex(v for k in ks for v in REFERENCE_ROWS[suite](k, tol))
    except AccuracyError as exc:
        return f"mahlerlab: error: {exc}\n"


def _suite_outcome(capsys, monkeypatch, suite, ks, *argv):
    """What `mahlerlab verify suite` prints for ks, in `_outcome`'s terms."""
    code, rows, err = run_suite(capsys, monkeypatch, suite, ks, *argv)
    return _printed(rows) if rows is not None else err


class TestBatchedVerifiersEqualPerK:
    """Each suite's rows, from one lockstep refinement, bit for bit the
    per-k loop over the scalar reference half-measures."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-11])
    def test_thm_main(self, capsys, monkeypatch, tol):
        ks = [4.2, 4.5, 5.0, M.K_LARGE, 8.0, 20.0, 1e6]
        assert _suite_outcome(capsys, monkeypatch, "thm-main", ks, "--tol", repr(tol)) == _outcome(
            "thm-main", ks, tol)

    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-11])
    def test_corollary(self, capsys, monkeypatch, tol):
        ks = [6.48, 7.0, 16.0, 50.0, 1e6]
        assert _suite_outcome(capsys, monkeypatch, "corollary", ks, "--tol", repr(tol)) == _outcome(
            "corollary", ks, tol)

    def test_lsz_two_tols(self, capsys, monkeypatch):
        # the lsz suite's order: the rows at 1e-11, then the verdict at 1e-10
        ks = [0.5, 1.0, 2.0, 3.0, 3.9]
        _, rows, _ = run_suite(capsys, monkeypatch, "lsz", ks)
        assert _printed(rows) == _hex(v for k in ks for v in reference_lsz_rows(k))
        assert [r["expected"] for r in rows[1::3]] == [
            reference_lsz_verdict(k, 1e-11)["m_p1k"] for k in ks]

    # the CLI rejects every k outside the suite's domain, as a usage error,
    # before any suite runs
    @pytest.mark.parametrize(
        "name,ks,tol",
        [
            ("thm_main", [5.0, 3.0], 1e-8),
            ("thm_main", [5.0, 3.0], 1e-13),
            ("thm_main", [3.0, 5.0], 1e-13),
            ("thm_main", [5.0, math.inf], 1e-8),
            ("corollary", [7.0, 5.0], 1e-8),
            ("corollary", [7.0, 5.0], 1e-13),
            ("corollary", [5.0, 7.0], 1e-13),
        ],
    )
    def test_first_error_of_the_per_k_loop(self, capsys, name, ks, tol):
        suite = name.replace("_", "-")
        spec = cli.SUITES[suite]
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--k-grid", f"{min(ks)}:{max(ks)}:2", "--tol", repr(tol)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        if all(map(math.isfinite, ks)):
            bad = [k for k in sorted(ks) if spec.bad_k(k)]
            assert captured.err == f"mahlerlab: verify {suite}: k values {bad} {spec.domain}\n"
        else:
            assert "argument --k-grid: must be finite, got 'inf'" in captured.err

    @pytest.mark.parametrize("name,ks", [("thm_main", [5.0, 4.3]), ("corollary", [7.0, 8.0]),
                                         ("lsz", [1.0, 2.0])])
    @pytest.mark.parametrize("max_level", [1, 2, 3])
    def test_nonconvergence_of_the_per_k_loop(self, capsys, monkeypatch, name, ks, max_level):
        # the lsz suite's tols: at max level 1 and 2 both miss, and the
        # 1e-11 failure is the one the loop raises first
        suite = name.replace("_", "-")
        monkeypatch.setattr(R, "tanh_sinh", functools.partial(R.tanh_sinh, max_level=max_level))
        want = _outcome(suite, ks, 1e-8)
        assert want.startswith("mahlerlab: error: ")
        monkeypatch.setattr(Q, "_MAX_LEVEL", max_level)
        assert _suite_outcome(capsys, monkeypatch, suite, ks) == want


class TestGeneric2D:
    def test_monomial(self):
        assert M.m_generic_2d(M.LaurentPoly2(((1, 0, 1.0),))) == pytest.approx(0.0, abs=1e-9)

    def test_constant(self):
        assert M.m_generic_2d(M.LaurentPoly2(((0, 0, 5.0),))) == pytest.approx(
            math.log(5.0), abs=1e-9
        )

    def test_rejects_empty_and_zero(self):
        with pytest.raises(DomainError):
            M.LaurentPoly2(())
        with pytest.raises(DomainError):
            M.LaurentPoly2(((0, 0, 0.0),))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_rejects_non_finite_coefficient(self, c):
        with pytest.raises(DomainError, match="not finite"):
            M.LaurentPoly2(((0, 0, c), (1, 0, 1.0)))

    @pytest.mark.parametrize("i,j", [(0.5, 0), (0, 1.0)])
    def test_rejects_non_integer_exponent(self, i, j):
        with pytest.raises(DomainError, match="integers"):
            M.LaurentPoly2(((i, j, 1.0), (0, 1, 1.0)))

    def test_cross_check_k8(self):
        v = M.m_generic_2d(M.poly_p1k(8.0), 1e-6)
        assert v == pytest.approx(M.m_p1k(8.0, 1e-9), abs=1e-6)

    @pytest.mark.parametrize(
        "k",
        [2.0, 3.0, 5.0, 8.0, 12.0],
    )
    def test_jensen_split_against_2d_oracle(self, k):
        # half-measure route vs brute-force 2D quadrature, regime-appropriate
        fac = M.factor_member(k)
        hm = M.half_measures(fac, 1e-10)
        poly = poly_pac(fac.beta / 2.0, fac.gamma) if k < 4.0 else poly_ptilde(k)
        assert M.m_generic_2d(poly, 1e-6) == pytest.approx(hm.m_total, abs=1e-6)

    # k < 4: the inner integral kinks where y-roots enter and leave the circle;
    # without outer break points the oracle missed 1e-6 at 1.8291 and 2.5
    @pytest.mark.parametrize(
        "k", [0.05, 0.5, 1.0, 1.5, 1.8291, 2.0, 2.5, 3.0, 3.5, 3.95]
    )
    def test_small_k_meets_tol(self, k):
        assert abs(M.m_generic_2d(M.poly_p1k(k), 1e-6) - M.m_p1k(k, 1e-12)) <= 1e-6

    @pytest.mark.parametrize("k", [0.05, 1.0, 1.8291, 2.5, 3.95])
    def test_breaks_p1k(self, k):
        t = math.acos((2.0 - k) / 2.0) / (2.0 * math.pi)
        assert _breaks(M.poly_p1k(k)) == pytest.approx([t, 1.0 - t], abs=1e-12)

    @pytest.mark.parametrize("k", [0.5, 2.0, 3.0, 3.9])
    def test_breaks_pac_both_arcs(self, k):
        # B = 2 a cos(theta) + c crosses +2 near theta = 0 and -2 near pi
        fac = M.factor_pac_small(k)
        a, c = fac.beta / 2.0, fac.gamma
        ts = [math.acos((b - c) / (2.0 * a)) / (2.0 * math.pi) for b in (2.0, -2.0)]
        want = sorted(ts + [1.0 - t for t in ts])
        assert _breaks(poly_pac(a, c)) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("k", [4.001, 4.5, 5.0, 6.0, 6.47])
    def test_breaks_ptilde_swap(self, k):
        # sigma = -1: one root leaves the circle as the other enters
        t = math.acos(k / (2.0 * math.sqrt(k + 4.0))) / (2.0 * math.pi)
        assert _breaks(poly_ptilde(k)) == pytest.approx([t, 1.0 - t], abs=1e-8)

    @pytest.mark.parametrize("k", [4.001, 4.6, 8.0, 12.0, 100.0])
    def test_no_breaks_p1k_above_4(self, k):
        assert _breaks(M.poly_p1k(k)) == []

    @pytest.mark.parametrize("k", [6.48, 8.0, 12.0, 100.0])
    def test_no_breaks_ptilde_above_k_large(self, k):
        assert _breaks(poly_ptilde(k)) == []

    @pytest.mark.parametrize(
        "terms,t",
        [
            (((0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0)), 1.0 / 3.0),  # 1 + x + y
            (((0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)), 1.0 / 3.0),  # 1 + (1 + x) y
            # 1 + (x - 1) y: the leading coefficient vanishes at the sample t1 = 0
            (((0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0)), 1.0 / 6.0),
        ],
    )
    def test_smyth_degree_one_in_y(self, terms, t):
        # m(1 + x + y) = 3 sqrt(3)/(4 pi) L(chi_-3, 2) (Smyth 1981); one root
        # in y, outside the circle on an arc of t1 with ends t and 1 - t
        P = M.LaurentPoly2(terms)
        assert _breaks(P) == pytest.approx([t, 1.0 - t], abs=1e-9)
        assert M.m_generic_2d(P) == pytest.approx(0.3230659472194505, abs=1e-6)

    def test_rotated_smyth_is_not_folded(self):
        # 1 + i x + y is 1 + x + y turned on the torus; its inner integral
        # log max(1, |1 + i x|) is not even in t1
        P = M.LaurentPoly2(((0, 0, 1.0), (1, 0, 1j), (0, 1, 1.0)))
        assert M.m_generic_2d(P) == pytest.approx(0.3230659472194505, abs=1e-6)

    @pytest.mark.parametrize("k", [3.0, 5.0])
    @pytest.mark.parametrize("ax", [1.0, 1j], ids=["x", "ix"])
    def test_folds_match_jensen_in_x(self, ax, k):
        # m(ax x + y + 1/y + k) = (1/pi) int_0^pi log max(1, |2 cos(theta) + k|)
        # (Jensen in x); i x folds only the inner integral, x both
        P = M.LaurentPoly2(((1, 0, ax), (0, 1, 1.0), (0, -1, 1.0), (0, 0, k)))
        value = M.m_generic_2d(P)
        assert type(value) is float  # not a numpy scalar
        assert value == pytest.approx(M_JENSEN_IN_X[k], abs=1e-6)

    @pytest.mark.parametrize(
        "poly,outer,inner",
        [
            (M.poly_p1k(1.0), 0.5, 0.5),
            (poly_pac(M.factor_pac_small(2.0).beta / 2.0, M.factor_pac_small(2.0).gamma), 0.5, 0.5),
            (poly_ptilde(5.0), 0.5, 1.0),  # y - 1/y is not y-reciprocal
            (M.LaurentPoly2(((0, 0, 1.0), (1, 0, 1j), (0, 1, 1.0))), 1.0, 1.0),
        ],
        ids=["p1k", "pac", "ptilde", "1+ix+y"],
    )
    def test_fold_intervals(self, gk21_calls, poly, outer, inner):
        M.m_generic_2d(poly)
        assert set(gk21_calls.spans) == {(0, 0.0, outer), (1, 0.0, inner)}

    @pytest.mark.parametrize("level,where", [(0, "outer"), (1, "inner")])
    def test_quadpack_failure_raises(self, gk21_calls, level, where):
        # starve the outer or the inner integral of subintervals: at k = 1
        # the outer one meets its target on its two segments, so only a limit
        # below that fails it (QUADPACK's ier = 6)
        gk21_calls.limit_at[level] = 1
        with pytest.raises(AccuracyError, match=where) as err:
            M.m_generic_2d(M.poly_p1k(1.0), 1e-6)
        assert err.value.best_estimate == pytest.approx(M_P1K[1.0], abs=1e-2)
        assert type(err.value.best_estimate) is type(err.value.error_estimate) is float

    def test_double_root_on_the_circle_at_the_fold_edge(self):
        # x + y + 1/y + 1: at t1 = 0 the y-roots meet in a double root at
        # y = -1, the end of the folded inner integral
        P = M.LaurentPoly2(((1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0), (0, 0, 1.0)))
        assert M.m_generic_2d(P) == pytest.approx(M_JENSEN_IN_X[1.0], abs=1e-6)

    def test_lockstep_calls_and_evaluations(self, gk21_calls):
        # every outer node's inner integral in one integrand call per round;
        # at k = 8 one panel per integral: 21 outer nodes, 21 x 21 inner ones
        M.m_generic_2d(M.poly_p1k(1.0), 1e-6)
        assert gk21_calls.calls <= 100
        gk21_calls.evals = 0
        M.m_generic_2d(M.poly_p1k(8.0), 1e-6)
        assert gk21_calls.evals <= 462

    def test_sweep_against_jensen(self, gk21_calls):
        # worst 1.6e-11 (k = 3.66), in at most 12 integrand calls per k
        worst, calls = 0.0, []
        for k in SWEEP_KS:
            gk21_calls.calls = 0
            worst = max(worst, abs(M.m_generic_2d(M.poly_p1k(k), 1e-6) - M.m_p1k(k, 1e-12)))
            calls.append(gk21_calls.calls)
        assert worst <= 1e-10
        assert max(calls) <= 15

    @pytest.mark.parametrize("poly", [
        *(M.poly_p1k(k) for k in (0.05, 1.0, 1.8291, 2.5, 3.95)),
        *(poly_pac(M.factor_pac_small(k).beta / 2.0, M.factor_pac_small(k).gamma)
          for k in (0.5, 2.0, 3.0, 3.9)),
        *(poly_ptilde(k) for k in (4.001, 4.5, 5.0, 6.0, 6.47)),
    ])
    def test_folded_search_keeps_the_breaks_below_one_half(self, poly):
        coeffs_at = M._y_coefficients(poly)
        full = M._outer_break_points(coeffs_at, 1.0)
        assert M._outer_break_points(coeffs_at, 0.5) == [t for t in full if t < 0.5]

    def test_batched_search_matches_bisection(self):
        # 8 batched passes against 40 bisection steps (scalar_reference) on
        # both folds; worst 2.9e-13 (the (a, c) member at k = 3.9), where the
        # eigenvalues of a double root on the circle are least accurate
        polys = [*SEARCH_POLYS, *(M.poly_p1k(k) for k in SWEEP_KS)]
        for coeffs_at in map(M._y_coefficients, polys):
            for hx in (0.5, 1.0):
                got, want = M._outer_break_points(coeffs_at, hx), R.bisection_break_points(coeffs_at, hx)
                assert len(got) == len(want)
                assert got == pytest.approx(want, abs=1e-12)

    def test_search_eigenvalue_calls(self, monkeypatch):
        # one call for the grid and one per pass (40 bisection steps made 41)
        calls = []
        roots_at = M._y_roots_at
        monkeypatch.setattr(M, "_y_roots_at", lambda C: calls.append(C) or roots_at(C))
        assert len(M._outer_break_points(M._y_coefficients(M.poly_p1k(1.0)), 0.5)) == 1
        assert len(calls) <= 11


#: the 74 k of the oracle's sweep against Jensen's formula
SWEEP_KS = [*np.linspace(0.05, 3.95, 42), *np.linspace(4.05, 11.8, 32)]
#: the polynomials of test_folded_search_keeps_the_breaks_below_one_half
SEARCH_POLYS = [
    *(M.poly_p1k(k) for k in (0.05, 1.0, 1.8291, 2.5, 3.95)),
    *(poly_pac(M.factor_pac_small(k).beta / 2.0, M.factor_pac_small(k).gamma)
      for k in (0.5, 2.0, 3.0, 3.9)),
    *(poly_ptilde(k) for k in (4.001, 4.5, 5.0, 6.0, 6.47)),
]


def _breaks(P):
    return M._outer_break_points(M._y_coefficients(P), 1.0)
