import contextlib
import io
import json
import math

import pytest

from mahlerlab import cli
from mahlerlab import curves as C
from mahlerlab import lseries as L
from mahlerlab.errors import AccuracyError, DomainError, LDataError
from mahlerlab.quadrature import quadrature_oracle

# frozen independent 30-digit references
E1_REFS = {
    0.5: 0.55977359477616081175,
    3.0: 0.013048381094197037413,
    12.0: 4.7510818246724939326e-7,
}
LPRIME0 = {
    1.0: 0.251330433713252231,
    2.0: 0.511424067053503722,
    3.0: 0.397356223989770627,
    5.0: 0.251330433713252231,
    8.0: 0.511424067053503722,
    12.0: 1.23527993542569345,
    16.0: 0.251330433713252231,
}
LPRIME0_SQRT = {
    2: 1.42960809772399786,
    8: 0.743333246643551734,
    18: 0.511424067053503722,
    32: 1.65866449838191409,
}


def _l2_split_reference(an, N, eps, A):
    """The per-term split formula, E1 evaluated afresh for every term."""
    direct = 0.0
    folded = 0.0
    for n in range(1, len(an)):
        a = an[n]
        if a == 0:
            continue
        x1 = 2.0 * math.pi * n * A
        direct += a / (n * n) * math.exp(-x1) * (1.0 + x1)
        folded += a * L.exp_integral_e1(2.0 * math.pi * n / (N * A))
    return direct + eps * (4.0 * math.pi**2 / N) * folded


def _count_e1(monkeypatch, argv):
    """The E1 arguments of one CLI op, run in process with its output dropped
    (table exits 1 on its deliberate 4*sqrt(2) corollary row)."""
    calls = []
    e1 = L.exp_integral_e1
    monkeypatch.setattr(L, "exp_integral_e1", lambda x: calls.append(x) or e1(x))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv.split())
    return calls


TABLE_KS = [math.sqrt(k2) for k2 in sorted(C.TABLE1)]


class TestExpIntegral:
    @pytest.mark.parametrize("x,ref", sorted(E1_REFS.items()))
    def test_frozen_values(self, x, ref):
        assert L.exp_integral_e1(x) == pytest.approx(ref, abs=1e-15 * max(1.0, ref) + 1e-21)

    def test_against_quadrature(self):
        for x in (0.3, 1.0, 2.5):
            # int_x^40 e^-t/t dt + remainder bound beyond 40 (< 2e-19)
            oracle = quadrature_oracle(lambda t: math.exp(-t) / t, x, 40.0, 1e-15)
            assert L.exp_integral_e1(x) == pytest.approx(oracle, abs=1e-14)

    def test_branch_boundary_continuity(self):
        lo = L.exp_integral_e1(1.0 - 1e-12)
        hi = L.exp_integral_e1(1.0 + 1e-12)
        assert abs(lo - hi) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            L.exp_integral_e1(0.0)


class TestPipeline:
    @pytest.mark.parametrize("k,ref", sorted(LPRIME0.items()))
    def test_lprime_integer_rows(self, k, ref):
        _, data = L.lvalue_from_k(k)
        assert data.eps == 1
        assert data.Lprime0 == pytest.approx(ref, abs=1e-12)
        assert data.tail_bound < 1e-12

    @pytest.mark.parametrize("k2,ref", sorted(LPRIME0_SQRT.items()))
    def test_lprime_sqrt_rows(self, k2, ref):
        _, data = L.lvalue_from_k(math.sqrt(k2))
        assert data.eps == 1
        assert data.Lprime0 == pytest.approx(ref, abs=1e-12)

    def test_lprime_relation_to_l2(self):
        curve, data = L.lvalue_from_k(8.0)
        assert data.Lprime0 == pytest.approx(
            data.eps * curve.conductor_N / (4.0 * math.pi**2) * data.L2, rel=1e-15
        )

    def test_resolved_coefficients(self):
        # consistency search lands on the known newform coefficients
        for k in (1.0, 5.0, 16.0):
            _, data = L.lvalue_from_k(k)
            assert data.an[2] == -1  # conductor-15 form
            assert data.ap_routes[2] == "consistency"
        _, data = L.lvalue_from_k(3.0)
        assert data.an[2] == -1 and data.an[3] == 1
        _, data = L.lvalue_from_k(12.0)
        assert data.an[3] == 1
        _, data = L.lvalue_from_k(math.sqrt(18.0))
        assert data.an[3] == -1

    def test_an_multiplicative_identities(self):
        _, data = L.lvalue_from_k(1.0)
        an = data.an
        assert an[1] == 1
        assert an[6] == an[2] * an[3]
        assert an[4] == an[2] ** 2 - 2
        assert an[10] == an[2] * an[5]

    def test_split_point_independence(self):
        _, data = L.lvalue_from_k(8.0)
        assert data.spread() <= 1e-10

    def test_generalized_split_values_match(self):
        # L(E, 2) by the per-term split formula at A = 0.8/sqrt(N) and 1.3/sqrt(N)
        _, data = L.lvalue_from_k(8.0)
        rootn = math.sqrt(data.N)
        a, b = (_l2_split_reference(data.an, data.N, data.eps, c / rootn) for c in (0.8, 1.3))
        assert abs(a - b) <= 1e-10

    def test_sign_flip_breaks_independence(self):
        _, data = L.lvalue_from_k(8.0)
        assert data.spread(-data.eps) > 1e-4

    def test_sign_detect(self):
        # the spread itself detects eps: the true sign agrees to 1e-10 across
        # split points, the flipped one does not
        for k in (1.0, 8.0):
            _, data = L.lvalue_from_k(k)
            assert data.eps == 1
            assert data.spread() <= 1e-10
            assert data.spread(-data.eps) > 1e-6

    def test_sign_detect_rejects_corrupt_data(self, monkeypatch):
        curve, data = L.lvalue_from_k(8.0)
        ap = {p: C.ap_good(curve, p) for p in C.primes_up_to(data.n_max) if p > 3}
        ap[2] = 0
        ap[3] = -1
        ap[5] += 2  # corrupt one good coefficient
        an = C.extend_multiplicatively(ap, curve.conductor_N, data.n_max)
        # no sign certifies the corrupt table (measured 2.6e-3 and 0.41)
        rootn = math.sqrt(curve.conductor_N)
        for eps in (1, -1):
            vals = [_l2_split_reference(an, curve.conductor_N, eps, c / rootn) for c in (0.8, 1.0, 1.3)]
            assert max(vals) - min(vals) > 1e-10
        # and the search refuses it: no (eps, a_2, a_3) choice certifies a_5 + 2
        route = L.ap_with_route

        def corrupt_a5(curve, p):
            value, how = route(curve, p)
            return (value + 2 if p == 5 else value), how

        monkeypatch.setattr(L, "ap_with_route", corrupt_a5)
        with pytest.raises(LDataError):
            L.an_table(curve)

    @pytest.mark.parametrize("k", TABLE_KS)
    def test_shared_weights_match_per_term_formula(self, k):
        _, data = L.lvalue_from_k(k)
        rootn = math.sqrt(data.N)
        assert data.L2 == _l2_split_reference(data.an, data.N, data.eps, 1.0 / rootn)
        for eps in (1, -1):
            vals = [_l2_split_reference(data.an, data.N, eps, c / rootn) for c in (0.8, 1.0, 1.3)]
            spread = max(abs(u - v) for u in vals for v in vals)
            assert data.spread(eps) == spread

    def test_e1_weights_computed_once_per_split_point(self, monkeypatch):
        # one lvalue op: n_max E1 weights at each of the three split points,
        # and 60 more at A = 1/sqrt(N) for the tail bound
        calls = _count_e1(monkeypatch, "lvalue --k 3 --format json")  # k^2 = 9: 20 candidates
        assert len(calls) == 3 * L.default_n_max(C.curve_from_k(3.0).conductor_N) + 60

    def test_table_e1_calls_are_the_rows_sum(self, monkeypatch):
        calls = _count_e1(monkeypatch, "table --format json")
        per_row = [3 * L.default_n_max(N) + 60 for N, _ in C.TABLE1.values()]
        assert len(calls) == sum(per_row)  # 2,841 over the eleven rows

    def test_tail_bound_enforced(self):
        with pytest.raises(AccuracyError, match="tail bound"):
            L.lvalue_from_k(8.0, n_max=22)

    def test_an_table_refuses_uncertifiable_length(self):
        # 8 terms cannot reach split-point independence at 1e-10
        with pytest.raises(LDataError):
            L.an_table(C.curve_from_k(8.0), n_max=8)

    def test_default_n_max(self):
        assert L.default_n_max(64) == math.ceil(18 * 8 / (2 * math.pi)) + 50


class TestExports:
    def test_an_table_text(self):
        _, data = L.lvalue_from_k(8.0)
        lines = L.an_table_text(data).splitlines()
        assert lines[0] == "1 1"
        n, a = lines[5].split()
        assert int(n) == 6 and int(a) == data.an[6]
        assert len(lines) == data.n_max

    def test_summary_record_and_json(self):
        curve, data = L.lvalue_from_k(8.0)
        rec = L.summary_record(curve, data)
        assert rec["N"] == 24 and rec["eps"] == 1 and rec["r_k"] == "4"
        assert json.loads(json.dumps(rec)) == rec  # the lvalue CLI serializes it
        assert rec["Lprime0"] == data.Lprime0 and rec["n_used"] == data.n_max
