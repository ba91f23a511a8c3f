import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scalar_reference as R
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mahlerlab import elliptic
from mahlerlab.elliptic import (
    carlson_rc,
    carlson_rd,
    carlson_rf,
    carlson_rj,
    ell_e,
    ell_k,
    ell_k_imag,
    ell_pi,
    ell_pi_imag,
    ell_pi_k,
    ell_pi_k_array,
)
from mahlerlab.errors import DivergenceError, DomainError
from mahlerlab.quadrature import quadrature_oracle

# frozen reference values (independent 40-digit evaluation)
RF_021 = 1.31102877714605990523242
K_HALF = 1.685750354812596042871204
E_HALF = 1.467462209339427155459795
PI_MHALF_HALF = 1.366473953004596894512709


def k_defining(z):
    # K(z) = int_0^{pi/2} dphi / sqrt(1 - z^2 sin^2 phi), the x = sin(phi)
    # form of the defining integral (smooth, oracle-grade)
    return quadrature_oracle(
        lambda ph: 1.0 / math.sqrt(1.0 - (z * math.sin(ph)) ** 2), 0.0, math.pi / 2.0, 1e-13
    )


def e_defining(z):
    return quadrature_oracle(
        lambda ph: math.sqrt(1.0 - (z * math.sin(ph)) ** 2), 0.0, math.pi / 2.0, 1e-13
    )


def pi_defining(n, z):
    return quadrature_oracle(
        lambda ph: 1.0
        / ((1.0 - n * math.sin(ph) ** 2) * math.sqrt(1.0 - (z * math.sin(ph)) ** 2)),
        0.0,
        math.pi / 2.0,
        1e-13,
    )


@pytest.mark.parametrize(
    "fn,args",
    [
        (ell_k, (math.nan,)),
        (ell_k, (math.inf,)),
        (ell_e, (math.nan,)),
        (ell_e, (-math.inf,)),
        (ell_pi, (math.nan, 0.5)),
        (ell_pi, (0.2, math.inf)),
        (ell_pi, (-math.inf, 0.5)),
        (ell_k_imag, (math.nan,)),
        (ell_k_imag, (math.inf,)),
        (ell_pi_imag, (0.2, math.nan)),
        (ell_pi_imag, (-math.inf, 1.0)),
        (carlson_rf, (0.0, 1.0, math.inf)),
        (carlson_rd, (0.0, 1.0, math.nan)),
        (carlson_rj, (0.0, 0.75, 1.0, math.inf)),
        (carlson_rc, (1.0, math.nan)),
    ],
)
def test_non_finite_arguments_are_domain_errors(fn, args):
    # NaN used to come back as NaN, an infinite modulus as a divergence, and
    # carlson_rj with p = inf never returned
    with pytest.raises(DomainError, match="finite") as err:
        fn(*args)
    assert not isinstance(err.value, DivergenceError)


class TestCarlson:
    def test_rf_equal_arguments(self):
        assert carlson_rf(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert carlson_rf(0.25, 0.25, 0.25) == pytest.approx(2.0, abs=1e-14)

    def test_rf_complete_k_limit(self):
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_rf_021_against_quadrature(self):
        # defining integral (1/2) int_0^inf dt/sqrt(t(t+1)(t+2)) under
        # t = tan^2(phi) becomes int_0^{pi/2} dphi / sqrt(1 + cos^2 phi)
        oracle = quadrature_oracle(
            lambda ph: 1.0 / math.sqrt(1.0 + math.cos(ph) ** 2), 0.0, math.pi / 2.0, 1e-13
        )
        assert carlson_rf(0.0, 2.0, 1.0) == pytest.approx(oracle, abs=2e-13)
        assert carlson_rf(0.0, 2.0, 1.0) == pytest.approx(RF_021, abs=1e-14)

    def test_rf_raw_defining_integral(self):
        # raw t-form split at t = 1 with u = 1/t on the far half; both pieces
        # then have their singularity at a zero endpoint (handled exactly)
        head = quadrature_oracle(
            lambda t: 0.5 / math.sqrt(t * (t + 1.0) * (t + 2.0)), 0.0, 1.0, 1e-12
        )
        tail = quadrature_oracle(
            lambda u: 0.5 / math.sqrt(u * (1.0 + u) * (1.0 + 2.0 * u)), 0.0, 1.0, 1e-12
        )
        assert carlson_rf(0.0, 2.0, 1.0) == pytest.approx(head + tail, abs=1e-11)

    def test_rf_symmetry(self):
        import itertools

        vals = {carlson_rf(*perm) for perm in itertools.permutations((0.3, 1.7, 4.2))}
        assert max(vals) - min(vals) < 1e-15

    def test_rf_two_zeros_diverges(self):
        with pytest.raises(DivergenceError):
            carlson_rf(0.0, 0.0, 1.0)

    def test_rf_negative_rejected(self):
        with pytest.raises(DomainError):
            carlson_rf(-1.0, 1.0, 1.0)

    def test_rj_equal_arguments(self):
        assert carlson_rj(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert carlson_rj(4.0, 4.0, 4.0, 4.0) == pytest.approx(0.125, abs=1e-15)

    def test_rj_0111(self):
        assert carlson_rj(0.0, 1.0, 1.0, 1.0) == pytest.approx(3.0 * math.pi / 4.0, abs=1e-13)

    def test_rj_vs_pi_quadrature(self):
        # Pi(n, z) = RF + (n/3) RJ(0, 1-z^2, 1, 1-n) at (n, z) = (-1/2, 1/2)
        n, z = -0.5, 0.5
        zc = 1.0 - z * z
        lhs = carlson_rf(0.0, zc, 1.0) + (n / 3.0) * carlson_rj(0.0, zc, 1.0, 1.0 - n)
        assert lhs == pytest.approx(pi_defining(n, z), abs=1e-12)

    def test_rj_rd_consistency(self):
        assert carlson_rj(0.3, 0.6, 1.1, 1.1) == pytest.approx(
            carlson_rd(0.3, 0.6, 1.1), rel=1e-13
        )

    def test_rj_p_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            carlson_rj(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            carlson_rj(1.0, 1.0, 1.0, -0.5)

    def test_rc_special_values(self):
        assert carlson_rc(0.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert carlson_rc(2.25, 2.25) == pytest.approx(2.0 / 3.0, abs=1e-15)
        # RC(x, y) = RF(x, y, y)
        assert carlson_rc(0.4, 1.9) == pytest.approx(carlson_rf(0.4, 1.9, 1.9), rel=1e-14)
        assert carlson_rc(1.9, 0.4) == pytest.approx(carlson_rf(1.9, 0.4, 0.4), rel=1e-14)


class TestLegendreForms:
    def test_k_at_zero(self):
        assert ell_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_k_half_frozen_and_quadrature(self):
        assert ell_k(0.5) == pytest.approx(K_HALF, abs=1e-14)
        assert ell_k(0.5) == pytest.approx(k_defining(0.5), abs=1e-12)

    def test_k_log_asymptote(self):
        z = 0.999999
        ratio = ell_k(z) / math.log(4.0 / math.sqrt(1.0 - z * z))
        assert abs(ratio - 1.0) < 0.01

    def test_k_domain_errors(self):
        with pytest.raises(DivergenceError):
            ell_k(1.0)
        with pytest.raises(DomainError):
            ell_k(-0.25)

    def test_e_endpoints(self):
        assert ell_e(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert ell_e(1.0) == 1.0

    def test_e_half_frozen_and_quadrature(self):
        assert ell_e(0.5) == pytest.approx(E_HALF, abs=1e-14)
        assert ell_e(0.5) == pytest.approx(e_defining(0.5), abs=1e-12)

    def test_pi_collapses_to_k(self):
        for z in (0.0, 0.3, 0.77, 0.999):
            assert abs(ell_pi(0.0, z) - ell_k(z)) <= 1e-14

    def test_pi_elementary_at_zero_modulus(self):
        for n in (-2.0, -0.5, 0.5, 0.9):
            assert ell_pi(n, 0.0) == pytest.approx(
                math.pi / (2.0 * math.sqrt(1.0 - n)), rel=1e-14
            )

    def test_pi_minus_half_half(self):
        # closed-form point: Pi(-1/2, 1/2) = K(1/2)/2 + pi/6
        assert ell_pi(-0.5, 0.5) == pytest.approx(0.5 * ell_k(0.5) + math.pi / 6.0, abs=1e-13)
        assert ell_pi(-0.5, 0.5) == pytest.approx(PI_MHALF_HALF, abs=1e-14)

    def test_pi_rejects_singular_characteristic(self):
        with pytest.raises(DomainError):
            ell_pi(1.0, 0.5)
        with pytest.raises(DomainError):
            ell_pi(1.5, 0.5)

    def test_defining_integral_grid(self):
        # dense modulus grid, all three kinds against the oracle
        for i in range(1, 20):
            z = 0.999 * i / 19.0
            assert abs(ell_k(z) - k_defining(z)) <= 1e-12
            assert abs(ell_e(z) - e_defining(z)) <= 1e-12
        for n in (-0.9, -0.4, 0.2, 0.6, 0.9):
            for z in (0.1, 0.5, 0.9):
                assert abs(ell_pi(n, z) - pi_defining(n, z)) <= 1e-12

    def test_e_within_four_ulps_of_mpmath_up_to_z_near_1(self):
        # the demo's Legendre-grid moduli and their complements, z -> 1 down
        # to 1 - 2^-52, and 0: the sum form has no cancellation as z -> 1
        mpmath = pytest.importorskip("mpmath")
        zs = [i / 100.0 for i in range(1, 100)] + [math.sqrt(1.0 - (i / 100.0) ** 2) for i in range(1, 100)]
        zs += [1.0 - 2.0 ** -j for j in (6, 11, 16, 21, 26, 31, 36, 41, 46, 52)] + [0.0]
        with mpmath.workdps(40):
            for z in zs:
                ref = mpmath.ellipe(mpmath.mpf(z) ** 2)
                assert abs(mpmath.mpf(ell_e(z)) - ref) <= 4 * math.ulp(float(ref)), z

    def test_legendre_relation_grid(self):
        for i in range(1, 100):
            z = i / 100.0
            zc = math.sqrt(1.0 - z * z)
            res = ell_e(z) * ell_k(zc) + ell_e(zc) * ell_k(z) - ell_k(z) * ell_k(zc)
            assert abs(res - math.pi / 2.0) <= 1e-12


class TestImaginaryModulus:
    def test_at_zero(self):
        assert ell_k_imag(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert ell_pi_imag(0.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_k_transform_at_k8(self):
        # z = -16/(k^2-16) at k = 8 gives m = sqrt(1/3)
        m = math.sqrt(1.0 / 3.0)
        z = -m * m
        rhs = ell_k(math.sqrt(z / (z - 1.0))) / math.sqrt(1.0 - z)
        assert abs(ell_k_imag(m) - rhs) <= 1e-12

    def test_pi_transform_at_k8(self):
        k = 8.0
        n = 4.0 / (k + 4.0)
        m = math.sqrt(16.0 / (k * k - 16.0))
        z = -m * m
        rhs = ell_pi(n / (n - 1.0), math.sqrt(z / (z - 1.0))) / ((1.0 - n) * math.sqrt(1.0 - z))
        assert abs(ell_pi_imag(n, m) - rhs) <= 1e-12
        # both sides independently against direct quadrature
        direct = quadrature_oracle(
            lambda ph: 1.0
            / ((1.0 - n * math.sin(ph) ** 2) * math.sqrt(1.0 + (m * math.sin(ph)) ** 2)),
            0.0,
            math.pi / 2.0,
            1e-13,
        )
        assert abs(ell_pi_imag(n, m) - direct) <= 1e-12

    def test_transform_residual_sweep(self):
        for i in range(1, 101):
            z = -50.0 * i / 100.0
            m = math.sqrt(-z)
            rhs = ell_k(math.sqrt(z / (z - 1.0))) / math.sqrt(1.0 - z)
            assert abs(ell_k_imag(m) - rhs) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ell_k_imag(-1.0)
        with pytest.raises(DomainError):
            ell_pi_imag(1.2, 0.5)


# ----------------------------------------------------------------------------
# lockstep array kernels: bitwise equal to the scalar duplication loops of
# the reference


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _rj_array(x, y, z, p) -> np.ndarray:
    """R_J from the array kernel's scaled pair (v, e)."""
    v, e = elliptic._rj_array(x, y, z, p)
    return np.ldexp(v, -3 * e)


def _with_a_zero(mag, size: int = 3):
    """size magnitudes drawn from mag, at most one of them set to zero."""
    return st.tuples(st.tuples(*[mag] * size), st.sampled_from([None, *range(size)])).map(
        lambda t: tuple(0.0 if i == t[1] else v for i, v in enumerate(t[0]))
    )


#: a Carlson argument's magnitude over 24 decades
_mag = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
#: equal arguments take no duplication step, spread ones take many
_rf_triple = st.one_of(st.just((1.0, 1.0, 1.0)), _with_a_zero(_mag))


@st.composite
def _rj_quad(draw):
    x, y, z = draw(_rf_triple)
    # p far below x, y, z puts E near -1, where R_C(1, 1+E) is rewritten
    low = min(v for v in (x, y, z) if v > 0.0) * 10.0 ** draw(st.floats(-12.0, -1.0))
    return x, y, z, draw(st.one_of(_mag, st.just(low)))


@settings(max_examples=60)
@given(st.lists(_rf_triple, min_size=1, max_size=12))
def test_rf_array_equals_scalar_bitwise(triples):
    x, y, z = (np.array(v) for v in zip(*triples))
    assert _bits(elliptic._rf_array(x, y, z)) == _bits(R.carlson_rf(*t) for t in triples)


@settings(max_examples=60)
@given(st.lists(_rj_quad(), min_size=1, max_size=12))
def test_rj_array_equals_scalar_bitwise(quads):
    x, y, z, p = (np.array(v) for v in zip(*quads))
    assert _bits(_rj_array(x, y, z, p)) == _bits(R.carlson_rj(*t) for t in quads)


def test_rj_draws_reach_the_rc_rewrite():
    # the first duplication step of R_J(1, 2, 3, 1e-6) has E in (-1.5, -0.5)
    sx, sy, sz, sp = (math.sqrt(v) for v in (1.0, 2.0, 3.0, 1e-6))
    delta = (1e-6 - 1.0) * (1e-6 - 2.0) * (1e-6 - 3.0)
    D = (sp + sx) * (sp + sy) * (sp + sz)
    assert -1.5 < delta / (D * D) < -0.5
    args = [np.array([v]) for v in (1.0, 2.0, 3.0, 1e-6)]
    assert _bits(_rj_array(*args)) == _bits([R.carlson_rj(1.0, 2.0, 3.0, 1e-6)])


#: characteristics: 0, the regime interior, n -> 1 (where E nears -1), and
#: n at and below -1 down to -1e300 (the far branch of Pi)
_n = st.one_of(
    st.just(0.0),
    st.floats(-1e6, 0.999999),
    st.integers(1, 15).map(lambda k: 1.0 - 10.0 ** -k),
    st.sampled_from([-1.0, math.nextafter(-1.0, -2.0)]),
    st.floats(0.0, 300.0).map(lambda e: -(10.0 ** e)),
)
#: moduli: 0, the interior, and q -> 1
_z = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.999999),
    st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k),
)
_outside = st.sampled_from(
    [(math.nan, 0.5), (-math.inf, 0.5), (1.0, 0.5), (2.0, 0.5), (0.5, 1.0), (0.5, -0.25),
     (0.5, math.nan), (-1e308, 0.5)]
)


@settings(max_examples=80)
@given(st.lists(st.one_of(st.tuples(_n, _z), _outside), min_size=1, max_size=12), _n)
def test_pi_plus_rk_array_equals_scalar_bitwise(pairs, r):
    n, z = (np.array(v) for v in zip(*pairs))
    pi, k = ell_pi_k_array(n, z)
    lhs = pi + r * k
    for i, (ni, zi) in enumerate(pairs):
        try:
            want_pi, want_k = R.ell_pi(ni, zi), R.ell_k(zi)
        except DomainError:
            assert math.isnan(lhs[i])  # NaN wherever the scalar forms raise
            continue
        assert _bits([pi[i], k[i], lhs[i]]) == _bits([want_pi, want_k, want_pi + r * want_k])


def _outcome(fn, args):
    """fn(*args) as the bits of its value or values, or its error's type
    and message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return _bits(value if isinstance(value, tuple) else [value])


#: magnitudes over the whole normal range of the doubles, and the edges
_any_mag = st.one_of(st.floats(-307.0, 307.0).map(lambda e: 10.0 ** e),
                     st.sampled_from([5e-324, sys.float_info.min, sys.float_info.max]))
#: the entry points over the lockstep kernels, with draws across their domains
_ENTRY_DRAWS = {
    "carlson_rf": _with_a_zero(_any_mag),
    "carlson_rj": st.one_of(
        st.tuples(_with_a_zero(_any_mag), _any_mag).map(lambda t: (*t[0], t[1])),
        st.tuples(_with_a_zero(_any_mag, 2), _any_mag).map(lambda t: (*t[0], t[1], t[1])),
    ),
    "carlson_rc": st.tuples(st.one_of(st.just(0.0), _any_mag), _any_mag),
    "ell_k": _z.map(lambda z: (z,)),
    "ell_pi": st.tuples(_n, _z),
    "ell_pi_k": st.tuples(_n, _z),
    "ell_k_imag": st.one_of(st.just(0.0), _any_mag).map(lambda m: (m,)),
    "ell_pi_imag": st.tuples(_n, st.one_of(st.just(0.0), _any_mag)),
}


@pytest.mark.parametrize("name", list(_ENTRY_DRAWS))
def test_entry_points_give_the_reference_bits(name):
    # each scalar entry point is a one-element call of the kernels: the
    # scalar loops' bits, or their error's type and message
    @settings(max_examples=20)
    @given(_ENTRY_DRAWS[name])
    def check(args):
        assert _outcome(getattr(elliptic, name), args) == _outcome(getattr(R, name), args)

    check()


@pytest.mark.parametrize(
    "name,args",
    [("carlson_rf", (0.0, 0.0, 1.0)), ("carlson_rf", (-1.0, 1.0, 1.0)),
     ("carlson_rf", (0.0, 1.0, math.inf)), ("carlson_rj", (1.0, 1.0, 1.0, 0.0)),
     ("carlson_rj", (1.0, 1.0, 1.0, -0.5)), ("carlson_rj", (0.0, 0.75, 1.0, math.inf)),
     ("carlson_rc", (1.0, 0.0)), ("carlson_rc", (-1.0, 1.0)), ("carlson_rc", (1.0, math.nan)),
     ("ell_k", (1.0,)), ("ell_k", (-0.25,)), ("ell_k", (math.nan,)),
     ("ell_pi", (1.0, 0.5)), ("ell_pi", (0.5, 1.0)), ("ell_pi", (0.5, -0.25)),
     ("ell_pi", (-math.inf, 0.5)), ("ell_pi_k", (1.5, 0.5)), ("ell_k_imag", (-1.0,)),
     ("ell_k_imag", (math.inf,)), ("ell_pi_imag", (1.2, 0.5)), ("ell_pi_imag", (0.2, -1.0)),
     ("ell_pi_imag", (0.2, math.nan))],
)
def test_entry_points_raise_like_the_reference(name, args):
    got = _outcome(getattr(elliptic, name), args)
    assert got == _outcome(getattr(R, name), args)
    assert got[0] in ("DomainError", "DivergenceError")


def test_scalar_pi_k_shares_one_rf(monkeypatch):
    # the scalar Pi is a one-element call of the Pi/K core, which takes R_F
    # from the R_F kernel once for Pi and K together
    calls = []
    real = elliptic._rf_array
    monkeypatch.setattr(elliptic, "_rf_array", lambda *a: calls.append(a) or real(*a))
    pi, k = ell_pi_k(-0.3, 0.7)
    assert len(calls) == 1 and calls[0][1].shape == (1,)
    monkeypatch.undo()
    assert (pi, k) == (ell_pi(-0.3, 0.7), ell_k(0.7))
    assert ell_pi_k(0.0, 0.7) == (ell_k(0.7), ell_k(0.7))


# ----------------------------------------------------------------------------
# oracles: mpmath at 30 digits over the documented domains


def _rel_err(value: float, ref) -> float:
    return float(abs((value - ref) / ref))


#: argument magnitudes over 300 decades, so every result stays a double
_wide = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)
#: magnitudes up to 1e307 and the largest double, with the edges of the
#: scaling thresholds of R_F and R_D among them
_wide_up = st.one_of(
    st.floats(-150.0, 307.0).map(lambda e: 10.0 ** e),
    st.sampled_from([sys.float_info.max, elliptic._RF_BIG, math.nextafter(elliptic._RF_BIG, math.inf),
                     elliptic._RD_BIG, math.nextafter(elliptic._RD_BIG, math.inf)]),
)


@settings(max_examples=200)
@given(st.one_of(
    _with_a_zero(_wide_up),
    _wide_up.map(lambda v: (v, v, v)),
))
def test_rf_against_mpmath(args):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rf(*args), mpmath.elliprf(*args)) <= 1e-14


@settings(max_examples=200)
@given(st.one_of(
    st.tuples(_with_a_zero(_wide_up, 2), _wide_up).map(lambda t: (*t[0], t[1])),
    _wide_up.map(lambda v: (v, v, v)),
))
def test_rd_against_mpmath(args):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = mpmath.elliprd(*args)
        # R_D is homogeneous of degree -3/2: large arguments can put the
        # value itself below the normal doubles
        assume(ref > 1e-300)
        assert _rel_err(carlson_rd(*args), ref) <= 1e-14


#: y / x - 1 over [-0.98, -1e-15] and [1e-15, 1e3): up to the diagonal from either
#: side, and across the switch to the log form at y = x/2
_rc_ratio = st.one_of(
    st.floats(-15.0, 3.0).map(lambda e: 1.0 + 10.0 ** e),
    st.floats(-15.0, -0.01).map(lambda e: 1.0 - 10.0 ** e),
    st.floats(0.4, 0.6).map(lambda d: 1.0 - d),
)


@settings(max_examples=200)
@given(st.one_of(
    st.tuples(st.one_of(st.just(0.0), _wide), _wide),
    _wide.map(lambda v: (v, v)),
    st.tuples(_wide, _rc_ratio).map(lambda t: (t[0], t[0] * t[1])),
))
def test_rc_against_mpmath(args):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rc(*args), mpmath.elliprc(*args)) <= 1e-14


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
def test_rc_just_below_the_diagonal_against_mpmath(delta):
    # R_C(1, 1 - delta): the log form log((1 + s)/sqrt(y))/s with s =
    # sqrt(delta) lost about eps/s, 5e-11 relative at delta = 1e-12; the
    # atanh form keeps full precision.  R_J sums R_C(1, 1 + E) with E -> 0.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rc(1.0, 1.0 - delta), mpmath.elliprc(1.0, 1.0 - delta)) <= 1e-14


@settings(max_examples=200)
@given(st.one_of(
    _rj_quad(),
    st.just((412665.3810905248, 9112.09532768465, 0.07307015104767212, 0.07305435888602277)),
))
def test_rj_against_mpmath(args):
    # the pinned draw was 3.0e-13 off while R_C lost precision below the diagonal
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rj(*args), mpmath.elliprj(*args)) <= 1e-13


@pytest.mark.parametrize(
    "fn,args,bound",
    [
        # mpmath's own elliprj loses digits here at 40 digits (6.5e-10 and 5%
        # off); at 100 digits it agrees with carlson_rj to 1e-16
        (carlson_rj, (1.0, 2.0, 3.0, 1e-80), 1e-13),
        (carlson_rj, (1.0, 2.0, 3.0, 1e-100), 1e-13),
        # (sqrt(x) + s)/sqrt(y) overflowed to inf
        (carlson_rc, (1e308, 1e-308), 1e-14),
        # delta's first two factors underflowed: 27% off
        (carlson_rj, (0.0, 5.3311068685123795e85, 6.314179330859353e263, 2.0098344086380988e-107), 1e-13),
        # p = z: refused on R_J's D^2 underflow, which R_D's E = 0 does not reach
        (carlson_rj, (0.0, 1e32, 5e-324, 5e-324), 1e-13),
    ],
)
def test_carlson_pinned_cases_against_mpmath(fn, args, bound):
    mpmath = pytest.importorskip("mpmath")
    ref = getattr(mpmath, {carlson_rj: "elliprj", carlson_rc: "elliprc"}[fn])
    with mpmath.workdps(100):
        assert _rel_err(fn(*args), ref(*args)) <= bound


@pytest.mark.parametrize(
    "fn,args,why",
    [
        # 5.6% off: the scaling put 6.14e-267 into the subnormals
        (carlson_rd, (8.66e255, 9.35e-289, 6.14e-267), "spread too far"),
        # a bare ZeroDivisionError; the value, 3.0e150, needs a D^2 below the doubles
        (carlson_rj, (0.0, 1e-300, 1e300, 1e-300), "spread too far"),
        # bare ZeroDivisionError and OverflowError; the values are 8.8e422 and 6.9e345
        (carlson_rd, (0.0, 7.3e-273, 4.0e-287), "value overflows"),
        (carlson_rj, (0.0, 7.30e-273, 4.01e-287, 9.02e-209), "value overflows"),
        # 0.0 and 5e-324 were scaled to two zeros
        (carlson_rf, (0.0, 5e-324, sys.float_info.max), "spread too far"),
    ],
)
def test_carlson_pinned_cases_beyond_the_doubles_are_domain_errors(fn, args, why):
    with pytest.raises(DomainError, match=why):
        fn(*args)


#: magnitudes log-uniform over [1e-307, 1e307]
_log_uniform = st.floats(-307.0, 307.0).map(lambda e: 10.0 ** e)
#: form, its mpmath name, draws over its domain, and its documented bound
_ORACLE = {
    "rf": (carlson_rf, "elliprf", _with_a_zero(_log_uniform), 1e-14),
    "rj": (carlson_rj, "elliprj",
           st.tuples(_with_a_zero(_log_uniform), _log_uniform).map(lambda t: (*t[0], t[1])), 1e-13),
    "rd": (carlson_rd, "elliprd",
           st.tuples(_with_a_zero(_log_uniform, 2), _log_uniform).map(lambda t: (*t[0], t[1])), 1e-14),
    "rc": (carlson_rc, "elliprc", st.tuples(st.one_of(st.just(0.0), _log_uniform), _log_uniform), 1e-14),
}


@pytest.mark.parametrize("form", list(_ORACLE))
def test_carlson_log_uniform_within_bound_or_domain_error(form):
    # every draw is within the documented bound, or a DomainError names the
    # spread or the overflow; draws whose value underflows are skipped
    mpmath = pytest.importorskip("mpmath")
    fn, name, draws, bound = _ORACLE[form]

    # mpmath's R_J and R_D at hundreds of digits dominate the cost
    @settings(max_examples={"rj": 10, "rd": 15}.get(form, 40))
    @given(draws)
    def check(args):
        try:
            value = fn(*args)
        except DomainError:
            return
        # mpmath's duplication loses about as many digits as the arguments
        # spread over: R_J(1, 1, 1e22, 1e-193) is 1e-13 off at 100 digits
        nonzero = [v for v in args if v]
        with mpmath.workdps(50 + math.ceil(math.log10(max(nonzero)) - math.log10(min(nonzero)))):
            ref = getattr(mpmath, name)(*args)
        assert abs(ref) <= sys.float_info.max  # a value beyond the doubles raises
        assume(abs(ref) >= sys.float_info.min)
        assert _rel_err(value, ref) <= bound

    check()


# ----------------------------------------------------------------------------
# arguments that overflowed the duplication: scaled by a power of 4


def _child_env() -> dict:
    """Environment for a child interpreter that imports this mahlerlab."""
    src = str(Path(elliptic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _in_child(code: str) -> subprocess.CompletedProcess:
    """Run code in a child interpreter; a hang fails the test at the timeout
    instead of hanging the run."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_child_env())


@pytest.mark.parametrize(
    "call,reference",
    [
        ("carlson_rf(1e308, 1e308, 1.0)", "elliprf(1e308, 1e308, 1.0)"),
        ("carlson_rd(0.0, 1e308, 1.0)", "elliprd(0.0, 1e308, 1.0)"),
        ("ell_k_imag(1.3e154)", "ellipk(-mpf(1.3e154) ** 2)"),
    ],
)
def test_former_hangs_return(call, reference):
    mpmath = pytest.importorskip("mpmath")
    proc = _in_child(f"from mahlerlab.elliptic import *\nprint(repr({call}))")
    assert proc.returncode == 0, proc.stderr
    with mpmath.workdps(30):
        ref = eval(reference, {**vars(mpmath), "mpf": mpmath.mpf})
        assert _rel_err(float(proc.stdout), ref) <= 1e-14


def test_former_hang_on_the_command_line():
    mpmath = pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "-m", "mahlerlab.cli", "ell", "--kind", "K-imag", "--m", "1.3e154",
         "--format", "csv"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    value = float(next(csv.DictReader(proc.stdout.splitlines()))["computed"])
    with mpmath.workdps(30):
        assert _rel_err(value, mpmath.ellipk(-mpmath.mpf(1.3e154) ** 2)) <= 1e-14


@pytest.mark.parametrize("m", [1.35e154, 1e160, 1e250, 1.7e308])
def test_k_imag_where_one_plus_m_squared_overflows_equals_mpmath(m):
    # 1 + m^2 overflowed, and R_F rejected its infinite argument; there K is
    # log(4m)/m to far below an ulp
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert ell_k_imag(m) == float(mpmath.ellipk(-mpmath.mpf(m) ** 2))


@pytest.mark.parametrize("n,m", [(0.5, 1e160), (-0.5, 1.7e308), (0.99, 1.3e154), (0.5, 1e153)])
def test_pi_imag_beyond_its_range_names_m(n, m):
    # 1 + m^2 overflowed in the first two, and R_J's D^2 underflows in the
    # last two, which came out 4.5e-8 and 3.2e-14 off
    with pytest.raises(DomainError, match=re.escape(f"m = {m!r} too large")):
        ell_pi_imag(n, m)


@pytest.mark.parametrize("n,m", [(0.5, 1e150), (0.99, 1e140), (-0.9, 1e151)])
def test_pi_imag_at_large_modulus_within_range_against_mpmath(n, m):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 2e-15


@pytest.mark.parametrize("p", [1e103, 1e150, 1e200])
def test_rj_large_p_against_mpmath(p):
    # delta = (p - x)(p - y)(p - z) overflowed, and R_C raised on the NaN
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rj(0.0, 0.5, 1.0, p), mpmath.elliprj(0.0, 0.5, 1.0, p)) <= 1e-13


@pytest.mark.parametrize("p", [1e150, 1e205, 1e210, 1e300, 1.7e308])
@pytest.mark.parametrize("xyz", [(1.0, 1.0, 1.0), (0.0, 1.0, 2.0), (1e-10, 1.0, 5.0)])
def test_rj_p_far_above_the_others_against_mpmath(xyz, p):
    # beyond a ratio of ~1e200 the duplication's D^2 underflowed: 1.4e-12
    # off at 1e205, a ZeroDivisionError from 1e210
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert _rel_err(carlson_rj(*xyz, p), mpmath.elliprj(*xyz, p)) <= 1e-15


@pytest.mark.parametrize(
    "args",
    [(0.0, 1e-110, 1e-110, 1e-110), (0.0, 1e-105, 2e-105, 1e-108), (0.0, 2.2e-16, 1.0, 1e-314),
     (1e-200, 1e-200, 1e-200, 1e-200)],
)
def test_rj_small_arguments_against_mpmath(args):
    # D^2 underflowed: a ZeroDivisionError, or a value 3e-7 off at 1e-105
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(carlson_rj(*args), mpmath.elliprj(*args)) <= 1e-13


def test_arguments_inside_the_window_keep_their_bits():
    # the scaling changes nothing for arguments in [2**-332, 2**332]; these
    # are the values before it
    assert carlson_rf(0.0, 1e99, 1.0).hex() == "0x1.553b8d8b49ca5p-158"
    assert carlson_rd(0.0, 1e99, 1.0).hex() == "0x1.1bf4a56d385e8p-163"
    assert carlson_rj(0.0, 0.5, 1.0, 1e99).hex() == "0x1.854fb23ced695p-327"


_wide_rj = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.just(5e-324))


@settings(max_examples=50)
@given(st.lists(st.one_of(st.tuples(_with_a_zero(_wide_rj), _wide_rj).map(lambda t: (*t[0], t[1])),
                          st.tuples(_with_a_zero(_wide_rj, 2), _wide_rj).map(
                              lambda t: (*t[0], t[1], t[1]))),
                min_size=1, max_size=8))
def test_rj_array_scaling_equals_scalar_bitwise(quads):
    with np.errstate(all="ignore"):  # values beyond the doubles come back inf or NaN
        got = _rj_array(*(np.array(v) for v in zip(*quads)))
    for value, args in zip(got, quads):
        try:
            want = R.carlson_rj(*args)
        except DomainError:
            # a value beyond the doubles, or arguments spread too far for
            # the duplication to keep its bits even after scaling
            assert not math.isfinite(value)
            continue
        assert _bits([value]) == _bits([want])


# ----------------------------------------------------------------------------
# R_D is R_J's case p = z


def _rd_draws() -> list[tuple[float, float, float]]:
    """Seeded R_D arguments: uniform in [0, 10)^3, and log-uniform over
    [1e-300, 1e300]^3 and [1e-307, 1e307]^3; every fourth has x = 0."""
    rng, wide = np.random.default_rng(1), np.random.default_rng(2)
    args = np.concatenate([rng.uniform(0.0, 10.0, (300, 3)), 10.0 ** rng.uniform(-300.0, 300.0, (300, 3)),
                           10.0 ** wide.uniform(-307.0, 307.0, (1000, 3))])
    args[::4, 0] = 0.0
    return [tuple(a) for a in args.tolist()]


def test_rd_refuses_like_its_own_loop_and_agrees_within_a_few_ulps():
    # the reference is the duplication loop R_D had before it became R_J's
    # case p = z: the same errors, and values within 5e-15 of it
    refused = 0
    for args in _rd_draws():
        got, want = _outcome(carlson_rd, args), _outcome(R.carlson_rd, args)
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want, args
            refused += 1
            continue
        g, w = float.fromhex(got[0]), float.fromhex(want[0])
        assert abs(g - w) <= 5e-15 * abs(w), args
    assert 0 < refused < len(_rd_draws())


@settings(max_examples=100)
@given(st.tuples(_with_a_zero(_any_mag, 2), _any_mag).map(lambda t: (*t[0], t[1])))
def test_rd_is_rj_at_p_equal_z_bitwise(args):
    rd, rj = _outcome(carlson_rd, args), _outcome(carlson_rj, (*args, args[2]))
    # an error names its own entry point and arguments
    assert (rd[0] if isinstance(rd, tuple) else rd) == (rj[0] if isinstance(rj, tuple) else rj)


# ----------------------------------------------------------------------------
# Pi for n < -1: through the characteristic N = (m - n)/(1 - n)

_far_n = st.tuples(st.floats(0.0, 300.0), st.floats(1.0, 10.0)).map(
    lambda t: -t[1] * 10.0 ** t[0]).filter(lambda n: n < -1.0)


@settings(max_examples=40)
@given(_far_n, _z)
def test_pi_below_minus_one_against_mpmath(n, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(ell_pi(n, z), mpmath.ellippi(n, mpmath.mpf(z) ** 2)) <= 1e-15


@pytest.mark.parametrize("n", [-1e8, -1e16, -1e100, -1e103, -1e150, -1e300])
def test_pi_at_large_negative_n_against_mpmath(n):
    # relative error 6.4e-12 at -1e8 and 5e-8 at -1e16; negative at -1e100;
    # a bogus R_C error from -1e103
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert _rel_err(ell_pi(n, 0.5), mpmath.ellippi(n, 0.25)) <= 1e-15


def test_pi_at_and_above_minus_one_keeps_its_formula():
    zc = (1.0 - 0.5) * (1.0 + 0.5)
    for n in (-1.0, -0.5, 0.3):
        assert ell_pi(n, 0.5) == carlson_rf(0.0, zc, 1.0) + (n / 3.0) * carlson_rj(0.0, zc, 1.0, 1.0 - n)


@settings(max_examples=30)
@given(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
       st.floats(0.0, 280.0))
def test_pi_imag_below_minus_one_against_mpmath(m, e):
    # the far branch at imaginary modulus: n < -1 with -n >= 1 + 2 m^2.  It
    # is within 1e-15 from -n ~ 4(1 + m^2) on and 2-3e-15 off next to the
    # switch (pinned below); rf + (n/3) R_J there is 1e-14 off
    n = -(1.0 + 2.0 * m * m) * 10.0 ** e
    assume(n < -1.0)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 4e-15


@pytest.mark.xfail(strict=True, reason="Pi-imag next to the switch -n = 1 + 2 m^2 is 2-3e-15 off")
def test_pi_imag_next_to_the_far_switch_against_mpmath():
    m = 10.0 ** 2.75  # 2.0e-15 off
    mpmath = pytest.importorskip("mpmath")
    n = -(1.0 + 2.0 * m * m)
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 1e-15


@pytest.mark.parametrize("n,m", [(-1e12, 0.5), (-1e16, 1.3), (-1e100, 0.0), (-1e300, 10.0)])
def test_pi_imag_at_large_negative_n_against_mpmath(n, m):
    # relative error 4.7e-10 at n = -1e12, m = 0.5; a bogus R_C error from
    # n = -1e103
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 1e-15


@pytest.mark.xfail(strict=True, reason="R_J with arguments spread over ~1e290 is ~1e-14 off")
@pytest.mark.parametrize(
    "n,m", [(-1.541506041827849e247, 2.3405590482393124e124), (-9.491497277724949e290, 2.1744333565423205e145)]
)
def test_pi_imag_at_huge_modulus_against_mpmath(n, m):
    # m^2 near 1e250-1e290: ell_pi_imag is 8.7e-14 and 2.6e-14 off, the first
    # through rf + (n/3) R_J(0, 1 + m^2, 1, 1 - n), the second through the
    # far branch; both used to raise a bogus R_C error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 1e-15


@pytest.mark.parametrize(
    "n,m", [(-7.856282676284721e231, 3.0978121932664864e120), (-1.541506041827849e247, 2.3405590482393124e124)]
)
def test_pi_imag_at_huge_modulus_within_rj_accuracy(n, m):
    # R_J(0, 1 + m^2, 1, 1 - n) is below the doubles (3.3e-350 in the first
    # case): its power-of-2 scale is applied only after the factor n/3, so
    # the term is not lost (24x off) in the cancellation against R_F
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        assert _rel_err(ell_pi_imag(n, m), mpmath.ellippi(n, -mpmath.mpf(m) ** 2)) <= 1e-12
