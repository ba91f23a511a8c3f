import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab.errors import DomainError, SingularPointError
from mahlerlab.expressions import parse_expression
from mahlerlab.identities import builtin_candidates
from mahlerlab.jets import Jet2, sqrt


def fd1(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd2(f, x, h=1e-4):
    # larger step than fd1: the second difference hits its eps/h^2 noise
    # floor near 1e-6 at h = 1e-5, drowning the comparison
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# composed elementary functions exercising every operation
CASES = [
    (lambda x: (1 + x) * (1 - 3 * x) / ((1 - x) * (1 + 3 * x)), (-0.9, -0.4, 0.2)),
    (lambda x: sqrt(x * x + 1) * (2 - x) + x / (x * x + 2), (-2.0, 0.3, 1.7)),
    (lambda x: (x + 2) ** 3 / sqrt(2 + x) - x ** -2, (0.5, 1.1, 2.5)),
    (lambda x: 1 / (1 / x + 1 / (x + 1)), (0.4, 1.0, 3.0)),
    (lambda x: x ** 0.5 * (1 + x) ** 1.5, (0.3, 0.9, 2.2)),
]


@pytest.mark.parametrize("fn,xs", CASES)
def test_chain_rule_matches_finite_differences(fn, xs):
    for x in xs:
        jet = fn(Jet2.seed(x))
        assert jet.value == pytest.approx(fn(x), rel=1e-13)
        assert jet.d1 == pytest.approx(fd1(fn, x), abs=1e-7 * max(1.0, abs(jet.d1)))
        assert jet.d2 == pytest.approx(fd2(fn, x), abs=2e-5 * max(1.0, abs(jet.d2)))


def test_polynomial_derivatives_exact():
    jet = (lambda x: 3 * x ** 4 - 2 * x + 7)(Jet2.seed(2.0))
    assert (jet.value, jet.d1, jet.d2) == (51.0, 94.0, 144.0)


def test_square_second_derivative_exact():
    jet = Jet2.seed(1.75) ** 2
    assert jet.d2 == 2.0


@given(
    st.floats(-3, 3).filter(lambda a: abs(a) > 1e-3),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(0.1, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_product_and_quotient_rules(a, b, c, x):
    u = lambda t: a * t * t + b * t + c
    v = lambda t: t * t + 0.5  # never zero
    xu, xv = u(Jet2.seed(x)), v(Jet2.seed(x))
    prod = xu * xv
    assert prod.d1 == pytest.approx(xu.d1 * xv.value + xu.value * xv.d1, rel=1e-12, abs=1e-12)
    quot = xu / xv
    assert quot.d1 == pytest.approx(
        (xu.d1 * xv.value - xu.value * xv.d1) / xv.value**2, rel=1e-11, abs=1e-11
    )


@given(st.floats(0.01, 10.0))
@settings(max_examples=100, deadline=None)
def test_sqrt_squares_back(x):
    s = sqrt(Jet2.seed(x))
    back = s * s
    assert back.value == pytest.approx(x, rel=1e-14)
    assert back.d1 == pytest.approx(1.0, rel=1e-12)
    assert abs(back.d2) < 1e-12


def test_scalar_mixing():
    x = Jet2.seed(2.0)
    jet = 2 + 3 * x - 1 / x - x / 2 + (1 - x) * 0.5
    assert jet.value == pytest.approx(2 + 6 - 0.5 - 1 - 0.5)
    assert jet.d1 == pytest.approx(3 + 0.25 - 0.5 - 0.5)


def test_negative_integer_power():
    jet = Jet2.seed(2.0) ** -3
    assert jet.value == pytest.approx(0.125)
    assert jet.d1 == pytest.approx(-3.0 / 16.0)
    assert jet.d2 == pytest.approx(12.0 / 32.0)


def test_float_sqrt_passthrough():
    assert sqrt(4.0) == 2.0


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        sqrt(Jet2.seed(0.0))
    with pytest.raises(DomainError):
        sqrt(Jet2(-1.0, 1.0, 0.0))


def test_fractional_power_domain_error():
    with pytest.raises(DomainError):
        Jet2(-2.0, 1.0, 0.0) ** 0.5


def test_overflowing_fractional_power():
    # x^(1/2 - 2) overflows Python's pow: a singular point, not an OverflowError
    with pytest.raises(SingularPointError):
        Jet2.seed(1e-278) ** 0.5
    jet = Jet2.seed(np.array([1e-278, 4.0])) ** 0.5
    assert np.isnan(jet.value[0]) and np.isnan(jet.d1[0]) and np.isnan(jet.d2[0])
    assert (jet.value[1], jet.d1[1], jet.d2[1]) == (2.0, 0.25, -0.03125)


def test_division_by_zero_jet():
    with pytest.raises(ZeroDivisionError):
        1.0 / Jet2(0.0, 1.0, 0.0)


# the four built-in p/q, a parsed file candidate, a fractional power and a
# zeroth power of something that can be undefined
ARRAY_CASES = [
    *((f"{c.name}.{side}", getattr(c, side)) for c in builtin_candidates() for side in "pq"),
    ("file.p", parse_expression("-(x^2)/(1+2*x)")),
    ("file.q", parse_expression("sqrt(x^3*(2+x)/(1+2*x))")),
    ("x^(1/2)", parse_expression("x^(1/2)")),
    ("(1/(x-1))^0 * x^1.5", parse_expression("(1/(x-1))^0 * x^1.5")),
]
# the jia anchor -1 (p = 0, sqrt of 0), zeros of 1 + 2x, 1 + 3x and x - 1,
# and points where cubic's q takes the sqrt of a negative value
SPECIAL_X = [-1.0, -0.5, -1.0 / 3.0, 0.0, 1.0, -0.25, -0.1, -2.0, 0.5]


def _same(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    )


@pytest.mark.parametrize("label,fn", ARRAY_CASES, ids=[c[0] for c in ARRAY_CASES])
# the draws reach below ~1e-200, where Python's pow overflows in x^(1/2 - 2)
@given(st.lists(st.floats(-12.0, 3.0), max_size=12))
@settings(max_examples=60, deadline=None)
def test_array_jet_equals_scalar_jets(label, fn, drawn):
    xs = SPECIAL_X + drawn
    with np.errstate(all="ignore"):
        arr = fn(Jet2.seed(np.array(xs)))
    parts = [np.broadcast_to(c, (len(xs),)) for c in (arr.value, arr.d1, arr.d2)]
    for i, x in enumerate(xs):
        try:
            jet = fn(Jet2.seed(x))
        except (DomainError, ZeroDivisionError):
            assert all(math.isnan(p[i]) for p in parts), (label, x)
            continue
        want = (jet.value, jet.d1, jet.d2)
        assert all(_same(float(p[i]), w) for p, w in zip(parts, want)), (label, x)


def test_array_nan_survives_zeroth_power():
    jet = (1.0 / (Jet2.seed(np.array([0.0, 2.0])))) ** 0
    assert np.isnan(jet.value[0]) and np.isnan(jet.d1[0]) and np.isnan(jet.d2[0])
    assert (jet.value[1], jet.d1[1], jet.d2[1]) == (1.0, 0.0, 0.0)
