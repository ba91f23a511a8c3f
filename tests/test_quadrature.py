import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import f_value, tanh_sinh

from mahlerlab import identities as I
from mahlerlab import quadrature as Q
from mahlerlab.errors import AccuracyError, SingularPointError
from mahlerlab.quadrature import cumulative_integrals, quadrature_oracle, tanh_sinh_panels


def test_arcsine_integral():
    # algebraic singularity at the nonzero endpoint: limited by the f(x)
    # interface, still far inside the requested tolerance envelope
    v = quadrature_oracle(lambda x: 1.0 / math.sqrt(1.0 - x * x), 0.0, 1.0, 1e-9)
    assert abs(v - math.pi / 2.0) < 5e-8


def test_log_singularity():
    v = quadrature_oracle(lambda x: math.log(1.0 / x), 0.0, 1.0, 1e-12)
    assert abs(v - 1.0) < 1e-12


def test_algebraic_singularity_at_zero():
    v = quadrature_oracle(lambda x: x**-0.5, 0.0, 1.0, 1e-12)
    assert abs(v - 2.0) < 1e-12


def test_smooth_integral_tight():
    v = quadrature_oracle(math.sin, 0.0, math.pi, 1e-13)
    assert abs(v - 2.0) < 1e-13


def test_orientation_and_degenerate_interval():
    assert quadrature_oracle(math.exp, 1.0, 1.0) == 0.0
    fwd = quadrature_oracle(math.exp, 0.0, 1.0, 1e-12)
    rev = quadrature_oracle(math.exp, 1.0, 0.0, 1e-12)
    assert fwd == -rev
    assert abs(fwd - (math.e - 1.0)) < 1e-12


def test_nonconvergence_raises_with_best_estimate():
    with pytest.raises(AccuracyError) as err:
        quadrature_oracle(lambda x: math.sin(1e6 * x) * math.cos(3e5 * x * x), 0.0, 1.0, 1e-15)
    assert err.value.best_estimate is not None
    assert err.value.error_estimate is not None


def test_odd_integrand_cancels_exactly():
    v = quadrature_oracle(lambda x: x / (1.0 - x * x + 1e-12) * math.cos(x), -0.7, 0.7, 1e-12)
    assert v == 0.0


def test_cumulative_chain_matches_antiderivative():
    xs = [0.1 * i for i in range(1, 11)]
    for got, x in zip(cumulative_integrals(np.exp, 0.0, xs), xs):
        assert abs(got - (math.exp(x) - 1.0)) < 1e-13


def test_cumulative_descending():
    xs = [-0.1 * i for i in range(1, 11)]
    for got, x in zip(cumulative_integrals(np.exp, 0.0, xs), xs):
        assert abs(got - (math.exp(x) - 1.0)) < 1e-13


def test_nonfinite_near_endpoint_dropped():
    # integrand returns inf exactly at the endpoint; the node guard treats
    # that as the (correct) zero limit of an integrable singularity
    def f(x):
        return math.log(x) if x > 0 else -math.inf

    v = quadrature_oracle(f, 0.0, 1.0, 1e-12)
    assert abs(v + 1.0) < 1e-12


def chained(f, x0, xs, tol=1e-14):
    """The reference cumulative_integrals: one scalar reference tanh_sinh
    per panel, running sum by math.fsum."""
    out, acc, prev = [], [], x0
    for x in xs:
        acc.append(tanh_sinh(f, prev, x, tol)[0])
        out.append(math.fsum(acc))
        prev = x
    return out


def _lorentz(c, eps):
    # only +, -, * and /: one lambda serves floats and arrays, rounding alike
    def f(x):
        return 1.0 / ((x - c) * (x - c) + eps * eps)

    return f, f


def _nan_below(cut):
    # NaN on a whole panel and at the nodes of its neighbours next to cut
    return (
        lambda x: math.nan if x < cut else x / (1.0 + x * x),
        lambda x: np.where(x < cut, math.nan, x / (1.0 + x * x)),
    )


def _identity_f(name):
    cand = next(c for c in I.builtin_candidates() if c.name == name)

    def scalar(x):
        try:
            return f_value(cand, x, *I._pq_jets(cand, x))
        except SingularPointError:
            return math.nan

    return scalar, lambda x: I._f_array(cand, x)


CHAINS = [
    ("ascending", _lorentz(0.35, 0.2), 0.0, [0.05 * i for i in range(1, 21)]),
    ("descending", _lorentz(-0.35, 0.2), 0.0, [-0.05 * i for i in range(1, 21)]),
    ("zero-length panel", _lorentz(0.5, 0.3), 0.1, [0.2, 0.3, 0.3, 0.45, 0.45, 0.7]),
    ("nan nodes", _nan_below(0.3), 0.0, [0.1, 0.3, 0.4, 0.65, 1.0]),
    ("jia from its degenerate anchor", _identity_f("jia"), -1.0,
     [-1.001, -1.01, -1.3, -2.0, -4.5, -10.0]),
    ("cubic", _identity_f("cubic"), 0.0, [1e-3, 0.1, 0.5, 0.9, 0.99]),
]


def _bits(v):
    return float(v).hex()


@pytest.mark.parametrize("label,fns,x0,xs", CHAINS, ids=[c[0] for c in CHAINS])
def test_lockstep_equals_scalar_chain_bitwise(label, fns, x0, xs):
    scalar, array = fns
    got = cumulative_integrals(array, x0, xs)
    assert [_bits(v) for v in got] == [_bits(v) for v in chained(scalar, x0, xs)]


def test_lockstep_one_call_per_level_on_interior_nodes():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.exp(x)

    xs = [0.01 * i for i in range(1, 26)] + [0.25, 0.5, 0.5, 1.0]
    cumulative_integrals(f, 0.0, xs)
    assert len(seen) <= 11  # levels 0..10, whatever the number of panels
    nodes = np.concatenate(seen)
    assert nodes.min() > 0.0 and nodes.max() < 1.0
    assert not np.isin(nodes, xs).any()


def test_lockstep_nonconvergence_matches_scalar_chain():
    # the third panel holds a peak of width 1e-9 that no level resolves
    scalar, array = _lorentz(0.2501, 1e-9)
    xs = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(AccuracyError) as want:
        chained(scalar, 0.0, xs)
    with pytest.raises(AccuracyError) as got:
        cumulative_integrals(array, 0.0, xs)
    assert str(got.value) == str(want.value)
    assert _bits(got.value.best_estimate) == _bits(want.value.best_estimate)
    assert _bits(got.value.error_estimate) == _bits(want.value.error_estimate)


def test_panels_equal_scalar_at_their_own_tols():
    # one lockstep refinement gives each panel tanh_sinh's value and est at
    # its own tol; the zero-length panels are 0.0 with est 0.0
    scalar, array = _lorentz(0.3, 0.05)
    lo = [0.0, 0.0, 0.0, 0.2, 0.2, 0.5, 0.5, 0.5]
    hi = [0.4, 0.4, 0.4, 1.0, 1.0, 0.5, 0.5, 0.9]
    tols = [1e-6, 1e-9, 1e-12, 1e-8, 1e-13, 1e-6, 1e-12, 1e-5]
    values, ests, failures = tanh_sinh_panels(lambda x, _: array(x), lo, hi, tols)
    assert failures == {}
    want = [tanh_sinh(scalar, a, b, t)[:2] for a, b, t in zip(lo, hi, tols)]
    assert [(_bits(v), _bits(e)) for v, e in zip(values, ests)] == [
        (_bits(v), _bits(e)) for v, e in want]


def test_panel_integrand_sees_its_panels():
    # f gets the panel of every node, so each panel can carry its own parameter
    scale = np.array([1.0, 2.0, -3.0])
    values, _, _ = tanh_sinh_panels(lambda x, p: scale[p] * np.exp(x), [0.0] * 3, [1.0] * 3, [1e-13] * 3)
    want = [tanh_sinh(lambda x: c * math.exp(x), 0.0, 1.0, 1e-13)[0] for c in scale.tolist()]
    assert [_bits(v) for v in values] == [_bits(v) for v in want]


#: scalar integrands of quadrature_oracle: smooth, endpoint singularities
#: (algebraic at 0 and at a nonzero end, logarithmic), an odd one, one that
#: is NaN on part of the interval, and one that is infinite at an endpoint
ORACLE_INTEGRANDS = {
    "exp": math.exp,
    "lorentz": _lorentz(0.3, 0.05)[0],
    "arcsine": lambda x: 1.0 / math.sqrt(1.0 - x * x) if abs(x) < 1.0 else math.inf,
    "inverse sqrt": lambda x: x ** -0.5 if x > 0.0 else math.inf,
    "log": lambda x: math.log(abs(x)) if x != 0.0 else -math.inf,
    "odd": lambda x: x / (1.0 - x * x + 1e-12) * math.cos(x),
    "nan below 0.3": _nan_below(0.3)[0],
}

#: (a, b): forward, reversed and zero-length intervals, and ones with an
#: endpoint on a singularity
ORACLE_INTERVALS = [(0.0, 1.0), (1.0, 0.0), (-0.7, 0.7), (0.5, 0.5), (0.0, 0.0), (-1.0, 0.25),
                    (0.25, -1.0), (1e-3, 0.999)]


def _assert_oracle_is_reference(f, a, b, tol):
    """quadrature_oracle gives the scalar reference's value, or raises its
    error with the same message and estimates, bit for bit."""
    try:
        want = tanh_sinh(f, a, b, tol)[0]
    except AccuracyError as exc:
        with pytest.raises(AccuracyError) as got:
            quadrature_oracle(f, a, b, tol)
        assert str(got.value) == str(exc)
        assert _bits(got.value.best_estimate) == _bits(exc.best_estimate)
        assert _bits(got.value.error_estimate) == _bits(exc.error_estimate)
    else:
        assert _bits(quadrature_oracle(f, a, b, tol)) == _bits(want)


@pytest.mark.parametrize("name", ORACLE_INTEGRANDS)
@pytest.mark.parametrize("a,b", ORACLE_INTERVALS)
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_oracle_equals_scalar_reference_bitwise(name, a, b, tol):
    _assert_oracle_is_reference(ORACLE_INTEGRANDS[name], a, b, tol)


@given(
    st.sampled_from(["exp", "lorentz", "odd", "nan below 0.3"]),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(1e-13, 1e-5),
)
@settings(max_examples=80)
def test_oracle_equals_scalar_reference_on_random_intervals(name, a, b, tol):
    _assert_oracle_is_reference(ORACLE_INTEGRANDS[name], a, b, tol)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("max_level", [2, Q._MAX_LEVEL])
def test_oracle_nonconvergence_equals_scalar_reference(monkeypatch, a, b, max_level):
    # a peak of width 1e-9 that no level resolves, forwards and reversed
    f = _lorentz(0.2501, 1e-9)[0]
    with pytest.raises(AccuracyError) as want:
        tanh_sinh(f, a, b, 1e-10, max_level)
    monkeypatch.setattr(Q, "_MAX_LEVEL", max_level)
    with pytest.raises(AccuracyError) as got:
        quadrature_oracle(f, a, b, 1e-10)
    assert str(got.value) == str(want.value)
    assert _bits(got.value.best_estimate) == _bits(want.value.best_estimate)
    assert _bits(got.value.error_estimate) == _bits(want.value.error_estimate)


def test_oracle_calls_the_integrand_on_floats():
    seen = set()

    def f(x):
        seen.add(type(x))
        return math.exp(x)

    quadrature_oracle(f, 0.0, 1.0, 1e-12)
    assert seen == {float}


def test_node_table_equals_scalar_reference_nodes():
    from scalar_reference import _nodes_for_level

    for level in range(Q._MAX_LEVEL + 1):
        off, w = Q._node_arrays(level)
        nodes = _nodes_for_level(level)
        assert [_bits(v) for v in off.tolist()] == [_bits(o) for o, _ in nodes]
        assert [_bits(v) for v in w.tolist()] == [_bits(v) for _, v in nodes]


# ----------------------------------------------------------------------------
# the stopping rule's two routes: numpy sums with a rounding bound, and fsum
# where the bound leaves the decision open


@pytest.mark.parametrize("label,fns,x0,xs", CHAINS, ids=[c[0] for c in CHAINS])
def test_unsure_decisions_equal_scalar_chain_bitwise(monkeypatch, label, fns, x0, xs):
    # a bound of infinite width leaves every decision to the fsum route
    monkeypatch.setattr(Q, "_U", math.inf)
    test_lockstep_equals_scalar_chain_bitwise(label, fns, x0, xs)


def test_unsure_decisions_equal_scalar_values_and_failures(monkeypatch):
    monkeypatch.setattr(Q, "_U", math.inf)
    test_panels_equal_scalar_at_their_own_tols()
    test_lockstep_nonconvergence_matches_scalar_chain()


@st.composite
def _panel(draw):
    """(lo, hi, centre, width, tol): a Lorentz peak on a panel, some
    zero-length, with a tol in [1e-13, 1e-5]."""
    lo = draw(st.floats(-2.0, 2.0))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, lo + 2.0)))
    centre = draw(st.floats(-2.5, 2.5))
    width = 10.0 ** draw(st.floats(-4.0, 0.0))
    return lo, hi, centre, width, 10.0 ** draw(st.floats(-13.0, -5.0))


@given(st.lists(_panel(), min_size=1, max_size=4), st.sampled_from([2, Q._MAX_LEVEL]))
@settings(max_examples=40)
def test_panels_equal_scalar_reference_on_random_tols(panels, max_level):
    lo, hi, centre, width, tols = (list(v) for v in zip(*panels))
    c, w = np.array(centre), np.array(width)
    with unittest.mock.patch.object(Q, "_MAX_LEVEL", max_level):
        values, ests, failures = tanh_sinh_panels(
            lambda x, p: 1.0 / ((x - c[p]) * (x - c[p]) + w[p] * w[p]), lo, hi, tols)
    for i, (a, b, ci, wi, tol) in enumerate(panels):
        try:
            want = tanh_sinh(_lorentz(ci, wi)[0], a, b, tol, max_level)[:2]
        except AccuracyError as error:
            got = failures[i]
            assert str(got) == str(error)
            assert _bits(got.best_estimate) == _bits(error.best_estimate)
            assert _bits(got.error_estimate) == _bits(error.error_estimate)
            assert math.isnan(values[i]) and math.isnan(ests[i])
        else:
            assert i not in failures
            assert (_bits(values[i]), _bits(ests[i])) == (_bits(want[0]), _bits(want[1]))


#: signed magnitudes from 1e-300 to 1e300, zeros, and values whose sums
#: overflow or are not finite
_summand = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(lambda t: t[0] * 10.0 ** t[1]),
    st.just(0.0),
    st.sampled_from([1.7e308, -1.7e308, math.inf, -math.inf, math.nan]),
)


def _outcome(fn):
    try:
        return [_bits(v) for v in fn()]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.lists(_summand, max_size=40))
@settings(max_examples=300)
def test_running_fsums_equal_prefix_fsums(values):
    assert _outcome(lambda: Q._running_fsums(values)) == _outcome(
        lambda: [math.fsum(values[:n]) for n in range(1, len(values) + 1)])


def _change_at(f, a, b, level):
    """The scalar rule's change est at `level`, or at the level before where
    the noise rule stops it."""
    try:
        return tanh_sinh(f, a, b, -1.0, level)[1]
    except AccuracyError as exc:
        return exc.error_estimate


@pytest.mark.parametrize("level", range(1, 8))
@pytest.mark.parametrize("name", ORACLE_INTEGRANDS)
def test_tols_on_the_change_equal_scalar_reference(name, level):
    # tols on the scalar rule's est and one ulp either side, one panel
    # each: numpy sums sit a few ulp of the value off fsum, so only a sound
    # bound decides these
    f = ORACLE_INTEGRANDS[name]
    est = _change_at(f, -0.7, 0.9, level)
    tols = [math.nextafter(est, math.inf), est, math.nextafter(est, 0.0)]
    values, ests, failures = tanh_sinh_panels(lambda x, _: Q._each(f, x), [-0.7] * 3, [0.9] * 3, tols)
    for i, tol in enumerate(tols):
        try:
            want = tanh_sinh(f, -0.7, 0.9, tol)[:2]
        except AccuracyError as error:
            assert str(failures[i]) == str(error)
        else:
            assert i not in failures
            assert (_bits(values[i]), _bits(ests[i])) == (_bits(want[0]), _bits(want[1]))


@pytest.mark.parametrize("f,error", [
    (lambda x: math.copysign(1e308, abs(x) - 0.99), ValueError),  # +inf and -inf at level 0
    (lambda x: 1e307, OverflowError),  # finite terms whose sum overflows at a later level
])
def test_fsum_errors_surface_like_the_scalar_reference(f, error):
    # fsum raises at the level where the per-panel rule's sum raised, after
    # the same integrand calls
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    with pytest.raises(error) as want:
        tanh_sinh(counted, -1.0, 1.0, 1e-10)
    calls, seen[:] = len(seen), []
    with pytest.raises(error) as got, np.errstate(over="ignore"):  # the pair sums overflow
        quadrature_oracle(counted, -1.0, 1.0, 1e-10)
    assert (str(got.value), len(seen)) == (str(want.value), calls)
