import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import identities as I
from mahlerlab.errors import DomainError
from mahlerlab.expressions import load_candidates, parse_expression
from mahlerlab.jets import Jet2, sqrt


class TestParser:
    def test_number_and_x(self):
        assert parse_expression("2.5")(0.0) == 2.5
        assert parse_expression("x")(1.75) == 1.75

    def test_precedence(self):
        assert parse_expression("1+2*3")(0.0) == 7.0
        assert parse_expression("(1+2)*3")(0.0) == 9.0
        assert parse_expression("2*x^2")(3.0) == 18.0

    def test_power_right_associative(self):
        assert parse_expression("2^3^2")(0.0) == 512.0
        assert parse_expression("2**3**2")(0.0) == 512.0

    def test_unary_minus(self):
        assert parse_expression("-x^2")(2.0) == -4.0
        assert parse_expression("(-x)^2")(2.0) == 4.0
        assert parse_expression("--x")(2.0) == 2.0

    def test_constant_exponents(self):
        assert parse_expression("x^2")(3.0) == 9.0
        assert parse_expression("x^3")(2.0) == 8.0
        assert parse_expression("x^(1/2)")(4.0) == 2.0
        jet = parse_expression("x^(1/2)")(Jet2.seed(4.0))
        assert (jet.value, jet.d1) == (2.0, 0.25)

    def test_complex_power_refused_where_it_is_made(self):
        # a negative constant to a non-integer power; an integer one stays real
        assert parse_expression("x*(0-8)^2")(0.5) == 32.0
        for text in ("(0-8)^(1/3)", "x+(0-8)^(1/3)", "x^((0-8)^(1/3))"):
            with pytest.raises(DomainError) as err:
                parse_expression(text)(Jet2.seed(0.5))
            assert str(err.value) == "expression: (-8.0) ** 0.3333333333333333 is not real"

    @pytest.mark.parametrize("text", ["x^x", "2^x", "x**(1+x)", "x^-x", "(x+1)^sqrt(x)"])
    def test_exponent_in_x_rejected(self, text):
        with pytest.raises(DomainError, match="exponent"):
            parse_expression(text)

    def test_sqrt(self):
        assert parse_expression("sqrt(x+1)")(3.0) == 2.0

    def test_division_chain(self):
        assert parse_expression("12/3/2")(0.0) == 2.0

    def test_jet_evaluation(self):
        f = parse_expression("sqrt(x*x+1)*(2-x)")
        jet = f(Jet2.seed(0.5))
        h = 1e-5
        fd = (f(0.5 + h) - f(0.5 - h)) / (2 * h)
        assert jet.d1 == pytest.approx(fd, abs=1e-8)

    def test_bad_character(self):
        with pytest.raises(DomainError):
            parse_expression("x + $")

    def test_trailing_tokens(self):
        with pytest.raises(DomainError):
            parse_expression("x 1")

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            parse_expression("sin(x)")

    def test_unbalanced_parens(self):
        with pytest.raises(DomainError):
            parse_expression("(x+1")

    def test_surrounding_whitespace(self):
        assert parse_expression("-x ")(2.0) == -2.0
        assert parse_expression("\t x^2 \n")(3.0) == 9.0

    def test_leading_zeros_and_overflowing_numbers(self):
        assert parse_expression("07 + 2. + .5")(0.0) == 9.5
        assert parse_expression("1" + "0" * 400)(0.0) == float("inf")

    @pytest.mark.parametrize("text", [
        "1e5", "0x1f", "1_0", "1j", "True", "x//2", "x%2", "x@x", "x if x else 1", "[x]",
        "x.real", "sqrt(x)(2)", "sqrt(x, 1)", "sqrt(x=1)", "lambda: x", "not x", "x<1",
        "abs(x)", "sqrt", "sqrt()", "y", "x * * 2", "", "   ",
        "sqr\u1d57(x)",  # Python reads this name as sqrt (NFKC)
    ])
    def test_input_outside_the_grammar_refused(self, text):
        with pytest.raises(DomainError, match="^expression: "):
            parse_expression(text)

    def test_depth_bound(self):
        # the deepest admitted trees evaluate inside the quadrature's
        # integrand, the deepest call site of a candidate's closures
        p, q = "-x" + "+0" * 198, "x" + "*1" * 199
        cand = I.IdentityCandidate("deep", parse_expression(p), parse_expression(q), (0.0, 1.0), 0.5)
        assert I.verify_identity(cand).passed
        for text in (p + "+0", "(" + q + ")^1", "-" * 200 + "x", "-" * 3000 + "x", "+".join(["x"] * 3000),
                     "(" * 400 + "x" + ")" * 400, "x" + "**x" * 3000):
            with pytest.raises(DomainError, match="^expression: "):
                parse_expression(text)


def _real_pow(base, exponent):
    """base ** exponent; a DomainError where that is complex, since the
    grammar's values are real."""
    out = base ** exponent
    if isinstance(out, complex):
        raise DomainError(f"{base} ** {exponent} is complex")
    return out


# The grammar's trees, rendered with the fewest parentheses their precedence
# needs (atom 5, power 4, unary 3, term 2, expr 1) plus explicit ones, and
# random whitespace around every token.

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": _real_pow, "**": _real_pow}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4, "**": 4}
# leading zeros, trailing dots, and one number past the largest double
_NUMBERS = st.one_of(st.from_regex(r"\A(?:[0-9]{1,3}\.[0-9]{0,3}|\.[0-9]{1,3}|[0-9]{1,3})\Z"),
                     st.just("1" + "0" * 309))


def _trees(leaves, exponents):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/"), kids, kids),
        st.tuples(st.sampled_from(["^", "**"]), kids, exponents(kids)),
        st.tuples(st.sampled_from(["neg", "pos", "sqrt", "()"]), kids),
    ), max_leaves=10)


_NUMBER_LEAVES = st.tuples(st.just("num"), _NUMBERS)
_CONSTANT_TREES = _trees(_NUMBER_LEAVES, lambda kids: kids)
# exponents mostly without x, so that most trees are admitted
_TREES = _trees(st.one_of(_NUMBER_LEAVES, st.just(("x",))), lambda kids: st.one_of(_CONSTANT_TREES, kids))


def _prec(tree):
    return _PREC.get(tree[0], 3 if tree[0] in ("neg", "pos") else 5)


def _tokens(tree, need=1):
    kind = tree[0]
    if kind == "num":
        out = [tree[1]]
    elif kind == "x":
        out = ["x"]
    elif kind in ("neg", "pos"):
        out = ["-" if kind == "neg" else "+", *_tokens(tree[1], 3)]
    elif kind == "sqrt":
        out = ["sqrt", "(", *_tokens(tree[1]), ")"]
    elif kind == "()":
        out = ["(", *_tokens(tree[1]), ")"]
    else:  # left-associative except the power, whose base is an atom
        left, right = {1: (1, 2), 2: (2, 3), 4: (5, 3)}[_PREC[kind]]
        out = [*_tokens(tree[1], left), kind, *_tokens(tree[2], right)]
    return ["(", *out, ")"] if _prec(tree) < need else out



def _subtrees(tree):
    yield tree
    for t in tree[1:]:
        if isinstance(t, tuple):
            yield from _subtrees(t)


def _reference(tree, x):
    """The tree's value at x by the same operations in the same order."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "x":
        return x
    if kind == "neg":
        return -_reference(tree[1], x)
    if kind == "sqrt":
        return sqrt(_reference(tree[1], x))
    if kind in ("pos", "()"):
        return _reference(tree[1], x)
    return _OPS[kind](_reference(tree[1], x), _reference(tree[2], x))


def _outcome(f, x):
    """f(x) as comparable bytes, or the type of what it raises."""
    try:
        with np.errstate(all="ignore"):
            v = f(x)
    except Exception as exc:
        return type(exc)
    parts = (v.value, v.d1, v.d2) if isinstance(v, Jet2) else (v,)
    return [(type(p), np.asarray(p).tobytes()) for p in parts]


_POINTS = [0.3, 2.0, -0.7, 0.0, 1e-3, Jet2.seed(0.3), Jet2.seed(np.array([0.3, 2.0, -0.7, 0.0, 1e-3]))]


@given(_TREES, st.data())
@settings(max_examples=200)
def test_parse_matches_the_grammar_tree(tree, data):
    toks = _tokens(tree)
    spaces = data.draw(st.lists(st.sampled_from(["", " ", "\t", "\n", "  "]),
                                min_size=len(toks) + 1, max_size=len(toks) + 1))
    text = "".join(s + t for s, t in zip(spaces, [*toks, ""]))
    if any(t[0] in ("^", "**") and ("x",) in _subtrees(t[2]) for t in _subtrees(tree)):
        with pytest.raises(DomainError, match="exponent"):
            parse_expression(text)
        return
    f = parse_expression(text)
    for x in _POINTS:
        assert _outcome(f, x) == _outcome(lambda v: _reference(tree, v), x), (text, x)


class TestCandidateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cands.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "cubic-file",
                        "p": "-(x^2)/(1+2*x)",
                        "q": "sqrt(x^3*(2+x)/(1+2*x))",
                        "domain": [0.0, 1.0],
                        "anchor_x0": 0.5,
                    }
                ]
            )
        )
        (cand,) = load_candidates(str(path))
        assert cand.name == "cubic-file"
        rep = I.verify_identity(cand, x0=0.5, grid=[0.1 * i for i in range(1, 10)])
        assert rep.passed
        assert rep.identity_residual_max <= 1e-10

    def test_grid_is_the_domain_inset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "unit", "p": "-x", "q": "x", "domain": [0, 1]},
                                    {"name": "d", "p": "-x", "q": "1/x", "domain": [2, 5]}]))
        unit, d = load_candidates(str(path))
        assert unit.grid_span == (1e-3, 0.99)
        assert d.grid_span == (2.0 + 1e-3 * 3.0, 5.0 - 1e-2 * 3.0) and d.anchor_x0 == 3.5
        assert all(2.0 < x < 4.97 for x in I.default_grid(d))

    @pytest.mark.parametrize("extra,match", [
        ({"domain": [5, 2]}, "domain"), ({"domain": [0, math.inf]}, "domain"),
        ({"domain": [math.nan, 1]}, "domain"), ({"anchor_x0": math.nan}, "anchor_x0"),
    ], ids=["reversed", "infinite", "nan", "nan-anchor"])
    def test_bad_domain_or_anchor_refused(self, tmp_path, extra, match):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "n", "p": "-x", "q": "x", "domain": [0, 1], **extra}]))
        with pytest.raises(DomainError, match=f"^candidate file: entry 0: {match}"):
            load_candidates(str(path))

    def test_default_anchor_is_midpoint(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "n", "p": "-x", "q": "x", "domain": [0.0, 1.0]}]))
        (cand,) = load_candidates(str(path))
        assert cand.anchor_x0 == 0.5

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "n", "p": "-x", "domain": [0, 1]}]))
        with pytest.raises(DomainError):
            load_candidates(str(path))

    def test_exponent_in_x_rejected_at_load(self, tmp_path):
        path = tmp_path / "xx.json"
        path.write_text(json.dumps([{"name": "n", "p": "x^x", "q": "x", "domain": [0, 1]}]))
        with pytest.raises(DomainError):
            load_candidates(str(path))

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"name": "n"}))
        with pytest.raises(DomainError):
            load_candidates(str(path))
