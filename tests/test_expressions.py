import json

import pytest

from mahlerlab import identities as I
from mahlerlab.errors import DomainError
from mahlerlab.expressions import load_candidates, parse_expression
from mahlerlab.jets import Jet2


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
