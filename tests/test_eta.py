import math

import pytest

from mahlerlab import eta
from mahlerlab.errors import DomainError


def test_inversion_transformation():
    # eta(i/t) = sqrt(t) eta(it), exercised away from the fixed point t = 1
    for t in (0.5, 1.3, 2.0):
        assert abs(eta.dedekind_eta(1.0 / t) - math.sqrt(t) * eta.dedekind_eta(t)) <= 1e-12


def test_known_value_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4})
    expected = math.gamma(0.25) / (2.0 * math.pi**0.75)
    assert eta.dedekind_eta(1.0) == pytest.approx(expected, rel=1e-14)


def test_truncation_converged():
    assert abs(eta.dedekind_eta(1.0, terms=40) - eta.dedekind_eta(1.0, terms=80)) <= 1e-15
    assert abs(eta.dedekind_eta(0.25, terms=40) - eta.dedekind_eta(0.25, terms=120)) <= 1e-15


def test_positivity():
    for t in (0.05, 0.3, 1.0, 5.0, 50.0):
        assert eta.dedekind_eta(t) > 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        eta.dedekind_eta(0.0)
    with pytest.raises(DomainError):
        eta.dedekind_eta(-1.0)
    with pytest.raises(DomainError):
        eta.dedekind_eta(1.0, terms=0)
    with pytest.raises(DomainError):
        eta.dedekind_eta(1e9)  # leading factor underflows


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_parametrization_residual(t):
    assert eta.verify_eta_param(t) <= 1e-10


def test_parametrization_across_regime():
    for t in (0.3, 0.4, 0.8, 1.2, 2.0):
        assert eta.verify_eta_param(t) <= 1e-9


def test_curve_point_signs():
    for t in (0.3, 0.7, 1.0, 1.8):
        x, y = eta.curve_point(t)
        assert x < 0.0 and y < 0.0
