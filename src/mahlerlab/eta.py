"""Dedekind eta on the imaginary axis and the modular-unit parametrization of
3(x + 1/x) + y - 1/y - 5 = 0.

With tau = i t (t > 0) the nome q = e^{-2 pi t} is real, eta(it) is a fast
convergent positive product, and the level-15 eta quotients

    x(it) = -3 eta^2(3it) eta^2(15it) / (eta^2(it) eta^2(5it)),
    y(it) = -  eta^3(it) eta^3(15it) / (eta^3(3it) eta^3(5it))

trace the curve; the residual of the defining equation is the check.
"""

from __future__ import annotations

import math

from .errors import DomainError


def dedekind_eta(tau_imag: float, terms: int = 64) -> float:
    """eta(i t) = q^{1/24} prod_{n=1}^{terms} (1 - q^n), q = e^{-2 pi t}.

    Truncation error is below 1e-15 for t >= 1/4 and terms >= 40.
    """
    if tau_imag <= 0.0:
        raise DomainError(f"dedekind_eta: requires t > 0, got {tau_imag}")
    if terms < 1:
        raise DomainError(f"dedekind_eta: requires terms >= 1, got {terms}")
    lead = math.exp(-math.pi * tau_imag / 12.0)
    if lead == 0.0:
        raise DomainError(f"dedekind_eta: q^(1/24) underflows at t = {tau_imag}")
    q = math.exp(-2.0 * math.pi * tau_imag)
    prod = 1.0
    qn = 1.0
    for _ in range(terms):
        qn *= q
        if qn == 0.0:
            break
        prod *= 1.0 - qn
    return lead * prod


def curve_point(t: float, terms: int = 64) -> tuple[float, float]:
    """(x(it), y(it)) from the eta quotients; both negative for t > 0."""
    e1 = dedekind_eta(t, terms)
    e3 = dedekind_eta(3.0 * t, terms)
    e5 = dedekind_eta(5.0 * t, terms)
    e15 = dedekind_eta(15.0 * t, terms)
    x = -3.0 * (e3 * e3) * (e15 * e15) / ((e1 * e1) * (e5 * e5))
    y = -(e1**3) * (e15**3) / ((e3**3) * (e5**3))
    return x, y


def verify_eta_param(t: float, terms: int = 64) -> float:
    """Residual |3(x + 1/x) + y - 1/y - 5| at the eta-quotient point."""
    if not 0.0 < t:
        raise DomainError(f"verify_eta_param: requires t > 0, got {t}")
    x, y = curve_point(t, terms)
    return abs(3.0 * (x + 1.0 / x) + y - 1.0 / y - 5.0)
