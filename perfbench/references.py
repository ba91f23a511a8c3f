"""30-digit mpmath references for the values the output checks compare.

Each quantity is written from its definition (Jensen integrals of the
larger root modulus, Legendre-form elliptic integrals) and evaluated by
mpmath's own quadrature, so the references share no code with the program.
They are computed in the parent process before any timing starts.
"""

from __future__ import annotations

import math

import mpmath as mp

from workloads import K_LARGE, TABLE_K2, grid

_DPS = 30


def _log_root(b):
    # log of the larger root modulus of y^2 - b y + 1 for b >= 2
    return mp.acosh(max(b, mp.mpf(2)) / 2)


def m_p1k(k) -> float:
    """m(x + 1/x + y + 1/y + k) for k > 0."""
    with mp.workdps(_DPS):
        k = mp.mpf(k)
        end = mp.pi if k > 4 else mp.acos((2 - k) / 2)
        return float(mp.quad(lambda t: _log_root(2 * mp.cos(t) + k), [0, end]) / mp.pi)


def half_measures(k) -> tuple[float, float]:
    """(m+, m-) of the (a, c) member: the tilde form for k > 4, the real
    coefficients for 0 < k < 4."""
    with mp.workdps(_DPS):
        k = mp.mpf(k)
        if k < 4:
            a = mp.sqrt((4 + k) / (4 - k))
            c = k / mp.sqrt(4 - k)
            b = lambda t: 2 * a * mp.cos(t) + c  # noqa: E731
            th_minus = mp.acos((2 - c) / (2 * a))
            th_plus = mp.acos((-2 - c) / (2 * a))
            m_minus = mp.quad(lambda t: _log_root(b(t)), [0, th_minus]) / mp.pi
            m_plus = mp.quad(lambda t: _log_root(-b(t)), [th_plus, mp.pi]) / mp.pi
            return float(m_plus), float(m_minus)
        s4 = 2 * mp.sqrt(k - 4)
        bt = lambda t: (2 * mp.sqrt(k + 4) * mp.cos(t) - k) / s4  # noqa: E731
        if k >= K_LARGE:
            m_plus = -mp.quad(lambda t: mp.asinh(bt(t)), [0, mp.pi]) / mp.pi
            return float(m_plus), 0.0
        th = mp.acos(k / (2 * mp.sqrt(k + 4)))
        m_minus = mp.quad(lambda t: mp.asinh(bt(t)), [0, th]) / mp.pi
        m_plus = -mp.quad(lambda t: mp.asinh(bt(t)), [th, mp.pi]) / mp.pi
        return float(m_plus), float(m_minus)


def dfdk(k) -> float:
    """(2/(k pi)) K(4/k), K with modulus 4/k."""
    with mp.workdps(_DPS):
        k = mp.mpf(k)
        z = 4 / k
        return float(2 / (k * mp.pi) * mp.ellipk(z * z))


def dhdk(k) -> float:
    """(K(z) - 2 z Pi(-z, z)) / ((k - 4) pi) with z = 4/k."""
    with mp.workdps(_DPS):
        k = mp.mpf(k)
        z = 4 / k
        return float((mp.ellipk(z * z) - 2 * z * mp.ellippi(-z, z * z)) / ((k - 4) * mp.pi))


def sweep_value(quantity: str, k: float) -> float:
    if quantity == "f":
        return m_p1k(k)
    if quantity == "dfdk":
        return dfdk(k)
    if quantity == "dhdk":
        return dhdk(k)
    m_plus, m_minus = half_measures(k)
    return {"h": m_plus - m_minus, "m_plus": m_plus, "m_minus": m_minus}[quantity]


def attach(plan: dict) -> None:
    """Fill in the reference values each operation's check needs."""
    memo: dict[tuple, float] = {}

    def ref(name, k):
        key = (name, k)
        if key not in memo:
            memo[key] = sweep_value(name, k)
        return memo[key]

    for rnd in plan["rounds"]:
        for op in rnd:
            check = op["check"]
            kind = check["kind"]
            if kind == "table":
                check["m_ref"] = {str(k2): ref("f", math.sqrt(k2)) for k2 in TABLE_K2}
            elif kind == "lvalue":
                check["m_ref"] = ref("f", math.sqrt(check["k2"]))
            elif kind == "oracle2d":
                check["m_ref"] = ref("f", check["k"])
            elif kind == "sweep":
                ks = grid(check["spec"])
                check["refs"] = [ref(check["quantity"], ks[i]) for i in check["samples"]]

