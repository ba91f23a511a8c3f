"""The scalar tanh-sinh path, kept as the reference for the lockstep driver.

`tanh_sinh` (its list-of-tuples node cache, pair loop and per-panel stopping
rule `_verdict`), `_log_abs_root` and the per-arc `half_measures` are the
one-call-per-node implementations that `quadrature.tanh_sinh_panels` and
`mahler.half_measures_lockstep` replaced.  The tests assert that the
lockstep driver gives their values and errors bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from mahlerlab import mahler as M
from mahlerlab.errors import AccuracyError
from mahlerlab.quadrature import _HALF_PI, _MAX_LEVEL, _T_MAX

# _LEVEL_NODES[0] holds the nodes at t = k (k >= 1); _LEVEL_NODES[L] for L >= 1
# holds the new nodes at odd multiples of h = 2**-L.  Entries are
# (offset, weight) with offset = 1 - |u|.
_LEVEL_NODES: list[list[tuple[float, float]]] = []


def _make_nodes(ts: list[float]) -> list[tuple[float, float]]:
    nodes = []
    for t in ts:
        v = _HALF_PI * math.sinh(t)
        if v > 350.0:
            break  # offset < 1e-304; weights are double-exponentially dead
        offset = 2.0 / (math.exp(2.0 * v) + 1.0)
        if offset == 0.0:
            break
        w = _HALF_PI * math.cosh(t) / math.cosh(v) ** 2
        nodes.append((offset, w))
    return nodes


def _nodes_for_level(level: int) -> list[tuple[float, float]]:
    while len(_LEVEL_NODES) <= level:
        lv = len(_LEVEL_NODES)
        if lv == 0:
            ts = [float(k) for k in range(1, int(_T_MAX) + 1)]
        else:
            h = 2.0 ** (-lv)
            ts = []
            t = h
            while t <= _T_MAX:
                ts.append(t)
                t += 2.0 * h
        _LEVEL_NODES.append(_make_nodes(ts))
    return _LEVEL_NODES[level]


def _unconverged(tol: float, max_level: int, prev: float, est: float) -> AccuracyError:
    """A refinement missed tol by level max_level; prev is the level before."""
    return AccuracyError(
        f"tanh-sinh did not reach tol={tol:g} after {max_level} levels "
        f"(last change {est:g})",
        best_estimate=prev,
        error_estimate=est,
    )


def _verdict(
    terms: Sequence[float], half: float, level: int, prev: float, tols: tuple[float, ...]
) -> tuple[float, float, int]:
    """The stopping rule of `tanh_sinh_panels`, one panel at a time.

    terms are the weighted node values through `level` and prev the value at
    the level before; tols is a ladder of decreasing tolerances.  Returns
    (value, error_estimate, met), met counting the leading tols that the
    change is within.  A change within the rounding noise of the sum meets
    every rung; the noise is summed only when the change misses a rung.
    """
    h = 2.0 ** (-level)
    value = half * h * math.fsum(terms)
    est = abs(value - prev)
    met = sum(est <= tol for tol in tols)
    if met < len(tols) and est <= 30.0 * 2.2e-16 * (
        abs(value) + half * math.fsum(map(abs, terms)) * h
    ):
        met = len(tols)
    return value, est, met


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_level: int = _MAX_LEVEL,
) -> tuple[float, float, int]:
    """Integrate f over [a, b]; return (value, error_estimate, level).

    Raises AccuracyError (with the best estimate attached) if successive
    refinements do not agree to tol within max_level halvings (at least one).
    """
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        value, est, lv = tanh_sinh(f, b, a, tol, max_level)
        return -value, est, lv

    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)

    def pair_term(offset: float, w: float) -> float:
        xl = a + half * offset
        xr = b - half * offset
        fl = f(xl) if xl > a else 0.0
        fr = f(xr) if xr < b else 0.0
        if not math.isfinite(fl):
            fl = 0.0
        if not math.isfinite(fr):
            fr = 0.0
        return w * (fl + fr)

    f0 = f(mid)
    if not math.isfinite(f0):
        f0 = 0.0
    terms = [_HALF_PI * f0]
    terms.extend(pair_term(off, w) for off, w in _nodes_for_level(0))
    prev = half * math.fsum(terms)
    for level in itertools.count(1):
        terms.extend(pair_term(off, w) for off, w in _nodes_for_level(level))
        value, est, met = _verdict(terms, half, level, prev, (tol,))
        if met:
            return value, est, level
        if level >= max_level:
            raise _unconverged(tol, max_level, prev, est)
        prev = value


def _log_abs_root(fac: M.QuadraticFactorization, s: float) -> Callable[[float], float]:
    """log|y| of the root that leaves the unit disc where b = s B(theta) is
    large (b > 2 for sigma = +1, b > 0 for sigma = -1): y- for s = +1, y+ for
    s = -1.  In terms of h = b/2 it is acosh(h)
    for sigma = +1 (0 where h <= 1, which a node next to the crossing can
    round onto) and asinh(h) for sigma = -1; neither overflows.  Each is one
    flat closure, since this runs once per quadrature node.
    """
    hb, hg = 0.5 * s * fac.beta, 0.5 * s * fac.gamma
    if fac.sigma > 0:
        def f(th: float) -> float:
            h = hb * math.cos(th) + hg
            return math.acosh(h) if h > 1.0 else 0.0
    else:
        def f(th: float) -> float:
            return math.asinh(hb * math.cos(th) + hg)
    return f


def half_measures(fac: M.QuadraticFactorization, tol: float = 1e-8) -> M.HalfMeasures:
    """Half-measures (m+, m-) of y^2 + B(theta) y + sigma by Jensen's formula,
    one `tanh_sinh` per arc of `_jensen_arcs`; absolute error <= tol."""
    m = [0.0, 0.0]
    for slot, s, lo, hi, (arc_tol,) in M._jensen_arcs(fac, (tol,)):
        m[slot] = tanh_sinh(_log_abs_root(fac, s), lo, hi, arc_tol)[0] / math.pi
    return M.HalfMeasures(m_plus=m[1], m_minus=m[0])
