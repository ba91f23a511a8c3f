"""Tanh-sinh (double-exponential) quadrature on finite intervals.

The integrand is sampled at x = mid + half*u with u = tanh((pi/2) sinh t) and
the trapezoid rule applied on a t-grid that is halved level by level.  Node
offsets 1-|u| are generated in the cancellation-free form 2/(exp(2v)+1), so
endpoint singularities at an endpoint equal to 0 are resolved to full double
precision; algebraic singularities at a nonzero endpoint are limited to about
1e-8 by abscissa rounding (logarithmic ones are unaffected).  Non-finite
integrand values next to an endpoint are treated as 0, which is the correct
limit for any integrable singularity.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Callable

import numpy as np

from .errors import AccuracyError

_HALF_PI = math.pi / 2.0
_T_MAX = 6.8  # beyond this sinh overflows the weight computation
_MAX_LEVEL = 10

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


@cache
def _node_arrays(level: int) -> tuple[np.ndarray, np.ndarray]:
    """`_nodes_for_level(level)` as an array of offsets and one of weights."""
    nodes = _nodes_for_level(level)
    return np.array([o for o, _ in nodes]), np.array([w for _, w in nodes])


def _verdict(
    terms: list[float], half: float, level: int, prev: float, tol: float, max_level: int
) -> tuple[float, float, bool]:
    """The stopping rule of every tanh-sinh driver in this module.

    terms are the weighted node values through `level` and prev the value at
    the level before.  Returns (value, error_estimate, converged): converged
    once the change is within tol or within the rounding noise of the sum.
    Raises AccuracyError, with prev as the best estimate, when level
    max_level is reached unconverged.
    """
    h = 2.0 ** (-level)
    value = half * h * math.fsum(terms)
    est = abs(value - prev)
    noise = 30.0 * 2.2e-16 * (abs(value) + half * math.fsum(abs(t) for t in terms) * h)
    if est <= tol or est <= noise:
        return value, est, True
    if level >= max_level:
        raise AccuracyError(
            f"tanh-sinh did not reach tol={tol:g} after {max_level} levels "
            f"(last change {est:g})",
            best_estimate=prev,
            error_estimate=est,
        )
    return value, est, False


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
    for level in itertools.count(1):  # _verdict raises past max_level
        terms.extend(pair_term(off, w) for off, w in _nodes_for_level(level))
        prev, est, converged = _verdict(terms, half, level, prev, tol, max_level)
        if converged:
            return prev, est, level


def quadrature_oracle(
    integrand: Callable[[float], float], a: float, b: float, tol: float = 1e-12
) -> float:
    """Adaptive tanh-sinh estimate of the integral of `integrand` on (a, b).

    Supports integrable endpoint singularities (algebraic or logarithmic).
    Raises AccuracyError with the best estimate attached on non-convergence.
    """
    value, _, _ = tanh_sinh(integrand, a, b, tol)
    return value


def cumulative_integrals(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    xs: list[float],
    tol: float = 1e-14,
) -> list[float]:
    """Integrals of f from x0 to each point of the monotone grid xs.

    xs must be monotone (increasing or decreasing) starting on x0's side, and
    f maps an array of abscissae to the array of its values.  The panels
    [x0, xs[0]], [xs[0], xs[1]], ... are refined in lockstep: each tanh-sinh
    level calls f once, on the new nodes of every panel not yet converged,
    and each panel stops by `tanh_sinh`'s rule over the same terms.  The
    result is the running `math.fsum` of the panel values, bit for bit equal
    to chaining `tanh_sinh` panel by panel.
    """
    ends = [x0, *xs]
    # like tanh_sinh, integrate each panel upwards and negate reversed ones
    lo = np.array([min(u, v) for u, v in zip(ends, ends[1:])], dtype=float)
    hi = np.array([max(u, v) for u, v in zip(ends, ends[1:])], dtype=float)
    half = 0.5 * (hi - lo)
    halves = half.tolist()

    def weighted(idx: np.ndarray, level: int, extra: np.ndarray):
        """Evaluate f once on `extra` and on the interior nodes of `level`
        in the panels idx; return f at extra and the pair terms per panel,
        non-finite values dropped as in tanh_sinh."""
        off, w = _node_arrays(level)
        a, b, h = lo[idx, None], hi[idx, None], half[idx, None]
        xl = a + h * off
        xr = b - h * off
        inl, inr = xl > a, xr < b
        y = np.asarray(f(np.concatenate([extra, xl[inl], xr[inr]])), dtype=float)
        y = np.where(np.isfinite(y), y, 0.0)
        fl, fr = np.zeros_like(xl), np.zeros_like(xr)
        n_e, n_l = len(extra), int(inl.sum())
        fl[inl] = y[n_e:n_e + n_l]
        fr[inr] = y[n_e + n_l:]
        return y[:n_e], (w * (fl + fr)).tolist()

    values = [0.0] * len(xs)
    idx = np.flatnonzero(lo != hi)
    f0, pairs = weighted(idx, 0, 0.5 * (hi[idx] + lo[idx]))
    terms = {i: [t, *p] for i, t, p in zip(idx.tolist(), (_HALF_PI * f0).tolist(), pairs)}
    prev = {i: halves[i] * math.fsum(terms[i]) for i in terms}
    level = 0
    while idx.size:
        level += 1
        _, pairs = weighted(idx, level, np.empty(0))
        live = []
        for i, p in zip(idx.tolist(), pairs):
            terms[i].extend(p)
            prev[i], _, converged = _verdict(terms[i], halves[i], level, prev[i], tol, _MAX_LEVEL)
            if converged:
                values[i] = prev[i]
            else:
                live.append(i)
        idx = np.array(live, dtype=int)

    out = []
    acc = []
    for i, x in enumerate(xs):
        acc.append(-values[i] if x < ends[i] else values[i])
        out.append(math.fsum(acc))
    return out
