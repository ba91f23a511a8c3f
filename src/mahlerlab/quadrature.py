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
from array import array
from functools import cache
from typing import Callable, Sequence

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
    terms: Sequence[float], half: float, level: int, prev: float, tols: tuple[float, ...]
) -> tuple[float, float, int]:
    """The stopping rule of every tanh-sinh driver in this module.

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


def _unconverged(tol: float, max_level: int, prev: float, est: float) -> AccuracyError:
    """A refinement missed tol by level max_level; prev is the level before."""
    return AccuracyError(
        f"tanh-sinh did not reach tol={tol:g} after {max_level} levels "
        f"(last change {est:g})",
        best_estimate=prev,
        error_estimate=est,
    )


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


def tanh_sinh_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tols: Sequence[tuple[float, ...]],
) -> tuple[list[list[float]], dict[int, AccuracyError]]:
    """Integrate over the panels [lo[i], hi[i]] (lo <= hi) in lockstep.

    f(x, panel) maps abscissae and the panel of each onto integrand values,
    so panels can carry their own parameters.  Each level calls f once, on
    the new nodes of every panel still refining.  Panel i climbs the ladder
    of decreasing tolerances tols[i]: a rung's value is the one at the first
    level that meets it by `tanh_sinh`'s rule over the same terms, bit for
    bit `tanh_sinh`'s value at that tol.  Returns (values, failures):
    values[i] holds the values of the rungs panel i met, and failures[i] the
    AccuracyError `tanh_sinh` raises at the first rung it missed by level
    _MAX_LEVEL.  A zero-length panel is 0.0 on every rung.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    halves = half.tolist()

    def refine(idx: np.ndarray, level: int) -> None:
        """Evaluate f once on the interior nodes of `level` in the panels
        idx, and on their midpoints at level 0, and append the new terms to
        each panel's, non-finite values dropped as in tanh_sinh."""
        off, w = _node_arrays(level)
        a, b, xl = lo[idx, None], hi[idx, None], half[idx, None] * off
        xr = b - xl
        xl += a
        inl, inr = xl > a, xr < b
        owner = np.broadcast_to(idx[:, None], xl.shape)
        mids = idx if level == 0 else idx[:0]
        y = np.asarray(f(np.concatenate([0.5 * (hi[mids] + lo[mids]), xl[inl], xr[inr]]),
                         np.concatenate([mids, owner[inl], owner[inr]])), dtype=float)
        y = np.where(np.isfinite(y), y, 0.0)
        # the pair terms w * (f(xl) + f(xr)), built in xl's and xr's memory
        n_m, n_l = len(mids), np.count_nonzero(inl)
        xl.fill(0.0)
        xr.fill(0.0)
        xl[inl] = y[n_m:n_m + n_l]
        xr[inr] = y[n_m + n_l:]
        xl += xr
        xl *= w
        if n_m:
            xl = np.column_stack([_HALF_PI * y[:n_m], xl])
        for i, row in zip(idx.tolist(), xl):
            terms[i].frombytes(row.tobytes())

    values = [[0.0] * len(t) if a == b else [] for a, b, t in zip(lo, hi, tols)]
    failures = {}
    idx = np.flatnonzero(lo != hi)
    # each panel's terms as packed doubles, a quarter of the memory of floats
    terms = {i: array("d") for i in idx.tolist()}
    refine(idx, 0)
    prev = {i: halves[i] * math.fsum(t) for i, t in terms.items()}
    level = 0
    while idx.size:
        level += 1
        refine(idx, level)
        live = []
        for i in idx.tolist():
            ladder = tols[i][len(values[i]):]
            value, est, met = _verdict(terms[i], halves[i], level, prev[i], ladder)
            values[i] += [value] * met
            if met == len(ladder):
                del terms[i]
                continue
            if level >= _MAX_LEVEL:
                failures[i] = _unconverged(ladder[met], _MAX_LEVEL, prev[i], est)
            else:
                prev[i] = value
                live.append(i)
        idx = np.array(live, dtype=int)
    return values, failures


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
    [x0, xs[0]], [xs[0], xs[1]], ... go through `tanh_sinh_panels`; the
    result is the running `math.fsum` of their values, bit for bit (and
    error for error) chaining `tanh_sinh` panel by panel.
    """
    ends = [x0, *xs]
    # like tanh_sinh, integrate each panel upwards and negate reversed ones
    values, failures = tanh_sinh_panels(
        lambda x, _: f(x),
        [min(u, v) for u, v in zip(ends, ends[1:])],
        [max(u, v) for u, v in zip(ends, ends[1:])],
        [(tol,)] * len(xs),
    )
    if failures:
        raise failures[min(failures)]
    signed = [-v if x < u else v for (v,), u, x in zip(values, ends, xs)]
    return [math.fsum(signed[:n]) for n in range(1, len(signed) + 1)]
