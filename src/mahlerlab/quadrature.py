"""Tanh-sinh (double-exponential) quadrature on finite intervals.

The integrand is sampled at x = mid + half*u with u = tanh((pi/2) sinh t) and
the trapezoid rule applied on a t-grid that is halved level by level.  Node
offsets 1-|u| are generated in the cancellation-free form 2/(exp(2v)+1), so
endpoint singularities at an endpoint equal to 0 are resolved to full double
precision; algebraic singularities at a nonzero endpoint are limited to about
1e-8 by abscissa rounding (logarithmic ones are unaffected).  A node whose
abscissa rounds onto an endpoint is not evaluated, and a non-finite
integrand value at any node counts as 0, wherever the node lies: the correct
limit for an integrable endpoint singularity, but a silent drop in the
interior (ROADMAP item 4).

`tanh_sinh_panels` is the one refinement loop; `quadrature_oracle` and
`cumulative_integrals` are calls of it.
"""

from __future__ import annotations

import math
from array import array
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

_HALF_PI = math.pi / 2.0
_T_MAX = 6.8  # beyond this sinh overflows the weight computation
_MAX_LEVEL = 10


@cache
def _node_arrays(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes `level` adds, as an array of offsets 1 - |u| and one of
    weights: t = 1, 2, ..., 6 at level 0, the odd multiples of h = 2**-level
    up to _T_MAX above it."""
    if level == 0:
        ts = range(1, int(_T_MAX) + 1)
    else:
        h = 2.0 ** (-level)
        ts = (h * j for j in range(1, int(_T_MAX / h) + 1, 2))
    offsets, weights = [], []
    for t in ts:
        v = _HALF_PI * math.sinh(t)
        if v > 350.0:
            break  # offset < 1e-304; weights are double-exponentially dead
        offset = 2.0 / (math.exp(2.0 * v) + 1.0)
        if offset == 0.0:
            break
        offsets.append(offset)
        weights.append(_HALF_PI * math.cosh(t) / math.cosh(v) ** 2)
    return np.array(offsets), np.array(weights)


def _each(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn applied to each element of x as a Python float.  Scalar integrands
    go through it, and so do `math` functions whose numpy forms round
    differently on some inputs (acosh, asinh, atan, log)."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def _verdict(
    terms: Sequence[float], half: float, level: int, prev: float, tols: tuple[float, ...]
) -> tuple[float, float, int]:
    """The stopping rule of `tanh_sinh_panels`.

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
    level that meets it by `_verdict`, so it is bit for bit the value a
    refinement at that tol alone stops at.  Returns (values, failures):
    values[i] holds the values of the rungs panel i met, and failures[i] the
    AccuracyError, carrying the value at the level before, for the first
    rung it missed by level _MAX_LEVEL.  A zero-length panel is 0.0 on every
    rung.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    halves = half.tolist()

    def refine(idx: np.ndarray, level: int) -> None:
        """Evaluate f once on the interior nodes of `level` in the panels
        idx, and on their midpoints at level 0, and append the new terms to
        each panel's; a non-finite value counts as 0."""
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
                failures[i] = AccuracyError(
                    f"tanh-sinh did not reach tol={ladder[met]:g} after {_MAX_LEVEL} levels "
                    f"(last change {est:g})",
                    best_estimate=prev[i],
                    error_estimate=est,
                )
            else:
                prev[i] = value
                live.append(i)
        idx = np.array(live, dtype=int)
    return values, failures


def quadrature_oracle(
    integrand: Callable[[float], float], a: float, b: float, tol: float = 1e-12
) -> float:
    """Adaptive tanh-sinh estimate of the integral of the scalar `integrand`
    on (a, b), negated for b < a: one panel of `tanh_sinh_panels`.

    Supports integrable endpoint singularities (algebraic or logarithmic).
    Raises AccuracyError with the best estimate attached on non-convergence.
    """
    if a == b:
        return 0.0
    if b < a:
        return -quadrature_oracle(integrand, b, a, tol)
    values, failures = tanh_sinh_panels(lambda x, _: _each(integrand, x), [a], [b], [(tol,)])
    if failures:
        raise failures[0]
    return values[0][0]


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
    error for error) chaining `quadrature_oracle` panel by panel.
    """
    ends = [x0, *xs]
    # like quadrature_oracle, integrate each panel upwards and negate reversed ones
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
