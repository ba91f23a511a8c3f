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
`cumulative_integrals` are calls of it.  At each level, numpy sums and a
bound on their rounding show which panels surely refine on; only the others
take the stopping rule over `math.fsum`.
"""

from __future__ import annotations

import math
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


#: the unit roundoff (tests widen the rounding bound through it), the noise
#: rule's factor, the sums beyond which the rule over `math.fsum` decides (it
#: may overflow), and the bound's allowance for underflow
_U, _NOISE, _BIG, _TINY = 2.0 ** -53, 30.0 * 2.2e-16, 1e300, 1e-300


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
    of decreasing tolerances tols[i].  With terms t the weighted node values
    through level L, h = 2**-L and prev the value at level L - 1, the value
    is half h fsum(t) and est = |value - prev|; a rung is met at the first
    level where est <= tol, and every rung where est is within the rounding
    noise 30 eps (|value| + half h fsum|t|) of the sum.  So a rung's value is
    bit for bit the one a refinement at that tol alone stops at.  A panel
    whose est, by numpy sums, is above its largest tol left and the noise
    by more than the sums' rounding bound refines on without `math.fsum`.
    Returns (values, failures): values[i] holds the values of the rungs
    panel i met, and failures[i] the AccuracyError, carrying prev, for the
    first rung it missed by level _MAX_LEVEL.  A zero-length panel is 0.0 on
    every rung.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    halves = half.tolist()

    def refine(idx: np.ndarray, level: int) -> np.ndarray:
        """The terms `level` adds to the panels idx, one row per panel: f
        once on their interior nodes of `level`, and on their midpoints at
        level 0; a non-finite value counts as 0."""
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
        return np.column_stack([_HALF_PI * y[:n_m], xl]) if n_m else xl

    values = [[0.0] * len(t) if a == b else [] for a, b, t in zip(lo.tolist(), hi.tolist(), tols)]
    failures = {}
    idx = np.flatnonzero(lo != hi)
    # the largest tol each live panel has left to meet
    top = np.array([max(t, default=math.nan) for t in tols], dtype=float)[idx]

    def approx() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c a, v, rv) for the live panels at `level`, c = half h: the value
        v = c s by numpy sums, and rv >= |v - c fsum(t)|.  n terms summed in
        any order are within gamma_(n-1) sum|t| (Higham, Accuracy and
        Stability of Numerical Algorithms, 4.2), rounding adds 3u, and one u
        more covers the rest, the noise threshold's error included.  rv is
        inf where the sums or c are out of scale."""
        c = half[idx] * 2.0 ** -level
        ca = c * a
        fits = (np.maximum(a, ca) <= _BIG) & (c > _TINY)
        return ca, c * s, np.where(fits, (n + 3) * _U * ca + _TINY, math.inf)

    # each level's terms, one row per live panel, and their running sums
    blocks, level = [refine(idx, 0)], 0
    n = blocks[0].shape[1]
    with np.errstate(all="ignore"):  # inf and NaN in the bound leave decisions to fsum
        s, a = blocks[0].sum(axis=1), abs(blocks[0]).sum(axis=1)
        _, p, rp = approx()
    for t in blocks[0][~(a <= _BIG)].tolist():
        math.fsum(t)  # raises here on such terms, as the per-panel rule did
    while idx.size:
        level += 1
        blocks.append(refine(idx, level))
        n += blocks[-1].shape[1]
        with np.errstate(all="ignore"):
            s += blocks[-1].sum(axis=1)
            a += abs(blocks[-1]).sum(axis=1)
            ca, v, rv = approx()
            # a panel surely refines on where est, less a bound on its
            # distance from the per-panel rule's (rounding held twice over),
            # exceeds both its largest tol left and the noise threshold
            est = abs(v - p)
            lim = np.maximum(top, _NOISE * (abs(v) + ca))
            on = est - lim - (rv + rp + 8.0 * _U * (est + lim)) > 0.0
        # the per-panel rule, by fsum, for the others
        last, done = level >= _MAX_LEVEL, np.zeros(idx.size, dtype=bool)
        rows = np.flatnonzero(~on | last)
        h, n_prev = 2.0 ** -level, n - blocks[-1].shape[1]
        gathered = np.hstack([b[rows] for b in blocks]) if rows.size else ()
        for row, i, t in zip(rows.tolist(), idx[rows].tolist(), gathered):
            t = t.tolist()
            value = halves[i] * h * math.fsum(t)
            prev = halves[i] * (2.0 * h) * math.fsum(t[:n_prev])
            est_i = abs(value - prev)
            ladder = tols[i][len(values[i]):]
            met = sum(est_i <= tol for tol in ladder)
            if met < len(ladder) and est_i <= _NOISE * (abs(value) + halves[i] * math.fsum(map(abs, t)) * h):
                met = len(ladder)
            values[i] += [value] * met
            if met == len(ladder):
                done[row] = True
            elif last:
                failures[i] = AccuracyError(
                    f"tanh-sinh did not reach tol={ladder[met]:g} after {_MAX_LEVEL} levels "
                    f"(last change {est_i:g})",
                    best_estimate=prev,
                    error_estimate=est_i,
                )
            else:
                top[row] = max(ladder[met:])
        keep = ~done & (not last)
        if not keep.all():
            idx, s, a, v, rv, top = (x[keep] for x in (idx, s, a, v, rv, top))
            blocks = [b[keep] for b in blocks]
        p, rp = v, rv
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
    return _running_fsums(signed)


def _running_fsums(values: list[float]) -> list[float]:
    """[math.fsum(values[:n]) for n = 1, 2, ...] in linear time, by fsum of
    Shewchuk's partials of each prefix; values beyond _BIG or not finite take
    the prefix sums, which raise as fsum does."""
    if not all(abs(v) <= _BIG for v in values):
        return [math.fsum(values[:n]) for n in range(1, len(values) + 1)]
    out, partials = [], []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out
