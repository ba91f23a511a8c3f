"""Second-order jets: scalars carrying exact first and second derivatives.

A Jet2 is a truncated Taylor value (f, f', f'') propagated through +, -, *, /,
sqrt and powers by the chain rule, so derivatives come out to machine
precision without symbolic differentiation.  `sqrt` dispatches on the
argument type, letting the same closure run on plain floats (value-only) and
on jets.

The three components may also be numpy arrays, one element per point, so a
closure evaluates a whole node set in one call with the same floating-point
operations as the scalar path, element for element.  Where the scalar path
raises (division by a zero value, sqrt of a value < 0, a non-integer power
of a value < 0 or a negative one of 0, a non-integer power that overflows),
the array path puts NaN in all three components of that element, and the
NaN survives every later operation.  The sqrt of 0, and a non-integer power
n > 0 of 0, are 0, with NaN in each derivative whose power of 0 is
undefined, on both paths.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularPointError


def _nan_where(bad: np.ndarray, v):
    """v with NaN at the elements flagged bad."""
    return np.where(bad, math.nan, v)


def _pow_or_nan(v: float, e: float) -> float:
    """Python's v ** e for v > 0, and for v = 0 with e > 0; NaN where it is
    undefined or overflows."""
    if not (v > 0.0 or (v == 0.0 and e > 0.0)):
        return math.nan
    try:
        return v ** e
    except OverflowError:
        return math.nan


class Jet2:
    __slots__ = ("value", "d1", "d2")

    def __init__(self, value: float, d1: float = 0.0, d2: float = 0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def seed(x) -> "Jet2":
        """The identity function's jet at x (a float or an array): (x, 1, 0)."""
        x = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
        return Jet2(x, 1.0, 0.0)

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, {self.d1!r}, {self.d2!r})"

    def _lift(other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)):
            return Jet2(float(other))
        return None

    def __add__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def _inv(self) -> "Jet2":
        if isinstance(self.value, np.ndarray):
            iv = 1.0 / _nan_where(self.value == 0.0, self.value)
        elif self.value == 0.0:
            raise ZeroDivisionError("Jet2: division by a jet with zero value")
        else:
            iv = 1.0 / self.value
        return Jet2(
            iv,
            -self.d1 * iv * iv,
            (2.0 * self.d1 * self.d1 * iv - self.d2) * iv * iv,
        )

    def __truediv__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return self * o._inv()

    def __rtruediv__(self, other):
        o = Jet2._lift(other)
        if o is None:
            return NotImplemented
        return o * self._inv()

    def __pow__(self, n):
        if not isinstance(n, (int, float)):  # a complex exponent, say
            return NotImplemented
        if isinstance(n, int) or (isinstance(n, float) and n.is_integer()):
            n = int(n)
            if n == 0:
                if isinstance(self.value, np.ndarray):
                    bad = np.isnan(self.value)
                    return Jet2(_nan_where(bad, 1.0), _nan_where(bad, 0.0), _nan_where(bad, 0.0))
                return Jet2(1.0)
            if n < 0:
                return (self ** (-n))._inv()
            # square-and-multiply from the top bit; n <= 3 as repeated products
            out = self
            for bit in bin(n)[3:]:
                out = out * out
                if bit == "1":
                    out = out * self
            return out
        if isinstance(self.value, np.ndarray):
            # Python's pow per element: numpy's may round differently
            vals = self.value.tolist()
            p0, p1, p2 = (np.array([_pow_or_nan(v, e) for v in vals])
                          for e in (n, n - 1.0, n - 2.0))
            # at 0 only p0 must be defined: p1 and p2 are the derivatives'
            bad = np.isnan(p0) | ((self.value != 0.0) & (np.isnan(p1) | np.isnan(p2)))
            p0, p1, p2 = (_nan_where(bad, p) for p in (p0, p1, p2))
        elif self.value < 0.0 or (self.value == 0.0 and n < 0.0):
            raise DomainError(
                f"Jet2: non-integer power of non-positive value {self.value}"
            )
        else:
            try:
                p0, p1, p2 = (self.value ** e if self.value or e > 0.0 else math.nan
                              for e in (n, n - 1.0, n - 2.0))
            except OverflowError:
                raise SingularPointError(
                    f"Jet2: power {n} overflows at value {self.value}"
                ) from None
        return Jet2(
            p0,
            n * p1 * self.d1,
            n * (n - 1.0) * p2 * self.d1 * self.d1 + n * p1 * self.d2,
        )


def sqrt(u):
    """Square root for floats and jets; a jet needs value >= 0 (array jets
    get NaN below), and at 0 its derivatives, which do not exist, are NaN."""
    if isinstance(u, Jet2):
        if isinstance(u.value, np.ndarray):
            s = np.sqrt(_nan_where(u.value < 0.0, u.value))
            two_s = _nan_where(s == 0.0, 2.0 * s)
        elif u.value < 0.0:
            raise DomainError(f"Jet2 sqrt: requires value >= 0, got {u.value}")
        else:
            s = math.sqrt(u.value)
            two_s = 2.0 * s if s != 0.0 else math.nan
        d1 = u.d1 / two_s
        return Jet2(s, d1, (u.d2 - 2.0 * d1 * d1) / two_s)
    return math.sqrt(u)
