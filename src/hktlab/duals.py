"""Forward-mode dual numbers, nested for higher derivatives.

A Dual carries (val, dot, level) where val and dot may hold ordinary
numbers or Duals from an enclosing differentiation level.  Every seeding
takes a fresh level from a global counter, and arithmetic treats a Dual
of lower level as a constant of the higher one; without the tag, an
inner and an outer seed would alias into the same infinitesimal and
first-derivative values would contaminate second derivatives whenever a
point-dependent coefficient sits between the two levels.

Derivatives are taken along real coordinate directions only, so conj
(dconj) acts slotwise and remains a valid operation.

Seeded coordinates come back as a Point: a list with a memo of what has
been built at it (chart tables, connection products, field values), so every
consumer of one point shares one build, and the memo is freed with the point.
seeded(pt), pt's one seeded child, is one such build: slot i carries the dot
part eye(dim)[i] on a lane axis left of pt's own lane and sample axes.  It
takes its fresh level when made, after pt, so above every level in pt's
coordinates.  A Point that several sweeps share keeps its child and
grandchild until the last of them has run (suites._run_sweeps).

A coordinate may also be a numpy array over a sweep's samples, and a seeded
one carries every direction on its lanes, so one pass evaluates them all
(vector forward mode).  Dual.__array_ufunc__ = None makes
`ndarray op Dual` defer to Dual (NumPy NEP 13), not build a slow object array.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

_levels = itertools.count(1)


def fresh_level() -> int:
    """A level id no live Dual carries yet; one per seeding."""
    return next(_levels)


class Dual:
    __slots__ = ("val", "dot", "level")
    __array_ufunc__ = None  # ndarray op Dual defers to Dual's reflected op

    def __init__(self, val, dot=0.0, level=0):
        self.val = val
        self.dot = dot
        self.level = level

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r}, level={self.level})"

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.level > self.level:
                return Dual(self + other.val, other.dot, other.level)
            if other.level == self.level:
                return Dual(self.val + other.val, self.dot + other.dot,
                            self.level)
        return Dual(self.val + other, self.dot, self.level)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot, self.level)

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.level > self.level:
                return Dual(self * other.val, self * other.dot, other.level)
            if other.level == self.level:
                return Dual(self.val * other.val,
                            self.val * other.dot + self.dot * other.val,
                            self.level)
        return Dual(self.val * other, self.dot * other, self.level)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.level > self.level:
                v = other.val
                return Dual(self / v, -self * other.dot / (v * v),
                            other.level)
            if other.level == self.level:
                v = other.val
                return Dual(self.val / v,
                            (self.dot * v - self.val * other.dot) / (v * v),
                            self.level)
        return Dual(self.val / other, self.dot / other, self.level)

    def __rtruediv__(self, other):
        v = self.val
        return Dual(other / v, -other * self.dot / (v * v), self.level)


def numeric(x):
    """Strip every dual layer, returning the underlying number."""
    while isinstance(x, Dual):
        x = x.val
    return x


def dot_part(x, level):
    """Derivative of x along the seed with the given level, else 0."""
    if isinstance(x, Dual) and x.level == level:
        return x.dot
    return 0.0


def val_part(x, level):
    if isinstance(x, Dual) and x.level == level:
        return x.val
    return x


def dconj(x):
    if isinstance(x, Dual):
        return Dual(dconj(x.val), dconj(x.dot), x.level)
    return x.conjugate()


def dlog(x):
    if isinstance(x, Dual):
        return Dual(dlog(x.val), x.dot / x.val, x.level)
    if isinstance(x, complex):
        return cmath.log(x)
    if isinstance(x, np.ndarray):
        return np.log(x)
    return math.log(x)


class Point(list):
    """Coordinate list carrying a memo of values built at it."""
    __slots__ = ("memo",)

    def __init__(self, coords):
        super().__init__(coords)
        self.memo = {}


def sample_shape(pt) -> tuple:
    """() at a plain point, (S,) at one whose coordinates are arrays over S
    samples."""
    return np.shape(numeric(pt[0]))


def as_point(coords):
    """coords itself if it is a Point, else a Point copy of it."""
    return coords if isinstance(coords, Point) else Point(coords)


def point_memo(pt, key, build):
    """build(pt), made once per Point and key; a plain list has no memo and
    gets a fresh build on every call."""
    memo = getattr(pt, "memo", None)
    if memo is None:
        return build(pt)
    if key not in memo:
        memo[key] = build(pt)
    return memo[key]


def seed_unit(coords, i, level):
    """Point copy of coords with slot i seeded for d/dx_i at the given level."""
    out = Point(coords)
    out[i] = Dual(out[i], 1.0, level)
    return out


def _ndim(x) -> int:
    """Axes of x's widest part: its lane and sample axes."""
    if isinstance(x, Dual):
        return max(_ndim(x.val), _ndim(x.dot))
    return np.ndim(x)


def seeded(pt):
    """pt's child at a fresh level, slot i with dot part eye(dim)[i] on a
    lane axis left of pt's own lane and sample axes; made once per Point."""
    def build(pt):
        dim, lev = len(pt), fresh_level()
        eye = np.eye(dim).reshape((dim, dim) + (1,) * max(map(_ndim, pt)))
        return Point([Dual(x, e, lev) for x, e in zip(pt, eye)])

    return point_memo(pt, "seeded", build)
