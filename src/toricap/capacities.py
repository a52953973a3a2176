"""Gutt-Hutchings and Lagrangian capacities, with two independent paths.

The toric path minimizes the support function over non-negative lattice
pairs summing to k in closed form, from the edge where the boundary meets
the diagonal, comparing its two candidate supports as lattice integers
and building one Fraction for the value; the ellipsoid path reads the
k-th entry of the merged sequence of axis multiples.  Both are exact on
rational data and must agree on simplices, which the test suite enforces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .moment_domain import (
    EllipsoidSpec,
    LatticeDirection,
    MomentDomain2D,
    _lattice_support,
    _near_diagonal,
    as_rational,
    diagonal,
    support,  # noqa: F401 -- still a name of this module: the benchmark tracer wraps it
)


class UnsupportedShape(ValueError):
    """Shape not in the list with a known Lagrangian capacity."""


class LengthMismatch(ValueError):
    """Descendant input classes do not match the stated arity."""


@dataclass(frozen=True)
class AxisMultiple:
    """Minimizer descriptor on the ellipsoid path: the multiple i*axes[axis]."""

    axis: int
    multiple: int


@dataclass(frozen=True)
class CapacityReport:
    value: Fraction
    minimizer: Union[LatticeDirection, AxisMultiple]


def gh_capacity_toric4(domain: MomentDomain2D, k: int) -> CapacityReport:
    """k-th capacity of a 4-dimensional convex toric domain.

    Minimum of h(l) = max_{v in Omega} <v, (l, k - l)> over l = 0..k, in
    closed form.  On real l in [0, k], h(l) = max_v k*y + l*(x - y) is
    convex with slope x - y at the supporting vertex, which moves along
    the boundary as l grows while y - x falls strictly.  On the edge
    (x1, y1) -> (x2, y2) where the boundary meets y = x (y1 > x1 and
    y2 <= x2), (l, k - l) is normal at l* = k*(y1 - y2)/(x2 - x1 + y1 - y2),
    which lies in [0, k] and is k on a final vertical drop.  Below l* the
    support is at or before (x1, y1), where the slope is negative; above
    it, at or after (x2, y2), where it is >= 0.  So l* is the smallest
    real minimizer, and the smallest integer one is floor(l*) or
    floor(l*) + 1 <= k: two lattice supports over the one common
    denominator, compared as integers, O(log V) exact work, ties going to
    the lexicographically smallest pair.  Only the value is a Fraction.
    """
    if type(k) is not int or k < 1:
        raise ValueError("k must be a positive integer")
    j = _near_diagonal(domain)  # the floor is scale-free, so it reads the lattice without its denominator
    (x1, x2), (y1, y2) = domain._xs[j - 1:j + 1], domain._ys[j - 1:j + 1]
    floor = k * (y1 - y2) // (x2 - x1 + y1 - y2)
    h, l = min((_lattice_support(domain, l, k - l), l) for l in range(floor, min(floor + 2, k + 1)))
    return CapacityReport(Fraction(h, domain._denominator), LatticeDirection(l, k - l))


def gh_spectrum_ellipsoid(e: EllipsoidSpec, k: int) -> CapacityReport:
    """k-th entry (1-indexed) of {i*a : i>=1} merged with {j*b : j>=1}.

    The merged multiset is sorted non-decreasing with repetition.  The
    entry is located by bisection on the counting function, so k up to
    10**6 and far beyond stays cheap.  On a value tie the a-multiple is
    reported first.
    """
    if e.dim != 2:
        raise ValueError("the spectrum path is defined for 4-dimensional ellipsoids")
    if type(k) is not int or k < 1:
        raise ValueError("k must be a positive integer")
    a, b = e.axes
    common = a.denominator * b.denominator
    big_a = a.numerator * b.denominator   # a = big_a / common
    big_b = b.numerator * a.denominator
    lo, hi = min(big_a, big_b), k * min(big_a, big_b)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid // big_a + mid // big_b >= k:
            hi = mid
        else:
            lo = mid + 1
    value = Fraction(lo, common)
    first_in_tie = k - 1 == (lo - 1) // big_a + (lo - 1) // big_b  # a-multiples lead a tie
    if first_in_tie and lo % big_a == 0:
        minimizer = AxisMultiple(axis=0, multiple=lo // big_a)
    else:
        minimizer = AxisMultiple(axis=1, multiple=lo // big_b)
    return CapacityReport(value=value, minimizer=minimizer)


def find_k_equal_diagonal(e: EllipsoidSpec) -> int:
    """Smallest k with spectrum value exactly k * diagonal(E(a, b)).

    Writing b/a = p/q in lowest terms, k * diagonal is a multiple of a or
    b only if (p + q) | k, since gcd(p, p + q) = gcd(q, p + q) = 1; at
    k = p + q it is p*a = q*b, exactly the k-th spectrum entry.  So the
    answer is p + q, in O(1).
    """
    if e.dim != 2:
        raise ValueError("defined for 4-dimensional ellipsoids")
    a, b = e.axes
    n, m = b.numerator * a.denominator, b.denominator * a.numerator  # b/a = n/m
    return (n + m) // math.gcd(n, m)  # p + q, as p = n/g and q = m/g for g = gcd(n, m)


# ---------------------------------------------------------------------------
# Lagrangian capacity of the shapes with a known value


@dataclass(frozen=True)
class ProjectiveSpace:
    n: int


@dataclass(frozen=True)
class Cylinder:
    """Unit ball factor B^{2k}(1) times C^m."""

    k: int
    m: int


@dataclass(frozen=True)
class Polydisk:
    """B^2(1) x B^2(r_1) x ... x B^2(r_m) with every r_i >= 1."""

    radii: tuple[Fraction, ...]


@dataclass(frozen=True)
class LowerBound:
    """A certified lower bound; equality is not claimed."""

    value: Fraction


Shape = Union[ProjectiveSpace, EllipsoidSpec, Cylinder, Polydisk, MomentDomain2D]


def lagrangian_capacity(shape: Shape) -> Union[Fraction, LowerBound]:
    """Lagrangian capacity for the shapes where it is known exactly.

    An ellipsoid answers with its diagonal when it is 4-dimensional or a
    ball ``ball(c, n)``, whose diagonal is c/n.  A moment polygon, a
    generic convex toric domain, only gets the diagonal as a lower bound,
    so it returns a tagged LowerBound rather than a bare number.
    """
    if isinstance(shape, ProjectiveSpace):
        if shape.n < 1:
            raise UnsupportedShape("projective space dimension must be >= 1")
        return Fraction(1, shape.n + 1)
    if isinstance(shape, EllipsoidSpec):
        if shape.dim != 2 and shape.axes[0] != shape.axes[-1]:
            raise UnsupportedShape("only 4-dimensional ellipsoids and balls have a known value here")
        return diagonal(shape)
    if isinstance(shape, Cylinder):
        if shape.k < 1 or shape.m < 0:
            raise UnsupportedShape("cylinder needs k >= 1 and m >= 0")
        return Fraction(1, shape.k)
    if isinstance(shape, Polydisk):
        radii = tuple(as_rational(r) for r in shape.radii)
        if not radii or any(r < 1 for r in radii):
            raise UnsupportedShape("polydisk factors must all have capacity >= 1")
        return Fraction(1)
    if isinstance(shape, MomentDomain2D):
        return LowerBound(diagonal(shape))
    raise UnsupportedShape(f"no known Lagrangian capacity for {type(shape).__name__}")


# ---------------------------------------------------------------------------
# Closed-form curve counts


def gw_tangency_count(n: int) -> int:
    """Count of lines through a point with maximal tangency order: (n-1)!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.factorial(n - 1)


def torus_descendant(k: int, classes: Sequence[Sequence[int]]) -> int:
    """Descendant count on the torus: (k-2)! when the classes cancel, else 0."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(classes) != k:
        raise LengthMismatch(f"expected {k} classes, got {len(classes)}")
    dims = {len(c) for c in classes}
    if len(dims) != 1:
        raise LengthMismatch("all classes must have the same dimension")
    dim = dims.pop()
    if all(sum(c[i] for c in classes) == 0 for i in range(dim)):
        return math.factorial(k - 2)
    return 0
