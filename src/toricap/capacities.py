"""Gutt-Hutchings and Lagrangian capacities, with two independent paths.

The toric path minimizes the support function over non-negative lattice
pairs summing to k in closed form, from the diagonal edge fixed when the
polygon is built: two candidate supports, each bisected on the polygon's
steepness table with its float ties settled exactly, compared as lattice
integers, and one Fraction for the value; the ellipsoid path reads the
k-th entry of the merged sequence of axis multiples.  Both are exact on
rational data and must agree on simplices, which the test suite enforces.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .moment_domain import (
    EllipsoidSpec,
    LatticeDirection,
    MomentDomain2D,
    _Frozen,
    _lattice_support,
    _sequence,
    as_rational,
    diagonal,
    support,  # noqa: F401 -- still a name of this module: the benchmark tracer wraps it
)


class UnsupportedShape(ValueError):
    """Shape not in the list with a known Lagrangian capacity."""


class LengthMismatch(ValueError):
    """Descendant input classes do not match the stated arity."""


class AxisMultiple(_Frozen):
    """Minimizer descriptor on the ellipsoid path: the multiple i*axes[axis]."""

    __slots__ = __match_args__ = ("axis", "multiple")
    axis: int
    multiple: int


class CapacityReport(_Frozen):
    __slots__ = __match_args__ = ("value", "minimizer")
    value: Fraction
    minimizer: LatticeDirection | AxisMultiple


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
    denominator, each bisected exactly on the steepness table in O(log V),
    compared as integers, ties going to the smaller l.  Only the value is a Fraction.
    """
    if type(k) is not int or k < 1:
        raise ValueError("k must be a positive integer")
    j = domain._diag  # the floor is scale-free, so it reads the lattice without its denominator
    (x1, x2), (y1, y2) = domain._xs[j - 1:j + 1], domain._ys[j - 1:j + 1]
    floor = k * (y1 - y2) // (x2 - x1 + y1 - y2)
    h, l = _lattice_support(domain, floor, k - floor), floor
    if floor < k and (right := _lattice_support(domain, floor + 1, k - floor - 1)) < h:  # a tie keeps the smaller l
        h, l = right, floor + 1
    return CapacityReport(Fraction(h, domain._denominator), LatticeDirection(l, k - l))


def gh_spectrum_ellipsoid(e: EllipsoidSpec, k: int) -> CapacityReport:
    """k-th entry (1-indexed) of {i*a : i>=1} merged with {j*b : j>=1}.

    The merged multiset is sorted non-decreasing with repetition; on a
    value tie the a-multiple is reported first.  In units where a = A and
    b = B are integers, N(c) = c//A + c//B counts the entries up to c, and
    the k-th entry is the least c with N(c) >= k, a multiple of A or of B.
    As N(c) <= c/A + c/B, it is at or above s = k*A*B/(A + B).  A multiple
    c = i*A >= s has N(c) = i + c//B > c/A + c/B - 1 >= k - 1, so N(c) >= k,
    and likewise for B: the entry is the smaller of the first multiples
    i*A and j*B at or above s, i = ceil(k*B/(A + B)) and
    j = ceil(k*A/(A + B)), in O(1).  Where they are equal, N is i + j, k or
    k + 1, and the a-multiple is the k-th entry iff i + j = k + 1.
    """
    a, b = e.axes_4d()
    if type(k) is not int or k < 1:
        raise ValueError("k must be a positive integer")
    common = a.denominator * b.denominator
    big_a = a.numerator * b.denominator   # a = big_a / common
    big_b = b.numerator * a.denominator
    i, j = -(-k * big_b // (big_a + big_b)), -(-k * big_a // (big_a + big_b))
    if i * big_a < j * big_b or (i * big_a == j * big_b and i + j > k):
        return CapacityReport(Fraction(i * big_a, common), AxisMultiple(0, i))
    return CapacityReport(Fraction(j * big_b, common), AxisMultiple(1, j))


def find_k_equal_diagonal(e: EllipsoidSpec) -> int:
    """Smallest k with spectrum value exactly k * diagonal(E(a, b)).

    Writing b/a = p/q in lowest terms, k * diagonal is a multiple of a or
    b only if (p + q) | k, since gcd(p, p + q) = gcd(q, p + q) = 1; at
    k = p + q it is p*a = q*b, exactly the k-th spectrum entry.  So the
    answer is p + q, in O(1).
    """
    a, b = e.axes_4d()
    n, m = b.numerator * a.denominator, b.denominator * a.numerator  # b/a = n/m
    return (n + m) // math.gcd(n, m)  # p + q, as p = n/g and q = m/g for g = gcd(n, m)


# ---------------------------------------------------------------------------
# Lagrangian capacity of the shapes with a known value


class ProjectiveSpace(_Frozen):
    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise UnsupportedShape("projective space dimension must be >= 1")
        self._store(n)


class Cylinder(_Frozen):
    """Unit ball factor B^{2k}(1) times C^m."""

    __slots__ = __match_args__ = ("k", "m")

    def __init__(self, k: int, m: int):
        if type(k) is not int or type(m) is not int or k < 1 or m < 0:
            raise UnsupportedShape("cylinder needs k >= 1 and m >= 0")
        self._store(k, m)


class Polydisk(_Frozen):
    """B^2(1) x B^2(r_1) x ... x B^2(r_m) with every r_i >= 1, the radii given as a list or tuple."""

    __slots__ = __match_args__ = ("radii",)

    def __init__(self, radii: Sequence[Fraction | int | str]):
        radii = tuple([as_rational(r) for r in _sequence(radii, "polydisk radii")])
        if not radii or any(r < 1 for r in radii):
            raise UnsupportedShape("polydisk factors must all have capacity >= 1")
        self._store(radii)


class LowerBound(_Frozen):
    """A certified lower bound; equality is not claimed."""

    __slots__ = __match_args__ = ("value",)
    value: Fraction


Shape = ProjectiveSpace | EllipsoidSpec | Cylinder | Polydisk | MomentDomain2D


def lagrangian_capacity(shape: Shape) -> Fraction | LowerBound:
    """Lagrangian capacity for the shapes where it is known exactly.

    An ellipsoid answers with its diagonal when it is 4-dimensional or a
    ball ``ball(c, n)``, whose diagonal is c/n; a moment polygon, a generic
    convex toric domain, gets the diagonal only as a tagged LowerBound.
    Each shape's constructor checks it, so UnsupportedShape is raised only
    for a non-ball ellipsoid above dimension 4 and for an unknown type.
    """
    if isinstance(shape, ProjectiveSpace):
        return Fraction(1, shape.n + 1)
    if isinstance(shape, EllipsoidSpec):
        if len(shape.axes) > 2 and shape.axes[0] != shape.axes[-1]:
            raise UnsupportedShape("only 4-dimensional ellipsoids and balls have a known value here")
        return diagonal(shape)
    if isinstance(shape, Cylinder):
        return Fraction(1, shape.k)
    if isinstance(shape, Polydisk):
        return Fraction(1)
    if isinstance(shape, MomentDomain2D):
        return LowerBound(diagonal(shape))
    raise UnsupportedShape(f"no known Lagrangian capacity for {type(shape).__name__}")


# ---------------------------------------------------------------------------
# Closed-form curve counts


def gw_tangency_count(n: int) -> int:
    """Count of lines through a point with maximal tangency order: (n-1)!."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    return math.factorial(n - 1)


def torus_descendant(k: int, classes: Sequence[Sequence[int]]) -> int:
    """Descendant count on the torus: (k-2)! when the classes cancel, else 0."""
    if type(k) is not int or k < 2:
        raise ValueError(f"k must be an integer of at least 2, got {k!r}")
    if len(_sequence(classes, "descendant classes")) != k:
        raise LengthMismatch(f"expected {k} classes, got {len(classes)}")
    dims = {len(_sequence(c, "a descendant class")) for c in classes}
    if len(dims) != 1:
        raise LengthMismatch("all classes must have the same dimension")
    dim = dims.pop()
    if all(sum(c[i] for c in classes) == 0 for i in range(dim)):
        return math.factorial(k - 2)
    return 0
