"""Exact-arithmetic moment domains and geometric predicates.

A 4-dimensional convex toric domain is described by its moment polygon:
the region under the graph of a piecewise-linear, concave, non-increasing
function f on [0, a] with f(0) = b and final height 0.  All arithmetic in
this module is exact, in integers and ``fractions.Fraction``; no floats enter.
Validation, ``support`` (and so ``included_in_ellipsoid``), the diagonal
and the enclosure search run in integers over one common denominator, as
does the toric capacity in ``capacities``, which compares two lattice
supports as integers; the enclosure compares its bounds by
cross-multiplying.  Each builds one ``Fraction`` per value it reports.
``boundary_value``, ``contains_point``, ``includes_domain`` and the
contact query's vertex count read the ``Fraction`` vertices.

Everything here is an immutable value; all operations are pure functions
and safe to call concurrently.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]


class DomainValidationError(ValueError):
    """Base class for moment-polygon invariant violations."""


class NonConcave(DomainValidationError):
    """Consecutive edge slopes fail to decrease strictly."""


class NotMonotone(DomainValidationError):
    """Boundary graph is not the graph of a non-increasing function."""


class BadEndpoints(DomainValidationError):
    """First vertex must sit on the y-axis, last on the x-axis, both extents positive."""


class ZeroDirection(ValueError):
    """Support direction must be nonzero with non-negative components."""


class PreconditionViolated(ValueError):
    """Operation called outside its documented precondition."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' or decimal strings to Fraction."""
    if type(value) is Fraction or isinstance(value, Fraction):  # the first test skips the ABC check
        return value  # immutable, so no copy is needed
    if isinstance(value, bool):
        raise TypeError(f"booleans are not accepted as rational numbers, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)  # strips surrounding whitespace itself
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise ValueError(f"not a rational number: {value!r}") from None
    if isinstance(value, float):
        raise TypeError("floats are not accepted in exact-arithmetic inputs; pass a string or Fraction")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(value: Fraction) -> str:
    """Canonical lowest-terms rendering: '2', '-1/3', '7/5'."""
    return str(Fraction(value))


Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LatticeDirection:
    """Non-negative integer direction (l, m), not both zero."""

    l: int
    m: int

    def __post_init__(self):
        if type(self.l) is not int or type(self.m) is not int:
            raise TypeError("lattice components must be integers")
        if self.l < 0 or self.m < 0:
            raise ZeroDirection("lattice direction components must be non-negative")
        if self.l == 0 and self.m == 0:
            raise ZeroDirection("lattice direction must be nonzero")

    def as_pair(self) -> tuple[int, int]:
        return (self.l, self.m)


@dataclass(frozen=True)
class MomentDomain2D:
    """Moment polygon of a compact convex 4-dimensional toric domain.

    ``vertices`` lists the boundary graph from (0, b) to the x-axis.  The
    x-coordinates increase strictly, except that a single final vertical
    edge (dropping to the axis at x = a) is allowed, so products such as
    the unit square are representable.  The region itself is
    {(x, y) : 0 <= x <= a, 0 <= y <= f(x)}.
    """

    vertices: tuple[Point, ...]
    # the vertices on one integer lattice, fixed at construction: vertex i
    # is (_xs[i], _ys[i]) / _denominator, the lcm of the vertex denominators
    _denominator: int = field(init=False, repr=False, compare=False)
    _xs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ys: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = math.lcm(*(c.denominator for p in self.vertices for c in p))
        object.__setattr__(self, "_denominator", scale)
        object.__setattr__(self, "_xs", tuple(x.numerator * (scale // x.denominator) for x, _ in self.vertices))
        object.__setattr__(self, "_ys", tuple(y.numerator * (scale // y.denominator) for _, y in self.vertices))

    @property
    def x_extent(self) -> Fraction:
        """Horizontal extent a."""
        return self.vertices[-1][0]

    @property
    def y_extent(self) -> Fraction:
        """Vertical extent b = f(0)."""
        return self.vertices[0][1]

    def boundary_value(self, x: Fraction) -> Fraction:
        """Exact value of the upper boundary function f at x in [0, a],
        on the edge ending at the first vertex with x-coordinate >= x."""
        x = as_rational(x)
        if x < 0 or x > self.x_extent:
            raise ValueError("x outside [0, a]")
        i = bisect_left(self.vertices, x, lo=1, key=itemgetter(0))
        (x1, y1), (x2, y2) = self.vertices[i - 1], self.vertices[i]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def contains_point(self, p: Sequence[RationalLike]) -> bool:
        x, y = as_rational(p[0]), as_rational(p[1])
        if x < 0 or y < 0 or x > self.x_extent:
            return False
        return y <= self.boundary_value(x)

    def scaled(self, c: RationalLike) -> "MomentDomain2D":
        c = as_rational(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return MomentDomain2D(tuple((c * x, c * y) for x, y in self.vertices))

    def includes_domain(self, other: "MomentDomain2D") -> bool:
        """Vertexwise inclusion test: every vertex of ``other`` lies in this domain."""
        return all(self.contains_point(p) for p in other.vertices)


@dataclass(frozen=True)
class EllipsoidSpec:
    """Ellipsoid with positive rational semi-axes a_1 <= ... <= a_n (capacity units)."""

    axes: tuple[Fraction, ...]

    def __post_init__(self):
        axes = tuple(as_rational(a) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise ValueError("ellipsoid needs at least one axis")
        if any(a <= 0 for a in axes):
            raise ValueError("ellipsoid axes must be positive")
        if any(axes[i] > axes[i + 1] for i in range(len(axes) - 1)):
            raise ValueError("ellipsoid axes must be sorted non-decreasing")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def simplex_domain(self) -> MomentDomain2D:
        """Moment polygon of a 4-dimensional ellipsoid: the triangle with
        x-intercept axes[0] and y-intercept axes[1]."""
        if self.dim != 2:
            raise ValueError("simplex_domain is defined for n = 2 only")
        a, b = self.axes
        return make_polygon_domain([(0, b), (a, 0)])


def ball(capacity: RationalLike, n: int) -> EllipsoidSpec:
    """Round ball of the given capacity in dimension 2n, as an ellipsoid."""
    c = as_rational(capacity)
    return EllipsoidSpec(tuple([c] * n))


def make_polygon_domain(vertices: Iterable[Sequence[RationalLike]]) -> MomentDomain2D:
    """Validate a vertex list and return the moment polygon.

    Raises BadEndpoints, NotMonotone, or NonConcave naming the violated
    invariant.  Slopes must be <= 0 and strictly decreasing; one vertical
    edge is permitted as the final drop to the x-axis.
    """
    pts = [(as_rational(p[0]), as_rational(p[1])) for p in vertices]
    if len(pts) < 2:
        raise BadEndpoints("at least two vertices are required")
    domain = MomentDomain2D(tuple(pts))
    xs, ys = domain._xs, domain._ys  # the same signs and slopes as the vertices
    if xs[0] != 0:
        raise BadEndpoints("first vertex must have x = 0")
    if ys[-1] != 0:
        raise BadEndpoints("last vertex must have y = 0")
    if ys[0] <= 0:
        raise BadEndpoints("height b = f(0) must be positive")
    if xs[-1] <= 0:
        raise BadEndpoints("width a must be positive")

    pdx, pdy = 0, 1  # the last finite edge; (0, 1) before the first, of slope +infinity
    n_edges = len(pts) - 1
    for i in range(n_edges):
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        if dx < 0:
            raise NotMonotone("x-coordinates must be non-decreasing")
        if dx == 0:
            if dy == 0:
                raise NotMonotone("zero-length edge")
            if dy > 0:
                raise NotMonotone("vertical edge must descend")
            if i != n_edges - 1:
                raise NotMonotone("a vertical edge is only allowed as the final drop to the x-axis")
            continue  # slope -infinity, strictly below any finite slope
        if dy > 0:
            raise NotMonotone(f"edge {i} has positive slope {format_rational(Fraction(dy, dx))}")
        if dy * pdx >= pdy * dx:  # dy/dx >= pdy/pdx, as dx > 0 and pdx >= 0
            raise NonConcave(
                f"edge {i} slope {format_rational(Fraction(dy, dx))} does not strictly decrease "
                f"from {format_rational(Fraction(pdy, pdx))}"
            )
        pdx, pdy = dx, dy
    return domain


def _near_diagonal(domain: MomentDomain2D) -> int:
    """j, the first vertex on or below y = x; j - 1, j and j + 1 are near it.

    Along the boundary y - x falls strictly, from b > 0 to -a < 0, so
    j >= 1 and the boundary meets y = x on the edge (x1, y1) -> (x2, y2)
    from j - 1 to j, with y1 > x1 and y2 <= x2; a vertex on the diagonal
    ends the edge it closes.
    """
    xs, ys = domain._xs, domain._ys
    return bisect_left(range(len(xs)), True, key=lambda i: ys[i] <= xs[i])


def _crossing(domain: MomentDomain2D, j: int) -> Fraction:
    """Where y = x meets the edge from vertex j - 1 to j, solved in lattice units."""
    (x1, x2), (y1, y2) = domain._xs[j - 1:j + 1], domain._ys[j - 1:j + 1]
    return Fraction(x2 * y1 - x1 * y2, domain._denominator * (x2 - x1 + y1 - y2))


def diagonal(domain: Union[MomentDomain2D, EllipsoidSpec]) -> Fraction:
    """sup{t > 0 : (t, ..., t) lies in the moment region}.

    For an ellipsoid the closed form (sum 1/a_i)^(-1) is used, summed in
    integers over the lcm of the axis numerators; for a polygon it is the
    crossing of y = x with the edge that ends at ``_near_diagonal``,
    (x2*y1 - x1*y2) / (x2 - x1 + y1 - y2).  The
    denominator is (y1 - x1) - (y2 - x2) > 0, and on a final vertical
    drop the formula gives x1.
    """
    if isinstance(domain, EllipsoidSpec):
        lcm = math.lcm(*(a.numerator for a in domain.axes))
        return Fraction(lcm, sum(a.denominator * (lcm // a.numerator) for a in domain.axes))
    return _crossing(domain, _near_diagonal(domain))


DirectionLike = Union[LatticeDirection, Sequence[RationalLike]]


def _direction(v: DirectionLike) -> tuple[int, int, int]:
    """Integers (p, q, r) with r > 0 and v = (p/r, q/r)."""
    p, q, r = (v.l, v.m, 1) if isinstance(v, LatticeDirection) else (v[0], v[1], 1)
    if type(p) is not int or type(q) is not int:  # an int pair needs no Fraction
        vx, vy = as_rational(p), as_rational(q)
        p, q, r = vx.numerator * vy.denominator, vy.numerator * vx.denominator, vx.denominator * vy.denominator
    if p < 0 or q < 0:
        raise ZeroDirection("direction components must be non-negative")
    if p == 0 and q == 0:
        raise ZeroDirection("direction must be nonzero")
    return p, q, r


def _lattice_support(domain: MomentDomain2D, p: int, q: int) -> int:
    """max p*X + q*Y over the lattice vertices (X, Y), for ints p, q >= 0 not both 0.

    The maximum is at a vertex.  Edge i changes p*X + q*Y by p*dX + q*dY,
    dX*(p + q*s_i) for slope s_i; slopes fall strictly and q >= 0, so
    "increment <= 0" holds from some edge on (a final vertical drop adds
    q*dY <= 0), and bisection finds that edge, whose start is the maximum.
    """
    xs, ys = domain._xs, domain._ys

    def non_increasing(i: int) -> bool:
        return p * (xs[i + 1] - xs[i]) <= q * (ys[i] - ys[i + 1])

    i = bisect_left(range(len(xs) - 1), True, key=non_increasing)
    return p * xs[i] + q * ys[i]


def support(domain: MomentDomain2D, v: DirectionLike) -> Fraction:
    """Exact maximum of <v, w> over the moment region, in O(log V); only the result is a Fraction."""
    p, q, r = _direction(v)
    return Fraction(_lattice_support(domain, p, q), r * domain._denominator)


def included_in_ellipsoid(domain: MomentDomain2D, e: EllipsoidSpec) -> bool:
    """True iff the region lies in x/a + y/b <= 1 (axes[0] is the x-intercept).

    The largest value of x/a + y/b over the region is exactly
    ``support(domain, (1/a, 1/b))``.
    """
    if e.dim != 2:
        raise ValueError("inclusion test requires a 4-dimensional ellipsoid")
    a, b = e.axes
    return support(domain, (1 / a, 1 / b)) <= 1


@dataclass(frozen=True)
class EnclosingEllipsoid:
    """One equal-diagonal enclosing ellipsoid, with the vertices that touch it."""

    x_axis: Fraction
    y_axis: Fraction
    touching_vertices: tuple[Point, ...]


@dataclass(frozen=True)
class EnclosureSearch:
    """Feasible x-intercepts a for equal-diagonal enclosing ellipsoids E(a, b(a)).

    The family is one-parameter: b(a) = a*d/(a - d) keeps the diagonal
    equal to d.  Inclusion of each polygon vertex is a linear constraint
    in a, so the feasible set is an exact interval.  ``pairs`` holds the
    ellipsoids at the attained lower end, at the finite upper end and at
    a = b = 2d when the interval contains it; it is empty exactly when the
    search is infeasible.
    """

    diagonal: Fraction
    lower: Optional[Fraction]         # None when infeasible
    upper: Optional[Fraction]         # None means unbounded above
    lower_attained: bool
    pairs: tuple[EnclosingEllipsoid, ...]

    @property
    def feasible(self) -> bool:
        return self.lower is not None


def equal_diagonal_enclosing_ellipsoids(domain: MomentDomain2D) -> EnclosureSearch:
    """All ellipsoids E(a, b) with X_Omega inside E and equal diagonals.

    Writing b = a*d/(a-d), each vertex (x, y) imposes a constraint linear
    in a, so the feasible a-set is computed exactly as an interval and no
    resolution is lost.  The line x/a + y/b = 1 passes through (d, d) on
    the boundary, so it supports the convex region iff it supports the
    region's tangent cone at (d, d), spanned by the edges there: the edge
    j - 1 -> j, j from ``_near_diagonal``, and j -> j + 1 when (d, d) is vertex
    j.  Only those three vertices constrain a, and the face the line
    touches holds (d, d), so its vertices are among them: O(log V) work.
    The reported pairs are the interval's attained lower endpoint, its
    finite upper endpoint and the a = b member 2d when it lies in the
    interval; each is feasible by construction, and a feasible interval
    always has one of them: without either end it is (d, oo), which holds
    2d.  The symmetric branch (x-intercept exceeding y-intercept) is part
    of the same parameter interval.  The bounds are int pairs compared by
    cross-multiplying, and each reported value is built as one Fraction.
    """
    j = _near_diagonal(domain)
    d = _crossing(domain, j)
    dn, dd, scale = d.numerator, d.denominator, domain._denominator
    # vertex (x, y) inside E(a, b(a)) <=> a*(y - d) <= d*(y - x), for a > d, and on its
    # boundary iff equal; in lattice units a*s <= t, s = dd*y - dn*scale and t = dn*(y - x)
    cuts = [(dd * y - dn * scale, dn * (y - x)) for x, y in zip(domain._xs[j - 1:j + 2], domain._ys[j - 1:j + 2])]
    lower, upper = (dn, dd), None  # bounds u/w on a as int pairs with w > 0; None is +infinity
    for s, t in cuts:
        if s > 0 and (upper is None or t * upper[1] < upper[0] * s):
            upper = (t, s)
        elif s < 0 and t * lower[1] < lower[0] * s:  # t/s > lower, as s < 0
            lower = (-t, -s)
        elif s == 0 > t:
            return EnclosureSearch(d, None, None, False, ())
    attained = lower[0] * dd > dn * lower[1]  # the infimum exceeds d; otherwise it is d, open
    if upper is not None and (upper[0] * dd <= dn * upper[1] or upper[0] * lower[1] < lower[0] * upper[1]):
        return EnclosureSearch(d, None, None, False, ())

    # the members, ascending with equal ones adjacent: the attained lower end, a = b = 2d, the upper end
    middle = lower[0] * dd <= 2 * dn * lower[1] and (upper is None or 2 * dn * upper[1] <= upper[0] * dd)
    ends = [e for e, kept in ((lower, attained), ((2 * dn, dd), middle), (upper, upper is not None)) if kept]
    members = [Fraction(u, w) for i, (u, w) in enumerate(ends) if not i or u * ends[i - 1][1] != ends[i - 1][0] * w]
    pairs, near = [], domain.vertices[j - 1:j + 2]
    for a in members:
        u, w = a.numerator, a.denominator
        touching = tuple(p for p, (s, t) in zip(near, cuts) if u * s == w * t)
        pairs.append(EnclosingEllipsoid(a, Fraction(u * dn, u * dd - dn * w), touching))  # b = a*d/(a - d)
    return EnclosureSearch(d, members[0] if attained else d, members[-1] if upper else None, attained, tuple(pairs))


def diagonal_intersection_isolated(domain: MomentDomain2D, e: EllipsoidSpec) -> bool:
    """True iff (d, d) is an isolated point of the boundaries' intersection.

    Precondition (PreconditionViolated otherwise): the domain is included
    in the ellipsoid and the diagonals agree, so (d, d) lies on the edge
    that ``diagonal`` solved on and on the line x/a + y/b = 1.  Returns
    False when an edge through (d, d) lies inside that line, True when
    every such edge crosses it transversally.  The line supports the
    region and slopes strictly decrease, so the vertices on it are one
    vertex or the two ends of a single edge: isolated iff fewer than two.
    """
    if e.dim != 2:
        raise PreconditionViolated("classification requires a 4-dimensional ellipsoid")
    if not included_in_ellipsoid(domain, e):
        raise PreconditionViolated("domain is not included in the ellipsoid")
    if diagonal(domain) != diagonal(e):
        raise PreconditionViolated("diagonals differ")
    (a, b), j = e.axes, _near_diagonal(domain)
    return sum(x / a + y / b == 1 for x, y in domain.vertices[j - 1:j + 2]) < 2


# ---------------------------------------------------------------------------
# JSON interchange


def domain_to_json(domain: Union[MomentDomain2D, EllipsoidSpec]) -> str:
    if isinstance(domain, MomentDomain2D):
        payload = {
            "type": "polygon",
            "vertices": [[format_rational(x), format_rational(y)] for x, y in domain.vertices],
        }
    else:
        payload = {"type": "ellipsoid", "axes": [format_rational(a) for a in domain.axes]}
    return json.dumps(payload)


def domain_from_json(text: str) -> Union[MomentDomain2D, EllipsoidSpec]:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"domain JSON must be an object, not {type(payload).__name__}")
    kind = payload.get("type")
    if kind == "polygon":
        return make_polygon_domain(payload["vertices"])
    if kind == "ellipsoid":
        return EllipsoidSpec(tuple(as_rational(a) for a in payload["axes"]))
    raise ValueError(f"unknown domain type {kind!r}")

