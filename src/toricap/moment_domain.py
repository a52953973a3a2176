"""Exact-arithmetic moment domains and geometric predicates.

A 4-dimensional convex toric domain is described by its moment polygon:
the region under the graph of a piecewise-linear, concave, non-increasing
function f on [0, a] with f(0) = b and final height 0.  All arithmetic in
this module is exact, in integers and ``fractions.Fraction``; floats only
index the support search, and every value and decision is exact.
Validation, ``support`` (and so ``included_in_ellipsoid``), the diagonal
and the enclosure search run in integers over one common denominator, as
does the toric capacity in ``capacities``, which compares two lattice
supports as integers; the enclosure cross-multiplies its bounds.  Each
builds one ``Fraction`` per value it reports.
``boundary_value``, ``contains_point``, ``includes_domain`` and the
contact query's vertex count read the ``Fraction`` vertices.

Everything here is an immutable value; all operations are pure functions
and safe to call concurrently.
"""
from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import itemgetter, sub

RationalLike = int | str | Fraction
DECIMAL_EXPONENT_LIMIT = 1000  # the largest |e| of a decimal string 'mEe' that as_rational reads: Fraction builds 10**|e|
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


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
    """Coerce ints, Fractions, and 'p/q' or decimal strings, |exponent| <= DECIMAL_EXPONENT_LIMIT, to Fraction.  A plain str,
    ASCII -?[0-9]+(/[0-9]+)? as format_rational writes, is read in integers, any other through Fraction: same value or error."""
    if type(value) is Fraction:  # tested first, and a subclass last, as isinstance(value, Fraction) is an ABC check
        return value  # immutable, so no copy is needed
    if isinstance(value, bool):
        raise TypeError(f"booleans are not accepted as rational numbers, got {value!r}")
    if isinstance(value, (int, str)):
        exponent = _EXPONENT.search(value) if isinstance(value, str) and ("e" in value or "E" in value) else None
        if exponent and (len(digits := exponent[1].replace("_", "").lstrip("0")) > 9 or int(digits or 0) > DECIMAL_EXPONENT_LIMIT):
            raise ValueError(f"decimal exponent out of range in {value!r}: |e| may be at most {DECIMAL_EXPONENT_LIMIT}")
        try:  # int() past the digit limit and a zero denominator raise here, as inside Fraction
            num, slash, den = value.partition("/") if type(value) is str and value.isascii() else ("", "", "")
            if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):  # in ASCII, isdigit() is 0-9 alone
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(value)  # strips surrounding whitespace itself
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise ValueError(f"not a rational number: {value!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted in exact-arithmetic inputs; pass a string or Fraction")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _sequence(value, name: str, size: int = 0) -> list | tuple:
    """value when it is a list or tuple, of ``size`` items if size is not 0; else a TypeError naming it."""
    if type(value) not in (list, tuple) or size and len(value) != size:
        raise TypeError(f"{name} must be a list or tuple{f' of {size} items' if size else ''}, got {value!r:.80}")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical lowest-terms rendering: '2', '-1/3', '7/5'."""
    return str(Fraction(value))


Point = tuple[Fraction, Fraction]


def _quotient(a: int, b: int) -> float:
    """a / b rounded to the nearest float, or +inf when b is 0 or the quotient overflows."""
    try:
        return a / b
    except (ZeroDivisionError, OverflowError):
        return math.inf


class _Frozen:
    """Base of the immutable value types.  ``__match_args__`` names the fields, which alone are
    compared (within one exact type), hashed and shown, as a frozen dataclass's are; ``__slots__``
    adds the caches built from them.  Setting or deleting any attribute raises AttributeError, and
    copy, deepcopy and pickle rebuild a value through its __init__."""

    __slots__ = __match_args__ = ()

    def __init_subclass__(cls):
        """Compile, as dataclasses compiles an __init__ and __eq__, the subclass's ``_values``, the
        tuple of its fields, and its ``_store``, which writes its arguments to the __slots__ in order
        through their descriptors; a subclass without an __init__ takes ``_store`` as its __init__."""
        slots, name = cls.__slots__, "_store" if "__init__" in vars(cls) else "__init__"
        setters, namespace = {f"__set_{slot}": getattr(cls, slot).__set__ for slot in slots}, {}
        body = "".join(f"\n    __set_{slot}(self, {slot})" for slot in slots)
        values = "".join(f"self.{field}, " for field in cls.__match_args__)
        exec(f"def {name}(self, {', '.join(slots)}):{body}\ndef _values(self):\n    return ({values})", setters, namespace)
        cls._store, cls._values = namespace[name], namespace["_values"]
        cls._store.__qualname__, cls._values.__qualname__ = f"{cls.__qualname__}.{name}", f"{cls.__qualname__}._values"
        if name == "__init__":
            cls.__init__ = cls._store

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__match_args__)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class LatticeDirection(_Frozen):
    """Non-negative integer direction (l, m), not both zero."""

    __slots__ = __match_args__ = ("l", "m")

    def __init__(self, l: int, m: int):
        if type(l) is not int or type(m) is not int:
            raise TypeError("lattice components must be integers")
        if l < 0 or m < 0:
            raise ZeroDirection("lattice direction components must be non-negative")
        if l == 0 and m == 0:
            raise ZeroDirection("lattice direction must be nonzero")
        self._store(l, m)

    def as_pair(self) -> tuple[int, int]:
        return (self.l, self.m)


class MomentDomain2D(_Frozen):
    """Moment polygon of a compact convex 4-dimensional toric domain.

    ``vertices`` lists the boundary graph from (0, b) to the x-axis as a
    tuple of ``Fraction`` pairs, each from a two-item list or tuple by ``as_rational``.
    The x-coordinates increase strictly, except that a single final
    vertical edge (dropping to the axis at x = a) is allowed, so products
    such as the unit square are representable, and slopes are <= 0 and
    strictly decreasing.  The constructor checks this on its lattice and
    raises BadEndpoints, NotMonotone or NonConcave naming the violated
    invariant, so a scaled, copied or unpickled polygon is valid too.  The
    region is {0 <= x <= a, 0 <= y <= f(x)}.
    """

    __match_args__ = ("vertices",)
    # fixed at construction: vertex i is (_xs[i], _ys[i]) / _denominator, over the lcm of the vertex
    # denominators; edge i's steepness (_ys[i] - _ys[i + 1]) / (_xs[i + 1] - _xs[i]) as a _quotient
    # float, _steep[i], indexes the support search; y - x falls strictly from b > 0 to -a < 0, so the
    # boundary meets y = x on the edge that ends at _diag, the first vertex on or below it, 1 <= _diag < V
    __slots__ = (*__match_args__, "_denominator", "_xs", "_ys", "_steep", "_diag")

    def __init__(self, vertices: Iterable[Sequence[RationalLike]]):
        vertices = tuple([(as_rational(x), as_rational(y)) for p in vertices for x, y in [_sequence(p, "a vertex", 2)]])
        if len(vertices) < 2:
            raise BadEndpoints("at least two vertices are required")
        scale = math.lcm(*(c.denominator for p in vertices for c in p))
        xs, ys = (tuple(c.numerator * (scale // c.denominator) for c in axis) for axis in zip(*vertices))
        if xs[0] != 0:  # the lattice has the vertices' signs and slopes
            raise BadEndpoints("first vertex must have x = 0")
        if ys[-1] != 0:
            raise BadEndpoints("last vertex must have y = 0")
        if ys[0] <= 0:
            raise BadEndpoints("height b = f(0) must be positive")
        if xs[-1] <= 0:
            raise BadEndpoints("width a must be positive")
        pdx, pdy = 0, 1  # the last finite edge; (0, 1) before the first, of slope +infinity
        n_edges = len(xs) - 1
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
        steep = tuple(map(_quotient, map(sub, ys, ys[1:]), map(sub, xs[1:], xs)))
        self._store(vertices, scale, xs, ys, steep, bisect_left(range(len(xs)), True, key=lambda i: ys[i] <= xs[i]))

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
        x, y = [as_rational(c) for c in _sequence(p, "a point", 2)]
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


class EllipsoidSpec(_Frozen):
    """Ellipsoid with positive rational semi-axes a_1 <= ... <= a_n (capacity units), given as a list or tuple."""

    __slots__ = __match_args__ = ("axes",)

    def __init__(self, axes: Sequence[RationalLike]):
        axes = tuple([as_rational(a) for a in _sequence(axes, "ellipsoid axes")])
        if not axes:
            raise ValueError("ellipsoid needs at least one axis")
        if any(a <= 0 for a in axes):
            raise ValueError("ellipsoid axes must be positive")
        if any(axes[i] > axes[i + 1] for i in range(len(axes) - 1)):
            raise ValueError("ellipsoid axes must be sorted non-decreasing")
        self._store(axes)

    def axes_4d(self) -> tuple[Fraction, Fraction]:
        """The axes (a, b) of a 4-dimensional ellipsoid; PreconditionViolated in any other dimension."""
        if len(self.axes) != 2:
            raise PreconditionViolated(f"a 4-dimensional ellipsoid is required, not one of dimension {2 * len(self.axes)}")
        return self.axes

    def simplex_domain(self) -> MomentDomain2D:
        """Moment polygon of a 4-dimensional ellipsoid: the triangle with
        x-intercept axes[0] and y-intercept axes[1]."""
        a, b = self.axes_4d()
        return MomentDomain2D([(0, b), (a, 0)])


def ball(capacity: RationalLike, n: int) -> EllipsoidSpec:
    """Round ball of the given capacity in dimension 2n, as an ellipsoid; n must be an int."""
    if type(n) is not int:
        raise TypeError(f"the ball's n must be an integer, got {n!r}")
    return EllipsoidSpec((as_rational(capacity),) * n)  # one coercion, not n


make_polygon_domain = MomentDomain2D  # the moment polygon of a vertex list, coerced and checked by its constructor


def diagonal(domain: MomentDomain2D | EllipsoidSpec) -> Fraction:
    """sup{t > 0 : (t, ..., t) lies in the moment region}.

    For an ellipsoid the closed form (sum 1/a_i)^(-1) is used, summed in
    integers over the lcm of the axis numerators; for a polygon it is the
    crossing of y = x with the edge that ends at vertex ``_diag``,
    (x2*y1 - x1*y2) / (x2 - x1 + y1 - y2), solved in lattice units.  The
    denominator is (y1 - x1) - (y2 - x2) > 0, and on a final vertical
    drop the formula gives x1.
    """
    if isinstance(domain, EllipsoidSpec):
        lcm = math.lcm(*(a.numerator for a in domain.axes))
        return Fraction(lcm, sum(a.denominator * (lcm // a.numerator) for a in domain.axes))
    j = domain._diag
    (x1, x2), (y1, y2) = domain._xs[j - 1:j + 1], domain._ys[j - 1:j + 1]
    return Fraction(x2 * y1 - x1 * y2, domain._denominator * (x2 - x1 + y1 - y2))


DirectionLike = LatticeDirection | Sequence[RationalLike]


def _direction(v: DirectionLike) -> tuple[int, int, int]:
    """Integers (p, q, r) with r > 0 and v = (p/r, q/r)."""
    p, q, r = (v.l, v.m, 1) if isinstance(v, LatticeDirection) else (*_sequence(v, "a direction", 2), 1)
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

    The maximum is at a vertex.  Edge i changes p*X + q*Y by p*dX - q*D, D
    its drop; the steepness D/dX rises strictly (to +oo on a final vertical
    drop), so "p*dX <= q*D", p/q <= D/dX, holds from some edge on, whose
    start is the maximum.  Int true division rounds correctly, so
    ``_quotient`` is monotone, +oo exactly when the rounded quotient is
    infinite: for t = ``_quotient(p, q)``, ``_steep[i] < t`` proves
    D/dX < p/q and ``_steep[i] > t`` proves D/dX > p/q.  So every edge before
    ``bisect_left(_steep, t)`` fails the test, every edge from
    ``bisect_right(_steep, t)`` on passes it, and only the edges whose floats
    tie with t are bisected by the exact integer test: O(log V) in all.
    """
    xs, ys, steep, t = domain._xs, domain._ys, domain._steep, _quotient(p, q)
    i, tied_end = bisect_left(steep, t), bisect_right(steep, t)
    if i < tied_end:
        i = bisect_left(range(tied_end), True, i, key=lambda e: p * (xs[e + 1] - xs[e]) <= q * (ys[e] - ys[e + 1]))
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
    a, b = e.axes_4d()
    return support(domain, (1 / a, 1 / b)) <= 1


class EnclosingEllipsoid(_Frozen):
    """One equal-diagonal enclosing ellipsoid, with the vertices that touch it."""

    __slots__ = __match_args__ = ("x_axis", "y_axis", "touching_vertices")
    x_axis: Fraction
    y_axis: Fraction
    touching_vertices: tuple[Point, ...]


class EnclosureSearch(_Frozen):
    """Feasible x-intercepts a for equal-diagonal enclosing ellipsoids E(a, b(a)).

    The family is one-parameter: b(a) = a*d/(a - d) keeps the diagonal
    equal to d.  Inclusion of each polygon vertex is a linear constraint
    in a, so the feasible set is an exact interval.  ``pairs`` holds the
    ellipsoids at the attained lower end, at the finite upper end and at
    a = b = 2d when the interval contains it; it is empty exactly when the
    search is infeasible.
    """

    __slots__ = __match_args__ = ("diagonal", "lower", "upper", "lower_attained", "pairs")
    diagonal: Fraction
    lower: Fraction | None         # None when infeasible
    upper: Fraction | None         # None means unbounded above
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
    j - 1 -> j, j = ``_diag``, and j -> j + 1 when (d, d) is vertex
    j.  Only those three vertices constrain a, and the face the line
    touches holds (d, d), so its vertices are among them: O(1) work.
    The reported pairs are the interval's attained lower endpoint, its
    finite upper endpoint and the a = b member 2d when it lies in the
    interval; each is feasible by construction, and a feasible interval
    always has one of them: without either end it is (d, oo), which holds
    2d.  The symmetric branch (x-intercept exceeding y-intercept) is part
    of the same parameter interval.  The bounds are int pairs compared by
    cross-multiplying, and each reported value is built as one Fraction.
    """
    j, d = domain._diag, diagonal(domain)
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
    (a, b), j = e.axes_4d(), domain._diag
    if not included_in_ellipsoid(domain, e):
        raise PreconditionViolated("domain is not included in the ellipsoid")
    if diagonal(domain) != diagonal(e):
        raise PreconditionViolated("diagonals differ")
    return sum(x / a + y / b == 1 for x, y in domain.vertices[j - 1:j + 2]) < 2


# ---------------------------------------------------------------------------
# JSON interchange


def domain_to_json(domain: MomentDomain2D | EllipsoidSpec) -> str:
    if isinstance(domain, MomentDomain2D):
        payload = {
            "type": "polygon",
            "vertices": [[format_rational(x), format_rational(y)] for x, y in domain.vertices],
        }
    else:
        payload = {"type": "ellipsoid", "axes": [format_rational(a) for a in domain.axes]}
    return json.dumps(payload)


def _load_json(text: str, what: str) -> dict:
    """The JSON object text holds, what naming it in the ValueError for any other JSON value; the digit
    limit is named for an integer too long to convert (a plain ValueError there)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ValueError(f"a JSON integer has more than {sys.get_int_max_str_digits()} digits, the limit for "
                         "converting an integer; write a large value as a string") from None
    if type(payload) is not dict:
        raise ValueError(f"{what} JSON must be an object, not {type(payload).__name__}")
    return payload


def domain_from_json(text: str) -> MomentDomain2D | EllipsoidSpec:
    payload = _load_json(text, "domain")
    kind = payload.get("type")
    if kind == "polygon":
        return MomentDomain2D(_sequence(payload["vertices"], "polygon vertices"))
    if kind == "ellipsoid":
        return EllipsoidSpec(payload["axes"])
    raise ValueError(f"unknown domain type {kind!r}")

