"""Exact geometry: construction, diagonal, support, inclusion, enclosure."""
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edges, random_concave_polygon
from test_capacities import toric_min_max
from toricap.moment_domain import (
    BadEndpoints,
    EllipsoidSpec,
    EnclosingEllipsoid,
    LatticeDirection,
    MomentDomain2D,
    NonConcave,
    NotMonotone,
    PreconditionViolated,
    ZeroDirection,
    ball,
    diagonal,
    diagonal_intersection_isolated,
    domain_from_json,
    domain_to_json,
    equal_diagonal_enclosing_ellipsoids,
    format_rational,
    included_in_ellipsoid,
    make_polygon_domain,
    support,
)
from toricap.capacities import gh_capacity_toric4


def diagonal_by_scan(domain, steps=200000):
    """Independent oracle: largest t on a fine rational grid with (t, t)
    in the region, refined until the bracketing interval is tiny."""
    hi = min(domain.x_extent, domain.y_extent)
    lo = Fraction(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if domain.contains_point((mid, mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


def random_polygon_with_diagonal_vertex(rng):
    """A random concave polygon with its diagonal point (t, t) as a vertex,
    so that its equal-diagonal enclosures form a nondegenerate interval;
    without edges right of the corner it drops vertically there."""
    slopes = set()
    while len(slopes) < 2:
        slopes = {Fraction(-rng.randint(0, 40), 8) for _ in range(rng.randint(2, 6))}
    slopes = sorted(slopes, reverse=True)
    split = rng.randint(1, len(slopes))
    t = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    left = [rng.randint(1, 5) for _ in slopes[:split]]  # widths, scaled to sum to t
    right = [rng.randint(1, 5) for _ in slopes[split:]]  # drops, scaled to sum to t
    x, y, vertices = t, t, [(t, t)]
    for slope, width in zip(reversed(slopes[:split]), reversed(left)):
        x, y = x - t * width / sum(left), y - slope * t * width / sum(left)
        vertices.insert(0, (x, y))
    x, y = t, t
    for slope, drop in zip(slopes[split:], right):
        x, y = x - t * drop / sum(right) / slope, y - t * drop / sum(right)
        vertices.append((x, y))
    if not right:
        vertices.append((t, 0))
    return make_polygon_domain(vertices)


def diagonal_by_edge_scan(domain):
    """Oracle: solve each edge's crossing with y = x in turn."""
    for (x1, y1), (x2, y2) in edges(domain):
        if x1 == x2:
            if y2 <= x1 <= y1:
                return x1
            continue
        s = (y2 - y1) / (x2 - x1)
        t = (y1 - s * x1) / (1 - s)
        if x1 <= t <= x2:
            return t
    raise AssertionError("no edge meets the diagonal")


def boundary_value_by_scan(domain, x):
    """Oracle: interpolate on the first non-vertical edge spanning x."""
    for (x1, y1), (x2, y2) in edges(domain):
        if x1 <= x <= x2 and x2 > x1:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    raise AssertionError("no edge spans x")


def contact_by_cross_products(domain, e):
    """Oracle: isolated unless an edge containing (d, d), found by a cross
    product and a bounding box, lies in the line x/a + y/b = 1."""
    (a, b), d = e.axes, diagonal(domain)
    for (x1, y1), (x2, y2) in edges(domain):
        cross = (x2 - x1) * (d - y1) - (y2 - y1) * (d - x1)
        on_edge = cross == 0 and min(x1, x2) <= d <= max(x1, x2) and min(y1, y2) <= d <= max(y1, y2)
        if on_edge and b * (x2 - x1) + a * (y2 - y1) == 0 and b * x1 + a * y1 == a * b:
            return False
    return True


def support_by_vertex_enumeration(domain, v):
    vx, vy = Fraction(v[0]), Fraction(v[1])
    return max(vx * x + vy * y for x, y in domain.vertices)


def included_by_vertex_scan(domain, e):
    """Oracle: every vertex satisfies x/a + y/b <= 1."""
    a, b = e.axes
    return all(x / a + y / b <= 1 for x, y in domain.vertices)


def enclosure_by_vertex_scan(domain):
    """Oracle: (lower, upper, lower_attained) of the feasible a-interval
    from the constraint a*(y - d) <= d*(y - x) of every vertex, or None
    when no a > d meets them all."""
    d = diagonal(domain)
    lower, upper, attained = d, None, False  # open at d unless a vertex bound is higher
    for x, y in domain.vertices:
        if y == d:
            if x > d:
                return None
            continue
        bound = d * (y - x) / (y - d)
        if y > d:
            upper = bound if upper is None else min(upper, bound)
        elif bound > lower:
            lower, attained = bound, True
    if upper is not None and (upper <= d or upper < lower):
        return None
    return lower, upper, attained


def touching_by_vertex_scan(domain, a, b):
    """Oracle: the vertices on the line x/a + y/b = 1, in boundary order."""
    return tuple((x, y) for x, y in domain.vertices if x / a + y / b == 1)


class CountingTuple(tuple):
    """A tuple that counts the items read through it."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def counting_copy(domain):
    """A copy of ``domain`` whose vertices and integer lattice count the
    reads made through them after construction."""
    counted = MomentDomain2D(domain.vertices)
    for name in ("vertices", "_xs", "_ys"):
        object.__setattr__(counted, name, CountingTuple(getattr(counted, name)))
    return counted


@pytest.fixture(scope="module")
def parabola():
    """A 100,001-vertex moment polygon: (i, N^2 - i^2) for i = 0..N with
    N = 10**5, whose slopes -(2i + 1) fall strictly."""
    n = 10**5
    return make_polygon_domain([(i, n * n - i * i) for i in range(n + 1)])


class TestConstruction:
    def test_simplices_and_square_are_valid(self, tri11, tri12, square):
        assert tri11.x_extent == 1 and tri11.y_extent == 1
        assert tri12.y_extent == 2
        assert square.vertices == ((0, 1), (1, 1), (1, 0))

    def test_too_few_points(self):
        with pytest.raises(BadEndpoints):
            make_polygon_domain([(0, 1)])

    def test_bad_first_vertex(self):
        with pytest.raises(BadEndpoints):
            make_polygon_domain([(1, 1), (2, 0)])

    def test_bad_last_vertex(self):
        with pytest.raises(BadEndpoints):
            make_polygon_domain([(0, 1), (1, 1)])

    def test_positive_slope_rejected(self):
        with pytest.raises(NotMonotone):
            make_polygon_domain([(0, 1), (1, 2), (2, 0)])

    def test_decreasing_x_rejected(self):
        with pytest.raises(NotMonotone):
            make_polygon_domain([(0, 2), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (2, 0)])

    def test_convex_kink_rejected(self):
        with pytest.raises(NonConcave):
            make_polygon_domain([(0, 2), (1, Fraction(1, 2)), (2, 0)])

    def test_collinear_edges_rejected(self):
        with pytest.raises(NonConcave):
            make_polygon_domain([(0, 1), (1, Fraction(1, 2)), (2, 0)])

    def test_interior_vertical_edge_rejected(self):
        with pytest.raises(NotMonotone):
            make_polygon_domain([(0, 2), (1, 1), (1, Fraction(1, 2)), (2, 0)])

    def test_ellipsoid_validation(self):
        with pytest.raises(ValueError):
            EllipsoidSpec((Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            EllipsoidSpec((Fraction(0), Fraction(1)))


class TestDiagonal:
    def test_ellipsoid_closed_form(self):
        assert diagonal(EllipsoidSpec((Fraction(3), Fraction(6)))) == 2
        for n in range(1, 11):
            assert diagonal(ball(1, n)) == Fraction(1, n)

    def test_ellipsoid_matches_reciprocal_sum(self):
        # the integer sum over the lcm of the axis numerators is exact
        for n in range(1, 11):
            for c in (Fraction(7, 3), Fraction(1, 1000), Fraction(10**6)):
                assert diagonal(ball(c, n)) == c / n
        rng = random.Random(59)
        for _ in range(300):
            axes = sorted(Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(rng.randint(1, 8)))
            assert diagonal(EllipsoidSpec(tuple(axes))) == 1 / sum(1 / a for a in axes)

    def test_square_diagonal_matches_membership_scan(self, square):
        lo, hi = diagonal_by_scan(square)
        d = diagonal(square)
        assert lo <= d <= hi
        assert d == 1

    def test_polygon_matches_scan(self, tri12, pentagon):
        for domain in (tri12, pentagon):
            lo, hi = diagonal_by_scan(domain)
            assert lo <= diagonal(domain) <= hi

    def test_cross_representation_equality(self):
        rng = random.Random(7)
        for _ in range(50):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            b = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            e = EllipsoidSpec((min(a, b), max(a, b)))
            assert diagonal(e) == diagonal(e.simplex_domain())

    def test_scaling(self, pentagon):
        c = Fraction(7, 3)
        assert diagonal(pentagon.scaled(c)) == c * diagonal(pentagon)

    def test_vertical_edge_domain(self):
        dom = make_polygon_domain([(0, 3), (1, Fraction(5, 2)), (1, 0)])
        assert diagonal(dom) == 1

    def test_matches_edge_scan_on_polygons_near_the_diagonal(self, polygon_near_diagonal):
        rng = random.Random(53)
        on_vertex = drop_above = drop_on = drop_below = 0
        for _ in range(800):
            domain = polygon_near_diagonal(rng)
            d = diagonal(domain)
            assert d == diagonal_by_edge_scan(domain), domain.vertices
            on_vertex += (d, d) in domain.vertices
            (x1, y1), (x2, y2) = domain.vertices[-2:]
            if x1 == x2:
                drop_above += y1 > x1
                drop_on += y1 == x1
                drop_below += y1 < x1
        assert min(on_vertex, drop_above, drop_on, drop_below) >= 30

    def test_boundary_value_matches_edge_scan(self, polygon_near_diagonal):
        rng = random.Random(59)
        for _ in range(200):
            domain = polygon_near_diagonal(rng)
            a, b = domain.x_extent, domain.y_extent
            xs = [x for x, _ in domain.vertices] + [a * Fraction(rng.randint(0, 97), 97) for _ in range(8)]
            for x in xs:
                assert domain.boundary_value(x) == boundary_value_by_scan(domain, x)
                for y in (Fraction(0), b * Fraction(rng.randint(0, 130), 100), boundary_value_by_scan(domain, x)):
                    expected = 0 <= y <= boundary_value_by_scan(domain, x)
                    assert domain.contains_point((x, y)) == expected
            for x in (-Fraction(1, 3), a + Fraction(1, 3)):
                assert not domain.contains_point((x, 0))
                with pytest.raises(ValueError):
                    domain.boundary_value(x)


class TestSupport:
    def test_examples(self, tri12, square):
        assert support(tri12, LatticeDirection(1, 1)) == 2
        assert support(square, (2, 3)) == 5

    def test_axis_direction_gives_extent(self, tri12, square, pentagon):
        for domain in (tri12, square, pentagon):
            assert support(domain, (1, 0)) == domain.x_extent
            assert support(domain, (0, 1)) == domain.y_extent

    @pytest.mark.parametrize("pair", [(True, 1), (1, True), (1.0, 1)])
    def test_lattice_direction_rejects_non_int_components(self, pair):
        # a bool is an int subclass, and LatticeDirection(True, 1) once equalled (1, 1)
        with pytest.raises(TypeError):
            LatticeDirection(*pair)

    def test_zero_direction_rejected(self, square):
        with pytest.raises(ZeroDirection):
            support(square, (0, 0))
        with pytest.raises(ZeroDirection):
            support(square, (-1, 1))

    def test_homogeneity(self, pentagon):
        rng = random.Random(11)
        for _ in range(100):
            v = (Fraction(rng.randint(0, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            assert support(pentagon, (c * v[0], c * v[1])) == c * support(pentagon, v)

    def test_monotone_under_inclusion(self, tri11, square):
        # the unit simplex sits inside the unit square
        assert square.includes_domain(tri11)
        rng = random.Random(13)
        for _ in range(100):
            v = (Fraction(rng.randint(0, 9)), Fraction(rng.randint(0, 9)))
            if v == (0, 0):
                v = (1, 1)
            assert support(tri11, v) <= support(square, v)

    def test_matches_enumeration(self, pentagon):
        rng = random.Random(17)
        for _ in range(50):
            v = (rng.randint(0, 8), rng.randint(1, 8))
            assert support(pentagon, v) == support_by_vertex_enumeration(pentagon, v)


class TestScanOracles:
    """The O(log V) searches give exactly what the O(V) vertex scans give."""

    @staticmethod
    def polygons(concave_polygon, polygon_near_diagonal):
        rng = random.Random(37)  # the polygons of TestToricPath's 200-polygon suite
        yield from (concave_polygon(rng) for _ in range(200))
        rng = random.Random(43)
        yield from (polygon_near_diagonal(rng) for _ in range(400))
        rng = random.Random(47)
        yield from (random_polygon_with_diagonal_vertex(rng) for _ in range(300))

    def test_support_matches_vertex_scan(self, concave_polygon, polygon_near_diagonal):
        rng = random.Random(67)
        for domain in self.polygons(concave_polygon, polygon_near_diagonal):
            directions = [(1, 0), (0, 1), (1, 1), LatticeDirection(rng.randint(0, 9), rng.randint(1, 9))]
            directions.append((Fraction(rng.randint(0, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
            for v in directions:
                pair = v.as_pair() if isinstance(v, LatticeDirection) else v
                assert support(domain, v) == support_by_vertex_enumeration(domain, pair), (domain.vertices, v)

    def test_inclusion_matches_vertex_scan(self, concave_polygon, polygon_near_diagonal):
        rng = random.Random(71)
        for domain in self.polygons(concave_polygon, polygon_near_diagonal):
            for _ in range(3):
                a, b = sorted(Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(2))
                e = EllipsoidSpec((a, b))
                assert included_in_ellipsoid(domain, e) == included_by_vertex_scan(domain, e)

    def test_enclosure_matches_vertex_scan(self, concave_polygon, polygon_near_diagonal):
        seen = Counter()
        for domain in self.polygons(concave_polygon, polygon_near_diagonal):
            search = equal_diagonal_enclosing_ellipsoids(domain)
            d = search.diagonal
            expected = enclosure_by_vertex_scan(domain)
            if expected is None:
                assert not search.feasible and search.pairs == (), domain.vertices
                seen["infeasible"] += 1
                continue
            assert (search.lower, search.upper, search.lower_attained) == expected, domain.vertices
            seen["corner" if (d, d) in domain.vertices else "edge"] += 1
            for p in search.pairs:
                touching = touching_by_vertex_scan(domain, p.x_axis, p.y_axis)
                assert p.touching_vertices == touching, (domain.vertices, p)
                seen[f"{len(touching)} touching"] += 1
                if p.x_axis <= p.y_axis:  # inclusion exactly on the boundary, and just off it
                    for c, inside in ((1, True), (Fraction(99, 100), False)):
                        e = EllipsoidSpec((c * p.x_axis, c * p.y_axis))
                        assert included_in_ellipsoid(domain, e) is included_by_vertex_scan(domain, e) is inside
                        if inside:
                            assert diagonal_intersection_isolated(domain, e) is (len(touching) < 2)
        for case in ("infeasible", "corner", "edge", "1 touching", "2 touching"):
            assert seen[case] >= 20, seen

    @pytest.mark.parametrize(
        "search",
        [
            lambda domain: support(domain, (1, 1)),
            lambda domain: support(domain, (3, 10**6)),
            lambda domain: support(domain, (Fraction(5, 7), 0)),
            lambda domain: included_in_ellipsoid(domain, EllipsoidSpec((Fraction(2 * 10**10), Fraction(2 * 10**10)))),
            equal_diagonal_enclosing_ellipsoids,
        ],
        ids=["support-diagonal", "support-steep", "support-axis", "inclusion", "enclosure"],
    )
    def test_searches_read_logarithmically_many_vertices(self, parabola, search):
        counted = counting_copy(parabola)
        assert search(counted) == search(parabola)
        steps = math.ceil(math.log2(len(parabola.vertices)))
        lattice_reads = counted._xs.reads + counted._ys.reads
        assert lattice_reads >= steps  # the bisection ran on the lattice
        assert lattice_reads + counted.vertices.reads <= 4 * steps + 4


class TestInclusion:
    def test_self_inclusion(self, tri11):
        assert included_in_ellipsoid(tri11, EllipsoidSpec((Fraction(1), Fraction(1))))

    def test_square_in_e22(self, square):
        assert included_in_ellipsoid(square, EllipsoidSpec((Fraction(2), Fraction(2))))

    def test_square_not_in_e12(self, square, e12):
        assert not included_in_ellipsoid(square, e12)

    def test_inclusion_bounds_support(self, square):
        e = EllipsoidSpec((Fraction(2), Fraction(2)))
        assert included_in_ellipsoid(square, e)
        tri = e.simplex_domain()
        rng = random.Random(19)
        for _ in range(100):
            v = (rng.randint(0, 6), rng.randint(0, 6))
            if v == (0, 0):
                continue
            assert support(square, v) <= support(tri, v)


class TestEnclosure:
    def test_simplex_encloses_itself(self, tri12):
        search = equal_diagonal_enclosing_ellipsoids(tri12)
        assert search.feasible
        pairs = {(p.x_axis, p.y_axis) for p in search.pairs}
        assert (Fraction(1), Fraction(2)) in pairs
        # the feasible interval collapses to that single ellipsoid
        assert search.lower == search.upper == 1

    def test_e22_triangle(self):
        tri = make_polygon_domain([(0, 2), (2, 0)])
        search = equal_diagonal_enclosing_ellipsoids(tri)
        assert {(p.x_axis, p.y_axis) for p in search.pairs} == {(Fraction(2), Fraction(2))}

    def test_square_has_enclosing_family(self, square):
        # every E(a, a/(a-1)) with a > 1 contains the unit square and has
        # diagonal 1; the vertex (1, 1) always sits on its boundary
        search = equal_diagonal_enclosing_ellipsoids(square)
        assert search.feasible and search.upper is None
        assert (Fraction(2), Fraction(2)) in {(p.x_axis, p.y_axis) for p in search.pairs}
        for p in search.pairs:
            assert (Fraction(1), Fraction(1)) in p.touching_vertices
            assert 1 / p.x_axis + 1 / p.y_axis == 1
            assert included_in_ellipsoid(
                square, EllipsoidSpec((min(p.x_axis, p.y_axis), max(p.x_axis, p.y_axis)))
            ) or p.x_axis > p.y_axis

    def test_pairs_are_the_interval_ends_and_the_symmetric_member(self, square, tri12):
        # the square's interval (1, oo) has neither end, so only a = b = 2;
        # tri12's interval is the single point a = 1, below 2d = 4/3
        assert [p.x_axis for p in equal_diagonal_enclosing_ellipsoids(square).pairs] == [2]
        assert [p.x_axis for p in equal_diagonal_enclosing_ellipsoids(tri12).pairs] == [1]
        # d = 1 and the interval is [20, oo), far above the diagonal
        far = equal_diagonal_enclosing_ellipsoids(make_polygon_domain([(0, 1), (1, 1), (20, 0)]))
        assert far.diagonal == 1 and far.lower == 20 and far.lower_attained and far.upper is None
        assert [(p.x_axis, p.y_axis) for p in far.pairs] == [(Fraction(20), Fraction(20, 19))]
        rng = random.Random(47)
        for _ in range(40):
            domain = random_polygon_with_diagonal_vertex(rng)
            search = equal_diagonal_enclosing_ellipsoids(domain)
            assert search.feasible and search.pairs
            d, upper = search.diagonal, search.upper
            expected = {search.lower} if search.lower_attained else set()
            if upper is not None:
                expected.add(upper)
            if search.lower <= 2 * d and (upper is None or 2 * d <= upper):
                expected.add(2 * d)
            assert [p.x_axis for p in search.pairs] == sorted(expected)
            for p in search.pairs:
                assert p.x_axis * p.y_axis / (p.x_axis + p.y_axis) == d
                assert all(x / p.x_axis + y / p.y_axis <= 1 for x, y in domain.vertices)
                assert set(p.touching_vertices) == {
                    (x, y) for x, y in domain.vertices if x / p.x_axis + y / p.y_axis == 1
                }

    def test_wide_rectangle_is_infeasible(self):
        # the vertex (3, 1) sits at the diagonal height y = d = 1 with
        # x > d, strictly beyond every line through (1, 1) of negative
        # slope, so no finite equal-diagonal ellipsoid can contain it
        dom = make_polygon_domain([(0, 1), (3, 1), (3, 0)])
        assert diagonal(dom) == 1
        search = equal_diagonal_enclosing_ellipsoids(dom)
        assert not search.feasible
        assert search.pairs == ()


class TestDiagonalContact:
    def test_shared_edge(self, tri12, e12):
        assert diagonal_intersection_isolated(tri12, e12) is False

    def test_isolated_touch(self):
        dom = make_polygon_domain([(0, 1), (Fraction(2, 3), Fraction(2, 3)), (1, 0)])
        e = EllipsoidSpec((Fraction(4, 3), Fraction(4, 3)))
        assert diagonal(dom) == diagonal(e) == Fraction(2, 3)
        assert diagonal_intersection_isolated(dom, e) is True

    def test_square_corner_is_isolated(self, square):
        e = EllipsoidSpec((Fraction(2), Fraction(2)))
        assert diagonal_intersection_isolated(square, e) is True

    def test_matches_cross_product_classifier(self, polygon_near_diagonal):
        rng = random.Random(61)
        seen = {False: 0, True: 0}
        for _ in range(400):
            domain = polygon_near_diagonal(rng)
            search = equal_diagonal_enclosing_ellipsoids(domain)
            members = [p.x_axis for p in search.pairs]
            if search.feasible and search.upper != search.lower:  # an interior member too
                members.append(search.lower + 1 if search.upper is None else (search.lower + search.upper) / 2)
            d = search.diagonal
            for a in members:
                b = a * d / (a - d)
                if a > b:
                    continue  # the ellipsoid's x-intercept is its smaller axis
                e = EllipsoidSpec((a, b))
                contact = diagonal_intersection_isolated(domain, e)
                assert contact is contact_by_cross_products(domain, e), (domain.vertices, e)
                seen[contact] += 1
        assert min(seen.values()) >= 30, seen

    def test_precondition_enforced(self, square, e12):
        with pytest.raises(PreconditionViolated):
            diagonal_intersection_isolated(square, e12)  # not included
        with pytest.raises(PreconditionViolated):
            # included but unequal diagonals
            big = EllipsoidSpec((Fraction(3), Fraction(3)))
            diagonal_intersection_isolated(square, big)


positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
polygons = st.builds(
    lambda rng, scale: random_concave_polygon(rng).scaled(scale), st.randoms(use_true_random=False), positive_rationals
)
ellipsoids = st.lists(positive_rationals, min_size=1, max_size=5).map(lambda axes: EllipsoidSpec(tuple(sorted(axes))))


class TestInterchange:
    def test_json_round_trip(self, square, tri12):
        for domain in (square, tri12):
            assert domain_from_json(domain_to_json(domain)) == domain
        e = EllipsoidSpec((Fraction(1, 2), Fraction(3)))
        assert domain_from_json(domain_to_json(e)) == e

    @settings(max_examples=100)
    @given(polygons | ellipsoids)
    def test_json_round_trip_of_any_domain(self, domain):
        assert domain_from_json(domain_to_json(domain)) == domain

    def test_rational_strings(self):
        dom = domain_from_json('{"type":"polygon","vertices":[["0","1"],["1","0"]]}')
        assert dom.vertices == ((0, 1), (1, 0))
        dom2 = domain_from_json('{"type":"polygon","vertices":[["0","0.5"],["1/2","0"]]}')
        assert dom2.y_extent == Fraction(1, 2)

    def test_format_rational(self):
        assert format_rational(Fraction(2)) == "2"
        assert format_rational(Fraction(2, 3)) == "2/3"


def validate_with_fractions(vertices):
    """Reference validator: the slope checks in Fraction arithmetic, with
    the exception classes and messages that make_polygon_domain promises.
    Returns the coerced vertices of a valid list."""
    pts = [(Fraction(p[0]), Fraction(p[1])) for p in vertices]
    if len(pts) < 2:
        raise BadEndpoints("at least two vertices are required")
    if pts[0][0] != 0:
        raise BadEndpoints("first vertex must have x = 0")
    if pts[-1][1] != 0:
        raise BadEndpoints("last vertex must have y = 0")
    if pts[0][1] <= 0:
        raise BadEndpoints("height b = f(0) must be positive")
    if pts[-1][0] <= 0:
        raise BadEndpoints("width a must be positive")
    prev_slope = None
    n_edges = len(pts) - 1
    for i, ((x1, y1), (x2, y2)) in enumerate(zip(pts, pts[1:])):
        dx, dy = x2 - x1, y2 - y1
        if dx < 0:
            raise NotMonotone("x-coordinates must be non-decreasing")
        if dx == 0:
            if dy == 0:
                raise NotMonotone("zero-length edge")
            if dy > 0:
                raise NotMonotone("vertical edge must descend")
            if i != n_edges - 1:
                raise NotMonotone("a vertical edge is only allowed as the final drop to the x-axis")
            continue
        slope = dy / dx
        if slope > 0:
            raise NotMonotone(f"edge {i} has positive slope {format_rational(slope)}")
        if prev_slope is not None and slope >= prev_slope:
            raise NonConcave(
                f"edge {i} slope {format_rational(slope)} does not strictly decrease "
                f"from {format_rational(prev_slope)}"
            )
        prev_slope = slope
    return tuple(pts)


def outcome(validate, vertices):
    """("ok", the vertices) or (the exception class, its message)."""
    try:
        result = validate(vertices)
    except ValueError as exc:
        return type(exc), str(exc)
    return "ok", getattr(result, "vertices", result)


F = Fraction
INVALID_VERTEX_LISTS = {
    "no-vertices": [],
    "one-vertex": [(0, 1)],
    "first-off-axis": [(1, 1), (2, 0)],
    "last-off-axis": [(0, 1), (1, 1)],
    "zero-height": [(0, 0), (1, 0)],
    "negative-height": [(0, -1), (1, 0)],
    "zero-width": [(0, 1), (0, 0)],
    "negative-width": [(0, 1), (-1, 0)],
    "decreasing-x": [(0, 2), (2, 1), (1, F(1, 2)), (3, 0)],
    "zero-length-edge": [(0, 1), (1, F(1, 2)), (1, F(1, 2)), (2, 0)],
    "ascending-vertical": [(0, 1), (1, F(1, 2)), (1, 1), (2, 0)],
    "non-final-vertical": [(0, 2), (1, 1), (1, F(1, 2)), (2, 0)],
    "positive-slope": [(0, 1), (1, 2), (2, 0)],
    "positive-slope-later": [(0, 3), (1, 2), (2, F(5, 2)), (3, 0)],
    "equal-slope": [(0, 2), (1, 1), (2, 0)],
    "equal-horizontal-slope": [(0, 1), (1, 1), (2, 1), (3, 0)],
    "convex-kink": [(0, 2), (1, F(1, 2)), (2, 0)],
    "mixed-denominators-equal-slope": [("0", "7/3"), ("1/7", "16/7"), ("2/7", "47/21"), ("1", "0")],
    "mixed-denominators-kink": [(0, "5/3"), ("2/11", "3/2"), ("3/5", "6/5"), ("7/9", "4/5"), ("13/6", 0)],
    "mixed-denominators-rise": [(0, "1/3"), ("1/7", "3/10"), ("5/11", "9/22"), ("3/2", 0)],
    "large-co-prime-denominators": [
        (0, F(3, 1000000007)), (F(1, 999999937), F(2, 1000000009)), (F(2, 999999929), F(3, 1000000021)),
        (F(5, 1000000033), 0),
    ],
}


class TestValidationParity:
    @pytest.mark.parametrize("vertices", INVALID_VERTEX_LISTS.values(), ids=INVALID_VERTEX_LISTS.keys())
    def test_invalid_lists_raise_the_reference_error(self, vertices):
        expected = outcome(validate_with_fractions, vertices)
        assert expected[0] != "ok"
        assert outcome(make_polygon_domain, vertices) == expected

    def test_mutated_polygons_match_the_reference(self, concave_polygon):
        # each mutation moves, repeats, splits or swaps vertices of a valid
        # polygon, so the corpus holds valid lists and every kind of failure
        rng, seen = random.Random(23), Counter()
        for _ in range(600):
            vertices = list(concave_polygon(rng).vertices)
            i = rng.randrange(len(vertices))
            kind = rng.choice(["keep", "nudge-x", "nudge-y", "repeat", "split", "swap", "lift"])
            if kind == "nudge-x":
                vertices[i] = (vertices[i][0] + F(rng.choice([-1, 1]), rng.randint(1, 9)), vertices[i][1])
            elif kind == "nudge-y":
                vertices[i] = (vertices[i][0], vertices[i][1] + F(rng.choice([-1, 1]), rng.randint(1, 9)))
            elif kind == "repeat":
                vertices.insert(i, vertices[i])
            elif kind == "split" and i:  # the midpoint of an edge: two equal slopes
                vertices.insert(i, tuple((a + b) / 2 for a, b in zip(vertices[i - 1], vertices[i])))
            elif kind == "swap" and i:
                vertices[i - 1], vertices[i] = vertices[i], vertices[i - 1]
            elif kind == "lift":
                vertices = [(x, y + F(1, 3)) for x, y in vertices]
            expected = outcome(validate_with_fractions, vertices)
            assert outcome(make_polygon_domain, vertices) == expected, vertices
            seen[expected[0] if expected[0] == "ok" else expected[0].__name__] += 1
        for case in ("ok", "BadEndpoints", "NotMonotone", "NonConcave"):
            assert seen[case] >= 20, seen


PRIMES_NEAR_1E9 = (999999929, 999999937, 1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093)
scales = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))  # from 1e-6 to 1e6


@st.composite
def lattice_polygons(draw):
    """A concave moment polygon whose slopes, widths and lift have co-prime
    denominators near 1e9, so its common denominator is a product of them,
    scaled by a rational from 1e-6 to 1e6.  Every other one is lifted so
    that a vertex sits on y = x; a graph that ends above the axis drops
    vertically there."""
    primes = draw(st.permutations(PRIMES_NEAR_1E9))
    n = draw(st.integers(1, 4))
    numerators = st.integers(0, 10**9)
    slopes = sorted({F(-draw(numerators), p) for p in primes[:n]}, reverse=True)
    graph = [(F(0), F(0))]
    for slope, p in zip(slopes, primes[n:]):
        dx = F(draw(numerators) + 1, p)
        graph.append((graph[-1][0] + dx, graph[-1][1] + slope * dx))
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(graph))
        lift = x - y
    else:
        lift = F(draw(numerators), primes[-1])
    lift = max(lift, -graph[-1][1]) or F(1, primes[-1])
    vertices = [(x, y + lift) for x, y in graph]
    if vertices[-1][1] > 0:
        vertices.append((vertices[-1][0], F(0)))
    return make_polygon_domain(vertices).scaled(draw(scales))


lattice_directions = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(any)
fraction_directions = st.tuples(
    st.builds(F, st.integers(0, 10**12), st.sampled_from(PRIMES_NEAR_1E9)),
    st.builds(F, st.integers(0, 10**12), st.sampled_from(PRIMES_NEAR_1E9)),
).filter(any)


class TestLatticeOracles:
    """The integer-lattice kernels against the Fraction oracles, on
    polygons whose common denominator runs to hundreds of digits."""

    @settings(max_examples=150)
    @given(lattice_polygons(), lattice_directions, fraction_directions)
    def test_support_matches_vertex_enumeration(self, domain, pair, fractions):
        for v in (LatticeDirection(*pair), pair, fractions):
            expected = support_by_vertex_enumeration(domain, v.as_pair() if isinstance(v, LatticeDirection) else v)
            assert support(domain, v) == expected

    @settings(max_examples=150)
    @given(lattice_polygons())
    def test_diagonal_matches_edge_scan(self, domain):
        assert diagonal(domain) == diagonal_by_edge_scan(domain)

    @settings(max_examples=100)
    @given(lattice_polygons(), st.integers(1, 40))
    def test_toric_capacity_matches_min_max(self, domain, k):
        report = gh_capacity_toric4(domain, k)
        assert (report.value, report.minimizer.l) == toric_min_max(domain, k)

    @settings(max_examples=150)
    @given(lattice_polygons())
    def test_enclosure_matches_vertex_scan(self, domain):
        search = equal_diagonal_enclosing_ellipsoids(domain)
        expected = enclosure_by_vertex_scan(domain)
        if expected is None:
            assert not search.feasible and search.pairs == ()
            return
        assert (search.lower, search.upper, search.lower_attained) == expected
        for p in search.pairs:
            assert p.touching_vertices == touching_by_vertex_scan(domain, p.x_axis, p.y_axis)

    @settings(max_examples=150)
    @given(lattice_polygons(), scales, lattice_directions, fraction_directions)
    def test_support_scales_exactly(self, domain, c, pair, fractions):
        for v in (pair, fractions):
            assert support(domain.scaled(c), v) == c * support(domain, v)

    @settings(max_examples=100)
    @given(lattice_polygons(), scales, st.integers(1, 10**9))
    def test_toric_capacity_scales_exactly(self, domain, c, k):
        report, scaled = gh_capacity_toric4(domain, k), gh_capacity_toric4(domain.scaled(c), k)
        assert (scaled.value, scaled.minimizer) == (c * report.value, report.minimizer)

    @settings(max_examples=150)
    @given(lattice_polygons(), scales)
    def test_enclosure_scales_exactly(self, domain, c):
        search, scaled = equal_diagonal_enclosing_ellipsoids(domain), equal_diagonal_enclosing_ellipsoids(domain.scaled(c))
        times_c = (lambda value: None if value is None else c * value)
        assert (scaled.diagonal, scaled.lower, scaled.upper, scaled.lower_attained) == (
            c * search.diagonal, times_c(search.lower), times_c(search.upper), search.lower_attained)
        assert scaled.pairs == tuple(
            EnclosingEllipsoid(c * p.x_axis, c * p.y_axis, tuple((c * x, c * y) for x, y in p.touching_vertices))
            for p in search.pairs
        )
