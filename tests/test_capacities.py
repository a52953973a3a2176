"""Capacity computations against brute-force oracles."""
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricap.moment_domain import EllipsoidSpec, _lattice_support, ball, diagonal, make_polygon_domain
from toricap.capacities import (
    AxisMultiple,
    Cylinder,
    LengthMismatch,
    LowerBound,
    Polydisk,
    ProjectiveSpace,
    UnsupportedShape,
    find_k_equal_diagonal,
    gh_capacity_toric4,
    gh_spectrum_ellipsoid,
    gw_tangency_count,
    lagrangian_capacity,
    torus_descendant,
)
from toricap.rounding_reeb import capacity_via_spectrum, round_domain, support_smooth
import toricap.capacities


def merged_multiples(a, b, count):
    """Oracle: materialize the first ``count`` entries of the sorted
    multiset {i*a} union {j*b}, each as (value, axis, multiple) with the
    a-multiple (axis 0) first on a tie."""
    entries = [(i * a, 0, i) for i in range(1, count + 1)] + [(j * b, 1, j) for j in range(1, count + 1)]
    return sorted(entries)[:count]


def toric_min_max(domain, k):
    """Oracle: direct O(k*V) scan over the k+1 pairs, recomputing the
    support in integers after clearing denominators; returns the minimum
    and the smallest l attaining it."""
    scale = math.lcm(*(c.denominator for p in domain.vertices for c in p))
    points = [(int(x * scale), int(y * scale)) for x, y in domain.vertices]
    value, l = min((max(l * x + (k - l) * y for x, y in points), l) for l in range(k + 1))
    return Fraction(value, scale), l


def bisected_entry(a, b, k):
    """Oracle: the k-th merged multiple by bisection on the counting function
    c//A + c//B, in units where a = A and b = B are integers, as
    (value, axis, multiple) with the a-multiple (axis 0) first on a tie."""
    common, big_a, big_b = a.denominator * b.denominator, a.numerator * b.denominator, b.numerator * a.denominator
    lo, hi = min(big_a, big_b), k * min(big_a, big_b)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid // big_a + mid // big_b >= k:
            hi = mid
        else:
            lo = mid + 1
    if k - 1 == (lo - 1) // big_a + (lo - 1) // big_b and lo % big_a == 0:
        return Fraction(lo, common), 0, lo // big_a
    return Fraction(lo, common), 1, lo // big_b


positive_rationals = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


def random_ellipsoid(rng, cap=50):
    a = Fraction(rng.randint(1, cap), rng.randint(1, cap))
    b = Fraction(rng.randint(1, cap), rng.randint(1, cap))
    return EllipsoidSpec((min(a, b), max(a, b)))


class TestToricPath:
    def test_e12_k3(self, tri12):
        report = gh_capacity_toric4(tri12, 3)
        assert report.value == 2
        assert report.minimizer.as_pair() == (2, 1)

    def test_ball_closed_form(self, tri11):
        for k in range(1, 51):
            assert gh_capacity_toric4(tri11, k).value == math.ceil(k / 2)

    def test_k1_gives_min_extent(self, square, pentagon, tri12):
        for domain in (square, pentagon, tri12):
            expected = min(domain.x_extent, domain.y_extent)
            assert gh_capacity_toric4(domain, 1).value == expected

    def test_tie_breaks_lexicographically(self, tri11):
        report = gh_capacity_toric4(tri11, 7)
        assert report.value == 4
        assert report.minimizer.as_pair() == (3, 4)

    def test_matches_direct_min_max(self, pentagon, square):
        for domain in (pentagon, square):
            for k in range(1, 21):
                assert gh_capacity_toric4(domain, k).value == toric_min_max(domain, k)[0]

    @staticmethod
    def assert_matches_scan(domain, k):
        value, l = toric_min_max(domain, k)
        report = gh_capacity_toric4(domain, k)
        assert (report.value, report.minimizer.as_pair()) == (value, (l, k - l)), (domain, k)

    def test_bisection_matches_scan_on_random_polygons(self, concave_polygon):
        rng = random.Random(37)
        for _ in range(200):
            domain = concave_polygon(rng)
            for k in rng.sample(range(1, 101), 30):
                self.assert_matches_scan(domain, k)

    def test_bisection_matches_scan_on_tie_heavy_shapes(self, square, tri11):
        shapes = [
            square,
            tri11,  # the whole boundary has slope -1
            make_polygon_domain([(0, 2), (1, 2), (2, 1), (2, 0)]),  # a slope -1 edge
            make_polygon_domain([(0, 3), (2, 2), (3, 1), (3, 0)]),  # slope -1 edge, vertical drop
            make_polygon_domain([(0, 3), (2, 2), (3, 0)]),  # vertex on the diagonal
            make_polygon_domain([(0, 1), (5, 0)]),  # a single edge
            make_polygon_domain([(0, 3), (2, 3), (2, 0)]),  # drop top above the diagonal
            make_polygon_domain([(0, 1), (3, 1), (3, 0)]),  # drop top below the diagonal
            make_polygon_domain([(0, 4), (1, 3), (3, 0)]),  # slope -1 edge ending off the diagonal
        ]
        for domain in shapes:
            for k in [*range(1, 41), 999, 1000, 1001, 2048, 3000]:
                self.assert_matches_scan(domain, k)

    def test_bisection_matches_scan_near_the_diagonal(self, polygon_near_diagonal):
        rng = random.Random(41)
        for _ in range(100):
            domain = polygon_near_diagonal(rng)
            for k in [*range(1, 9), *rng.sample(range(9, 3001), 3)]:
                self.assert_matches_scan(domain, k)

    def test_support_calls_are_logarithmic_in_k(self, monkeypatch, tri11, pentagon, square):
        calls = 0

        def counting_support(domain, p, q):
            nonlocal calls
            calls += 1
            return _lattice_support(domain, p, q)

        monkeypatch.setattr(toricap.capacities, "_lattice_support", counting_support)
        for domain in (tri11, pentagon, square):
            for k in (1, 2, 3, 7, 1000, 10**5, 10**9):  # logarithmic at worst, two at most
                calls = 0
                gh_capacity_toric4(domain, k)
                assert 1 <= calls <= 2, (domain, k, calls)

    def test_monotone_in_k(self, pentagon, square, tri12):
        for domain in (pentagon, square, tri12):
            values = [gh_capacity_toric4(domain, k).value for k in range(1, 31)]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_monotone_in_domain(self, tri11, square):
        assert square.includes_domain(tri11)
        for k in range(1, 31):
            assert gh_capacity_toric4(tri11, k).value <= gh_capacity_toric4(square, k).value

    def test_scaling(self, pentagon):
        c = Fraction(5, 7)
        scaled = pentagon.scaled(c)
        for k in range(1, 21):
            assert gh_capacity_toric4(scaled, k).value == c * gh_capacity_toric4(pentagon, k).value


class TestSpectrumPath:
    def test_e12_first_five(self, e12):
        values = [gh_spectrum_ellipsoid(e12, k).value for k in range(1, 6)]
        assert values == [1, 2, 2, 3, 4]

    def test_round_ball_repetition(self, e11):
        for k in range(1, 41):
            assert gh_spectrum_ellipsoid(e11, k).value == math.ceil(k / 2)

    def test_matches_merge_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            e = random_ellipsoid(rng, cap=20)
            expected = merged_multiples(e.axes[0], e.axes[1], 40)
            reports = [gh_spectrum_ellipsoid(e, k) for k in range(1, 41)]
            assert [r.value for r in reports] == [value for value, _, _ in expected]
            assert [(r.minimizer.axis, r.minimizer.multiple) for r in reports] == [entry[1:] for entry in expected]

    def test_minimizer_descriptor(self, e12):
        r3 = gh_spectrum_ellipsoid(e12, 3)
        assert isinstance(r3.minimizer, AxisMultiple)
        axis = e12.axes[r3.minimizer.axis]
        assert axis * r3.minimizer.multiple == r3.value

    def test_closed_form_matches_bisection(self):
        # a = b, b = 2a, coprime integer and rational axes, and 40-bit axes,
        # each at every k to 300 and at sampled k up to 10**6
        rng = random.Random(31)
        big = [Fraction(rng.randint(2**39, 2**40)) for _ in range(4)] + [Fraction(2**40 - 87, 2**40 - 93)]
        axes = [(a, a) for a in (Fraction(1), Fraction(3, 7), big[0])]
        axes += [(a, 2 * a) for a in (Fraction(1), Fraction(5, 3), big[1])]
        axes += [(Fraction(2), Fraction(3)), (Fraction(5), Fraction(13)), (Fraction(3, 4), Fraction(5, 6))]
        axes += [tuple(sorted(pair)) for pair in ((big[2], big[3]), (big[4], big[0]), (big[1], Fraction(1)))]
        axes += [tuple(sorted((Fraction(rng.randint(1, 2**40), rng.randint(1, 2**20)),
                               Fraction(rng.randint(1, 2**40), rng.randint(1, 2**20))))) for _ in range(8)]
        for a, b in axes:
            e = EllipsoidSpec((a, b))
            for k in [*range(1, 301), *(rng.randint(301, 10**6) for _ in range(50)), 10**6 - 1, 10**6]:
                report = gh_spectrum_ellipsoid(e, k)
                assert (report.value, report.minimizer.axis, report.minimizer.multiple) == bisected_entry(a, b, k), (a, b, k)

    def test_large_k_is_fast(self, e12):
        assert gh_spectrum_ellipsoid(e12, 10**6).value == Fraction(666667)

    @settings(max_examples=150)
    @example(Fraction(1), Fraction(2), 30, Fraction(1))
    @given(positive_rationals, positive_rationals, st.integers(1, 40), positive_rationals)
    def test_cross_oracle_with_toric(self, a, b, k, c):
        # the toric min-max on E(a, b)'s triangle is the ellipsoid's
        # spectrum, and scaling the axes by c scales both by exactly c
        e = EllipsoidSpec((min(a, b), max(a, b)))
        value = gh_spectrum_ellipsoid(e, k).value
        assert gh_capacity_toric4(e.simplex_domain(), k).value == value
        scaled = EllipsoidSpec(tuple(c * axis for axis in e.axes))
        assert gh_spectrum_ellipsoid(scaled, k).value == gh_capacity_toric4(scaled.simplex_domain(), k).value == c * value


NOT_A_POSITIVE_INT = "^k must be a positive integer$"


@pytest.mark.parametrize(
    "function, shape, args, message",
    [
        (capacity_via_spectrum, "rounded", (True,), NOT_A_POSITIVE_INT),
        (support_smooth, "rounded", (1.5, 0.5), r"^direction \(1\.5, 0\.5\) "),
        (support_smooth, "rounded", (True, 1), r"^direction \(True, 1\) "),
        (support_smooth, "rounded", (1, 2.0), r"^direction \(1, 2\.0\) "),
        (gh_capacity_toric4, "polygon", (True,), NOT_A_POSITIVE_INT),
        (gh_capacity_toric4, "polygon", (2.0,), NOT_A_POSITIVE_INT),
        (gh_capacity_toric4, "polygon", ("3",), NOT_A_POSITIVE_INT),
        (gh_spectrum_ellipsoid, "ellipsoid", (True,), NOT_A_POSITIVE_INT),
        (gh_spectrum_ellipsoid, "ellipsoid", (2.5,), NOT_A_POSITIVE_INT),
        (gh_spectrum_ellipsoid, "ellipsoid", ("3",), NOT_A_POSITIVE_INT),
    ],
)
def test_orders_must_be_ints(tri12, e12, function, shape, args, message):
    # bools, floats and strings are rejected as sft_ledger rejects them,
    # by type, not taken as 1 or failing deep inside with a TypeError
    target = round_domain(tri12, 1e-3, 1.0 / 32.0) if shape == "rounded" else {"polygon": tri12, "ellipsoid": e12}[shape]
    with pytest.raises(ValueError, match=message):
        function(target, *args)


class TestEqualDiagonalIndex:
    def test_examples(self):
        assert find_k_equal_diagonal(EllipsoidSpec((Fraction(1), Fraction(2)))) == 3
        assert find_k_equal_diagonal(EllipsoidSpec((Fraction(1), Fraction(1)))) == 2
        assert find_k_equal_diagonal(EllipsoidSpec((Fraction(2), Fraction(3)))) == 5

    def test_identity_holds_at_returned_k(self):
        rng = random.Random(29)
        for _ in range(40):
            e = random_ellipsoid(rng, cap=12)
            k = find_k_equal_diagonal(e)
            assert gh_spectrum_ellipsoid(e, k).value == k * diagonal(e)
            for smaller in range(1, k):
                assert gh_spectrum_ellipsoid(e, smaller).value != smaller * diagonal(e)

    def test_smallest_k_is_p_plus_q(self):
        rng = random.Random(31)
        for _ in range(40):
            e = random_ellipsoid(rng, cap=12)
            ratio = e.axes[1] / e.axes[0]
            assert find_k_equal_diagonal(e) == ratio.numerator + ratio.denominator

    def test_near_one_ratio_is_immediate(self):
        e = EllipsoidSpec((Fraction(1), Fraction(1000001, 1000000)))
        assert find_k_equal_diagonal(e) == 2000001


class TestLagrangianCapacity:
    def test_ball(self):
        assert lagrangian_capacity(ball(1, 3)) == Fraction(1, 3)
        assert lagrangian_capacity(ball(Fraction(5, 2), 5)) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_ball_is_capacity_over_n(self, n):
        # c_L(B^{2n}(c)) = c/n (Cieliebak-Mohnke), the diagonal of the ball
        for c in (Fraction(1), Fraction(7, 3), Fraction(1, 1000)):
            assert lagrangian_capacity(ball(c, n)) == c / n

    def test_projective_space(self):
        assert lagrangian_capacity(ProjectiveSpace(n=2)) == Fraction(1, 3)
        assert lagrangian_capacity(ProjectiveSpace(n=1)) == Fraction(1, 2)

    def test_ellipsoid4_equals_diagonal(self):
        assert lagrangian_capacity(EllipsoidSpec((Fraction(3), Fraction(6)))) == 2
        with pytest.raises(UnsupportedShape):
            lagrangian_capacity(EllipsoidSpec((Fraction(1), Fraction(2), Fraction(3))))
        with pytest.raises(UnsupportedShape):
            lagrangian_capacity(EllipsoidSpec((Fraction(1), Fraction(1), Fraction(2))))

    def test_cylinder(self):
        assert lagrangian_capacity(Cylinder(k=1, m=4)) == 1
        assert lagrangian_capacity(Cylinder(k=3, m=0)) == Fraction(1, 3)

    def test_polydisk(self):
        assert lagrangian_capacity(Polydisk(radii=(Fraction(1), Fraction(7, 2)))) == 1
        with pytest.raises(UnsupportedShape):
            lagrangian_capacity(Polydisk(radii=(Fraction(1, 2),)))

    @pytest.mark.parametrize("make, error", [
        (lambda: ProjectiveSpace(True), UnsupportedShape),
        (lambda: ProjectiveSpace("3"), UnsupportedShape),
        (lambda: ProjectiveSpace(0), UnsupportedShape),
        (lambda: Cylinder(True, 0), UnsupportedShape),
        (lambda: Cylinder(1, 1.5), UnsupportedShape),
        (lambda: Cylinder(1, -1), UnsupportedShape),
        (lambda: Polydisk("12"), TypeError),
        (lambda: Polydisk(()), UnsupportedShape),
        (lambda: Polydisk((True,)), TypeError),
        (lambda: Polydisk(("1/2",)), UnsupportedShape),
    ])
    def test_shapes_are_checked_at_construction(self, make, error):
        # before, lagrangian_capacity(ProjectiveSpace(True)) gave 1/2 and Polydisk("12") gave 1
        with pytest.raises(error):
            make()

    def test_only_a_high_dimensional_non_ball_or_an_unknown_type_is_unsupported(self):
        assert lagrangian_capacity(Polydisk(["1", "3/2"])) == 1
        assert lagrangian_capacity(EllipsoidSpec(("2",))) == 2
        for shape in (EllipsoidSpec((1, 1, 2)), (1, 2), "ball"):
            with pytest.raises(UnsupportedShape):
                lagrangian_capacity(shape)

    def test_generic_toric_lower_bound(self, square):
        assert lagrangian_capacity(square) == LowerBound(Fraction(1))

    def test_polygon_lower_bound_is_its_diagonal(self, polygon_near_diagonal):
        rng = random.Random(17)
        for _ in range(30):
            domain = polygon_near_diagonal(rng)
            assert lagrangian_capacity(domain) == LowerBound(diagonal(domain))


class TestCounts:
    def test_gw_tangency(self):
        assert gw_tangency_count(1) == 1
        assert gw_tangency_count(3) == 2
        assert gw_tangency_count(6) == 120
        for n in range(1, 9):
            assert gw_tangency_count(n) == math.factorial(n - 1)

    def test_descendant_zero_sum(self):
        assert torus_descendant(4, [(1, 0), (0, 1), (-1, 0), (0, -1)]) == 2
        assert torus_descendant(2, [(1, 1), (-1, -1)]) == 1

    def test_descendant_nonzero_sum(self):
        assert torus_descendant(3, [(1, 0), (0, 1), (0, 0)]) == 0

    @pytest.mark.parametrize("call, message", [
        (lambda: gw_tangency_count(True), "n must be an integer of at least 1, got True"),
        (lambda: gw_tangency_count(3.0), "n must be an integer of at least 1, got 3.0"),
        (lambda: torus_descendant(2.0, [(1,), (-1,)]), "k must be an integer of at least 2, got 2.0"),
        (lambda: torus_descendant(True, [(1,)]), "k must be an integer of at least 2, got True"),
    ])
    def test_orders_are_ints(self, call, message):
        # gw_tangency_count(True) gave 1, and a float failed inside math.factorial
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("classes, name", [("12", "descendant classes"), (["12", "34"], "a descendant class"),
                                               ([(1, 0), 5], "a descendant class")])
    def test_descendant_classes_are_lists_or_tuples(self, classes, name):
        # "12" failed with a bare TypeError, "unsupported operand"
        with pytest.raises(TypeError, match=f"^{name} must be a list or tuple, got "):
            torus_descendant(2, classes)

    def test_descendant_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            torus_descendant(3, [(1, 0), (-1, 0)])
        with pytest.raises(LengthMismatch):
            torus_descendant(2, [(1, 0), (-1,)])
