"""Rounding construction, Gauss points, orbit families, and CZ splits."""
import bisect
import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from toricap import (
    LatticeDirection,
    ReebOrbitFamily,
    SlopeConditionUnreachable,
    TooManyFamilies,
    capacity_via_spectrum,
    gauss_point,
    gh_capacity_toric4,
    make_polygon_domain,
    orbit_families,
    reeb_angular_velocity,
    round_domain,
    split_family,
    support,
    support_smooth,
)
import toricap.rounding_reeb
from toricap.rounding_reeb import AxisPoint, _verify, boundary_polyline

TAU = 1e-3
V = 1.0 / 32.0


# Oracles: the soft-min evaluation written out per call, the kink scan for
# the shift, the Gauss point search with two independent bisections, the
# orbit-family scan that solves every direction of the search box, and the
# 1,025-point sweep of every boundary invariant with f read in exact
# Fractions.  The fast code must agree with them bit for bit, except that
# the shift may differ from the scan's by float noise; the vertex
# certificate in _verify must never accept what the sweep rejects, except
# for float noise in the gap check.

GAP_MESSAGE = "vertical gap exceeds the reported bound"


def oracle_value(smooth, x):
    vals = [ln.c + ln.s * x for ln in smooth.lines]
    lowest = min(vals)
    total = sum(math.exp(-(val - lowest) / smooth.tau) for val in vals)
    return smooth.shift + lowest - smooth.tau * math.log(total)


def oracle_derivative(smooth, x):
    vals = [ln.c + ln.s * x for ln in smooth.lines]
    lowest = min(vals)
    weights = [math.exp(-(val - lowest) / smooth.tau) for val in vals]
    total = sum(weights)
    return sum(w * ln.s for w, ln in zip(weights, smooth.lines)) / total


def oracle_shift(smooth):
    """tau * log(N) plus the largest dip of any line below a polygon vertex,
    every line evaluated at every vertex."""
    dips = (float(y) - min(c + s * float(x) for c, s in smooth.lines) for x, y in smooth.source.vertices)
    return smooth.tau * math.log(len(smooth.lines)) + max(0.0, *dips)


def oracle_gauss_point(smooth, d):
    """Two independent bisections for the ends of the level set g' = -l/m."""
    if d.l == 0 or d.m == 0:
        return None
    target = -d.l / d.m
    if not (oracle_derivative(smooth, smooth.x_max) < target < oracle_derivative(smooth, 0.0)):
        return None

    def bisect(keep_left):
        lo, hi = 0.0, smooth.x_max
        while hi - lo > 1e-12 * smooth.x_max:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if keep_left(oracle_derivative(smooth, mid)):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    x = 0.5 * (bisect(lambda s: s > target) + bisect(lambda s: s >= target))
    return (x, oracle_value(smooth, x))


def oracle_orbit_families(smooth, cutoff):
    """Every direction of the search box solved, the axis families added."""
    families = []
    a_ext, b_ext = smooth.x_max, oracle_value(smooth, 0.0)
    for n in range(1, int(cutoff / min(a_ext, b_ext)) + 2):
        for direction, action in (((n, 0), n * a_ext), ((0, n), n * b_ext)):
            if action <= cutoff * (1.0 + 1e-12):
                simple = LatticeDirection(*(min(c, 1) for c in direction))
                families.append(ReebOrbitFamily(LatticeDirection(*direction), None, action, n, simple))
    x_star = float(smooth.source.x_extent) / 2.0
    y_star = oracle_value(smooth, x_star)
    for l in range(1, int(cutoff / x_star) + 2):
        for m in range(1, int(cutoff / y_star) + 2):
            point = oracle_gauss_point(smooth, LatticeDirection(l, m))
            if point is None:
                continue
            action = l * point[0] + m * point[1]
            if action <= cutoff * (1.0 + 1e-12):
                g = math.gcd(l, m)
                families.append(
                    ReebOrbitFamily(LatticeDirection(l, m), point, action, g, LatticeDirection(l // g, m // g))
                )
    families.sort(key=lambda fam: (fam.action, fam.direction.as_pair()))
    return families


def exact_boundary_value(domain, vertex_xs, x):
    """domain.boundary_value(x), the same Fraction, with the edge found by
    bisection on the vertex abscissas instead of a scan."""
    i = max(bisect.bisect_left(vertex_xs, x), 1)
    (x1, y1), (x2, y2) = domain.vertices[i - 1], domain.vertices[i]
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def oracle_f(domain, vertex_xs, x):
    """f at a float x in [0, a], read exactly from the polygon."""
    x_frac = max(min(Fraction(x).limit_denominator(10**15), domain.x_extent), Fraction(0))
    return float(exact_boundary_value(domain, vertex_xs, x_frac))


def oracle_points(smooth, grid):
    xs = [smooth.x_max * i / grid for i in range(grid + 1)]
    return sorted(set(xs + [float(x) for x, _ in smooth.source.vertices]))


def oracle_verify(smooth, grid=1024, derivative=oracle_derivative):
    """The grid checks with f read exactly from the polygon in Fractions."""
    domain, v = smooth.source, smooth.v
    vertex_xs = [x for x, _ in domain.vertices]
    a, b = float(domain.x_extent), float(domain.y_extent)
    d0 = derivative(smooth, 0.0)
    if not (-v <= d0 < 0.0):
        raise SlopeConditionUnreachable(f"g'(0) = {d0:.6g} is outside [-v, 0) for v = {v:.6g}")
    d1 = derivative(smooth, smooth.x_max)
    if not (d1 < -1.0 / v):
        raise SlopeConditionUnreachable(f"g'(x_max) = {d1:.6g} is not below -1/v = {-1.0 / v:.6g}")
    if abs(oracle_value(smooth, 0.0) - b) > smooth.hausdorff_bound * (1.0 + 1e-9):
        raise SlopeConditionUnreachable("g(0) strays from b beyond the reported bound")
    g_end = oracle_value(smooth, smooth.x_max)
    if not (-1e-9 <= g_end <= smooth.hausdorff_bound * (1.0 + 1e-9)):
        raise SlopeConditionUnreachable("g(x_max) is not within the reported bound of 0")
    prev_slope = None
    for x in oracle_points(smooth, grid):
        slope = derivative(smooth, x)
        if slope >= 0.0:
            raise SlopeConditionUnreachable("g is not strictly decreasing")
        if prev_slope is not None and slope > prev_slope + 1e-9 * (1.0 + abs(prev_slope)):
            raise SlopeConditionUnreachable("g' fails to be non-increasing on the grid")
        prev_slope = slope
        if x <= a:
            fx = oracle_f(domain, vertex_xs, x)
            gx = oracle_value(smooth, x)
            if gx < fx - 1e-9 * (1.0 + abs(fx)):
                raise SlopeConditionUnreachable("containment failed: g dips below the polygon boundary")
            if gx - fx > smooth.shift * (1.0 + 1e-9) + 1e-12:
                raise SlopeConditionUnreachable(GAP_MESSAGE)


def oracle_gap_excess(smooth, grid=1024):
    """The largest amount by which g - f passes shift on the oracle's points."""
    domain = smooth.source
    vertex_xs = [x for x, _ in domain.vertices]
    return max(
        oracle_value(smooth, x) - oracle_f(domain, vertex_xs, x) - smooth.shift
        for x in oracle_points(smooth, grid)
        if x <= float(domain.x_extent)
    )


def verdict(check, smooth):
    """None if the check accepts, else the message it rejects with."""
    try:
        check(smooth)
    except SlopeConditionUnreachable as exc:
        return str(exc)
    return None


def assert_certificate_sound(smooth):
    """_verify accepts nothing the sweep oracle rejects, except a gap excess
    within a few ulp of the largest line term |c| + |s| * x_max: g - f <= shift
    holds exactly, so such an excess is rounding in the float line constants.
    Returns the verdicts of _verify and of the oracle."""
    certified, swept = verdict(_verify, smooth), verdict(oracle_verify, smooth)
    if certified is None and swept is not None:
        assert swept == GAP_MESSAGE
        line_scale = max(abs(c) + abs(s) * smooth.x_max for c, s in smooth.lines)
        assert 0.0 < oracle_gap_excess(smooth) <= 4 * math.ulp(line_scale)
    return certified, swept


class OracleView:
    """A rounded domain evaluated by the oracle's soft-min, for support_smooth."""

    def __init__(self, smooth):
        self.x_max = smooth.x_max
        self.smooth = smooth

    def value(self, x):
        return oracle_value(self.smooth, x)


def random_unit_polygon(rng, edges):
    """A random moment polygon with both extents 1: ``edges`` non-vertical
    edges with distinct rational slopes (the first one sometimes flat),
    integer widths before scaling, and sometimes a final vertical drop."""
    slopes = {Fraction(0)} if rng.random() < 0.2 else set()
    while len(slopes) < edges:
        slopes.add(Fraction(-rng.randint(1, 256), rng.randint(1, 16)))
    steps = [(rng.randint(1, 8), slope) for slope in sorted(slopes, reverse=True)]
    rise = -sum(dx * slope for dx, slope in steps)
    drop = rise * Fraction(rng.randint(1, 4), 4) if rng.random() < 0.3 else Fraction(0)
    if rise == 0:
        drop = Fraction(1)
    width, height = sum(dx for dx, _ in steps), rise + drop
    x, y = Fraction(0), height
    vertices = [(x, y / height)]
    for dx, slope in steps:
        x, y = x + dx, y + slope * dx
        vertices.append((x / width, y / height))
    if y:
        vertices.append((Fraction(1), Fraction(0)))
    return make_polygon_domain(vertices)


SCALES = (Fraction(1, 10**6), Fraction(1, 10**3), Fraction(10**3), Fraction(10**6))


def scaled_polygons():
    """The unit triangle, the unit square, a polygon with a nearly flat
    first edge and seeded random unit polygons."""
    rng = random.Random(61)
    fixed = [
        make_polygon_domain(vertices)
        for vertices in ([(0, 1), (1, 0)], [(0, 1), (1, 1), (1, 0)], [(0, 1), (1, Fraction(99, 100)), (2, 0)])
    ]
    return fixed + [random_unit_polygon(rng, edges) for edges in (2, 7, 40)]


@pytest.fixture(scope="module")
def rounded_tri11():
    return round_domain(make_polygon_domain([(0, 1), (1, 0)]), TAU, V)


@pytest.fixture(scope="module")
def rounded_tri12():
    return round_domain(make_polygon_domain([(0, 2), (1, 0)]), TAU, V)


@pytest.fixture(scope="module")
def rounded_pentagon():
    return round_domain(make_polygon_domain([(0, 2), (1, Fraction(3, 2)), (2, 0)]), TAU, V)


class TestRounding:
    def test_invariants_hold_on_fixtures(self, rounded_tri11, rounded_tri12, rounded_pentagon):
        for smooth in (rounded_tri11, rounded_tri12, rounded_pentagon):
            assert -smooth.v <= smooth.derivative(0.0) < 0.0
            assert smooth.derivative(smooth.x_max) < -1.0 / smooth.v
            assert abs(smooth.value(0.0) - float(smooth.source.y_extent)) <= smooth.hausdorff_bound
            assert 0.0 <= smooth.value(smooth.x_max) <= smooth.hausdorff_bound

    def test_hausdorff_bound_scales_with_tau(self):
        tri = make_polygon_domain([(0, 1), (1, 0)])
        bounds = [round_domain(tri, tau, V).hausdorff_bound for tau in (1e-2, 1e-3, 1e-4)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[1] / bounds[0] == pytest.approx(0.1, rel=1e-6)

    def test_containment_on_grid(self, rounded_pentagon):
        domain = rounded_pentagon.source
        a = float(domain.x_extent)
        for i in range(257):
            x = a * i / 256
            fx = float(domain.boundary_value(Fraction(x).limit_denominator(10**12)))
            assert rounded_pentagon.value(x) >= fx - 1e-9

    def test_derivative_approaches_edge_slopes(self):
        # away from the corners the boundary slope converges to the
        # polygon's edge slopes as tau shrinks
        tri = make_polygon_domain([(0, 2), (1, 0)])
        for tau, tol in ((1e-3, 1e-3), (1e-4, 1e-4)):
            smooth = round_domain(tri, tau, V)
            assert smooth.derivative(0.5) == pytest.approx(-2.0, abs=tol)

    def test_square_rounds_cleanly(self):
        square = make_polygon_domain([(0, 1), (1, 1), (1, 0)])
        smooth = round_domain(square, 1e-2, 0.1)
        assert smooth.x_max > 1.0  # the vertical drop needs a short extension
        assert smooth.value(1.0) >= 1.0 - 1e-9  # the corner (1, 1) stays inside

    def test_lengths_and_actions_scale_with_the_domain(self):
        # rounding c * Omega at c * tau gives c times every length and
        # action, up to 1e-13 of the domain's size; each rounding is
        # certified soundly against the sweep oracle
        for domain in scaled_polygons():
            for tau in (1e-2, 1e-3):
                base = round_domain(domain, tau, V)
                families = orbit_families(base, 3.0)
                capacities = [capacity_via_spectrum(base, k) for k in (1, 2, 5)]
                for scale in SCALES:
                    c = float(scale)
                    smooth = round_domain(domain.scaled(scale), c * tau, V)
                    assert assert_certificate_sound(smooth)[0] is None
                    scaled_families = orbit_families(smooth, c * 3.0)
                    assert [f.direction for f in scaled_families] == [f.direction for f in families]
                    pairs = [(smooth.hausdorff_bound, base.hausdorff_bound), (smooth.x_max, base.x_max)]
                    pairs += [(f.action, g.action) for f, g in zip(scaled_families, families)]
                    pairs += [(capacity_via_spectrum(smooth, k), value) for k, value in zip((1, 2, 5), capacities)]
                    for scaled, unit in pairs:
                        assert abs(scaled - c * unit) <= 1e-13 * c * max(1.0, unit)

    def test_shift_matches_the_kink_scan(self):
        # the shift comes from one support call; the scan agrees within the
        # float noise of the line terms that assert_certificate_sound allows
        for domain in scaled_polygons():
            for scale in SCALES:
                scaled = domain.scaled(scale)
                a = float(scaled.x_extent)
                for tau, v in itertools.product((1e-2 * a, 1e-3 * a, 1e-4 * a), (1.0 / 32.0, 0.25)):
                    smooth = round_domain(scaled, tau, v)
                    line_scale = max(abs(c) + abs(s) * smooth.x_max for c, s in smooth.lines)
                    assert abs(smooth.shift - oracle_shift(smooth)) <= 4 * math.ulp(line_scale)
                    assert smooth.hausdorff_bound == smooth.shift + (smooth.x_max - a)

    def test_one_support_call_per_rounding(self, monkeypatch):
        calls = 0
        real_support = toricap.rounding_reeb.support

        def counting_support(domain, v):
            nonlocal calls
            calls += 1
            return real_support(domain, v)

        monkeypatch.setattr(toricap.rounding_reeb, "support", counting_support)
        for domain in scaled_polygons():
            calls = 0
            round_domain(domain, TAU, V)
            assert calls == 1

    def test_small_domain_slope_floor_scales_with_width(self):
        # the slope floor tau / a is 10 here, far above v / 2
        tiny = make_polygon_domain([(0, Fraction(1, 1000)), (Fraction(1, 1000), 0)])
        with pytest.raises(SlopeConditionUnreachable, match="tau too large relative to v for a slope floor"):
            round_domain(tiny, 1e-2, V)

    def test_unreachable_parameters_raise(self):
        tri = make_polygon_domain([(0, 1), (1, 0)])
        with pytest.raises(SlopeConditionUnreachable):
            round_domain(tri, 0.5, 0.5)
        with pytest.raises(SlopeConditionUnreachable):
            round_domain(tri, 1e-3, 1.5)

    @pytest.mark.parametrize("size, tau", [(1, 1e-300), (10**12, 1e-6)])
    def test_tau_below_the_resolution_floor_names_the_floor(self, size, tau):
        # both once failed with a g'(0) message that blamed v
        tri = make_polygon_domain([(0, size), (size, 0)])
        with pytest.raises(SlopeConditionUnreachable) as info:
            round_domain(tri, tau, V)
        found = re.fullmatch(r"tau = (\S+) is below the float resolution floor (\S+) of this polygon", str(info.value))
        assert found and float(found[1]) == tau
        assert tau < float(found[2]) < 1e-12 * size  # a few ulps of the steep cap's span

    def test_concavity_of_derivative_samples(self, rounded_pentagon):
        xs = [rounded_pentagon.x_max * i / 512 for i in range(513)]
        slopes = [rounded_pentagon.derivative(x) for x in xs]
        assert all(s < 0 for s in slopes)
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-9 * (1 + abs(s0))
        assert slopes[-1] < slopes[0]

    def test_polyline_output(self, rounded_tri11):
        pts = boundary_polyline(rounded_tri11, samples=64)
        assert len(pts) == 64
        assert pts[0][0] == 0.0 and pts[-1][0] == pytest.approx(rounded_tri11.x_max)
        ys = [y for _, y in pts]
        assert all(y0 > y1 for y0, y1 in zip(ys, ys[1:]))


class TestGaussPoint:
    def test_symmetric_direction_on_round_ball(self, rounded_tri11):
        point = gauss_point(rounded_tri11, LatticeDirection(1, 1))
        assert point is not None
        x, y = point
        assert x == pytest.approx(0.5, abs=0.1)
        assert y == pytest.approx(0.5, abs=0.1)
        assert rounded_tri11.derivative(x) == pytest.approx(-1.0, abs=1e-6)

    def test_axis_direction_returns_none(self, rounded_tri11):
        assert gauss_point(rounded_tri11, LatticeDirection(1, 0)) is None
        assert gauss_point(rounded_tri11, LatticeDirection(0, 3)) is None

    def test_out_of_slope_range_returns_none(self):
        smooth = round_domain(make_polygon_domain([(0, 1), (1, 0)]), 1e-3, 0.25)
        # l/m = 1/100 is shallower than g'(0) >= -0.25 allows
        assert gauss_point(smooth, LatticeDirection(1, 100)) is None

    def test_action_equals_support(self, rounded_tri12):
        point = gauss_point(rounded_tri12, LatticeDirection(2, 1))
        assert rounded_tri12.derivative(point[0]) == pytest.approx(-2.0, abs=1e-6)
        action = 2 * point[0] + point[1]
        assert action == pytest.approx(support_smooth(rounded_tri12, 2, 1), abs=1e-11)
        # and within the perturbation budget of the exact support 2
        tol = rounded_tri12.hausdorff_bound * math.hypot(2, 1)
        assert abs(action - 2.0) <= 2 * tol

    def test_terminates_at_large_scale(self):
        # the bisection tolerance is relative to the width, so this stops as at unit scale
        big = 10**6
        smooth = round_domain(make_polygon_domain([(0, big), (big, 0)]), 10.0, V)
        x, y = gauss_point(smooth, LatticeDirection(1, 1))
        assert x == pytest.approx(big / 2, rel=1e-2) and y == pytest.approx(big / 2, rel=1e-2)
        assert smooth.derivative(x) == pytest.approx(-1.0, abs=1e-6)
        assert len(orbit_families(smooth, 3e6)) == 9


class TestReebRates:
    def test_round_ball_symmetric_point(self, rounded_tri11):
        point = gauss_point(rounded_tri11, LatticeDirection(1, 1))
        r1, r2 = reeb_angular_velocity(rounded_tri11, point)
        assert r1 == pytest.approx(r2, rel=1e-12)
        # rates are 2*pi/action; the action is 1 + O(hausdorff)
        action = point[0] + point[1]
        assert r1 == pytest.approx(2 * math.pi / action, rel=1e-12)
        assert abs(r1 - 2 * math.pi) <= 4 * math.pi * rounded_tri11.hausdorff_bound

    def test_axis_point_rejected(self, rounded_tri11):
        with pytest.raises(AxisPoint):
            reeb_angular_velocity(rounded_tri11, (0.0, rounded_tri11.value(0.0)))

    def test_rate_homogeneity(self, rounded_tri11):
        # rounding c*Omega at c*tau scales every length and action by c,
        # so the rates at the matching Gauss point scale by 1/c
        c = Fraction(37, 10)
        scaled = round_domain(rounded_tri11.source.scaled(c), float(c) * TAU, V)
        direction = LatticeDirection(1, 2)
        base = reeb_angular_velocity(rounded_tri11, gauss_point(rounded_tri11, direction))
        rates = reeb_angular_velocity(scaled, gauss_point(scaled, direction))
        assert rates[0] == pytest.approx(base[0] / float(c), rel=1e-9)
        assert rates[1] == pytest.approx(base[1] / float(c), rel=1e-9)


class TestOrbitFamilies:
    def test_round_ball_low_cutoff(self, rounded_tri11):
        fams = orbit_families(rounded_tri11, 1.05)
        dirs = [f.direction.as_pair() for f in fams]
        assert dirs == [(1, 0), (0, 1), (1, 1)]
        for f in fams:
            assert f.action == pytest.approx(1.0, abs=3 * rounded_tri11.hausdorff_bound)

    def test_e12_low_cutoff(self, rounded_tri12):
        fams = orbit_families(rounded_tri12, 1.5)
        assert [f.direction.as_pair() for f in fams] == [(1, 0)]

    def test_below_min_action_is_empty(self, rounded_tri11):
        assert orbit_families(rounded_tri11, 0.5) == []

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, -math.inf, 0.0])
    def test_non_finite_or_non_positive_cutoff_is_rejected(self, rounded_tri11, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            orbit_families(rounded_tri11, cutoff)

    def test_search_box_is_limited(self, monkeypatch, rounded_tri11):
        # tri11 at K = 1e5 once ran past 20 s; the limit fires before any solve
        monkeypatch.setattr(toricap.rounding_reeb, "gauss_point", None)
        with pytest.raises(TooManyFamilies, match=r"^cutoff 100000 needs 200001 x \d+ directions, above the limit of 100000$"):
            orbit_families(rounded_tri11, 1e5)
        monkeypatch.undo()
        cutoff = 3.0
        box = (int(cutoff / 0.5) + 1) * (int(cutoff / rounded_tri11.value(0.5)) + 1)
        monkeypatch.setattr(toricap.rounding_reeb, "FAMILY_LIMIT", box)
        assert orbit_families(rounded_tri11, cutoff) == oracle_orbit_families(rounded_tri11, cutoff)
        monkeypatch.setattr(toricap.rounding_reeb, "FAMILY_LIMIT", box - 1)
        with pytest.raises(TooManyFamilies):
            orbit_families(rounded_tri11, cutoff)

    def test_sorted_by_action(self, rounded_pentagon):
        fams = orbit_families(rounded_pentagon, 6.0)
        actions = [f.action for f in fams]
        assert actions == sorted(actions)

    def test_multiplicity_is_gcd_and_action_scales(self, rounded_tri12):
        fams = {f.direction.as_pair(): f for f in orbit_families(rounded_tri12, 9.0)}
        base = fams[(2, 1)]
        cover = fams[(4, 2)]
        assert base.multiplicity == 1 and cover.multiplicity == 2
        assert cover.underlying_simple.as_pair() == (2, 1)
        assert cover.action == pytest.approx(2 * base.action, rel=1e-9)

    def test_action_matches_support_of_rounded_domain(self, rounded_pentagon):
        for fam in orbit_families(rounded_pentagon, 8.0):
            if fam.point is None:
                continue
            l, m = fam.direction.as_pair()
            assert abs(fam.action - support_smooth(rounded_pentagon, l, m)) <= 1e-9 * (1 + fam.action)

    def test_support_perturbation_bound(self, rounded_pentagon):
        domain = rounded_pentagon.source
        rng = random.Random(41)
        for _ in range(100):
            l, m = rng.randint(0, 6), rng.randint(0, 6)
            if (l, m) == (0, 0):
                l = 1
            exact = float(support(domain, (l, m)))
            smooth_val = support_smooth(rounded_pentagon, l, m)
            assert 0 <= smooth_val - exact <= rounded_pentagon.hausdorff_bound * math.hypot(l, m) + 1e-9


class TestSplitAndCapacity:
    def test_cz_table(self):
        def split(l, m):
            g = math.gcd(l, m)
            family = ReebOrbitFamily(
                LatticeDirection(l, m), None, 1.0, g, LatticeDirection(l // g, m // g)
            )
            return split_family(family)

        assert (split(1, 0).elliptic_cz, split(1, 0).hyperbolic_cz) == (3, 2)
        assert (split(1, 1).elliptic_cz, split(1, 1).hyperbolic_cz) == (5, 4)
        assert (split(2, 3).elliptic_cz, split(2, 3).hyperbolic_cz) == (11, 10)

    def test_parity_invariant(self, rounded_pentagon):
        for fam in orbit_families(rounded_pentagon, 6.0):
            split = split_family(fam)
            assert split.elliptic_cz % 2 == 1
            assert split.elliptic_cz - split.hyperbolic_cz == 1

    def test_capacity_via_spectrum_converges(self):
        tri = make_polygon_domain([(0, 1), (1, 0)])
        for tau in (1e-2, 1e-3, 1e-4):
            smooth = round_domain(tri, tau, V)
            for k in range(1, 11):
                spectral = capacity_via_spectrum(smooth, k)
                exact = float(gh_capacity_toric4(tri, k).value)
                assert abs(spectral - exact) <= 2 * smooth.hausdorff_bound * k

    def test_capacity_via_spectrum_k1(self, rounded_tri12):
        value = capacity_via_spectrum(rounded_tri12, 1)
        assert value == pytest.approx(1.0, abs=2 * rounded_tri12.hausdorff_bound)


class TestAgainstOracles:
    """The vertex certificate, the shared bisection and the row walk give
    the outputs and verdicts of the oracles above."""

    @staticmethod
    def unverified(monkeypatch, domain, tau, v):
        monkeypatch.setattr(toricap.rounding_reeb, "_verify", lambda smooth: None)
        smooth = round_domain(domain, tau, v)
        monkeypatch.undo()
        return smooth

    def assert_matches_oracles(self, smooth, cutoff, k):
        """A sound verdict; if accepted, the same families and capacity as
        the oracles.  Returns the verdicts of _verify and of the oracle."""
        verdicts = assert_certificate_sound(smooth)
        if verdicts[0] is None:
            assert orbit_families(smooth, cutoff) == oracle_orbit_families(smooth, cutoff)
            view = OracleView(smooth)
            assert capacity_via_spectrum(smooth, k) == min(support_smooth(view, l, k - l) for l in range(k + 1))
        return verdicts

    def test_exact_boundary_value_is_boundary_value(self):
        rng = random.Random(59)
        for edges in (1, 7, 60):
            domain = random_unit_polygon(rng, edges)
            vertex_xs = [x for x, _ in domain.vertices]
            for x in vertex_xs + [Fraction(rng.randint(0, 1000), 1000) for _ in range(50)]:
                assert exact_boundary_value(domain, vertex_xs, x) == domain.boundary_value(x)

    def test_random_polygons(self, monkeypatch):
        rng = random.Random(53)
        verdicts = []
        for i in range(100):
            edges = round(200 ** ((i / 99) ** 2))
            domain = random_unit_polygon(rng, edges)
            smooth = self.unverified(monkeypatch, domain, (1e-2, 1e-3)[i % 2], V)
            certified, swept = self.assert_matches_oracles(smooth, rng.uniform(1.2, 3.0), rng.randint(1, 12))
            assert certified == swept  # the certificate's verdicts and messages are the sweep's here
            verdicts.append(certified)
        assert verdicts.count(None) >= 50

    def test_unit_square(self, monkeypatch):
        # vertical drop: x_max > a, and f(a) is the top of the drop
        square = make_polygon_domain([(0, 1), (1, 1), (1, 0)])
        for tau, v in ((1e-2, 0.1), (1e-3, V)):
            smooth = self.unverified(monkeypatch, square, tau, v)
            assert smooth.x_max > 1.0
            assert self.assert_matches_oracles(smooth, 6.0, 8) == (None, None)

    def test_million_triangle_at_fine_tau_rounds(self):
        # g - f sits within float noise of shift along the edge, and the
        # sweep's gap check once rejected this domain for that noise alone
        big = 10**6
        smooth = round_domain(make_polygon_domain([(0, big), (big, 0)]), 1e-3, V)
        assert assert_certificate_sound(smooth) == (None, GAP_MESSAGE)

    @staticmethod
    def square_at_coarse_tau():
        return round_domain(make_polygon_domain([(0, 1), (1, 1), (1, 0)]), 1e-2, 0.1)

    def test_each_certified_check_fires(self):
        smooth = self.square_at_coarse_tau()
        g0_slack = smooth.value(0.0) - 1.0  # g(0) - b, 2e-6 tighter here than g(x_max) - 0
        corner_slack = smooth.value(1.0) - 1.0  # about half of g0_slack
        variants = [
            ("containment failed", dataclasses.replace(smooth, shift=smooth.shift - g0_slack - 1e-7)),
            # only the top of the vertical drop falls outside
            ("containment failed", dataclasses.replace(smooth, shift=smooth.shift - corner_slack - 1e-7)),
            ("g'(0) = ", dataclasses.replace(smooth, v=-smooth.derivative(0.0) / 2)),
            ("g'(x_max) = ", dataclasses.replace(smooth, x_max=smooth.x_max / 2)),
        ]
        for prefix, variant in variants:
            message = verdict(_verify, variant)
            assert message is not None and message.startswith(prefix)
            assert message == verdict(oracle_verify, variant)

    def test_each_oracle_only_check_fires(self):
        # _verify leaves these to the construction, which cannot break them;
        # the sweep oracle still detects them on hand-broken domains
        smooth = self.square_at_coarse_tau()
        # g sits a further shift above where its reported shift puts it
        raised = dataclasses.replace(smooth, lines=tuple(ln._replace(c=ln.c + smooth.shift) for ln in smooth.lines))
        assert verdict(oracle_verify, raised) == GAP_MESSAGE

        # g' rises by 0.005 at x = 1/2, where it is about -0.01
        def bumped(smooth, x):
            return oracle_derivative(smooth, x) + (0.005 if x >= 0.5 else 0.0)

        message = verdict(lambda sm: oracle_verify(sm, derivative=bumped), smooth)
        assert message == "g' fails to be non-increasing on the grid"

    def test_gauss_point_split_branch(self, rounded_tri11):
        # far from the corners the other weights vanish against 1.0, so the
        # first midpoint already sits exactly at the target slope -1
        assert rounded_tri11.derivative(rounded_tri11.x_max / 2) == -1.0
        for l in (1, 2, 5):
            d = LatticeDirection(l, l)
            assert gauss_point(rounded_tri11, d) == oracle_gauss_point(rounded_tri11, d)

    def test_gauss_solves_follow_the_output(self, monkeypatch, rounded_tri11):
        calls = 0
        real_gauss_point = toricap.rounding_reeb.gauss_point

        def counting_gauss_point(smooth, d):
            nonlocal calls
            calls += 1
            return real_gauss_point(smooth, d)

        monkeypatch.setattr(toricap.rounding_reeb, "gauss_point", counting_gauss_point)
        cutoff = 40.0
        interior = [f for f in orbit_families(rounded_tri11, cutoff) if f.point is not None]
        m_max = int(cutoff / rounded_tri11.value(0.5)) + 1
        assert len(interior) > 1500
        # one solve per family kept, plus at most one past the cutoff per row
        assert calls <= len(interior) + m_max + 2
