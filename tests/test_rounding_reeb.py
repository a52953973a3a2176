"""Rounding construction, Gauss points, orbit families, and CZ splits."""
import bisect
import decimal
import functools
import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from toricap.moment_domain import LatticeDirection, make_polygon_domain, support
from toricap.capacities import gh_capacity_toric4
from toricap.rounding_reeb import (
    AxisPoint,
    Margins,
    ReebOrbitFamily,
    SlopeConditionUnreachable,
    SmoothDomain2D,
    TooManyFamilies,
    _edge_lines,
    _newton,
    _verify,
    boundary_polyline,
    capacity_via_spectrum,
    gauss_point,
    orbit_families,
    reeb_angular_velocity,
    round_domain,
    split_family,
    support_smooth,
)
import toricap.rounding_reeb
from conftest import edges, random_concave_polygon
from test_moment_domain import lattice_polygons

TAU = 1e-3
V = 1.0 / 32.0
FLOAT_MAX = Fraction(sys.float_info.max)


# Oracles: the soft-min evaluation written out per call, the kink scan for
# the shift, the Gauss point search with two independent bisections, the
# root of the log-odds form in 80-digit decimal, the orbit-family scan that solves every direction of the search box, the
# row scan with one Gauss solve per direction, the edge lines from integer
# ratios, the golden-section search for the support, the full-list log-odds
# solve, and the 1,025-point sweep of every boundary invariant with f read in
# exact Fractions.  The fast code
# must agree with them bit for bit, except that the shift may differ from
# the scan's by float noise, the Newton orbit families from the
# bisection's as assert_families_match allows, and the support from the
# golden-section search by 8 ulps; the vertex certificate in _verify must
# never accept what the sweep rejects, except for float noise in the gap
# check.

GAP_MESSAGE = "vertical gap exceeds the reported bound"


def replace(value, **changes):
    """value with the given fields changed, rebuilt through its constructor."""
    return type(value)(**{**{name: getattr(value, name) for name in value.__match_args__}, **changes})


# each oracle pass is one list over the (c, s) pairs; (lowest - val) / tau
# is -(val - lowest) / tau bit for bit, as negation is exact
def oracle_value(smooth, x):
    exp, tau = math.exp, smooth.tau
    vals = [c + s * x for c, s in smooth.lines]
    lowest = min(vals)
    total = sum([exp((lowest - val) / tau) for val in vals])
    return smooth.shift + lowest - tau * math.log(total)


def oracle_derivative(smooth, x):
    exp, tau = math.exp, smooth.tau
    vals = [c + s * x for c, s in smooth.lines]
    lowest = min(vals)
    weights = [exp((lowest - val) / tau) for val in vals]
    return sum([w * s for w, (_, s) in zip(weights, smooth.lines)]) / sum(weights)


def oracle_shift(smooth):
    """tau * log(N) plus the largest dip of any line below a polygon vertex,
    every line evaluated at every vertex."""
    dips = (float(y) - min(c + s * float(x) for c, s in smooth.lines) for x, y in smooth.source.vertices)
    return smooth.tau * math.log(len(smooth.lines)) + max(0.0, *dips)


def oracle_gauss_point(smooth, d):
    """Two independent bisections for the ends of the level set g' = -l/m,
    for t = -l/m strictly inside the slope range: g'(0) and g'(x_max)
    clamped to the oracle's own line slopes, since a float mean of the
    slopes can round past all of them and exact g' never does."""
    if d.l == 0 or d.m == 0:
        return None
    target, slopes = -d.l / d.m, [s for _, s in smooth.lines]
    start = min(oracle_derivative(smooth, 0.0), max(slopes))
    end = max(oracle_derivative(smooth, smooth.x_max), min(slopes))
    if not (end < target < start):
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


EXACT = decimal.Context(prec=80, Emin=-10**9, Emax=10**9)


def decimal_gauss_x(smooth, l, m):
    """The root of u = log A - log B, A and B the sums of w_i*|s_i - t| over
    the line slopes above and below t = -l/m, by 100 bisections of [0, x_max]
    at 80 digits, with Emin lowered so that no weight underflows.  Slow:
    keep it off the polygon loops."""
    with decimal.localcontext(EXACT):
        t, tau = decimal.Decimal(-l) / m, decimal.Decimal(smooth.tau)
        lines = [(decimal.Decimal(c), decimal.Decimal(s)) for c, s in smooth.lines]

        def log_odds(x):
            vals = [c + s * x for c, s in lines]
            lowest = min(vals)
            weights = [((lowest - val) / tau).exp() for val in vals]
            above = sum(w * (s - t) for w, (_, s) in zip(weights, lines) if s > t)
            below = sum(w * (t - s) for w, (_, s) in zip(weights, lines) if s < t)
            return above.ln() - below.ln()

        lo, hi = decimal.Decimal(0), decimal.Decimal(smooth.x_max)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if log_odds(mid) > 0 else (lo, mid)
        return float((lo + hi) / 2)


def triangle_gauss_x(smooth, l):
    """The root of u for (l, l) on a rounded triangle with edge slope -1, at
    80 digits: u has only the caps (c0, s0) and (c1, s1), so w0*(s0 - t) =
    w1*(t - s1) gives x = (c1 - c0 - tau*log((t - s1)/(s0 - t)))/(s0 - s1)."""
    with decimal.localcontext(EXACT):
        (c0, s0), (c1, s1) = ((decimal.Decimal(c), decimal.Decimal(s)) for c, s in smooth.lines[-2:])
        t = decimal.Decimal(-l) / l
        return float((c1 - c0 - decimal.Decimal(smooth.tau) * ((t - s1) / (s0 - t)).ln()) / (s0 - s1))


def exact_derivative(smooth, x):
    """g'(x) with every line value exact: each weight is exp of a float
    rounded from the exact difference of two line values."""
    vals = [Fraction(c) + Fraction(s) * Fraction(x) for c, s in smooth.lines]
    lowest = min(vals)
    weights = [math.exp(-float((val - lowest) / Fraction(smooth.tau))) for val in vals]
    return sum(w * s for w, (_, s) in zip(weights, smooth.lines)) / sum(weights)


def oracle_box_families(smooth, cutoff):
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


def oracle_orbit_families(smooth, cutoff):
    """The row scan with one gauss_point solve per direction (l, m), no
    shared solves for multiples and no bound from earlier points: each row
    breaks at its first solved action past the cutoff by a relative 1e-9."""
    families = []
    keep = cutoff * (1.0 + 1e-12)
    for (dl, dm), length in (((1, 0), smooth.x_max), ((0, 1), smooth.value(0.0))):
        j = 1
        while j * length <= keep:
            families.append(ReebOrbitFamily(LatticeDirection(j * dl, j * dm), None, j * length, j, LatticeDirection(dl, dm)))
            j += 1
    x_star = float(smooth.source.x_extent) / 2.0
    l_max, m_max = int(cutoff / x_star) + 1, int(cutoff / smooth.value(x_star)) + 1
    for m in range(1, m_max + 1):
        for l in range(1, l_max + 1):
            if not -l / m < smooth._slope_start:
                continue
            point = gauss_point(smooth, LatticeDirection(l, m))
            if point is None:
                break
            action = l * point[0] + m * point[1]
            if action > keep * (1.0 + 1e-9):
                break
            if action <= keep:
                g = math.gcd(l, m)
                families.append(ReebOrbitFamily(LatticeDirection(l, m), point, action, g, LatticeDirection(l // g, m // g)))
    families.sort(key=lambda fam: (fam.action, fam.direction.as_pair()))
    return families


def families_and_solves(smooth, cutoff):
    """orbit_families and the directions it passed to gauss_point, in order."""
    solved = []
    real_gauss_point = toricap.rounding_reeb.gauss_point

    def spying_gauss_point(smooth, d):
        solved.append(d)
        return real_gauss_point(smooth, d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toricap.rounding_reeb, "gauss_point", spying_gauss_point)
        return orbit_families(smooth, cutoff), solved


def assert_families_match(smooth, families, oracle, cutoff):
    """The same directions as the oracle's, except one whose action is
    within 1e-12 relative of the cutoff; each action within 1e-12 relative;
    each point within the bisection tolerance of the oracle's, or g' within
    4 ulps of -l/m at both points: along an edge normal to (l, m), float
    noise in g' sets the bisection's point."""
    ours, theirs = ({f.direction: f for f in fams} for fams in (families, oracle))
    for direction in ours.keys() ^ theirs.keys():
        action = (ours.get(direction) or theirs[direction]).action
        assert abs(action - cutoff) <= 1e-12 * cutoff, direction
    for direction in ours.keys() & theirs.keys():
        fam, ref = ours[direction], theirs[direction]
        assert (fam.multiplicity, fam.underlying_simple) == (ref.multiplicity, ref.underlying_simple)
        assert abs(fam.action - ref.action) <= 1e-12 * ref.action, direction
        if ref.point is None:
            assert fam.point is None
            continue
        target = -direction.l / direction.m
        xs = (fam.point[0], ref.point[0])
        on_level = all(abs(oracle_derivative(smooth, x) - target) <= 4 * math.ulp(target) for x in xs)
        assert abs(xs[0] - xs[1]) <= toricap.rounding_reeb._X_BISECT_TOL * smooth.x_max or on_level, direction
    assert families == sorted(families, key=lambda fam: (fam.action, fam.direction.as_pair()))


def exact_boundary_value(domain, vertex_xs, x):
    """domain.boundary_value(x), the same Fraction, with the edge found by
    bisection on the vertex abscissas instead of a scan."""
    i = max(bisect.bisect_left(vertex_xs, x), 1)
    (x1, y1), (x2, y2) = domain.vertices[i - 1], domain.vertices[i]
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def vertex_lattice(domain):
    """(q, xs, ys): the vertices as integers over their least common denominator q, vertex i at (xs[i], ys[i]) / q."""
    q = math.lcm(*(c.denominator for vertex in domain.vertices for c in vertex))
    return q, [int(x * q) for x, _ in domain.vertices], [int(y * q) for _, y in domain.vertices]


def nearest_ratio(n, d, limit):
    """(p, q): Fraction(n, d).limit_denominator(limit) for coprime n and d > 0, in integers: the closest
    ratio to n / d with q <= limit, the last convergent of its continued fraction when tied with the best
    semiconvergent."""
    if d <= limit:
        return n, d
    p0, q0, p1, q1, rest, remainder = 0, 1, 1, 0, n, d
    while q0 + rest // remainder * q1 <= limit:
        a = rest // remainder
        p0, q0, p1, q1, rest, remainder = p1, q1, p0 + a * p1, q0 + a * q1, remainder, rest - a * remainder
    k = (limit - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    return (p1, q1) if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1 else (p2, q2)


def oracle_f(lattice, x):
    """f at a float x in [0, a], read exactly from the polygon: x * q = t / d for the nearest ratio to x with
    denominator at most 10**15, clamped to [0, a * q]; the edge found by bisection on the vertex abscissas; and
    its exact value there divided once, which rounds it once."""
    q, xs, ys = lattice
    t, d = nearest_ratio(*x.as_integer_ratio(), 10**15)
    t, d = (0, 1) if t < 0 else (xs[-1], 1) if t * q > xs[-1] * d else (t * q, d)
    i = max(bisect.bisect_left(xs, -(-t // d)), 1)  # the first vertex at or right of x
    (x1, x2), (y1, y2) = xs[i - 1:i + 1], ys[i - 1:i + 1]
    return (y1 * (x2 - x1) * d + (y2 - y1) * (t - x1 * d)) / (q * (x2 - x1) * d)


def oracle_points(smooth, grid):
    xs = [smooth.x_max * i / grid for i in range(grid + 1)]
    return sorted(set(xs + [float(x) for x, _ in smooth.source.vertices]))


def oracle_verify(smooth, grid=1024, derivative=oracle_derivative):
    """The grid checks with f read exactly from the polygon, in integers."""
    domain, v = smooth.source, smooth.v
    lattice = vertex_lattice(domain)
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
            fx = oracle_f(lattice, x)
            gx = oracle_value(smooth, x)
            if gx < fx - 1e-9 * (1.0 + abs(fx)):
                raise SlopeConditionUnreachable("containment failed: g dips below the polygon boundary")
            if gx - fx > smooth.shift * (1.0 + 1e-9) + 1e-12:
                raise SlopeConditionUnreachable(GAP_MESSAGE)


def oracle_gap_excess(smooth, grid=1024):
    """The largest amount by which g - f passes shift on the oracle's points."""
    domain = smooth.source
    lattice = vertex_lattice(domain)
    return max(
        oracle_value(smooth, x) - oracle_f(lattice, x) - smooth.shift
        for x in oracle_points(smooth, grid)
        if x <= float(domain.x_extent)
    )


def oracle_vertex_gap(smooth):
    """The least g - f over the polygon's vertices, each read at its float
    abscissa with f read exactly there, as a Fraction: the vertex loop that
    _verify ran before containment was proved."""
    domain = smooth.source
    vertex_xs = [x for x, _ in domain.vertices]
    gaps = []
    for x, _ in domain.vertices:
        x_float = min(Fraction(float(x)), domain.x_extent)
        gaps.append(Fraction(oracle_value(smooth, float(x_float))) - exact_boundary_value(domain, vertex_xs, x_float))
    return min(gaps)


def oracle_edge_lines(domain, slope_floor):
    """_edge_lines by Fraction arithmetic, each float rounded from its Fraction."""
    lines = []
    for (x1, y1), (x2, y2) in edges(domain):
        if x2 != x1:
            s = min(float((y2 - y1) / (x2 - x1)), -slope_floor)
            lines.append((float(y1) - s * float(x1), s))
    return lines


def edge_lines_by_integer_ratios(domain, slope_floor):
    """_edge_lines read from each vertex's two as_integer_ratio pairs, four
    denominators cross-multiplied per edge, instead of from the lattice."""
    lines = []
    points = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in domain.vertices]
    for ((x1n, x1d), (y1n, y1d)), ((x2n, x2d), (y2n, y2d)) in zip(points, points[1:]):
        if x2n * x1d == x1n * x2d:
            continue
        s = min((y2n * y1d - y1n * y2d) * x1d * x2d / ((x2n * x1d - x1n * x2d) * y1d * y2d), -slope_floor)
        lines.append((y1n / y1d - s * (x1n / x1d), s))
    return lines


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


def oracle_support_smooth(smooth, l, m, g=None):
    """max of l*x + m*g(x) over [0, x_max] by golden-section on the
    strictly concave objective, g evaluated by oracle_value unless given
    (axis directions in closed form)."""
    g = g or (lambda x: oracle_value(smooth, x))
    if m == 0:
        return l * smooth.x_max
    if l == 0:
        return m * g(0.0)

    def h(x):
        return l * x + m * g(x)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, smooth.x_max
    tol = 1e-10 * smooth.x_max
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    hc, hd = h(c), h(d)
    while hi - lo > tol:
        if hc >= hd:
            hi, d, hd = d, c, hc
            c = hi - inv_phi * (hi - lo)
            hc = h(c)
        else:
            lo, c, hc = c, d, hd
            d = lo + inv_phi * (hi - lo)
            hd = h(d)
    xm = 0.5 * (lo + hi)
    return max(h(xm), h(0.0), h(smooth.x_max))


def supports_matching_oracle(smooth, directions, g=None):
    """support_smooth, the action at the Gauss point, in each direction,
    each asserted within 8 ulps of the golden-section search.  The searches
    share one memo g of oracle_value, unless given one, as every search
    starts at the same two points and searches in nearby directions take
    the same first steps."""
    values, g = [], g or functools.cache(lambda x: oracle_value(smooth, x))
    for l, m in directions:
        value, oracle = support_smooth(smooth, l, m), oracle_support_smooth(smooth, l, m, g)
        assert abs(value - oracle) <= 8 * math.ulp(oracle), (smooth.source, l, m)
        values.append(value)
    return values


# The full-list solve: every log-odds sum runs over all the lines, those on
# the other side of t adding exact zeros, each weight is exp(-(val - lowest)
# / tau), and the capacity's Newton solve for g(x) = x starts at x_max / 2.
# The one-sided sums and the diagonal start must give its floats bit for bit.


def full_list_pass(smooth, x):
    """g(x), g'(x) and every line's soft-min weight over the full line list."""
    vals = [c + s * x for c, s in smooth.lines]
    lowest = min(vals)
    weights = [math.exp(-(val - lowest) / smooth.tau) for val in vals]
    total = sum(weights)
    slope = sum(map(operator.mul, weights, [s for _, s in smooth.lines])) / total
    return smooth.shift + lowest - smooth.tau * math.log(total), slope, weights


def full_list_slope_range(smooth):
    """g'(x_max) and g'(0), each clamped to the line slopes."""
    slopes = [s for _, s in smooth.lines]
    return max(full_list_pass(smooth, smooth.x_max)[1], min(slopes)), min(full_list_pass(smooth, 0.0)[1], max(slopes))


def full_list_gauss_point(smooth, d):
    if d.l == 0 or d.m == 0:
        return None
    target = -d.l / d.m
    end, start = full_list_slope_range(smooth)
    if not end < target < start:
        return None
    slopes = [s for _, s in smooth.lines]
    up = [s - target if s > target else 0.0 for s in slopes]
    down = [target - s if s < target else 0.0 for s in slopes]
    up2, down2 = [u * u for u in up], [u * u for u in down]

    def log_odds(x):
        g, _, weights = full_list_pass(smooth, x)
        above, below = sum(map(operator.mul, weights, up)), sum(map(operator.mul, weights, down))
        if not (above and below):
            return above - below, 0.0, g
        spread = sum(map(operator.mul, weights, up2)) / above + sum(map(operator.mul, weights, down2)) / below
        return math.log(above) - math.log(below), -spread / smooth.tau, g

    ordered, key = sorted(smooth.lines, key=operator.itemgetter(1, 0)), operator.itemgetter(1)
    i, j = bisect.bisect_left(ordered, target, key=key), bisect.bisect_right(ordered, target, key=key)
    (c_b, s_b), (c_a, s_a) = ordered[i - 1], ordered[j]
    x = (c_b - c_a + smooth.tau * math.log((s_a - target) / (target - s_b))) / (s_a - s_b)
    return _newton(log_odds, smooth.x_max, x)


def full_list_support_smooth(smooth, l, m):
    if m == 0:
        return l * smooth.x_max
    point = full_list_gauss_point(smooth, LatticeDirection(l, m))
    if point is None:
        x = 0.0 if -l / m >= full_list_slope_range(smooth)[1] else smooth.x_max
        point = (x, full_list_pass(smooth, x)[0])
    return l * point[0] + m * point[1]


def full_list_capacity(smooth, k):
    def excess(x):
        g, slope, _ = full_list_pass(smooth, x)
        return g - x, slope - 1.0, slope

    slope = _newton(excess, smooth.x_max, 0.5 * smooth.x_max)[1]
    low = math.floor(k * (-slope / (1.0 - slope)))
    return min(full_list_support_smooth(smooth, l, k - l) for l in (low, low + 1) if l <= k)


def full_list_orbit_families(smooth, cutoff):
    """orbit_families with the full-list Gauss solve and g."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toricap.rounding_reeb, "gauss_point", full_list_gauss_point)
        patch.setattr(SmoothDomain2D, "value", lambda smooth, x: full_list_pass(smooth, x)[0])
        return orbit_families(smooth, cutoff)


def assert_full_list_solves(smooth, directions, cutoff, ks):
    """gauss_point, support_smooth, orbit_families and capacity_via_spectrum
    give the full-list solve's floats, compared with ==."""
    for l, m in directions:
        d = LatticeDirection(l, m)
        assert gauss_point(smooth, d) == full_list_gauss_point(smooth, d), (smooth.source, l, m)
        assert support_smooth(smooth, l, m) == full_list_support_smooth(smooth, l, m), (smooth.source, l, m)
    assert orbit_families(smooth, cutoff) == full_list_orbit_families(smooth, cutoff), smooth.source
    for k in ks:
        assert capacity_via_spectrum(smooth, k) == full_list_capacity(smooth, k), (smooth.source, k)


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

    def test_two_support_calls_per_rounding(self, monkeypatch):
        # two lattice support reads: one for the shift, the other re-reads
        # cap0's dip for the containment certificate; neither grows with V
        calls = 0
        real_support = toricap.rounding_reeb._lattice_support

        def counting_support(domain, p, q):
            nonlocal calls
            calls += 1
            return real_support(domain, p, q)

        monkeypatch.setattr(toricap.rounding_reeb, "_lattice_support", counting_support)
        for domain in [*scaled_polygons(), random_unit_polygon(random.Random(67), 200)]:
            calls = 0
            round_domain(domain, TAU, V)
            assert calls == 2

    def test_two_evaluate_passes_per_rounding(self, monkeypatch):
        # g and g' at x = 0 and at x_max; the certificate evaluates no vertex
        passes = 0
        real_evaluate = SmoothDomain2D._evaluate

        def counting_evaluate(smooth, x):
            nonlocal passes
            passes += 1
            return real_evaluate(smooth, x)

        monkeypatch.setattr(SmoothDomain2D, "_evaluate", counting_evaluate)
        rng = random.Random(67)
        for edges in (1, 10, 100, 200):
            passes = 0
            round_domain(random_unit_polygon(rng, edges), TAU, V)
            assert passes == 2, edges

    def test_edge_lines_are_the_fraction_formula_bit_for_bit(self):
        rng = random.Random(71)
        coprime = Fraction(10**9 + 7, 10**9 + 9)  # both prime
        for scale in SCALES:
            for _ in range(25):
                domain = random_concave_polygon(rng).scaled(scale * coprime * Fraction(rng.randint(1, 10**6), 999_983))
                slope_floor = rng.choice([1e-12, 1e-3, 0.5]) * rng.random()
                ours = [(c.hex(), s.hex()) for c, s in _edge_lines(domain, slope_floor)]
                assert ours == [(c.hex(), s.hex()) for c, s in oracle_edge_lines(domain, slope_floor)]

    def test_a_flat_edge_keeps_a_positive_zero_slope(self):
        # a slope floor tau / a that underflows to 0.0 leaves a flat edge the slope float(Fraction(0)), +0.0
        square = make_polygon_domain([(0, 1), (1, 1), (1, 0)])
        ours = [(c.hex(), s.hex()) for c, s in _edge_lines(square, 0.0)]
        assert ours == [(c.hex(), s.hex()) for c, s in oracle_edge_lines(square, 0.0)] == [((1.0).hex(), (0.0).hex())]

    def test_rounding_from_the_lattice_is_the_rounding_from_integer_ratios(self):
        def rounded(domain, tau):
            try:
                smooth = round_domain(domain, tau, V)
            except SlopeConditionUnreachable as exc:
                return str(exc), exc.check, exc.margin
            return smooth.lines, smooth.shift, smooth.margins

        rng = random.Random(73)
        coprime = Fraction(10**9 + 7, 10**9 + 9)  # both prime
        for i, scale in zip(range(120), itertools.cycle((Fraction(1),) + SCALES)):
            domain = random_concave_polygon(rng).scaled(scale * coprime)
            tau = (1e-2, 1e-3)[i % 2] * float(scale)
            ours = rounded(domain, tau)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(toricap.rounding_reeb, "_edge_lines", edge_lines_by_integer_ratios)
                assert ours == rounded(domain, tau), domain

    def test_vertex_containment_oracle_on_every_fixture_and_scale(self, rounded_tri11, rounded_tri12, rounded_pentagon):
        # every certified rounding has g >= f at every vertex exactly; lowered
        # by that least gap and a little more, the oracle rejects it, and so
        # does the certificate
        rounded = [rounded_tri11, rounded_tri12, rounded_pentagon]
        for domain in scaled_polygons():
            for scale, tau in itertools.product(SCALES, (1e-2, 1e-3)):
                rounded.append(round_domain(domain.scaled(scale), float(scale) * tau, V))
        for smooth in rounded:
            gap = oracle_vertex_gap(smooth)
            assert gap > 0 and min(smooth.margins) > 0
            lowered = replace(smooth, shift=smooth.shift - 1.001 * float(gap))
            assert oracle_vertex_gap(lowered) < 0
            assert verdict(_verify, lowered) is not None

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

    @pytest.mark.parametrize("tau, v, message", [
        (True, 0.1, "tau must be an int or a float, got True"),
        ("x", 0.1, "tau must be an int or a float, got 'x'"),
        (1e-3, True, "v must be an int or a float, got True"),
        (1e-3, "0.1", "v must be an int or a float, got '0.1'")])
    def test_tau_and_v_types_are_checked_at_entry(self, monkeypatch, tau, v, message):
        # checked before any value test, so True is not read as 1 nor a str compared with a float
        monkeypatch.setattr(toricap.rounding_reeb, "_edge_lines", None)  # no line is built
        with pytest.raises(TypeError) as info:
            round_domain(make_polygon_domain([(0, 1), (1, 0)]), tau, v)
        assert str(info.value) == message

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2])
    def test_steep_cap_sets_the_floor_at_x_max(self, monkeypatch, tau):
        # the steep cap is the lowest line at x_max, so the floor keeps its
        # term |c| + |s|*x_max, 1.28e14 here, although its weight underflows
        # at x = 0
        tri = make_polygon_domain([(0, 10**12), (10**12, 0)])
        with pytest.raises(SlopeConditionUnreachable) as info:
            round_domain(tri, tau, V)
        assert str(info.value) == f"tau = {tau:.6g} is below the float resolution floor 0.0820077 of this polygon"
        assert info.value.check == "resolution" and info.value.margin == pytest.approx(tau - 0.0820077, rel=1e-6)
        # below that floor the float g'(x_max) check decides rounding noise:
        # at v = 0.03 and tau = 1e-4 it passes, where g'(x_max) of the same
        # lines in exact arithmetic is -1.58, far above -1/v
        smooth = TestAgainstOracles.unverified(monkeypatch, tri, 1e-4, 0.03)
        assert smooth.derivative(smooth.x_max) < -1.0 / 0.03 < -2.0 < exact_derivative(smooth, smooth.x_max)

    @pytest.mark.parametrize("size, tau", [(1, 1e-300), (10**12, 1e-6)])
    def test_tau_below_the_resolution_floor_names_the_floor(self, size, tau):
        # both once failed with a g'(0) message that blamed v
        tri = make_polygon_domain([(0, size), (size, 0)])
        with pytest.raises(SlopeConditionUnreachable) as info:
            round_domain(tri, tau, V)
        found = re.fullmatch(r"tau = (\S+) is below the float resolution floor (\S+) of this polygon", str(info.value))
        assert found and float(found[1]) == tau
        assert tau < float(found[2]) < 1e-12 * size  # a few ulps of the steep cap's span

    @pytest.mark.parametrize(
        "vertices, tau, message",
        [
            # float(a) once overflowed, and a = 0.0 once divided tau / a
            ([(0, "1e400"), ("1e400", 0)], 1.0, "x extent a is outside the float range (inf as a float)"),
            ([(0, "1e-400"), ("1e-400", 0)], 1e-300, "x extent a is outside the float range (0.0 as a float)"),
            # b = 0.0 once failed the g'(x_max) check, which blamed v
            ([(0, "1e-400"), (1, 0)], 1e-3, "y extent b is outside the float range (0.0 as a float)"),
            # the floor's L once overflowed, reported as "resolution floor inf"
            ([(0, "1e307"), ("1e307", 0)], 1e304, "size (the resolution floor's L) is outside the float range (inf as a float)"),
            # cap0's dip, read before the constructor checks L, overflows here too
            ([(0, FLOAT_MAX), (FLOAT_MAX, FLOAT_MAX), (FLOAT_MAX, 0)], 1e300,
             "size (the resolution floor's L) is outside the float range (inf as a float)"),
            # an edge slope past the largest float once overflowed in _edge_lines
            ([(0, "1e300"), (1, "1e299"), ("1.000000000000000000000000000000000001", 0)], 1e-3,
             "size is outside the float range: an edge slope overflows a float"),
        ],
    )
    def test_extents_outside_the_float_range_are_named(self, vertices, tau, message):
        domain = make_polygon_domain(vertices)
        with pytest.raises(ValueError) as info:
            round_domain(domain, tau, V)
        assert str(info.value) == f"the polygon's {message}"

    def test_a_built_domain_checks_the_floors_l(self):
        # the constructor checks L itself, so a domain built, copied or unpickled outside
        # round_domain cannot carry a resolution floor of inf
        smooth = round_domain(make_polygon_domain([(0, "1e300"), ("1e300", 0)]), 1e297, V)
        (_, s), *rest = smooth.lines
        with pytest.raises(ValueError) as info:
            replace(smooth, lines=((sys.float_info.max, s), *rest))  # L = max + 1e300 overflows
        assert str(info.value) == "the polygon's size (the resolution floor's L) is outside the float range (inf as a float)"

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

    @pytest.mark.parametrize("samples", [2.5, "3", 64.0, True])
    def test_polyline_samples_are_an_int(self, rounded_tri11, samples):
        # 2.5 and "3" failed with a bare TypeError from range() and from <
        with pytest.raises(ValueError, match="^need at least two samples$"):
            boundary_polyline(rounded_tri11, samples)


class TestHomogeneityProperties:
    @settings(max_examples=30)
    @given(
        st.builds(random_unit_polygon, st.randoms(use_true_random=False), st.integers(1, 12)),
        st.sampled_from([1e-2, 1e-3]),
        st.sampled_from([(l, m) for l, m in itertools.product(range(13), repeat=2) if l or m]),
        st.integers(1, 24),
    )
    def test_support_and_capacity_scale_with_the_domain(self, domain, tau, direction, k):
        # on c * Omega rounded at c * tau, both are c times their values on
        # Omega, within 1e-13 of c * max(1, value)
        try:
            base = round_domain(domain, tau, V)
        except SlopeConditionUnreachable:
            reject()
        unit = (support_smooth(base, *direction), capacity_via_spectrum(base, k))
        for scale in SCALES:
            c = float(scale)
            smooth = round_domain(domain.scaled(scale), c * tau, V)
            for scaled, value in zip((support_smooth(smooth, *direction), capacity_via_spectrum(smooth, k)), unit):
                assert abs(scaled - c * value) <= 1e-13 * c * max(1.0, value)


class TestGaussPoint:
    def test_symmetric_direction_on_round_ball(self, rounded_tri11):
        # the caps are not symmetric, so the point is not the edge's middle:
        # x = 64*(63 - tau*log 64)/(63*65), near the steep corner
        point = gauss_point(rounded_tri11, LatticeDirection(1, 1))
        assert point is not None
        x, y = point
        assert abs(x - triangle_gauss_x(rounded_tri11, 1)) <= 2 * math.ulp(x)
        assert x == pytest.approx(64 * (63 - TAU * math.log(64)) / (63 * 65), rel=1e-15)
        assert y == rounded_tri11.value(x)
        assert rounded_tri11.derivative(x) == pytest.approx(-1.0, abs=1e-6)

    def test_mean_slope_rounded_past_every_line(self):
        # g'(0), a weighted mean of the slopes, rounds one ulp above the
        # largest of them, the first edge's -5/392.  Exact g' is below it
        # everywhere, so (5, 392) has no Gauss point and the support's
        # maximum is at x = 0; reading it at x_max gives 93.9
        smooth = round_domain(make_polygon_domain([(0, Fraction(2455, 49)), (8, 50), (9, 0)]), 0.09, 0.125)
        assert max(smooth._slopes) == -5 / 392 < smooth.derivative(0.0)
        assert gauss_point(smooth, LatticeDirection(5, 392)) is None
        assert support_smooth(smooth, 5, 392) == 392 * smooth.value(0.0) == pytest.approx(19688.9, abs=0.1)
        # orbit_families passes it over and walks on along its row.  The
        # cutoff that reaches (5, 392) needs about 10**6 directions, so the
        # walk is checked on a smaller polygon with the same rounding of g'(0)
        smooth = round_domain(make_polygon_domain([(0, Fraction(26, 5)), (1, 5), (3, 0)]), 0.05, 0.6)
        assert max(smooth._slopes) == -1 / 5 < smooth.derivative(0.0)
        assert gauss_point(smooth, LatticeDirection(1, 5)) is None
        assert support_smooth(smooth, 1, 5) == 5 * smooth.value(0.0) < 30.0
        row = [f.direction.l for f in orbit_families(smooth, 30.0) if f.direction.m == 5]
        assert row == [0, 2, 3, 4]

    def test_families_match_the_oracle_where_the_mean_slope_rounds_past_every_line(self):
        # the oracle once bracketed t by the float g'(0), so it solved (1, 5) here
        smooth = round_domain(make_polygon_domain([(0, Fraction(26, 5)), (1, 5), (3, 0)]), 0.05, 0.6)
        oracle = oracle_box_families(smooth, 30.0)
        assert LatticeDirection(1, 5) not in {f.direction for f in oracle}
        assert_families_match(smooth, orbit_families(smooth, 30.0), oracle, 30.0)

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
        # the Newton tolerance is relative to the width, so this stops as at unit scale
        big = 10**6
        smooth = round_domain(make_polygon_domain([(0, big), (big, 0)]), 10.0, V)
        x, y = gauss_point(smooth, LatticeDirection(1, 1))
        assert abs(x - triangle_gauss_x(smooth, 1)) <= 2 * math.ulp(x)
        assert x == pytest.approx(984614.73, abs=0.01) and y == smooth.value(x)
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

    def test_one_evaluate_pass_per_call(self, monkeypatch, rounded_tri11, rounded_pentagon):
        # g and g' come from one soft-min pass, with the floats of value and derivative
        passes = 0
        real_evaluate = SmoothDomain2D._evaluate

        def counting_evaluate(smooth, x):
            nonlocal passes
            passes += 1
            return real_evaluate(smooth, x)

        for smooth in (rounded_tri11, rounded_pentagon):
            for direction in (LatticeDirection(1, 1), LatticeDirection(1, 2), LatticeDirection(3, 2)):
                x, y = gauss_point(smooth, direction)
                slope = smooth.derivative(x)
                norm = math.hypot(slope, 1.0)
                nx, ny = -slope / norm, 1.0 / norm
                factor = 2.0 * math.pi / (nx * x + ny * y)
                monkeypatch.setattr(SmoothDomain2D, "_evaluate", counting_evaluate)
                passes = 0
                assert reeb_angular_velocity(smooth, (x, y)) == (factor * nx, factor * ny)
                assert passes == 1
                with pytest.raises(ValueError, match="does not lie on the rounded boundary"):
                    reeb_angular_velocity(smooth, (x, y * 1.01))
                assert passes == 2
                monkeypatch.undo()

    def test_axis_point_rejected(self, rounded_tri11):
        with pytest.raises(AxisPoint):
            reeb_angular_velocity(rounded_tri11, (0.0, rounded_tri11.value(0.0)))

    @pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
    def test_a_nan_coordinate_is_an_axis_point(self, rounded_tri11, point):
        # nan fails both x <= 0 and x > 0, so the guard asks for x > 0 and y > 0
        with pytest.raises(AxisPoint):
            reeb_angular_velocity(rounded_tri11, point)

    def test_the_point_is_a_pair(self, rounded_tri11):
        # (x, g, 1.0) was read as (x, g)
        x, y = gauss_point(rounded_tri11, LatticeDirection(1, 1))
        for point in ((x, y, 1.0), (x,), "12"):
            with pytest.raises(TypeError, match="^w must be a list or tuple of 2 items, got "):
                reeb_angular_velocity(rounded_tri11, point)

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
        oracle = oracle_box_families(rounded_tri11, cutoff)
        assert_families_match(rounded_tri11, orbit_families(rounded_tri11, cutoff), oracle, cutoff)
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
            assert abs(fam.action - oracle_support_smooth(rounded_pentagon, l, m)) <= 1e-9 * (1 + fam.action)

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

    @pytest.mark.parametrize("k", [2.5, 2.0, "3"])
    def test_non_integer_k_is_rejected(self, rounded_tri11, k):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            capacity_via_spectrum(rounded_tri11, k)

    @pytest.mark.parametrize("fixture", ["rounded_tri11", "rounded_tri12"])
    def test_k_past_the_float_range_is_rejected_before_any_solve(self, request, monkeypatch, fixture):
        smooth = request.getfixturevalue(fixture)
        with pytest.raises(ValueError, match=r"^k must be at most \d+ ") as info:
            capacity_via_spectrum(smooth, 10**400)
        limit = int(re.search(r"\d+", str(info.value)).group())
        assert math.isfinite(limit * max(smooth.x_max, smooth.value(0.0)))
        assert math.isfinite(capacity_via_spectrum(smooth, limit))
        for l, m in ((limit, 0), (0, limit), (limit // 2, limit - limit // 2)):
            assert math.isfinite(support_smooth(smooth, l, m))

        def no_solve(f, x_max, x):
            raise AssertionError("solved before rejecting k")

        monkeypatch.setattr(toricap.rounding_reeb, "_newton", no_solve)
        for k in (limit + 1, 10**400):
            with pytest.raises(ValueError, match=f"^k must be at most {limit} "):
                capacity_via_spectrum(smooth, k)
            for l, m in ((k, 0), (0, k), (k - 1, 1)):
                with pytest.raises(ValueError, match=f"^l \\+ m must be at most {limit} "):
                    support_smooth(smooth, l, m)

    def test_two_support_calls_at_huge_k(self, monkeypatch, rounded_tri11):
        # the scan over all k + 1 splits costs O(k) and never returns here;
        # the counter stops it after three non-axis calls
        calls = 0
        real_support_smooth = toricap.rounding_reeb.support_smooth

        def counting_support_smooth(smooth, l, m):
            nonlocal calls
            if l and m:
                calls += 1
                if calls > 3:
                    raise AssertionError("more than three non-axis support_smooth calls")
            return real_support_smooth(smooth, l, m)

        monkeypatch.setattr(toricap.rounding_reeb, "support_smooth", counting_support_smooth)
        k = 10**7
        value = capacity_via_spectrum(rounded_tri11, k)
        assert calls <= 2
        assert abs(value - math.ceil(k / 2)) <= 3.0 * rounded_tri11.hausdorff_bound * k


class TestAgainstOracles:
    """The vertex certificate, the Newton solves and the row walk give the verdicts of the oracles above and,
    as assert_families_match allows, their families; the closed-form
    capacity gives the scan of support_smooth over l = 0..k bit for bit,
    and support_smooth lies within 8 ulps of the golden-section oracle."""

    @staticmethod
    def unverified(monkeypatch, domain, tau, v):
        monkeypatch.setattr(toricap.rounding_reeb, "_verify", lambda smooth: None)
        smooth = round_domain(domain, tau, v)
        monkeypatch.undo()
        return smooth

    def assert_matches_oracles(self, smooth, cutoff, *ks):
        """A sound verdict; if accepted, the same families and capacities
        at each k as the oracles.  Returns the verdicts of _verify and of
        the oracle."""
        verdicts = assert_certificate_sound(smooth)
        if verdicts[0] is None:
            assert_families_match(smooth, orbit_families(smooth, cutoff), oracle_box_families(smooth, cutoff), cutoff)
            g = functools.cache(lambda x: oracle_value(smooth, x))
            for k in ks:
                assert capacity_via_spectrum(smooth, k) == min(supports_matching_oracle(smooth, [(l, k - l) for l in range(k + 1)], g))
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
            # the closed-form capacity at large k too, where a floor of l* off by one would show
            certified, swept = self.assert_matches_oracles(smooth, rng.uniform(1.2, 3.0), rng.randint(1, 12), 24, 100)
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
            ("containment failed", replace(smooth, shift=smooth.shift - g0_slack - 1e-7)),
            # only the top of the vertical drop falls outside
            ("containment failed", replace(smooth, shift=smooth.shift - corner_slack - 1e-7)),
            ("g'(0) = ", replace(smooth, v=-smooth.derivative(0.0) / 2)),
            ("g'(x_max) = ", replace(smooth, x_max=smooth.x_max / 2)),
        ]
        for prefix, variant in variants:
            message = verdict(_verify, variant)
            assert message is not None and message.startswith(prefix)
            assert message == verdict(oracle_verify, variant)

    def test_failed_check_names_its_margin(self):
        smooth = self.square_at_coarse_tau()
        assert isinstance(smooth.margins, Margins) and min(smooth.margins) > 0
        variants = {
            "resolution": replace(smooth, tau=1e-300),
            "slope_start_low": replace(smooth, v=-smooth.derivative(0.0) / 2),
            "slope_end": replace(smooth, x_max=smooth.x_max / 2),
            # raised lines lift g(0) but not the reported bound
            "g_start": replace(smooth, lines=tuple((c + 2 * smooth.hausdorff_bound, s) for c, s in smooth.lines)),
            "g_end": replace(smooth, shift=smooth.shift - 2 * smooth.margins.g_end),
            "containment": replace(smooth, shift=smooth.shift - 1e-7),
        }
        for check, variant in variants.items():
            with pytest.raises(SlopeConditionUnreachable) as info:
                _verify(variant)
            assert (info.value.check, info.value.margin) == (check, getattr(variant.margins, check))
            assert info.value.margin < 0 and str(info.value) == verdict(_verify, variant)

    def test_each_oracle_only_check_fires(self):
        # _verify leaves these to the construction, which cannot break them;
        # the sweep oracle still detects them on hand-broken domains
        smooth = self.square_at_coarse_tau()
        # g sits a further shift above where its reported shift puts it
        raised = replace(smooth, lines=tuple((c + smooth.shift, s) for c, s in smooth.lines))
        assert verdict(oracle_verify, raised) == GAP_MESSAGE

        # g' rises by 0.005 at x = 1/2, where it is about -0.01
        def bumped(smooth, x):
            return oracle_derivative(smooth, x) + (0.005 if x >= 0.5 else 0.0)

        message = verdict(lambda sm: oracle_verify(sm, derivative=bumped), smooth)
        assert message == "g' fails to be non-increasing on the grid"

    @pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-5])
    def test_gauss_point_on_a_float_plateau_is_the_root(self, tau):
        # far from the corners the other weights vanish against 1.0, so g'
        # is exactly -1 along the edge in floats; the Gauss point is still
        # the one root of u, not the middle of that plateau
        smooth = round_domain(make_polygon_domain([(0, 1), (1, 0)]), tau, V)
        assert smooth.derivative(smooth.x_max / 2) == -1.0
        for l in (1, 2, 5):
            x, y = gauss_point(smooth, LatticeDirection(l, l))
            assert abs(x - triangle_gauss_x(smooth, l)) <= 2 * math.ulp(x) and y == smooth.value(x)

    def test_gauss_point_matches_the_decimal_root(self, rounded_pentagon):
        # the pentagon's edge normals (1, 2) and (3, 2), and (1, 1), whose -1
        # is the mean of those edges' slopes; on the four-vertex polygon at
        # tau = 1e-3 every weight but the -1 edge's underflows along that
        # edge, so u there is only a sign, and Newton's start is the root
        quad = make_polygon_domain([(0, 10), (1, Fraction(19, 2)), (9, Fraction(3, 2)), (10, 0)])
        cases = [(rounded_pentagon, d) for d in ((1, 1), (3, 2), (1, 2))]
        cases += [(round_domain(quad, tau, V), (1, 1)) for tau in (1e-1, 1e-2, 1e-3)]
        for smooth, (l, m) in cases:
            x, y = gauss_point(smooth, LatticeDirection(l, m))
            assert abs(x - decimal_gauss_x(smooth, l, m)) <= 2 * math.ulp(x), (smooth.source, l, m)
            assert y == smooth.value(x)

    def test_closed_form_capacity_on_tie_heavy_shapes(self, tri11, square, tri12):
        # l* sits near k/2 on the triangle, and h(l) is nearly flat on the square
        for domain in (tri11, square, tri12):
            smooth = round_domain(domain, TAU, V)
            for k in range(1, 101):
                scan = min(supports_matching_oracle(smooth, [(l, k - l) for l in range(k + 1)]))
                assert capacity_via_spectrum(smooth, k) == scan, (domain, k)

    def test_evaluate_passes_per_gauss_solve(self, monkeypatch, rounded_tri11, rounded_tri12, rounded_pentagon):
        # bisecting g' took about 42 passes per solve, and a bisection of
        # the plateau where g' = -l/m in floats about 80.  Newton from the
        # two-line root takes one pass per solve on these fixtures, plateaus
        # such as the pentagon's edge normals (1, 2) and (3, 2) included.
        # Cutoff 52: orbit_families solves only simple directions, 2,783 here.
        # Every pass, with or without g', is one call of _soft_min
        counts = {"passes": 0, "solves": 0}
        real_soft_min, real_gauss_point = SmoothDomain2D._soft_min, toricap.rounding_reeb.gauss_point

        def counting_soft_min(smooth, x):
            counts["passes"] += 1
            return real_soft_min(smooth, x)

        def counting_gauss_point(smooth, d):
            counts["solves"] += 1
            return real_gauss_point(smooth, d)

        monkeypatch.setattr(SmoothDomain2D, "_soft_min", counting_soft_min)
        monkeypatch.setattr(toricap.rounding_reeb, "gauss_point", counting_gauss_point)
        for smooth in (rounded_tri11, rounded_tri12, rounded_pentagon):
            orbit_families(smooth, 52.0)
            counts["passes"] -= 2  # orbit_families evaluates g twice outside the solves
        assert counts["solves"] > 2500 and counts["passes"] <= 6 * counts["solves"]

    def test_support_matches_golden_section_at_every_scale(self):
        directions = [(l, m) for l, m in itertools.product(range(7), repeat=2) if l or m]
        for domain in scaled_polygons():
            for scale in (Fraction(1),) + SCALES:
                for tau in (1e-2, 1e-3):
                    supports_matching_oracle(round_domain(domain.scaled(scale), float(scale) * tau, V), directions)

    def test_evaluate_passes_per_support_call(self, monkeypatch, rounded_tri11, rounded_tri12, rounded_pentagon):
        # golden-section took about 50 passes per call, and the plateau
        # bisection about 80; every support is now one Newton solve.  Every
        # pass, with or without g', is one call of _soft_min
        passes = 0
        real_soft_min = SmoothDomain2D._soft_min

        def counting_soft_min(smooth, x):
            nonlocal passes
            passes += 1
            return real_soft_min(smooth, x)

        monkeypatch.setattr(SmoothDomain2D, "_soft_min", counting_soft_min)
        for smooth in (rounded_tri11, rounded_tri12, rounded_pentagon):
            for l, m in itertools.product(range(1, 41), repeat=2):
                passes = 0
                support_smooth(smooth, l, m)
                assert passes <= 6, (smooth.source, l, m, passes)

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

    def test_rows_end_without_a_solve(self, rounded_tri11, rounded_tri12, rounded_pentagon):
        # the row scan solved every direction it kept and one more per row;
        # now the kept families' simple directions are nearly all it solves
        for smooth in (rounded_tri11, rounded_tri12, rounded_pentagon):
            families, solved = families_and_solves(smooth, 40.0)
            simple = {f.underlying_simple for f in families if f.point is not None}
            rows = {f.direction.m for f in families if f.point is not None}
            assert len(rows) > 15 and len(simple) > 200
            assert len(solved) == len(set(solved)) <= len(simple) + 2

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False), st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
           st.sampled_from((1e-2, 1e-3)), st.floats(0.5, 40.0), st.data())
    def test_families_are_the_row_scan(self, rng, scale, tau, reach, data):
        # scales from 1e-6 to 1e6; half the cutoffs sit on or just past a
        # family's action, so its row ends where the bound and the solve meet
        domain = random_concave_polygon(rng).scaled(scale)
        try:
            smooth = round_domain(domain, tau * float(scale), V)
        except SlopeConditionUnreachable:
            reject()
        x_star = float(domain.x_extent) / 2.0
        cutoff = reach * math.sqrt(x_star * smooth.value(x_star))  # a box of about reach**2 directions
        actions = [f.action for f in oracle_orbit_families(smooth, cutoff) if f.point is not None]
        if actions and data.draw(st.booleans()):
            nudge = data.draw(st.sampled_from((1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 2e-9)))
            cutoff = data.draw(st.sampled_from(actions)) * nudge
        families, solved = families_and_solves(smooth, cutoff)
        assert families == oracle_orbit_families(smooth, cutoff)
        assert all(math.gcd(d.l, d.m) == 1 for d in solved) and len(solved) == len(set(solved))


class TestOneSidedSums:
    """The soft-min pass reads plain (c, s) tuples, each log-odds sum reads
    one side of t, and the capacity starts at the diagonal: every float is
    the full-list solve's."""

    DIRECTIONS = [(l, m) for l, m in itertools.product(range(9), repeat=2) if l or m] + [(1, 40), (40, 1), (97, 89)]

    def test_lines_out_of_order_are_rejected(self, rounded_pentagon):
        # two edges, cap0 and cap1 with four distinct slopes: one order of 24 is valid
        lines = rounded_pentagon.lines
        assert len({s for _, s in lines}) == len(lines) == 4
        assert replace(rounded_pentagon, lines=lines) == rounded_pentagon
        for shuffled in itertools.permutations(lines):
            if shuffled != lines:
                with pytest.raises(ValueError, match=r"^line order, as gauss_point reads it: "):
                    replace(rounded_pentagon, lines=shuffled)

    def test_ties_in_line_order_are_accepted(self):
        # a tilted prefix shares the slope -tau/a, and cap0 takes it too
        smooth = round_domain(make_polygon_domain([(0, 1), (1, 1), (2, Fraction(99999, 100000)), (3, 0)]), TAU, V)
        slopes = [s for _, s in smooth.lines]
        assert slopes[0] == slopes[1] == slopes[-2] == -TAU / 3
        assert_full_list_solves(smooth, self.DIRECTIONS, 8.0, (1, 2, 5))

    def test_tie_heavy_shapes(self, tri11, square, tri12, pentagon):
        for domain in (tri11, square, tri12, pentagon):
            for tau in (1e-2, 1e-3):
                assert_full_list_solves(round_domain(domain, tau, V), self.DIRECTIONS, 12.0, range(1, 41))

    def test_many_edges_at_every_scale(self):
        # with several lines active the order of a sum's terms shows in its float
        for domain in scaled_polygons():
            for scale, tau in itertools.product((Fraction(1),) + SCALES, (1e-2, 1e-3)):
                smooth = round_domain(domain.scaled(scale), tau * float(scale), V)
                assert_full_list_solves(smooth, self.DIRECTIONS, 10.0 * float(scale), (1, 5, 24))

    @settings(max_examples=150, deadline=None)
    @given(lattice_polygons(), st.sampled_from((1e-2, 1e-3)), st.sampled_from((Fraction(1),) + SCALES),
           st.sampled_from((1, 2, 3, 7, 24, 1000)))
    def test_lattice_polygons_at_every_scale(self, domain, tau, scale, k):
        domain = domain.scaled(scale / domain.x_extent)  # x extent the suite's scale
        try:
            smooth = round_domain(domain, tau * float(scale), V)
        except SlopeConditionUnreachable:
            reject()
        x_star = float(domain.x_extent) / 2.0
        cutoff = 6.0 * math.sqrt(x_star * smooth.value(x_star))  # a box of about 36 directions
        assert_full_list_solves(smooth, self.DIRECTIONS, cutoff, (k,))
