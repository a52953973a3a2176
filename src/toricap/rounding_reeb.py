"""Boundary rounding and the resulting Reeb orbit spectrum.

A moment polygon is replaced by a slightly larger smooth domain whose
boundary graph g is strictly decreasing and strictly concave, with a
nearly flat start (-v <= g'(0) < 0) and a steep finish (g'(x_max) < -1/v).
The closed-form construction is a shifted soft-minimum of the supporting
lines of the polygon plus two linear caps:

    g(x) = shift - tau * log( sum_i exp(-f_i(x) / tau) )

Soft-minimum of affine functions is smooth and strictly concave, lies
within tau*log(N) below the true minimum, and the shift is chosen large
enough to absorb both that gap and the caps' dips, so the polygon is
contained in the rounded domain with an explicit reported Hausdorff
bound.  Shallow edges are pre-tilted by a slope floor of order tau so
that g is strictly decreasing even for product domains, and domains whose
boundary ends in a vertical drop get a short horizontal extension so the
steep cap can clear the corner.

Every family of closed Reeb orbits on the rounded boundary sits over a
boundary point whose outward normal is a positive multiple of an integer
pair (l, m); its action equals the support value in that direction, its
multiplicity is gcd(l, m), and after the non-degenerate perturbation it
splits into an elliptic orbit of Conley-Zehnder index 2(l+m)+1 and a
hyperbolic one of index 2(l+m).  The perturbed actions are identified
with the unperturbed ones throughout.

SmoothDomain2D is immutable; the spectrum operations are pure functions.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .moment_domain import LatticeDirection, MomentDomain2D, support

_X_BISECT_TOL = 1e-12
FAMILY_LIMIT = 100_000


class TooManyFamilies(ValueError):
    """orbit_families' search box would hold more directions than FAMILY_LIMIT."""


class SlopeConditionUnreachable(ValueError):
    """The requested (tau, v) cannot produce a valid rounded boundary.  When a
    check of _verify fails, check names its Margins field and margin its slack."""

    def __init__(self, message: str, check: Optional[str] = None, margin: Optional[float] = None):
        super().__init__(message)
        self.check, self.margin = check, margin


class AxisPoint(ValueError):
    """Rotation rates are undefined where a moment coordinate vanishes."""


class _Line(NamedTuple):
    """Affine function c + s*x."""

    c: float
    s: float


class Margins(NamedTuple):
    """Slack of each check of _verify, in order: negative fails, and so does 0 where strict."""

    resolution: float  # tau - the resolution floor 2*gamma_2*L/log(2), see _verify
    slope_start_low: float  # g'(0) + v
    slope_start_high: float  # -g'(0), strict
    slope_end: float  # -1/v - g'(x_max), strict
    g_start: float  # (1 + 1e-9) * hausdorff_bound - |g(0) - b|
    g_end: float  # how far g(x_max) lies inside [-1e-9, (1 + 1e-9) * hausdorff_bound]
    containment: float  # shift - tau*log(N) - cap0's dip + 4*gamma_2*L, see _verify


@dataclass(frozen=True)
class SmoothDomain2D:
    """Rounded domain with evaluable boundary function and derivative."""

    source: MomentDomain2D
    tau: float
    v: float
    lines: tuple[_Line, ...]
    shift: float
    x_max: float
    margins: Margins = field(init=False, repr=False, compare=False)
    # the line slopes, the lines by ascending (slope, constant), g'(0) and
    # g'(x_max) clamped to the slope range, and the largest l + m for which
    # l*x and m*g(x) are finite floats on [0, x_max], fixed at construction
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _by_slope: tuple[_Line, ...] = field(init=False, repr=False, compare=False)
    _slope_start: float = field(init=False, repr=False, compare=False)
    _slope_end: float = field(init=False, repr=False, compare=False)
    _order_limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_slopes", tuple(s for _, s in self.lines))
        object.__setattr__(self, "_by_slope", tuple(sorted(self.lines, key=operator.itemgetter(1, 0))))
        (g_start, slope_start, _), (g_end, slope_end, _) = self._evaluate(0.0), self._evaluate(self.x_max)
        # a float mean of the slopes can round one ulp past all of them; clamped,
        # slope_end < t < slope_start leaves a line slope on each side of t
        object.__setattr__(self, "_slope_start", min(slope_start, self._by_slope[-1].s))
        object.__setattr__(self, "_slope_end", max(slope_end, self._by_slope[0].s))
        # 1 - 2**-52 absorbs the quotient's rounding; the 1 keeps l + m a finite float
        limit = math.floor(sys.float_info.max * (1 - 2**-52) / max(1.0, self.x_max, g_start))
        object.__setattr__(self, "_order_limit", limit)
        # in floats each line value c + s*x on [0, x_max] is off by at most
        # gamma_2*L, L the largest |c| + |s|*x_max and gamma_2 = eps/(1 - eps)
        # (Higham 2002, Lemma 3.1 and eq. 3.4); cap0 is the last line but one
        eps, scale = sys.float_info.epsilon, max(abs(c) + abs(s) * self.x_max for c, s in self.lines)
        dip = float(support(self.source, (Fraction(-self.lines[-2].s), 1))) - self.lines[-2].c
        bound = self.hausdorff_bound * (1.0 + 1e-9)
        object.__setattr__(self, "margins", Margins(
            self.tau - 2.0 * eps / ((1.0 - eps) * math.log(2.0)) * scale,
            slope_start + self.v, -slope_start, -1.0 / self.v - slope_end,
            bound - abs(g_start - float(self.source.y_extent)), min(g_end + 1e-9, bound - g_end),
            self.shift - self.tau * math.log(len(self.lines)) - dip + 4.0 * eps / (1.0 - eps) * scale))

    @property
    def hausdorff_bound(self) -> float:
        """The reported Hausdorff bound: the shift plus the extension x_max - a."""
        return self.shift + (self.x_max - float(self.source.x_extent))

    def value(self, x: float) -> float:
        """g(x), evaluated with a stabilized log-sum-exp."""
        return self._evaluate(x)[0]

    def derivative(self, x: float) -> float:
        """g'(x), a weighted average of the line slopes."""
        return self._evaluate(x)[1]

    def _evaluate(self, x: float) -> tuple[float, float, list[float]]:
        """g(x), g'(x) and each line's soft-min weight, taken relative to the
        lowest line at x, in one pass."""
        vals = [c + s * x for c, s in self.lines]
        lowest = min(vals)
        weights = [math.exp(-(val - lowest) / self.tau) for val in vals]
        total = sum(weights)
        slope = sum(map(operator.mul, weights, self._slopes)) / total
        return self.shift + lowest - self.tau * math.log(total), slope, weights


@dataclass(frozen=True)
class ReebOrbitFamily:
    """One S^1-family of closed orbits over the torus fiber at ``point``."""

    direction: LatticeDirection
    point: Optional[tuple[float, float]]  # None for axis families
    action: float
    multiplicity: int
    underlying_simple: LatticeDirection


@dataclass(frozen=True)
class OrbitSplit:
    """The elliptic/hyperbolic pair a family resolves into."""

    elliptic_cz: int
    hyperbolic_cz: int


def _edge_lines(domain: MomentDomain2D, slope_floor: float) -> list[_Line]:
    """Supporting lines of the boundary graph, with shallow slopes tilted
    down to ``-slope_floor`` about the edge's left endpoint.  Each float is
    one quotient of the domain's lattice integers, which int true division
    rounds correctly, so it equals the float of the Fraction bit for bit."""
    lines: list[_Line] = []
    xs, ys, scale = domain._xs, domain._ys, domain._denominator
    for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:]):
        if x1 == x2:
            continue  # final vertical drop, handled by the steep cap
        s = min((y2 - y1) / (x2 - x1), -slope_floor)
        lines.append(_Line(y1 / scale - s * (x1 / scale), s))
    return lines


def round_domain(domain: MomentDomain2D, tau: float, v: float) -> SmoothDomain2D:
    """Round a moment polygon at smoothing scale tau with slope bound v.

    shift = tau*log(N) + margin + support(Omega, (-s_cap0, 1)) - b over the
    N lines, read from the proof below.  Construction and its certificate
    take O(V) work, two soft-min passes and two O(log V) support calls.

    Raises SlopeConditionUnreachable when the certificate of the boundary
    invariants fails, which happens when v is too small (or tau too large)
    for the requested polygon, and ValueError when an extent, an edge slope
    or the floor's L leaves the float range.  Rounding c*Omega at c*tau
    gives c times every length and action of rounding Omega at tau.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if not (0.0 < v < 1.0):
        raise SlopeConditionUnreachable("v must lie strictly between 0 and 1")

    a, b = _in_float_range(domain.x_extent, "x extent a"), _in_float_range(domain.y_extent, "y extent b")
    x_pen, y_pen = domain.vertices[-2]
    f_end = float(y_pen) if x_pen == domain.x_extent else 0.0  # > 0 iff vertical drop

    slope_floor = tau / a
    if slope_floor >= v / 2.0:
        raise SlopeConditionUnreachable("tau too large relative to v for a slope floor")
    try:
        edge_lines = _edge_lines(domain, slope_floor)
    except OverflowError:  # int true division past the largest float
        raise ValueError("the polygon's size is outside the float range: an edge slope overflows a float") from None

    # slopes fall strictly and tilting sets a shallow prefix to exactly
    # -slope_floor, so the last line is the steepest
    s_cap1 = -max(2.0 / v, 2.0 * abs(edge_lines[-1].s))
    n_lines = len(edge_lines) + 2
    margin = tau * math.log(8.0 * n_lines * (abs(s_cap1) + 1.0) / v)

    s_cap0 = max(edge_lines[0].s, -v / 2.0)
    cap0 = _Line(b - margin, s_cap0)

    x_max = a + (f_end + 2.0 * margin) / abs(s_cap1) if f_end > 0.0 else a
    cap1 = _Line(-margin + abs(s_cap1) * x_max, s_cap1)
    _in_float_range(max(abs(c) + abs(s) * x_max for c, s in (*edge_lines, cap0, cap1)), "size (the resolution floor's L)")

    # largest dip y - (c + s*x) of any line below a vertex (x, y).  An
    # untilted edge line lies on or above the concave f.  Tilted edges, if
    # any, are a prefix shallower than -slope_floor, so edge 0 is one and
    # cap0 has slope -slope_floor too; at every vertex it dips
    # margin - (b - y_i - slope_floor * x_i) >= margin more than the tilted
    # line through (x_i, y_i), as y_i >= b - slope_floor * x_i.  cap1 dips
    # at most margin, cap0's dip at (0, b).  So the largest dip is cap0's,
    # max(y - s_cap0 * x) - (b - margin), a support value
    max_dip = margin + float(support(domain, (Fraction(-s_cap0), 1))) - b
    shift = tau * math.log(n_lines) + max_dip
    smooth = SmoothDomain2D(source=domain, tau=tau, v=v, lines=(*edge_lines, cap0, cap1), shift=shift, x_max=x_max)
    _verify(smooth)
    return smooth


def _in_float_range(value, name: str) -> float:
    """value as a float, or a ValueError naming it when that is not positive and finite."""
    x = float(value) if value <= sys.float_info.max else math.inf  # float() raises past the largest float
    if not 0.0 < x < math.inf:
        raise ValueError(f"the polygon's {name} is outside the float range ({x!r} as a float)")
    return x


def _verify(smooth: SmoothDomain2D) -> None:
    """Raise SlopeConditionUnreachable, naming the check and its slack, at the
    first check of smooth.margins that fails; no point is evaluated here.
    README, "Notes on the rounding", derives the resolution floor and proves
    containment: every soft-min weight is at most 1, so g >= shift + lowest
    - tau*log(N) >= f where shift - tau*log(N) is at least cap0's dip (see
    round_domain), up to the float error 4*gamma_2*L of shift and dip."""
    # where a check fails, the clamp has not moved g'(0) or g'(x_max): it moves
    # them only to slopes in [-v/2, 0) or below -2/v (see round_domain)
    d0, d1, v, tau = smooth._slope_start, smooth._slope_end, smooth.v, smooth.tau
    slope_start = f"g'(0) = {d0:.6g} is outside [-v, 0) for v = {v:.6g}"
    messages = (f"tau = {tau:.6g} is below the float resolution floor {tau - smooth.margins.resolution:.6g} of this polygon",
                slope_start, slope_start, f"g'(x_max) = {d1:.6g} is not below -1/v = {-1.0 / v:.6g}",
                "g(0) strays from b beyond the reported bound", "g(x_max) is not within the reported bound of 0",
                "containment failed: g dips below the polygon boundary")
    for check, margin, message in zip(Margins._fields, smooth.margins, messages):
        if not (margin > 0.0 if check in ("slope_start_high", "slope_end") else margin >= 0.0):
            raise SlopeConditionUnreachable(message, check, margin)


def _newton(f, lo: float, hi: float, x: float, tol: float):
    """Root of a decreasing f on [lo, hi] by safeguarded Newton from x (rtsafe;
    Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4).  f(x) returns
    (f(x), f'(x), data); a step outside the bracket, or with f' = 0, bisects.
    |step| < tol/2 is tested before the bracket, since a converged step lands
    on the bracket end it just moved.  Returns the last x evaluated and its data."""
    while True:
        fx, dfx, data = f(x)
        if fx == 0.0:
            return x, data
        lo, hi = (x, hi) if fx > 0.0 else (lo, x)
        new = x - fx / dfx if dfx else 0.5 * (lo + hi)
        if abs(new - x) < 0.5 * tol or hi - lo < 0.5 * tol:
            return x, data
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if not lo < new < hi:  # float spacing exceeds the tolerance, as for subnormal widths
            return x, data
        x = new


def gauss_point(smooth: SmoothDomain2D, d: LatticeDirection) -> Optional[tuple[float, float]]:
    """Boundary point whose outward normal is parallel to (l, m).

    g is strictly concave, so g'(x) = t = -l/m has one root, and it is the
    root of the log-odds form u = log A - log B, A and B the sums of
    w_i*|s_i - t| over the line slopes s_i above and below t.  Safeguarded
    Newton solves u = 0, started at the root of u for the two lines that
    bracket t in slope order (see the README).  Returns None for axis
    directions (l = 0 or m = 0, whose families live over the boundary axes)
    and when -l/m falls outside (g'(x_max), g'(0)), each end clamped to the
    line slopes, which cannot happen for directions with v < l/m < 1/v.
    """
    if d.l == 0 or d.m == 0:
        return None
    target = -d.l / d.m
    if not (smooth._slope_end < target < smooth._slope_start):
        return None
    up = [s - target if s > target else 0.0 for s in smooth._slopes]
    down = [target - s if s < target else 0.0 for s in smooth._slopes]
    up2, down2 = list(map(operator.mul, up, up)), list(map(operator.mul, down, down))

    def log_odds(x: float):  # u and u' = -(sum w*(s - t)^2 / A + sum w*(t - s)^2 / B) / tau
        g, _, weights = smooth._evaluate(x)
        above, below = sum(map(operator.mul, weights, up)), sum(map(operator.mul, weights, down))
        if not (above and below):  # one side's weights underflow: only the sign of u is known
            return above - below, 0.0, g
        spread = sum(map(operator.mul, weights, up2)) / above + sum(map(operator.mul, weights, down2)) / below
        return math.log(above) - math.log(below), -spread / smooth.tau, g

    # the clamped slope range leaves a line steeper than t and one shallower
    ordered, key = smooth._by_slope, operator.itemgetter(1)
    i, j = bisect_left(ordered, target, key=key), bisect_right(ordered, target, key=key)
    (c_b, s_b), (c_a, s_a) = ordered[i - 1], ordered[j]
    x = (c_b - c_a + smooth.tau * math.log((s_a - target) / (target - s_b))) / (s_a - s_b)
    return _newton(log_odds, 0.0, smooth.x_max, min(max(x, 0.0), smooth.x_max), _X_BISECT_TOL * smooth.x_max)


def reeb_angular_velocity(smooth: SmoothDomain2D, w: Sequence[float]) -> tuple[float, float]:
    """Angular rotation rates (radians per unit time) of the Reeb flow
    over the boundary point w = (x, g(x)); both coordinates must be positive."""
    x, y = float(w[0]), float(w[1])
    if x <= 0.0 or y <= 0.0:
        raise AxisPoint("rotation rates need both moment coordinates positive")
    g, slope, _ = smooth._evaluate(x)
    if abs(y - g) > 1e-9 * (1.0 + abs(y)):
        raise ValueError("w does not lie on the rounded boundary graph")
    norm = math.hypot(slope, 1.0)
    nx, ny = -slope / norm, 1.0 / norm  # the unit outward normal
    factor = 2.0 * math.pi / (nx * x + ny * y)
    return (factor * nx, factor * ny)


def support_smooth(smooth: SmoothDomain2D, l: int, m: int) -> float:
    """max over the rounded region of l*x + m*g(x), the action l*x + m*y at
    the Gauss point of (l, m).  Without one, as for axis directions or -l/m
    outside gauss_point's clamped slope range, concavity makes l*x + m*g(x)
    monotone on [0, x_max]: the maximum is at x = 0 when -l/m is at or above
    the clamped g'(0), at x_max otherwise.  Raises ValueError unless l and m
    are non-negative integers, not both zero."""
    if type(l) is not int or type(m) is not int or l < 0 or m < 0 or (l == 0 and m == 0):
        raise ValueError(f"direction ({l!r}, {m!r}) must be nonzero with non-negative integer components")
    if l + m > smooth._order_limit:
        raise ValueError(f"l + m must be at most {smooth._order_limit} on this domain, or the support overflows a float")
    if m == 0:
        return l * smooth.x_max
    point = gauss_point(smooth, LatticeDirection(l, m))
    if point is None:
        x = 0.0 if -l / m >= smooth._slope_start else smooth.x_max
        point = (x, smooth.value(x))
    return l * point[0] + m * point[1]


def orbit_families(smooth: SmoothDomain2D, cutoff: float) -> list[ReebOrbitFamily]:
    """All orbit families of action at most the cutoff.

    Interior families are enumerated over integer pairs (l, m) with both
    components positive; the search box is finite because the action is
    at least l*x* + m*y* for any interior point (x*, y*), and each row of
    fixed m stops at the first l whose action passes the cutoff, without a
    solve once a solved point bounds that action past it.  Gauss points are
    solved for primitive directions only, and a multiple g*(l, m) shares
    the point of (l, m), its underlying simple family.  Axis families
    (l, 0) and (0, m) carry actions l*x_max and m*g(0).  Sorted by action,
    ties by (l, m).  Raises TooManyFamilies before any solve when the box
    l_max * m_max holds more than FAMILY_LIMIT (100,000) directions.
    """
    if not 0.0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    x_star = float(smooth.source.x_extent) / 2.0
    y_star = smooth.value(x_star)
    l_max = int(cutoff / x_star) + 1
    m_max = int(cutoff / y_star) + 1
    # the box bounds the axis families too: x_max >= x_star and g(0) >= y_star
    if l_max * m_max > FAMILY_LIMIT:
        raise TooManyFamilies(f"cutoff {cutoff:.6g} needs {l_max} x {m_max} directions, above the limit of {FAMILY_LIMIT}")
    families: list[ReebOrbitFamily] = []
    keep = cutoff * (1.0 + 1e-12)

    for (dl, dm), length in (((1, 0), smooth.x_max), ((0, 1), smooth.value(0.0))):
        j = 1
        while j * length <= keep:
            families.append(
                ReebOrbitFamily(
                    direction=LatticeDirection(j * dl, j * dm),
                    point=None,
                    action=j * length,
                    multiplicity=j,
                    underlying_simple=LatticeDirection(dl, dm),
                )
            )
            j += 1

    # The action is the support of the rounded domain in the direction
    # (l, m), non-decreasing in l as the domain lies in x >= 0.  So once the
    # computed action passes the cutoff by a relative 1e-9, far above its
    # float noise, no larger l in the row comes back under it.  A solved
    # point (x, y) lies on the rounded boundary, so l*x + m*y bounds that
    # support from below up to the same noise: once it passes stop at the
    # row's last point (for its first candidate, at the first point of the
    # nearest row above with one), a solve could keep nothing, and the row
    # breaks without it.  (l, m) and its primitive direction share the
    # correctly rounded -l/m, all that gauss_point reads, so each primitive
    # direction is solved once and its multiples reuse the point.
    stop = keep * (1.0 + 1e-9)
    points: dict[LatticeDirection, Optional[tuple[float, float]]] = {}
    above = None
    for m in range(1, m_max + 1):
        last = first = None
        for l in range(1, l_max + 1):
            if not -l / m < smooth._slope_start:
                continue  # shallower than g'(0): no Gauss point yet
            if (near := last or above) and l * near[0] + m * near[1] > stop:
                break
            g = math.gcd(l, m)
            simple = LatticeDirection(l // g, m // g)
            if simple not in points:
                points[simple] = gauss_point(smooth, simple)
            point = points[simple]
            if point is None:  # -l/m is at or below g'(x_max), as for every larger l
                break
            last, first = point, first or point
            action = l * point[0] + m * point[1]
            if action > stop:
                break
            if action <= keep:
                families.append(ReebOrbitFamily(direction=LatticeDirection(l, m), point=point, action=action,
                                                multiplicity=g, underlying_simple=simple))
        above = first or above
    families.sort(key=lambda fam: (fam.action, fam.direction.as_pair()))
    return families


def split_family(family: ReebOrbitFamily) -> OrbitSplit:
    """Resolve a family into its elliptic/hyperbolic orbit pair.

    Indices are 2(l+m)+1 and 2(l+m); both orbits keep ``family.action``
    under the identification of perturbed and unperturbed actions.
    """
    total = family.direction.l + family.direction.m
    return OrbitSplit(elliptic_cz=2 * total + 1, hyperbolic_cz=2 * total)


def capacity_via_spectrum(smooth: SmoothDomain2D, k: int) -> float:
    """Minimum action over directions summing to k, the spectral reading
    of the k-th capacity on the rounded domain.  h(l) = support_smooth(l,
    k - l) is convex, least at l* = k*(-g'(x_d))/(1 - g'(x_d)) where
    g(x_d) = x_d (see the README), so the minimum over l = 0..k takes one
    Newton solve for x_d and two support_smooth calls, at floor(l*) and
    floor(l*) + 1, each at most one Gauss solve.  Raises ValueError unless
    k is a positive integer."""
    if type(k) is not int or k < 1:
        raise ValueError("k must be a positive integer")
    if k > smooth._order_limit:
        raise ValueError(f"k must be at most {smooth._order_limit} on this domain, or the support overflows a float")

    def excess(x: float):
        g, slope, _ = smooth._evaluate(x)
        return g - x, slope - 1.0, slope

    slope = _newton(excess, 0.0, smooth.x_max, 0.5 * smooth.x_max, _X_BISECT_TOL * smooth.x_max)[1]
    low = math.floor(k * (-slope / (1.0 - slope)))
    return min(support_smooth(smooth, l, k - l) for l in (low, low + 1) if l <= k)


def boundary_polyline(smooth: SmoothDomain2D, samples: int = 512) -> list[tuple[float, float]]:
    """Sampled rounded boundary graph, for plotting."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return [
        (x, smooth.value(x))
        for x in (smooth.x_max * i / (samples - 1) for i in range(samples))
    ]
