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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .moment_domain import LatticeDirection, MomentDomain2D, support

_X_BISECT_TOL = 1e-12
_GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
FAMILY_LIMIT = 100_000


class TooManyFamilies(ValueError):
    """orbit_families' search box would hold more directions than FAMILY_LIMIT."""


class SlopeConditionUnreachable(ValueError):
    """The requested (tau, v) cannot produce a valid rounded boundary."""


class AxisPoint(ValueError):
    """Rotation rates are undefined where a moment coordinate vanishes."""


class _Line(NamedTuple):
    """Affine function c + s*x."""

    c: float
    s: float


@dataclass(frozen=True)
class SmoothDomain2D:
    """Rounded domain with evaluable boundary function and derivative."""

    source: MomentDomain2D
    tau: float
    v: float
    lines: tuple[_Line, ...]
    shift: float
    x_max: float
    # the line slopes, g'(0) and g'(x_max), fixed at construction
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slope_start: float = field(init=False, repr=False, compare=False)
    _slope_end: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_slopes", tuple(s for _, s in self.lines))
        object.__setattr__(self, "_slope_start", self.derivative(0.0))
        object.__setattr__(self, "_slope_end", self.derivative(self.x_max))

    @property
    def hausdorff_bound(self) -> float:
        """The reported Hausdorff bound: the shift plus the extension x_max - a."""
        return self.shift + (self.x_max - float(self.source.x_extent))

    def _weights(self, x: float) -> tuple[float, list[float]]:
        """The lowest line at x and each line's soft-min weight there."""
        vals = [c + s * x for c, s in self.lines]
        lowest = min(vals)
        return lowest, [math.exp(-(val - lowest) / self.tau) for val in vals]

    def value(self, x: float) -> float:
        """g(x), evaluated with a stabilized log-sum-exp."""
        lowest, weights = self._weights(x)
        return self.shift + lowest - self.tau * math.log(sum(weights))

    def derivative(self, x: float) -> float:
        """g'(x), a weighted average of the line slopes."""
        weights = self._weights(x)[1]
        return sum(map(operator.mul, weights, self._slopes)) / sum(weights)


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
    down to ``-slope_floor`` about the edge's left endpoint."""
    lines: list[_Line] = []
    for (x1, y1), (x2, y2) in domain.edges():
        if x2 == x1:
            continue  # final vertical drop, handled by the steep cap
        s = min(float((y2 - y1) / (x2 - x1)), -slope_floor)
        lines.append(_Line(float(y1) - s * float(x1), s))
    return lines


def round_domain(domain: MomentDomain2D, tau: float, v: float) -> SmoothDomain2D:
    """Round a moment polygon at smoothing scale tau with slope bound v.

    shift = tau*log(N) + margin + support(Omega, (-s_cap0, 1)) - b over the
    N lines, read from the proof below: O(V) work and one O(log V) support
    call, before the O(V*N) certificate.

    Raises SlopeConditionUnreachable when the certificate of the boundary
    invariants fails, which happens when v is too small (or tau too large)
    for the requested polygon.  Rounding c*Omega at c*tau gives c times
    every length and action of rounding Omega at tau.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if not (0.0 < v < 1.0):
        raise SlopeConditionUnreachable("v must lie strictly between 0 and 1")

    a = float(domain.x_extent)
    b = float(domain.y_extent)
    x_pen, y_pen = domain.vertices[-2]
    f_end = float(y_pen) if x_pen == domain.x_extent else 0.0  # > 0 iff vertical drop

    slope_floor = tau / a
    if slope_floor >= v / 2.0:
        raise SlopeConditionUnreachable("tau too large relative to v for a slope floor")
    edge_lines = _edge_lines(domain, slope_floor)

    # slopes fall strictly and tilting sets a shallow prefix to exactly
    # -slope_floor, so the last line is the steepest
    s_cap1 = -max(2.0 / v, 2.0 * abs(edge_lines[-1].s))
    n_lines = len(edge_lines) + 2
    margin = tau * math.log(8.0 * n_lines * (abs(s_cap1) + 1.0) / v)

    s_cap0 = max(edge_lines[0].s, -v / 2.0)
    cap0 = _Line(b - margin, s_cap0)

    x_max = a + (f_end + 2.0 * margin) / abs(s_cap1) if f_end > 0.0 else a
    cap1 = _Line(-margin + abs(s_cap1) * x_max, s_cap1)

    lines = tuple(edge_lines + [cap0, cap1])

    # resolution floor: in floats each line value c + s*x on [0, x_max] is
    # off by at most gamma_2 * L, with L the largest |c| + |s|*x_max and
    # gamma_2 = eps/(1 - eps) (Higham 2002, Lemma 3.1 and eq. 3.4), so each
    # soft-min weight exp(-(val - lowest)/tau) is off by a factor up to
    # exp(2 * gamma_2 * L / tau).  Above the floor that factor is at most 2,
    # which the factor 8 in the margin absorbs at the slope conditions
    eps = sys.float_info.epsilon
    floor = 2.0 * eps / ((1.0 - eps) * math.log(2.0)) * max(abs(c) + abs(s) * x_max for c, s in lines)
    if tau < floor:
        raise SlopeConditionUnreachable(f"tau = {tau:.6g} is below the float resolution floor {floor:.6g} of this polygon")

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

    smooth = SmoothDomain2D(source=domain, tau=tau, v=v, lines=lines, shift=shift, x_max=x_max)
    _verify(smooth)
    return smooth


def _verify(smooth: SmoothDomain2D) -> None:
    """Certify the rounded-boundary invariants.

    Three hold by construction: every line slope is negative, so g' < 0; a
    soft-min of affine functions is concave, so g' is non-increasing; and
    the lowest line at each x in [0, a] lies at or below f, so
    g - f <= shift.  Containment g >= f is checked at the vertices only: on
    each edge f is linear and g concave, so g - f is concave there and
    smallest at an endpoint.  The endpoint checks are real conditions on
    (tau, v).
    """
    domain, v = smooth.source, smooth.v
    b = float(domain.y_extent)

    d0 = smooth._slope_start
    if not (-v <= d0 < 0.0):
        raise SlopeConditionUnreachable(f"g'(0) = {d0:.6g} is outside [-v, 0) for v = {v:.6g}")
    d1 = smooth._slope_end
    if not (d1 < -1.0 / v):
        raise SlopeConditionUnreachable(f"g'(x_max) = {d1:.6g} is not below -1/v = {-1.0 / v:.6g}")

    if abs(smooth.value(0.0) - b) > smooth.hausdorff_bound * (1.0 + 1e-9):
        raise SlopeConditionUnreachable("g(0) strays from b beyond the reported bound")
    g_end = smooth.value(smooth.x_max)
    if not (-1e-9 <= g_end <= smooth.hausdorff_bound * (1.0 + 1e-9)):
        raise SlopeConditionUnreachable("g(x_max) is not within the reported bound of 0")

    for x, y in domain.vertices:
        fx = float(y)
        if smooth.value(float(x)) < fx - 1e-9 * (1.0 + abs(fx)):
            raise SlopeConditionUnreachable("containment failed: g dips below the polygon boundary")


def gauss_point(smooth: SmoothDomain2D, d: LatticeDirection) -> Optional[tuple[float, float]]:
    """Boundary point whose outward normal is parallel to (l, m).

    Solves g'(x) = -l/m by bisection (g' is strictly monotone).  Returns
    None for axis directions (l = 0 or m = 0, whose families live over
    the boundary axes) and when -l/m falls outside the slope range, which
    cannot happen for directions with v <= m/l and l/m <= 1/v.
    """
    if d.l == 0 or d.m == 0:
        return None
    target = -d.l / d.m
    if not (smooth._slope_end < target < smooth._slope_start):
        return None

    def bisect(lo: float, hi: float, keep_left, shared: bool = False) -> float:
        while hi - lo > _X_BISECT_TOL * smooth.x_max:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # float spacing exceeds the tolerance, as for subnormal widths
                break
            slope = smooth.derivative(mid)
            if shared and slope == target:
                return 0.5 * (bisect(lo, mid, keep_left) + bisect(mid, hi, lambda s: s >= target))
            if keep_left(slope):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # when the direction is normal to a flat stretch, g' sits at the target
    # over a plateau (up to float resolution); report its midpoint.  The
    # searches for its two ends share their steps until g'(mid) == target
    x = bisect(0.0, smooth.x_max, lambda s: s > target, shared=True)
    return (x, smooth.value(x))


def reeb_angular_velocity(smooth: SmoothDomain2D, w: Sequence[float]) -> tuple[float, float]:
    """Angular rotation rates (radians per unit time) of the Reeb flow
    over the boundary point w = (x, g(x)); both coordinates must be positive."""
    x, y = float(w[0]), float(w[1])
    if x <= 0.0 or y <= 0.0:
        raise AxisPoint("rotation rates need both moment coordinates positive")
    if abs(y - smooth.value(x)) > 1e-9 * (1.0 + abs(y)):
        raise ValueError("w does not lie on the rounded boundary graph")
    slope = smooth.derivative(x)
    norm = math.hypot(slope, 1.0)
    nx, ny = -slope / norm, 1.0 / norm  # the unit outward normal
    factor = 2.0 * math.pi / (nx * x + ny * y)
    return (factor * nx, factor * ny)


def support_smooth(smooth: SmoothDomain2D, l: int, m: int) -> float:
    """max over the rounded region of l*x + m*g(x), by golden-section on
    the strictly concave objective (axis directions in closed form)."""
    if l < 0 or m < 0 or (l == 0 and m == 0):
        raise ValueError("direction must be nonzero with non-negative components")
    if m == 0:
        return l * smooth.x_max
    if l == 0:
        return m * smooth.value(0.0)

    def h(x: float) -> float:
        return l * x + m * smooth.value(x)

    lo, hi = 0.0, smooth.x_max
    tol = _GOLDEN_TOL * smooth.x_max
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    hc, hd = h(c), h(d)
    while hi - lo > tol:
        if hc >= hd:
            hi, d, hd = d, c, hc
            c = hi - _INV_PHI * (hi - lo)
            hc = h(c)
        else:
            lo, c, hc = c, d, hd
            d = lo + _INV_PHI * (hi - lo)
            hd = h(d)
    xm = 0.5 * (lo + hi)
    return max(h(xm), h(0.0), h(smooth.x_max))


def orbit_families(smooth: SmoothDomain2D, cutoff: float) -> list[ReebOrbitFamily]:
    """All orbit families of action at most the cutoff.

    Interior families are enumerated over integer pairs (l, m) with both
    components positive; the search box is finite because the action is
    at least l*x* + m*y* for any interior point (x*, y*), and each row of
    fixed m stops at the first l whose action passes the cutoff.  Axis families
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
    # float noise, no larger l in the row comes back under it.
    stop = keep * (1.0 + 1e-9)
    for m in range(1, m_max + 1):
        for l in range(1, l_max + 1):
            if not -l / m < smooth._slope_start:
                continue  # shallower than g'(0): no Gauss point yet
            point = gauss_point(smooth, LatticeDirection(l, m))
            if point is None:  # -l/m is at or below g'(x_max), as for every larger l
                break
            action = l * point[0] + m * point[1]
            if action > stop:
                break
            if action <= keep:
                g = math.gcd(l, m)
                families.append(
                    ReebOrbitFamily(
                        direction=LatticeDirection(l, m),
                        point=point,
                        action=action,
                        multiplicity=g,
                        underlying_simple=LatticeDirection(l // g, m // g),
                    )
                )
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
    of the k-th capacity on the rounded domain."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return min(support_smooth(smooth, l, k - l) for l in range(k + 1))


def boundary_polyline(smooth: SmoothDomain2D, samples: int = 512) -> list[tuple[float, float]]:
    """Sampled rounded boundary graph, for plotting."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return [
        (x, smooth.value(x))
        for x in (smooth.x_max * i / (samples - 1) for i in range(samples))
    ]
