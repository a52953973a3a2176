"""Output checks made apart from the program.

Nothing here imports toricap.  Each check recomputes the answer, or a
certificate for it, from the benchmark's own copy of the inputs (exact
Fractions and ints), or tests a property the method must have.  A check
returns None when the output is right and raises CheckFailed otherwise.
"""
from __future__ import annotations

import math
from fractions import Fraction

# relative slack for comparing float outputs with exact bounds
FLOAT_SLACK = 1e-9


class CheckFailed(AssertionError):
    """The program's output contradicts the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact geometry of a moment polygon given as a list of Fraction vertices


def support(vertices, l, m) -> Fraction:
    """max of l*x + m*y over the polygon, attained at a vertex."""
    return max(l * x + m * y for x, y in vertices)


def toric_capacity(vertices, k) -> Fraction:
    """c_k of the convex toric domain: min over l of support at (l, k - l)."""
    return min(support(vertices, l, k - l) for l in range(k + 1))


def diagonal(vertices) -> Fraction:
    """The t with (t, t) on the boundary graph."""
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        if x1 == x2:
            if y2 <= x1 <= y1:
                return x1
            continue
        # y - t changes sign on the edge; solve y1 + s(t - x1) = t
        s = (y2 - y1) / (x2 - x1)
        t = (y1 - s * x1) / (1 - s)
        if x1 <= t <= x2:
            return t
    raise CheckFailed("the benchmark's polygon misses the diagonal")


def spectrum_count(a, b, value) -> tuple[int, int]:
    """Entries of {i*a} + {j*b} (i, j >= 1) below and at most ``value``."""
    at_most = math.floor(value / a) + math.floor(value / b)
    below = math.ceil(value / a) - 1 + math.ceil(value / b) - 1
    return below, at_most


def is_kth_spectrum_value(a, b, k, value) -> bool:
    below, at_most = spectrum_count(a, b, value)
    return below < k <= at_most


# ---------------------------------------------------------------------------
# capacity-table


def check_toric_capacity(vertices, k, value, minimizer) -> None:
    """Certify the smallest global minimizer of the convex h(l).

    h(l) = support at (l, k - l) is convex in l, so h(l*-1) > h(l*) <= h(l*+1)
    proves that l* is the smallest integer minimizer and h(l*) the minimum.
    """
    l, m = minimizer
    expect(l + m == k and l >= 0 and m >= 0, f"minimizer {minimizer} does not sum to k={k}")
    h = support(vertices, l, m)
    expect(value == h, f"k={k}: value {value} differs from the support {h} at the minimizer")
    if l > 0:
        expect(support(vertices, l - 1, m + 1) > h, f"k={k}: ({l - 1},{m + 1}) is at least as good as {minimizer}")
    if m > 0:
        expect(support(vertices, l + 1, m - 1) >= h, f"k={k}: ({l + 1},{m - 1}) beats {minimizer}")


def check_ellipsoid_routes(a, b, k, toric_value, spectrum_value) -> None:
    """Both capacity routes agree, the value is the k-th spectrum entry,
    and balls give c * ceil(k/2)."""
    expect(toric_value == spectrum_value, f"E({a},{b}) k={k}: toric {toric_value} != spectrum {spectrum_value}")
    expect(is_kth_spectrum_value(a, b, k, spectrum_value), f"E({a},{b}) k={k}: {spectrum_value} is not the k-th entry")
    if a == b:
        expect(spectrum_value == a * ((k + 1) // 2), f"B({a}) k={k}: {spectrum_value} != c*ceil(k/2)")


def check_equal_diagonal_k(a, b, p, q, k, spectrum_value) -> None:
    """k = p + q for b/a = p/q in lowest terms, and the k-th spectrum
    value is k times the diagonal; for small p + q no smaller k works."""
    expect(k == p + q, f"E({a},{b}): find_k returned {k}, expected p+q = {p + q}")
    d = a * b / (a + b)
    expect(spectrum_value == k * d, f"E({a},{b}): spectrum value {spectrum_value} != k*diagonal {k * d}")
    expect(is_kth_spectrum_value(a, b, k, k * d), f"E({a},{b}): k*diagonal is not the k-th entry")
    if p + q <= 64:
        for j in range(1, k):
            expect(not is_kth_spectrum_value(a, b, j, j * d), f"E({a},{b}): smaller index {j} also works")


def check_enclosures(vertices, diag, pairs) -> None:
    """Every reported E(x_axis, y_axis) has the domain's diagonal and
    contains every vertex."""
    expect(diag == diagonal(vertices), f"reported diagonal {diag} is wrong")
    for a, b in pairs:
        expect(a * b / (a + b) == diag, f"E({a},{b}) has diagonal {a * b / (a + b)}, not {diag}")
        for x, y in vertices:
            expect(x / a + y / b <= 1, f"vertex ({x},{y}) lies outside E({a},{b})")


# ---------------------------------------------------------------------------
# reeb-spectrum


def _near_le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + FLOAT_SLACK * max(1.0, abs(rhs))


def check_orbit_families(vertices, v, hausdorff, cutoff, families) -> None:
    """Sandwich, completeness and index bookkeeping of an orbit list.

    ``families`` holds (l, m, action, multiplicity, cz_elliptic,
    cz_hyperbolic) rows.  Each action lies between the polygon's support
    in direction (l, m) and that support plus |(l, m)|_2 * d_H.  Every
    direction with v < l/m < 1/v, and every axis direction, whose upper
    bound is below the cutoff is listed; nothing above the cutoff is.
    """
    seen = set()
    for l, m, action, mult, cz_e, cz_h in families:
        expect((l, m) not in seen, f"family ({l},{m}) is listed twice")
        seen.add((l, m))
        low = float(support(vertices, l, m))
        high = low + math.hypot(l, m) * hausdorff
        expect(_near_le(low, action) and _near_le(action, high),
               f"({l},{m}): action {action!r} outside [{low!r}, {high!r}]")
        expect(_near_le(action, cutoff), f"({l},{m}): action {action!r} above the cutoff {cutoff}")
        expect(mult == math.gcd(l, m), f"({l},{m}): multiplicity {mult}")
        expect((cz_e, cz_h) == (2 * (l + m) + 1, 2 * (l + m)), f"({l},{m}): CZ indices {(cz_e, cz_h)}")
    a, b = vertices[-1][0], vertices[0][1]
    for l in range(0, math.floor(cutoff / a) + 1):
        for m in range(0, math.floor(cutoff / b) + 1):
            if (l, m) == (0, 0) or (l and m and not v < l / m < 1 / v):
                continue
            upper = float(support(vertices, l, m)) + math.hypot(l, m) * hausdorff
            if upper < cutoff * (1.0 - FLOAT_SLACK):
                expect((l, m) in seen, f"family ({l},{m}) with action below {upper!r} is missing")
    actions = [row[2] for row in families]
    expect(actions == sorted(actions), "families are not sorted by action")


def check_spectral_capacity(vertices, hausdorff, k, value) -> None:
    """c_k(polygon) <= capacity of the rounded domain <= c_k + k * d_H."""
    low = float(toric_capacity(vertices, k))
    high = low + k * hausdorff
    expect(_near_le(low, value) and _near_le(value, high),
           f"k={k}: spectral capacity {value!r} outside [{low!r}, {high!r}]")


def check_rounding(a, b, hausdorff, x_max, g0) -> None:
    """The rounded domain's extents stay within d_H outside the polygon's."""
    expect(hausdorff > 0, "Hausdorff bound must be positive")
    expect(_near_le(a, x_max) and _near_le(x_max, a + hausdorff), f"x_max {x_max!r} outside [{a}, {a}+d_H]")
    expect(_near_le(b, g0) and _near_le(g0, b + hausdorff), f"g(0) {g0!r} outside [{b}, {b}+d_H]")


# ---------------------------------------------------------------------------
# ledger-buildings: the canonical building of the unit-ball argument, as
# plain data in the JSON layout of the README


def canonical_building_payload(n: int, eps: Fraction) -> dict:
    """Closed form: a bottom sphere with n+1 positive ends of CZ n-1, n
    planes of energy 1/n and one epsilon plane carrying the divisor hit."""
    share = Fraction(1, n)
    cz = n - 1

    def end(action, sign, node, index):
        return {"cz": cz, "action": str(action), "sign": sign, "paired_with": [node, index]}

    planes = [
        {"id": f"plane_{i}", "level": 1, "kind": "top", "index": 0, "energy": str(share),
         "punctures": [end(share, "negative", "bottom", i)], "divisor_hits": 0}
        for i in range(n)
    ]
    planes.append(
        {"id": "plane_last", "level": 1, "kind": "top", "index": 0, "energy": str(eps),
         "punctures": [end(1, "negative", "bottom", n)], "divisor_hits": 1}
    )
    bottom_ends = [end(share, "positive", f"plane_{i}", 0) for i in range(n)]
    bottom_ends.append(end(1, "positive", "plane_last", 0))
    bottom = {"id": "bottom", "level": 0, "kind": "cotangent", "index": 0, "energy": "2",
              "punctures": bottom_ends, "divisor_hits": 0}
    return {"nodes": [bottom, *planes], "total_index": 0, "energy_budget": str(3 + eps)}


def building_as_payload(building) -> dict:
    """Read a Building's fields into the plain layout above."""
    nodes = []
    for nd in building.nodes:
        nodes.append({
            "id": nd.id, "level": nd.level, "kind": nd.kind, "index": nd.index,
            "energy": str(Fraction(nd.energy)),
            "punctures": [
                {"cz": p.cz, "action": str(Fraction(p.action)), "sign": p.sign,
                 "paired_with": list(p.paired_with) if p.paired_with else None}
                for p in nd.punctures
            ],
            "divisor_hits": nd.divisor_hits,
        })
    budget = building.energy_budget
    return {"nodes": nodes, "total_index": building.total_index,
            "energy_budget": None if budget is None else str(Fraction(budget))}


def check_canonical_building(building, n: int, eps: Fraction) -> None:
    expect(building_as_payload(building) == canonical_building_payload(n, eps),
           f"n={n}: building differs from the closed form")


def check_round_trip(original, restored) -> None:
    expect(restored == original, "JSON round trip changed the building")


CANONICAL_CHECKS = ("structure", "pairing", "tree", "index-total", "energy-positivity",
                    "energy-budget", "divisor-budget", "levels", "stability")


def check_report_passes(statuses: dict) -> None:
    expect(set(statuses) == set(CANONICAL_CHECKS), f"report runs checks {sorted(statuses)}")
    failed = [name for name, status in statuses.items() if status != "pass"]
    expect(not failed, f"canonical building fails {failed}")


def check_report_flags(statuses: dict, target: str) -> None:
    expect(statuses.get(target) == "fail", f"mutation aimed at {target!r} passes validation")


def check_partitions(n: int, eps: Fraction, solutions) -> None:
    expected = [tuple([Fraction(1, n)] * n + [eps])]
    expect([tuple(s) for s in solutions] == expected, f"n={n}: partitions {solutions!r}")


def check_min_punctures(n: int, value: int) -> None:
    expect(value == n + 1, f"n={n}: {value} punctures, expected n+1")


def check_forced_morse(n: int, value) -> None:
    expect(list(value) == [n - 1] * (n + 1), f"n={n}: Morse indices differ from [n-1]*(n+1)")


# ---------------------------------------------------------------------------
# CLI processes


def cli_exit_ok(code: int, stderr: str) -> bool:
    """True when a well-formed command exits 0 with no traceback."""
    return code == 0 and "Traceback" not in stderr


def check_cli_text(stdout: str, expected: str) -> None:
    expect(stdout.strip() == expected, f"printed {stdout.strip()!r}, expected {expected!r}")


def table_rows(stdout: str) -> list[list[str]]:
    """Tokens of each row of the CLI's aligned table, header dropped."""
    return [ln.split() for ln in stdout.splitlines()[1:] if ln.strip()]
