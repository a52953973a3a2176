"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Feeds every check the program's real answer, which must pass, and one or
more known-wrong answers, each of which must be rejected.  Exits 1 if a
right answer is rejected or a wrong one slips through.
"""
from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction

import checks
import run
import workloads

results: list[bool] = []


def accepts(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"FAIL  {name}: the right answer is rejected ({exc})")
        results.append(False)
    else:
        print(f"ok    {name}: the right answer passes")
        results.append(True)


def rejects(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        print(f"ok    {name}: rejected ({exc})")
        results.append(True)
    else:
        print(f"FAIL  {name}: the wrong answer passes")
        results.append(False)


def capacity_checks(tc) -> None:
    cap, md = tc.capacities, tc.moment_domain
    rng = random.Random(7)
    verts = workloads.concave_polygon(rng, 12, Fraction(3, 2), Fraction(1))
    k = 40
    r = cap.gh_capacity_toric4(md.make_polygon_domain(verts), k)
    l, m = r.minimizer.as_pair()
    accepts("toric minimizer certificate", checks.check_toric_capacity, verts, k, r.value, (l, m))
    rejects("toric: minimizer one step right", checks.check_toric_capacity, verts, k,
            checks.support(verts, l + 1, m - 1), (l + 1, m - 1))
    rejects("toric: minimizer one step left", checks.check_toric_capacity, verts, k,
            checks.support(verts, l - 1, m + 1), (l - 1, m + 1))
    rejects("toric: value off by 1/1000", checks.check_toric_capacity, verts, k, r.value + Fraction(1, 1000), (l, m))
    # a tie: the unit square's h(l) = k is flat, the smallest minimizer is (0, k)
    square = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))]
    rejects("toric: a later minimizer of a tie", checks.check_toric_capacity, square, 5, Fraction(5), (1, 4))

    a, b, k = Fraction(2, 3), Fraction(7, 5), 57
    spec = md.EllipsoidSpec((a, b))
    toric = cap.gh_capacity_toric4(spec.simplex_domain(), k).value
    spectral = cap.gh_spectrum_ellipsoid(spec, k).value
    accepts("ellipsoid routes", checks.check_ellipsoid_routes, a, b, k, toric, spectral)
    nxt = min(x for x in (a * (spectral // a + 1), b * (spectral // b + 1)))
    rejects("ellipsoid: both routes give the (k+1)-th entry", checks.check_ellipsoid_routes, a, b, k, nxt, nxt)
    rejects("ellipsoid: routes disagree", checks.check_ellipsoid_routes, a, b, k, toric, nxt)
    c = Fraction(3, 4)
    rejects("ball: c*floor(k/2) for odd k", checks.check_ellipsoid_routes, c, c, 7, 3 * c, 3 * c)

    a, b = Fraction(1, 2), Fraction(1, 2) * Fraction(7, 3)
    e = md.EllipsoidSpec((a, b))
    kk = cap.find_k_equal_diagonal(e)
    accepts("find_k = p+q", checks.check_equal_diagonal_k, a, b, 7, 3, kk, cap.gh_spectrum_ellipsoid(e, kk).value)
    d = a * b / (a + b)
    rejects("find_k: p+q+1", checks.check_equal_diagonal_k, a, b, 7, 3, kk + 1, (kk + 1) * d)
    rejects("find_k: spectrum value off", checks.check_equal_diagonal_k, a, b, 7, 3, kk, kk * d + 1)

    verts = workloads.concave_polygon(rng, 9)
    s = md.equal_diagonal_enclosing_ellipsoids(md.make_polygon_domain(verts))
    pairs = [(p.x_axis, p.y_axis) for p in s.pairs]
    accepts("enclosures", checks.check_enclosures, verts, s.diagonal, pairs)
    x_axis, y_axis = pairs[0]
    rejects("enclosure: axis shrunk", checks.check_enclosures, verts, s.diagonal, [(x_axis * Fraction(99, 100), y_axis)])
    smaller = s.diagonal * Fraction(101, 100)
    rejects("enclosure: too small for a vertex", checks.check_enclosures, verts, s.diagonal,
            [(smaller * 2, smaller * 2)] + pairs)
    rejects("enclosure: wrong diagonal", checks.check_enclosures, verts, s.diagonal + Fraction(1, 100), pairs)


def reeb_checks(tc) -> None:
    md, rr = tc.moment_domain, tc.rounding_reeb
    verts = workloads.concave_polygon(random.Random(3), 6)
    smooth = rr.round_domain(md.make_polygon_domain(verts), 1e-3, workloads.REEB_V)
    h, cutoff = smooth.hausdorff_bound, 4.0
    rows = workloads._family_rows(rr, rr.orbit_families(smooth, cutoff))
    accepts("orbit families", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff, rows)
    interior = next(i for i, r in enumerate(rows) if r[0] and r[1])
    l, m, action, g, cz_e, cz_h = rows[interior]
    rejects("families: one dropped", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff,
            rows[:interior] + rows[interior + 1:])
    shifted = rows[:interior] + [(l + 1, m, action, g, cz_e + 2, cz_h + 2)] + rows[interior + 1:]
    rejects("families: one shifted to (l+1, m)", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff,
            shifted)
    rejects("families: one above the cutoff", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff,
            rows + [(20, 20, 40.0, 20, 81, 80)])
    for label, bad in (("multiplicity", (l, m, action, g + 1, cz_e, cz_h)),
                       ("CZ indices", (l, m, action, g, cz_e + 1, cz_h)),
                       ("action below the support", (l, m, action - 2 * h * (l + m), g, cz_e, cz_h))):
        rejects(f"families: wrong {label}", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff,
                rows[:interior] + [bad] + rows[interior + 1:])
    rejects("families: listed twice", checks.check_orbit_families, verts, workloads.REEB_V, h, cutoff,
            rows + [rows[interior]])

    k = 3
    value = rr.capacity_via_spectrum(smooth, k)
    accepts("spectral capacity sandwich", checks.check_spectral_capacity, verts, h, k, value)
    rejects("spectral capacity: above c_k + k*d_H", checks.check_spectral_capacity, verts, h, k, value + k * h)
    rejects("spectral capacity: below c_k", checks.check_spectral_capacity, verts, h, k,
            float(checks.toric_capacity(verts, k)) - 1e-6)
    accepts("rounding extents", checks.check_rounding, 1.0, 1.0, h, smooth.x_max, smooth.value(0.0))
    rejects("rounding: g(0) beyond b + d_H", checks.check_rounding, 1.0, 1.0, h, smooth.x_max, 1.0 + 2 * h)


def ledger_checks(tc) -> None:
    sl = tc.sft_ledger
    n, eps = 7, Fraction(1, 20)
    building = sl.canonical_ball_building(n, eps)
    accepts("canonical building closed form", checks.check_canonical_building, building, n, eps)
    plane = building.nodes[3]
    wrong = dataclasses.replace(building, nodes=building.nodes[:3] + (
        dataclasses.replace(plane, energy=plane.energy + 1),) + building.nodes[4:])
    rejects("canonical building: one energy changed", checks.check_canonical_building, wrong, n, eps)
    restored = sl.building_from_json(sl.building_to_json(building))
    accepts("JSON round trip", checks.check_round_trip, building, restored)
    rejects("JSON round trip: a changed building", checks.check_round_trip, building, wrong)
    statuses = {r.check: r.status for r in sl.building_validate(building).results}
    accepts("canonical building passes validation", checks.check_report_passes, statuses)
    rejects("validation: one check failed", checks.check_report_passes, dict(statuses, tree="fail"))
    item = {"n": n, "epsilon": eps, "index_node": "bottom", "plane": "plane_2"}
    for target, mutant in workloads._mutants(building, item):
        mutant_statuses = {r.check: r.status for r in sl.building_validate(mutant).results}
        accepts(f"mutation aimed at {target} is flagged", checks.check_report_flags, mutant_statuses, target)
        rejects(f"mutation aimed at {target} accepted by the validator", checks.check_report_flags, statuses, target)
    accepts("forced partition", checks.check_partitions, n, eps, sl.energy_partition_solve(n, eps))
    rejects("partition: epsilon swapped in", checks.check_partitions, n, eps, [[eps] + [Fraction(1, n)] * n])
    accepts("min punctures = n+1", checks.check_min_punctures, n, sl.min_positive_punctures(n, n - 1, n - 1))
    rejects("min punctures: n", checks.check_min_punctures, n, n)
    accepts("forced Morse indices", checks.check_forced_morse, n, sl.forced_morse_indices(n))
    rejects("Morse indices: one lowered", checks.check_forced_morse, n, [n - 1] * n + [n - 2])


def cli_checks(tc) -> None:
    tri11 = tc.moment_domain.make_polygon_domain([(0, 1), (1, 0)])
    h = tc.rounding_reeb.round_domain(tri11, 1e-3, workloads.REEB_V).hausdorff_bound

    def out(argv, text):
        return lambda: workloads.check_cli_output(argv, text, h)

    rejects("cli diag: 3 for E(3,6)", out("diag --ellipsoid 3,6", "3\n"))
    accepts("cli diag: 2 for E(3,6)", out("diag --ellipsoid 3,6", "2\n"))
    rejects("cli lagcap: 1/4", out("lagcap --shape ball --capacity 1 --n 3", "1/4\n"))
    table = "k  value  minimizer  path\n" + "".join(f"{k}  {v}  [0, 0]  spectrum\n" for k, v in
                                                 zip(range(1, 6), (1, 2, 3, 3, 4)))
    rejects("cli gh: 1,2,3,3,4", out("gh --ellipsoid 1,2 --k 1..5", table))
    rejects("cli partition: epsilon 1/10", out("ledger --partition --n 2 --epsilon 1/5", '[["1/2","1/2","1/10"]]'))
    rejects("cli counts: 24/120", out("ledger --counts --n 6",
                                      '{"gw_tangency_count": 24, "torus_descendant_zero_sum": 120}'))
    spectrum = ("l m gcd action cz_e cz_h\n1 0 1 1 3 2\n0 1 1 1.00109859226 3 2\n"
                "2 0 2 2 5 4\n0 2 2 2.00219718451 5 4\n")
    rejects("cli spectrum: (1,1) dropped", out(
        "spectrum --polygon tri11.json --K 2.1 --tau 1e-3 --boundary-out rim.csv", spectrum))
    ok = checks.cli_exit_ok(1, "Traceback (most recent call last):\n  ...\nTypeError: x\n")
    print(("FAIL" if ok else "ok  ") + "  cli exit: a traceback with exit 1 is a failure")
    results.append(not ok)
    ok = checks.cli_exit_ok(0, "")
    print(("ok  " if ok else "FAIL") + "  cli exit: exit 0 with a clean stderr passes")
    results.append(ok)


def main() -> int:
    tc = run.import_program()
    capacity_checks(tc)
    reeb_checks(tc)
    ledger_checks(tc)
    cli_checks(tc)
    print(f"{sum(results)} of {len(results)} self-test cases behave as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
