"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every tolerance is pinned here, not deferred.
"""
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from toricap.moment_domain import (
    EllipsoidSpec,
    LatticeDirection,
    ball,
    diagonal,
    make_polygon_domain,
    support,
)
from toricap.capacities import (
    find_k_equal_diagonal,
    gh_capacity_toric4,
    gh_spectrum_ellipsoid,
    gw_tangency_count,
    torus_descendant,
)
from toricap.rounding_reeb import (
    ReebOrbitFamily,
    capacity_via_spectrum,
    gauss_point,
    orbit_families,
    round_domain,
    split_family,
    support_smooth,
)
from toricap.sft_ledger import (
    Building,
    building_validate,
    canonical_ball_building,
    energy_partition_solve,
    forced_morse_indices,
    min_positive_punctures,
    punctured_sphere_index,
)


def report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


def test_criterion_1_ellipsoid_spectrum_and_cross_oracle():
    start = time.time()
    e12 = EllipsoidSpec((Fraction(1), Fraction(2)))
    values = [gh_spectrum_ellipsoid(e12, k).value for k in range(1, 6)]
    assert values == [1, 2, 2, 3, 4]

    rng = random.Random(20240901)
    for _ in range(200):
        a = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        e = EllipsoidSpec((min(a, b), max(a, b)))
        tri = e.simplex_domain()
        for k in range(1, 31):
            assert gh_capacity_toric4(tri, k).value == gh_spectrum_ellipsoid(e, k).value
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"E(1,2) spectrum 1,2,2,3,4 and 200 cross-oracle ellipsoids in {elapsed:.2f}s")


def test_criterion_2_ball_closed_form():
    tri = make_polygon_domain([(0, 1), (1, 0)])
    for k in range(1, 201):
        assert gh_capacity_toric4(tri, k).value == Fraction(math.ceil(k / 2))
    report(2, "c_k(B^4(1)) = ceil(k/2) exactly for k <= 200")


def test_criterion_3_diagonal_closed_forms():
    assert diagonal(EllipsoidSpec((Fraction(3), Fraction(6)))) == 2
    for n in range(1, 11):
        assert diagonal(ball(1, n)) == Fraction(1, n)
    report(3, "diagonal(E(3,6)) = 2 and diagonal(B^2n(1)) = 1/n for n <= 10")


def test_criterion_4_rational_k_identity():
    e12 = EllipsoidSpec((Fraction(1), Fraction(2)))
    k12 = find_k_equal_diagonal(e12)
    assert k12 == 3
    assert gh_spectrum_ellipsoid(e12, 3).value == 2 == 3 * diagonal(e12)

    e23 = EllipsoidSpec((Fraction(2), Fraction(3)))
    k23 = find_k_equal_diagonal(e23)
    assert k23 == 5
    assert gh_spectrum_ellipsoid(e23, 5).value == 6 == 5 * diagonal(e23)
    report(4, "k = 3 with C_3 = 2 for E(1,2); k = 5 with C_5 = 6 for E(2,3)")


def test_criterion_5_rounding_convergence():
    tri = make_polygon_domain([(0, 1), (1, 0)])
    timings = []
    for tau in (1e-2, 1e-3, 1e-4):
        start = time.time()
        smooth = round_domain(tri, tau, 1.0 / 32.0)
        d_h = smooth.hausdorff_bound
        for k in range(1, 11):
            err = abs(capacity_via_spectrum(smooth, k) - math.ceil(k / 2))
            assert err <= 3.0 * d_h * k, f"tau={tau} k={k} err={err} bound={3 * d_h * k}"
        elapsed = time.time() - start
        assert elapsed < 1.0, f"tau={tau} took {elapsed:.2f}s"
        timings.append(elapsed)
    report(5, f"spectral capacities within 3*dH*k for tau=1e-2..1e-4 ({max(timings):.2f}s worst)")


def test_criterion_6_cz_split_table():
    expected = {(1, 0): (3, 2), (1, 1): (5, 4), (2, 3): (11, 10)}
    smooth = round_domain(make_polygon_domain([(0, 1), (1, 0)]), 1e-3, 1.0 / 32.0)
    for (l, m), (cz_e, cz_h) in expected.items():
        g = math.gcd(l, m)
        family = ReebOrbitFamily(
            LatticeDirection(l, m),
            gauss_point(smooth, LatticeDirection(l, m)),
            1.0,
            g,
            LatticeDirection(l // g, m // g),
        )
        split = split_family(family)
        assert (split.elliptic_cz, split.hyperbolic_cz) == (cz_e, cz_h)
    report(6, "CZ split (1,0)->(3,2), (1,1)->(5,4), (2,3)->(11,10)")


def test_criterion_7_gauss_support_consistency():
    fixtures = [
        make_polygon_domain([(0, 1), (1, 0)]),
        make_polygon_domain([(0, 2), (1, 0)]),
        make_polygon_domain([(0, 2), (1, Fraction(3, 2)), (2, 0)]),
    ]
    rng = random.Random(777)
    checked = 0
    for domain in fixtures:
        smooth = round_domain(domain, 1e-3, 1.0 / 32.0)
        coprime = [
            fam
            for fam in orbit_families(smooth, 10.0)
            if fam.point is not None and fam.multiplicity == 1
        ]
        assert coprime
        for _ in range(167):
            fam = rng.choice(coprime)
            l, m = fam.direction.as_pair()
            action = l * fam.point[0] + m * fam.point[1]
            sup = support_smooth(smooth, l, m)
            assert abs(action - sup) <= 1e-9 * (1.0 + action)
            checked += 1
    assert checked >= 500
    report(7, f"{checked} sampled coprime directions: |action - support| <= 1e-9*(1+action)")


def test_criterion_8_ledger_forced_structure():
    for n in range(2, 9):
        assert min_positive_punctures(n, n - 1, n - 1) == n + 1
        assert forced_morse_indices(n) == [n - 1] * (n + 1)
    for n in range(2, 11):
        assert punctured_sphere_index(n, [n - 1] * (n + 1), tangency_order=n - 1) == 0
    report(8, "min punctures n+1, forced Morse all n-1 (n <= 8), zero index (n <= 10)")


def test_criterion_9_counts():
    for n in range(1, 9):
        assert gw_tangency_count(n) == math.factorial(n - 1)
    rng = random.Random(555)
    for k in range(2, 9):
        classes = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k - 1)]
        closing = tuple(-sum(c[i] for c in classes) for i in range(2))
        assert torus_descendant(k, classes + [closing]) == math.factorial(k - 2)
    rejected = 0
    while rejected < 100:
        k = rng.randint(2, 8)
        classes = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
        if all(sum(c[i] for c in classes) == 0 for i in range(2)):
            continue
        assert torus_descendant(k, classes) == 0
        rejected += 1
    report(9, "(n-1)! tangency counts and (k-2)!/0 descendant dichotomy (100 nonzero-sum)")


def test_criterion_10_energy_partition_uniqueness():
    for n in range(2, 7):
        eps = Fraction(1, n + 3)
        solutions = energy_partition_solve(n, eps)
        assert solutions == [tuple([Fraction(1, n)] * n) + (eps,)]
        assert len(energy_partition_solve(n, Fraction(2, n))) >= 2
    report(10, "unique partition at eps = 1/(n+3); second candidate at eps = 2/n (n = 2..6)")


def test_criterion_11_property_suites():
    start = time.time()
    rng = random.Random(31337)
    pentagon = make_polygon_domain([(0, 2), (1, Fraction(3, 2)), (2, 0)])
    square = make_polygon_domain([(0, 1), (1, 1), (1, 0)])
    tri11 = make_polygon_domain([(0, 1), (1, 0)])

    # support homogeneity
    for _ in range(100):
        v = (Fraction(rng.randint(0, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        c = Fraction(rng.randint(1, 15), rng.randint(1, 15))
        assert support(pentagon, (c * v[0], c * v[1])) == c * support(pentagon, v)

    # support monotonicity under inclusion
    assert square.includes_domain(tri11)
    for _ in range(100):
        v = (rng.randint(0, 9), rng.randint(0, 9))
        if v == (0, 0):
            v = (1, 0)
        assert support(tri11, v) <= support(square, v)

    # capacity scaling and domain monotonicity
    for _ in range(100):
        k = rng.randint(1, 20)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert gh_capacity_toric4(pentagon.scaled(c), k).value == c * gh_capacity_toric4(pentagon, k).value
        assert gh_capacity_toric4(tri11, k).value <= gh_capacity_toric4(square, k).value

    # building validation rejects single-field mutations
    def mutate(base, node_id, **changes):
        nodes = tuple(replace(nd, **changes) if nd.id == node_id else nd for nd in base.nodes)
        return Building(nodes=nodes, total_index=base.total_index, energy_budget=base.energy_budget)

    cases = 0
    for n in range(2, 7):
        eps = Fraction(1, n + 3)
        base = canonical_ball_building(n, eps)
        assert building_validate(base).ok
        for node in base.nodes:
            # index bump breaks the declared index total
            assert not building_validate(mutate(base, node.id, index=node.index + 1)).ok
            cases += 1
            if node.kind == "top":
                # an extra divisor hit breaks the intersection budget
                assert not building_validate(
                    mutate(base, node.id, divisor_hits=node.divisor_hits + 1)
                ).ok
                cases += 1
                # orbit-data bumps break the pairing consistency
                for field_change in ("cz", "action"):
                    p = node.punctures[0]
                    bad = replace(p, **{field_change: getattr(p, field_change) + 1})
                    assert not building_validate(
                        mutate(base, node.id, punctures=(bad,))
                    ).ok
                    cases += 1
        # draining the epsilon plane breaks energy positivity
        eps_node = base.node("plane_last")
        assert not building_validate(
            mutate(base, "plane_last", energy=eps_node.energy - eps)
        ).ok
        cases += 1
    assert cases >= 100
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(11, f"homogeneity/monotonicity/scaling x100 and {cases} building mutations in {elapsed:.2f}s")
