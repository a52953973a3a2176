"""Index formulas, forced-structure solvers, and building validation."""
import gc
import itertools
import json
import random
import re
import time
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricap.sft_ledger import (
    PARTITION_AREA_LIMIT,
    PARTITION_LIMIT,
    Building,
    CheckResult,
    CurveNode,
    EpsilonTooLarge,
    IndexBoundUnreachable,
    Puncture,
    TooManyPartitions,
    ValidationReport,
    building_from_json,
    building_to_json,
    building_validate,
    canonical_ball_building,
    cz_from_morse,
    energy_partition_check,
    energy_partition_solve,
    forced_morse_indices,
    min_positive_punctures,
    punctured_sphere_index,
    report_to_json,
)
from toricap.moment_domain import as_rational, format_rational


def index_oracle(n, cz_tuple, tangency_order):
    """Oracle: the index formula re-derived term by term."""
    l = len(cz_tuple)
    return (n - 3) * (2 - l) + sum(cz_tuple) - 2 * n + 2 - 2 * tangency_order


def min_punctures_by_tuple_search(n, tangency_order, morse_bound, l_cap=12):
    """Oracle: smallest l with a non-negative index over all CZ tuples."""
    for l in range(1, l_cap + 1):
        for tup in itertools.product(range(morse_bound + 1), repeat=l):
            if index_oracle(n, tup, tangency_order) >= 0:
                return l
    raise AssertionError("no admissible l found")


def min_punctures_by_index_loop(n, tangency_order, morse_bound, l_cap=60):
    """Oracle: add punctures with CZ = Morse bound until the index is
    non-negative; None when no l up to l_cap works."""
    for l in range(1, l_cap + 1):
        if punctured_sphere_index(n, [morse_bound] * l, tangency_order) >= 0:
            return l
    return None


def min_punctures_by_sum_search(n, tangency_order, morse_bound, l_cap=40):
    """Oracle: same search, reduced over achievable CZ sums."""
    for l in range(1, l_cap + 1):
        for total in range(l * morse_bound + 1):
            if (n - 3) * (2 - l) + total - 2 * n + 2 - 2 * tangency_order >= 0:
                return l
    raise AssertionError("no admissible l found")


class TestCzFromMorse:
    def test_zero_maslov_identity(self):
        assert cz_from_morse(2) == 2
        assert cz_from_morse(0) == 0


class TestSphereIndex:
    def test_collapses_to_zero_at_forced_data(self):
        for n in range(2, 11):
            assert punctured_sphere_index(n, [n - 1] * (n + 1), tangency_order=n - 1) == 0

    def test_two_plane_case(self):
        assert punctured_sphere_index(2, [1, 1], 0) == 0

    def test_toric_case_matches_rearranged_identity(self):
        # with n = 2, l = k + 1 punctures of CZ 1 and tangency order k - 1
        # the index vanishes exactly when the CZ values sum to k + 1
        for k in range(1, 9):
            assert punctured_sphere_index(2, [1] * (k + 1), tangency_order=k - 1) == 0

    def test_linearity_in_cz_and_tangency(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(2, 7)
            l = rng.randint(1, 6)
            czs = [rng.randint(0, 2 * n) for _ in range(l)]
            t = rng.randint(0, 5)
            base = punctured_sphere_index(n, czs, t)
            bumped = list(czs)
            slot = rng.randrange(l)
            bumped[slot] += 1
            assert punctured_sphere_index(n, bumped, t) == base + 1
            assert punctured_sphere_index(n, czs, t + 1) == base - 2
            assert base == index_oracle(n, czs, t)

    def test_no_punctures_rejected(self):
        for empty in ([], ()):
            with pytest.raises(ValueError, match="^nonconstant curves carry at least one puncture$"):
                punctured_sphere_index(3, empty)

    def test_negative_tangency_rejected(self):
        with pytest.raises(ValueError, match="^tangency order must be non-negative$"):
            punctured_sphere_index(2, [1, 1], -1)
        assert punctured_sphere_index(2, [1, 1]) == punctured_sphere_index(2, [1, 1], 0) == 0


class TestMinPositivePunctures:
    def test_maximal_tangency_forces_n_plus_one(self):
        for n in range(2, 9):
            assert min_positive_punctures(n, n - 1, n - 1) == n + 1

    def test_k_plus_one_in_dimension_two(self):
        for k in range(1, 7):
            assert min_positive_punctures(2, k - 1, 1) == k + 1

    def test_no_tangency_needs_two(self):
        assert min_positive_punctures(2, 0, 1) == 2

    def test_agrees_with_tuple_brute_force_small(self):
        for n in range(2, 5):
            for t in range(0, n):
                assert min_positive_punctures(n, t, n - 1) == min_punctures_by_tuple_search(
                    n, t, n - 1
                )

    def test_unreachable_bound_raises_instead_of_hanging(self):
        # Each added puncture changes the index by M - (n - 3) = -1 here.
        with pytest.raises(IndexBoundUnreachable):
            min_positive_punctures(5, 0, 1)
        with pytest.raises(IndexBoundUnreachable):
            min_positive_punctures(3, 2, 0)

    def test_closed_form_matches_index_loop(self):
        for n in range(2, 9):
            for t in range(0, 6):
                for m in range(0, 11):
                    expected = min_punctures_by_index_loop(n, t, m)
                    if m - n + 3 <= 0:
                        assert expected is None
                        with pytest.raises(IndexBoundUnreachable):
                            min_positive_punctures(n, t, m)
                    else:
                        assert min_positive_punctures(n, t, m) == expected

    def test_agrees_with_sum_brute_force(self):
        for n in range(2, 9):
            for t in range(0, n):
                assert min_positive_punctures(n, t, n - 1) == min_punctures_by_sum_search(
                    n, t, n - 1
                )


class TestForcedMorse:
    def test_small_cases(self):
        assert forced_morse_indices(2) == [1, 1, 1]
        assert forced_morse_indices(3) == [2, 2, 2, 2]
        assert forced_morse_indices(5) == [4] * 6

    def test_matches_closed_form(self):
        for n in range(2, 9):
            assert forced_morse_indices(n) == [n - 1] * (n + 1)

    def test_uniqueness_by_exhaustion_small(self):
        # independent full enumeration for n = 2..5
        for n in range(2, 6):
            target = n * n - 1
            sols = [
                tup
                for tup in itertools.product(range(n), repeat=n + 1)
                if sum(tup) >= target
            ]
            assert sols == [tuple([n - 1] * (n + 1))]

    def test_large_n(self):
        assert forced_morse_indices(1000) == [999] * 1001


class TestEnergyPartition:
    def test_valid_partition(self):
        assert energy_partition_check(3, Fraction(1, 10), [Fraction(1, 3)] * 3 + [Fraction(1, 10)]) == ()
        for n in range(1, 8):
            assert energy_partition_check(n, Fraction(1, n + 1), [Fraction(1, n)] * n + [Fraction(1, n + 1)]) == ()

    def test_negative_area_flagged(self):
        violations = energy_partition_check(
            3,
            Fraction(1, 10),
            [Fraction(2, 3), Fraction(1, 3), Fraction(1, 3), Fraction(-7, 30)],
        )
        assert violations == (
            "area 3 is not positive (-7/30)",
            "area 0 is 2/3, expected 1/3",
            "final area is -7/30, expected epsilon = 1/10",
        )

    def test_violations_in_order(self):
        # positivity first, then the shares in area order, then the final area
        violations = energy_partition_check(2, "1/5", ["0", "-1", "1/2"])
        assert violations == (
            "area 0 is not positive (0)",
            "area 1 is not positive (-1)",
            "area 0 is 0, expected 1/2",
            "area 1 is -1, expected 1/2",
            "final area is 1/2, expected epsilon = 1/5",
        )
        assert energy_partition_check(2, "1/5", ["1/2", "1/2"]) == ("expected 3 areas, got 2",)

    def test_epsilon_cap(self):
        with pytest.raises(EpsilonTooLarge):
            energy_partition_check(3, Fraction(1, 3), [Fraction(1, 3)] * 4)

    def test_solver_unique_below_threshold(self):
        sols = energy_partition_solve(2, Fraction(1, 5))
        assert sols == [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 5))]

    def test_solver_unique_for_all_small_n(self):
        for n in range(2, 7):
            eps = Fraction(1, n + 3)
            sols = energy_partition_solve(n, eps)
            assert sols == [tuple([Fraction(1, n)] * n) + (eps,)]

    def test_solver_finds_second_candidate_above_threshold(self):
        for n in range(2, 7):
            sols = energy_partition_solve(n, Fraction(2, n))
            assert len(sols) >= 2
            assert tuple([Fraction(1, n)] * n) + (Fraction(2, n),) in sols

    def test_solver_candidates_satisfy_constraints(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(2, 6)
            eps = Fraction(rng.randint(1, 8), rng.randint(3, 24))
            for sol in energy_partition_solve(n, eps):
                assert len(sol) == n + 1
                assert sum(sol) == 1 + eps
                assert sol[-1] > 0
                assert all((x * n).denominator == 1 for x in sol[:-1])

    def test_solver_matches_brute_force(self):
        # every non-increasing n-tuple of multiples with sum/n < 1 + eps
        for n in range(1, 6):
            for eps in (Fraction(1, 2 * n + 1), Fraction(1, 2), Fraction(1), Fraction(7, 3)):
                total = 1 + eps
                expected = sorted(
                    tuple(Fraction(m, n) for m in ms) + (total - Fraction(sum(ms), n),)
                    for ms in itertools.combinations_with_replacement(range(int(n * total) + 1, 0, -1), n)
                    if Fraction(sum(ms), n) < total
                )
                assert energy_partition_solve(n, eps) == expected

    def test_solver_large_n_below_threshold(self):
        n, eps = 1000, Fraction(1, 1001)
        assert energy_partition_solve(n, eps) == [tuple([Fraction(1, n)] * n) + (eps,)]

    def test_one_area_lists_every_multiple(self):
        # one candidate per multiple; the walk visits no branch that yields nothing
        sols = energy_partition_solve(1, 9999)
        assert sols == [(Fraction(m), Fraction(10_000 - m)) for m in range(1, 10_000)]
        assert sols[0] == (Fraction(1), Fraction(9999))
        assert sols[-1] == (Fraction(9999), Fraction(1))

    def test_exactly_the_limit_is_listed(self):
        n, eps = 2, Fraction(199, 2)
        expected = sorted(
            (Fraction(m1, 2), Fraction(m2, 2), 1 + eps - Fraction(m1 + m2, 2))
            for m1, m2 in itertools.combinations_with_replacement(range(199, 0, -1), 2)
            if m1 + m2 < 2 * (1 + eps)
        )
        assert len(expected) == PARTITION_LIMIT
        sols = energy_partition_solve(n, eps)
        assert sols == expected
        assert sols[0] == (Fraction(1, 2), Fraction(1, 2), Fraction(199, 2))
        assert sols[-1] == (Fraction(199, 2), Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("eps", [100, 140])
    def test_one_past_the_limit_raises_with_the_fixed_count(self, eps):
        pairs = itertools.combinations_with_replacement(range(1, 2 * eps + 2), 2)
        assert sum(m1 + m2 < 2 * (1 + eps) for m1, m2 in pairs) == {100: 10_100, 140: 19_740}[eps]
        message = f"at least {PARTITION_LIMIT + 1} candidate partitions, above the limit of {PARTITION_LIMIT}"
        with pytest.raises(TooManyPartitions, match=f"^{message}$"):
            energy_partition_solve(2, eps)

    @pytest.mark.parametrize("n, eps", [(100, 1), (30, 1), (10**6, 10), (10**4, Fraction(9999, 10**4))])
    def test_too_many_candidates_raise_at_once(self, n, eps):
        with pytest.raises(TooManyPartitions, match=f"above the limit of {PARTITION_LIMIT}"):
            energy_partition_solve(n, eps)

    @pytest.mark.parametrize("n, eps, areas", [
        (1000, Fraction(1, 50), 2087 * 1001),  # 2,087 candidates (excesses up to 19), each of n + 1 areas
        (10**6, Fraction(1, 10**7), 10**6 + 1),  # one candidate
    ])
    def test_too_many_areas_raise_before_any_is_built(self, n, eps, areas):
        message = f"the candidate partitions hold {areas} areas, above the limit of {PARTITION_AREA_LIMIT}"
        with pytest.raises(TooManyPartitions, match=f"^{message}$"):
            energy_partition_solve(n, eps)

    def test_exactly_the_area_limit_is_listed(self, monkeypatch):
        n = PARTITION_AREA_LIMIT - 1  # one candidate of n + 1 areas
        (sol,) = energy_partition_solve(n, Fraction(1, 10**7))
        assert len(sol) == PARTITION_AREA_LIMIT
        assert sol[0] == sol[-2] == Fraction(1, n) and sol[-1] == Fraction(1, 10**7)
        # the 10,000 candidates of test_exactly_the_limit_is_listed hold 3 areas each
        monkeypatch.setattr("toricap.sft_ledger.PARTITION_AREA_LIMIT", 30_000)
        assert len(energy_partition_solve(2, Fraction(199, 2))) == PARTITION_LIMIT
        monkeypatch.setattr("toricap.sft_ledger.PARTITION_AREA_LIMIT", 29_999)
        with pytest.raises(TooManyPartitions, match="^the candidate partitions hold 30000 areas, above the limit of 29999$"):
            energy_partition_solve(2, Fraction(199, 2))


def oracle_validate(b: Building, check_unpaired_parity: bool = False) -> ValidationReport:
    """Oracle: the validator as it stood before the id map, looking every
    paired node up with Building.node and rescanning the nodes per level.
    A gluing is the set of its two ends, so each counts once, from
    whichever end is met."""
    results = []
    ids = [nd.id for nd in b.nodes]

    def add(check, ok, detail=""):
        results.append(CheckResult(check, "pass" if ok else "fail", detail))

    if len(set(ids)) != len(ids) or not b.nodes:
        add("structure", False, "node ids must be unique and nonempty")
        return ValidationReport(tuple(results))
    add("structure", True)

    pairing_ok, pairing_detail = True, ""
    edges = set()
    for nd in b.nodes:
        for i, p in enumerate(nd.punctures):
            if p.paired_with is None:
                continue
            other_id, j = p.paired_with
            try:
                other = b.node(other_id)
                q = other.punctures[j]
            except (KeyError, IndexError):
                pairing_ok, pairing_detail = False, f"{nd.id}[{i}] points at a missing puncture"
                break
            if q.paired_with != (nd.id, i):
                pairing_ok, pairing_detail = False, f"{nd.id}[{i}] is not reciprocally paired"
                break
            if q.sign == p.sign:
                pairing_ok, pairing_detail = False, f"{nd.id}[{i}] pairs equal signs"
                break
            upper = nd if p.sign == "negative" else other
            lower = other if p.sign == "negative" else nd
            if upper.level != lower.level + 1:
                pairing_ok, pairing_detail = (
                    False,
                    f"{lower.id} (level {lower.level}) must pair one level below {upper.id} (level {upper.level})",
                )
                break
            if q.cz != p.cz or q.action != p.action:
                pairing_ok, pairing_detail = False, f"{nd.id}[{i}] pairs mismatched orbit data"
                break
            edges.add(frozenset(((nd.id, i), (other_id, j))))
        if not pairing_ok:
            break
    add("pairing", pairing_ok, pairing_detail)

    adjacency = {i: set() for i in ids}
    for e in edges:
        (u, _), (w, _) = tuple(e)
        adjacency[u].add(w)
        adjacency[w].add(u)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    connected = len(seen) == len(ids)
    is_tree = connected and len(edges) == len(ids) - 1
    add(
        "tree",
        is_tree,
        "" if is_tree else f"{len(ids)} nodes, {len(edges)} pairing edges, connected={connected}",
    )

    total = sum(nd.index for nd in b.nodes)
    add("index-total", total == b.total_index, f"sum of indices is {total}, declared {b.total_index}")

    energy_ok, energy_detail = True, ""
    for nd in b.nodes:
        if nd.energy < 0:
            energy_ok, energy_detail = False, f"{nd.id} has negative energy"
            break
        if nd.is_trivial_cylinder():
            continue
        if nd.energy == 0:
            energy_ok, energy_detail = False, f"{nd.id} is nonconstant but has zero energy"
            break
    add("energy-positivity", energy_ok, energy_detail)

    if b.energy_budget is not None:
        total_energy = sum((nd.energy for nd in b.nodes), Fraction(0))
        add(
            "energy-budget",
            total_energy <= b.energy_budget,
            f"total {format_rational(total_energy)} vs budget {format_rational(b.energy_budget)}",
        )

    hits = sum(nd.divisor_hits for nd in b.nodes if nd.kind == "top")
    add("divisor-budget", hits <= 1 and all(nd.divisor_hits >= 0 for nd in b.nodes), f"{hits} hits across top nodes")

    levels = sorted({nd.level for nd in b.nodes})
    contiguous = levels == list(range(levels[0], levels[-1] + 1))
    add("levels", contiguous, f"occupied levels {levels}")

    stability_ok, stability_detail = True, ""
    for level in levels:
        at_level = [nd for nd in b.nodes if nd.level == level]
        if all(nd.kind == "symplectization" for nd in at_level) and all(
            nd.is_trivial_cylinder() for nd in at_level
        ):
            stability_ok, stability_detail = False, f"level {level} consists solely of trivial cylinders"
            break
    add("stability", stability_ok, stability_detail)

    if check_unpaired_parity:
        parity_ok, parity_detail = True, ""
        for nd in b.nodes:
            for i, p in enumerate(nd.punctures):
                if p.paired_with is None and p.cz % 2 == 0:
                    parity_ok, parity_detail = False, f"unpaired end {nd.id}[{i}] has even CZ {p.cz}"
        add("unpaired-parity", parity_ok, parity_detail)

    return ValidationReport(tuple(results))


def stacked_ball_building(n, epsilon):
    """The canonical building with every pairing re-routed through a
    middle level of trivial cylinders, which the stability check rejects."""
    b = canonical_ball_building(n, epsilon)
    bottom = b.node("bottom")
    new_bottom_punctures = tuple(
        replace(p, paired_with=(f"cyl_{i}", 0)) for i, p in enumerate(bottom.punctures)
    )
    cylinders = []
    planes = []
    for i, p in enumerate(bottom.punctures):
        plane_id = p.paired_with[0]
        plane = b.node(plane_id)
        cylinders.append(
            CurveNode(
                id=f"cyl_{i}",
                level=1,
                kind="symplectization",
                index=0,
                energy=Fraction(0),
                punctures=(
                    Puncture(p.cz, p.action, "negative", paired_with=("bottom", i)),
                    Puncture(p.cz, p.action, "positive", paired_with=(plane_id, 0)),
                ),
            )
        )
        planes.append(
            replace(
                plane,
                level=2,
                punctures=(replace(plane.punctures[0], paired_with=(f"cyl_{i}", 1)),),
            )
        )
    return Building(
        nodes=(replace(bottom, punctures=new_bottom_punctures), *cylinders, *planes),
        total_index=0,
        energy_budget=b.energy_budget,
    )


def _mutate_puncture(rng, nodes, p):
    """One random change to a puncture: its pairing, sign or orbit data."""
    ids = [nd.id for nd in nodes]
    kind = rng.randrange(8)
    if kind == 0:
        return replace(p, paired_with=("ghost", 0))
    if kind == 1 and p.paired_with is not None:
        target = next((nd for nd in nodes if nd.id == p.paired_with[0]), None)
        size = len(target.punctures) if target is not None else 1
        j = rng.choice([-1, -size, -size - 1, size, size + 2])
        return replace(p, paired_with=(p.paired_with[0], j))
    if kind == 2:
        return replace(p, sign="negative" if p.sign == "positive" else "positive")
    if kind == 3:
        return replace(p, cz=p.cz + rng.choice([-1, 1]))
    if kind == 4:
        return replace(p, action=p.action + Fraction(1, 13))
    if kind == 5:
        return replace(p, paired_with=None)
    return replace(p, paired_with=(rng.choice(ids), rng.randint(-2, 3)))


def mutate_building(rng, b):
    """One seeded random mutation of ids, levels, kinds, energies, indices,
    divisor hits, pairings, the node list, the index total or the budget."""
    nodes = list(b.nodes)
    total_index, budget = b.total_index, b.energy_budget
    kind = rng.randrange(12)
    if not nodes or kind == 0:
        budget = rng.choice([None, Fraction(0), (budget or 1) - Fraction(1, 11), (budget or 0) + 1])
    elif kind == 1:
        total_index += rng.choice([-1, 1])
    elif kind == 2:
        del nodes[rng.randrange(len(nodes))]
    elif kind == 3:
        extra = rng.choice(nodes)
        nodes.append(replace(extra, id=rng.choice([extra.id, f"copy_{len(nodes)}"])))
    else:
        k = rng.randrange(len(nodes))
        nd = nodes[k]
        if kind == 4:
            nd = replace(nd, id=rng.choice([nodes[rng.randrange(len(nodes))].id, "renamed"]))
        elif kind == 5:
            nd = replace(nd, level=nd.level + rng.choice([-2, -1, 1, 2]))
        elif kind == 6:
            nd = replace(nd, kind=rng.choice(["cotangent", "symplectization", "top"]))
        elif kind == 7:
            nd = replace(nd, energy=rng.choice([Fraction(0), Fraction(-1, 7), nd.energy + Fraction(1, 3)]))
        elif kind == 8:
            nd = replace(nd, index=nd.index + rng.choice([-1, 1]))
        elif kind == 9:
            nd = replace(nd, divisor_hits=rng.choice([-1, 0, 1, 2]))
        elif nd.punctures:
            punctures = list(nd.punctures)
            i = rng.randrange(len(punctures))
            punctures[i] = _mutate_puncture(rng, nodes, punctures[i])
            nd = replace(nd, punctures=tuple(punctures))
        nodes[k] = nd
    return Building(nodes=tuple(nodes), total_index=total_index, energy_budget=budget)


def genus_one_building():
    """Two nodes glued along two orbit pairs: connected, but a genus-one
    surface, since two gluings join two nodes."""
    def ends(sign, other):
        return tuple(Puncture(1, 1, sign, paired_with=(other, i)) for i in range(2))

    return Building(
        nodes=(
            CurveNode("a", 0, "cotangent", 0, 2, ends("positive", "b")),
            CurveNode("b", 1, "top", 0, 1, ends("negative", "a")),
        ),
        energy_budget=3,
    )


def two_node_building(bottom_action, plane_action):
    """A bottom sphere glued to one plane along one orbit, each end's
    action given on its own."""
    return Building(
        nodes=(
            CurveNode("bottom", 0, "cotangent", 0, 1, (Puncture(1, bottom_action, "positive", paired_with=("plane", 0)),)),
            CurveNode("plane", 1, "top", 0, 1, (Puncture(1, plane_action, "negative", paired_with=("bottom", 0)),)),
        ),
        energy_budget=2,
    )


def loaded_with_actions(b, spellings):
    """b written out, each end's action respelled in node order, read back."""
    payload = json.loads(building_to_json(b))
    ends = [p for nd in payload["nodes"] for p in nd["punctures"]]
    for p, spelling in zip(ends, spellings):
        p["action"] = spelling
    return building_from_json(json.dumps(payload))


def intruded_buildings():
    """The canonical n = 2 building with a third end pointing at plane_0[0],
    the later end of the reciprocal pair bottom[0] <-> plane_0[0]; the
    intruder comes last, then first, in node order."""
    b = canonical_ball_building(2, Fraction(1, 5))
    end = Puncture(1, Fraction(1, 2), "negative", paired_with=("plane_0", 0))
    intruder = CurveNode("intruder", 1, "top", 0, Fraction(1, 7), (end,))
    return [replace(b, nodes=b.nodes + (intruder,)), replace(b, nodes=(intruder,) + b.nodes)]


def seeded_corpus():
    """Hand-made edge cases plus 1,500 seeded random mutations of the
    canonical, stacked and lone-sphere buildings."""
    rng = random.Random(2018)
    bases = [canonical_ball_building(n, Fraction(1, n + 2)) for n in range(2, 9)]
    bases += [stacked_ball_building(n, Fraction(1, n + 3)) for n in (2, 3, 5)]
    for n in (3, 4):  # a lone bottom sphere: every end unpaired, of even CZ for n = 3
        bottom = canonical_ball_building(n, Fraction(1, 10)).node("bottom")
        ends = tuple(replace(p, paired_with=None) for p in bottom.punctures)
        bases.append(Building(nodes=(replace(bottom, punctures=ends),)))
    corpus = [Building(nodes=()), genus_one_building()]
    corpus += [canonical_ball_building(n, Fraction(1, 2 * n)) for n in (29, 100)]
    # equal actions held by distinct Fraction objects, built and loaded
    corpus += [two_node_building(Fraction(1, 3), Fraction(2, 6))]
    corpus += [loaded_with_actions(two_node_building(1, 1), ["1/3", "2/6"])]
    corpus += intruded_buildings()
    for _ in range(1500):
        b = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            b = mutate_building(rng, b)
        corpus.append(b)
    return corpus


def list_based_building_to_json(b):
    """The writer as it stood when each paired_with went out through list()."""
    nodes = [
        {"id": nd.id, "level": nd.level, "kind": nd.kind, "index": nd.index, "energy": str(nd.energy),
         "punctures": [{"cz": p.cz, "action": str(p.action), "sign": p.sign,
                        "paired_with": list(p.paired_with) if p.paired_with else None} for p in nd.punctures],
         "divisor_hits": nd.divisor_hits}
        for nd in b.nodes
    ]
    budget = None if b.energy_budget is None else str(b.energy_budget)
    return json.dumps({"nodes": nodes, "total_index": b.total_index, "energy_budget": budget})


def _mutate_node(building, node_id, **changes):
    nodes = tuple(
        replace(nd, **changes) if nd.id == node_id else nd for nd in building.nodes
    )
    return Building(nodes=nodes, total_index=building.total_index, energy_budget=building.energy_budget)


class TestBuildingValidation:
    def test_canonical_building_passes(self):
        for n in range(2, 7):
            report = building_validate(canonical_ball_building(n, Fraction(1, n + 2)))
            assert report.ok, report.failed()

    def test_index_mutation_rejected(self):
        b = canonical_ball_building(3, Fraction(1, 10))
        mutated = _mutate_node(b, "plane_0", index=1)
        report = building_validate(mutated)
        assert not report.ok
        assert any(r.check == "index-total" for r in report.failed())

    def test_energy_mutation_rejected(self):
        b = canonical_ball_building(3, Fraction(1, 10))
        victim = b.node("plane_last")
        mutated = _mutate_node(b, "plane_last", energy=victim.energy - Fraction(1, 10))
        report = building_validate(mutated)
        assert not report.ok
        assert any(r.check == "energy-positivity" for r in report.failed())

    def test_extra_divisor_hit_rejected(self):
        b = canonical_ball_building(3, Fraction(1, 10))
        mutated = _mutate_node(b, "plane_0", divisor_hits=1)
        report = building_validate(mutated)
        assert not report.ok
        assert any(r.check == "divisor-budget" for r in report.failed())

    def test_mismatched_pairing_rejected(self):
        b = canonical_ball_building(3, Fraction(1, 10))
        plane = b.node("plane_0")
        bad_punctures = (replace(plane.punctures[0], cz=5),)
        mutated = _mutate_node(b, "plane_0", punctures=bad_punctures)
        report = building_validate(mutated)
        assert not report.ok
        assert any(r.check == "pairing" for r in report.failed())

    def test_trivial_cylinder_level_rejected(self):
        report = building_validate(stacked_ball_building(3, Fraction(1, 10)))
        assert not report.ok
        assert any(r.check == "stability" for r in report.failed())

    def test_two_top_divisor_hits_rejected(self):
        b = canonical_ball_building(2, Fraction(1, 5))
        mutated = _mutate_node(b, "plane_1", divisor_hits=1)
        report = building_validate(mutated)
        failed_checks = {r.check for r in report.failed()}
        assert "divisor-budget" in failed_checks

    def test_disconnected_building_fails_tree_check(self):
        b = canonical_ball_building(2, Fraction(1, 5))
        orphan = CurveNode(
            id="orphan",
            level=1,
            kind="top",
            index=0,
            energy=Fraction(1, 7),
            punctures=(),
        )
        bigger = Building(
            nodes=b.nodes + (orphan,), total_index=0, energy_budget=None
        )
        report = building_validate(bigger)
        assert not report.ok
        assert any(r.check == "tree" for r in report.failed())

    def test_unpaired_parity_flag(self):
        node = CurveNode(
            id="half",
            level=0,
            kind="cotangent",
            index=0,
            energy=Fraction(1),
            punctures=(Puncture(cz=2, action=Fraction(1), sign="positive"),),
        )
        b = Building(nodes=(node,), total_index=0)
        assert building_validate(b).ok
        report = building_validate(b, check_unpaired_parity=True)
        assert not report.ok
        assert any(r.check == "unpaired-parity" for r in report.failed())

    def test_two_gluings_between_two_nodes_fail_tree_check(self):
        report = building_validate(genus_one_building(), check_unpaired_parity=True)
        assert [r.check for r in report.failed()] == ["tree"]
        assert report.failed()[0].detail == "2 nodes, 2 pairing edges, connected=True"

    def test_json_round_trip(self):
        b = canonical_ball_building(4, Fraction(1, 9))
        again = building_from_json(building_to_json(b))
        assert again == b
        assert building_validate(again).ok

    def test_reports_match_the_oracle_on_seeded_mutations(self):
        failed = set()
        for b in seeded_corpus():
            for parity in (False, True):
                report = building_validate(b, check_unpaired_parity=parity)
                assert report_to_json(report) == report_to_json(oracle_validate(b, parity))
                failed |= {r.check for r in report.failed()}
        # the mutations reach every check, not only the pairing one
        assert failed == {
            "structure", "pairing", "tree", "index-total", "energy-positivity",
            "energy-budget", "divisor-budget", "levels", "stability", "unpaired-parity",
        }

    def test_equal_actions_in_distinct_objects_pass_pairing(self):
        built = two_node_building(Fraction(1, 3), Fraction(2, 6))
        loaded = loaded_with_actions(two_node_building(1, 1), ["1/3", "2/6"])
        for b in (built, loaded):
            bottom_end, plane_end = (nd.punctures[0] for nd in b.nodes)
            assert bottom_end.action == plane_end.action and bottom_end.action is not plane_end.action
            report = building_validate(b)
            assert report.ok, report.failed()
            assert report_to_json(report) == report_to_json(oracle_validate(b))

    def test_third_end_at_the_later_end_of_a_pair_fails_pairing(self):
        for b in intruded_buildings():
            expected = oracle_validate(b)
            assert [r.detail for r in expected.failed() if r.check == "pairing"] == [
                "intruder[0] is not reciprocally paired"
            ]
            assert report_to_json(building_validate(b)) == report_to_json(expected)

    @pytest.mark.parametrize("nodes, detail", [
        pytest.param((
            CurveNode("a", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("b", 0)), Puncture(1, 1, "positive", ("b", 0)))),
            CurveNode("b", 1, "top", 0, 1, (Puncture(1, 1, "negative", ("a", 0)),)),
        ), "a[1] is not reciprocally paired", id="two ends of a node at one partner end"),
        pytest.param((
            CurveNode("a", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("a", 1)), Puncture(1, 1, "negative", ("a", 0)))),
            CurveNode("b", 1, "top", 0, 1, ()),
        ), "a (level 0) must pair one level below a (level 0)", id="an end glued to an earlier end of its node"),
        pytest.param((
            CurveNode("a", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("a", 1)), Puncture(1, 1, "positive", ("a", 0)))),
        ), "a[0] pairs equal signs", id="an end glued to an earlier end of its node, equal signs"),
        pytest.param((
            CurveNode("a", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive"), Puncture(1, 1, "negative", ("a", 0)))),
        ), "a[1] is not reciprocally paired", id="an end at an earlier, unpaired end of its node"),
        pytest.param((
            CurveNode("bottom", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("plane", -1)),)),
            CurveNode("plane", 1, "top", 0, 1, (Puncture(1, 1, "negative", ("bottom", 0)),)),
        ), "plane[0] is not reciprocally paired", id="a negative index on the first end"),
        pytest.param((
            CurveNode("bottom", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("plane", 0)),)),
            CurveNode("plane", 1, "top", 0, 1, (Puncture(1, 1, "negative", ("bottom", -1)),)),
        ), "bottom[0] is not reciprocally paired", id="a negative index on the second end"),
        pytest.param((
            CurveNode("bottom", 0, "cotangent", 0, 1, (Puncture(1, 1, "positive", ("plane", -1)),)),
            CurveNode("plane", 1, "top", 0, 1, (Puncture(1, 1, "negative", ("bottom", -1)),)),
        ), "bottom[0] is not reciprocally paired", id="negative indices on both ends"),
        pytest.param(genus_one_building().nodes, "", id="the genus-one two-gluing building"),
    ])
    def test_each_gluing_is_checked_at_its_first_end_as_the_oracle_checks_every_end(self, nodes, detail):
        b = Building(nodes)
        assert [r.detail for r in building_validate(b).results if r.check == "pairing"] == [detail]
        for order in (nodes, nodes[::-1]):
            for budget in (None, 3):
                b = Building(order, energy_budget=budget)
                for parity in (False, True):
                    assert building_validate(b, parity) == oracle_validate(b, parity)

    def test_json_bytes_match_the_list_based_writer(self):
        corpus = [canonical_ball_building(n, Fraction(1, n + 1)) for n in (2, 29, 960)] + seeded_corpus()
        for b in corpus:
            assert building_to_json(b) == list_based_building_to_json(b)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["energy", "action", "energy_budget"])
    def test_booleans_in_rational_fields_are_rejected(self, field, value):
        with pytest.raises(TypeError, match="^booleans are not accepted"):
            as_rational(value)
        payload = json.loads(building_to_json(canonical_ball_building(3, "1/10")))
        owner = {"action": payload["nodes"][1]["punctures"][0], "energy_budget": payload}.get(field, payload["nodes"][1])
        owner[field] = value
        with pytest.raises(TypeError, match=f"^booleans are not accepted as rational numbers, got {value}$"):
            building_from_json(json.dumps(payload))

    def test_validation_never_scans_for_a_node(self, monkeypatch):
        calls = []
        scan = Building.node
        monkeypatch.setattr(Building, "node", lambda b, node_id: calls.append(node_id) or scan(b, node_id))
        b = canonical_ball_building(40, Fraction(1, 41))
        assert building_validate(b, check_unpaired_parity=True).ok
        building_validate(mutate_building(random.Random(5), b))
        assert calls == []

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"id": ["x"]}, "id"),
            ({"id": 7}, "id"),
            ({"paired_with": ("plane_0", "0")}, "paired_with"),
            ({"paired_with": ("plane_0", 0.0)}, "paired_with"),
            ({"paired_with": ("plane_0",)}, "paired_with"),
            ({"paired_with": ["plane_0", 0]}, "paired_with"),
            ({"paired_with": ("plane_0", True)}, "paired_with"),
        ],
    )
    def test_malformed_ids_and_pairings_rejected_when_built(self, changes, field):
        with pytest.raises(ValueError, match=field):
            if field == "id":
                CurveNode(id=changes["id"], level=0, kind="top", index=0, energy=1, punctures=())
            else:
                Puncture(cz=1, action=1, sign="positive", **changes)

    @pytest.mark.parametrize("value", [1.0, 0.9, True, "1", Fraction(1)])
    @pytest.mark.parametrize("field", ["cz", "level", "index", "divisor_hits", "total_index"])
    def test_non_integer_fields_rejected_when_built(self, field, value):
        node = dict(id="x", level=0, kind="top", index=0, energy=1, punctures=())
        with pytest.raises(ValueError, match=field):
            if field == "cz":
                Puncture(cz=value, action=1, sign="positive")
            elif field == "total_index":
                Building(nodes=(), total_index=value)
            else:
                CurveNode(**{**node, field: value})


def test_building_json_is_one_line():
    # any indent sends json.dumps to its pure-Python encoder, several times
    # slower than the C one; this keeps that path from coming back unnoticed
    # without a timing gate
    assert "\n" not in building_to_json(canonical_ball_building(3, "1/10"))


# each bad value of each checked field, the exception it raises and its message in full
PUNCTURE_FIELDS = dict(cz=1, action=Fraction(1, 2), sign="positive", paired_with=("a", 0))
NODE_FIELDS = dict(id="a", level=0, kind="top", index=0, energy=Fraction(1, 3), punctures=(), divisor_hits=0)
PAIR_MESSAGE = "puncture paired_with must be None or a (node id, puncture index) pair, got {}"
BAD_FIELDS = [
    (Puncture, "cz", 1.0, ValueError, "puncture cz must be an integer, got 1.0"),
    (Puncture, "cz", True, ValueError, "puncture cz must be an integer, got True"),
    (Puncture, "cz", "1", ValueError, "puncture cz must be an integer, got '1'"),
    (Puncture, "action", 0.5, TypeError, "floats are not accepted in exact-arithmetic inputs; pass a string or Fraction"),
    (Puncture, "action", False, TypeError, "booleans are not accepted as rational numbers, got False"),
    (Puncture, "action", "1/0", ValueError, "zero denominator in '1/0'"),
    (Puncture, "action", "x", ValueError, "not a rational number: 'x'"),
    (Puncture, "action", None, TypeError, "cannot interpret None as a rational number"),
    (Puncture, "sign", "up", ValueError, "puncture sign must be 'positive' or 'negative'"),
    (Puncture, "sign", None, ValueError, "puncture sign must be 'positive' or 'negative'"),
    (Puncture, "paired_with", ["a", 0], ValueError, PAIR_MESSAGE.format("['a', 0]")),
    (Puncture, "paired_with", ("a", True), ValueError, PAIR_MESSAGE.format("('a', True)")),
    (Puncture, "paired_with", ("a",), ValueError, PAIR_MESSAGE.format("('a',)")),
    (Puncture, "paired_with", (0, 0), ValueError, PAIR_MESSAGE.format("(0, 0)")),
    (CurveNode, "id", 7, ValueError, "node id must be a string, got 7"),
    (CurveNode, "id", None, ValueError, "node id must be a string, got None"),
    (CurveNode, "level", 0.0, ValueError, "node level must be an integer, got 0.0"),
    (CurveNode, "kind", "bottom", ValueError, "unknown node kind 'bottom'"),
    (CurveNode, "index", True, ValueError, "node index must be an integer, got True"),
    (CurveNode, "energy", 1.5, TypeError, "floats are not accepted in exact-arithmetic inputs; pass a string or Fraction"),
    (CurveNode, "energy", "1/0", ValueError, "zero denominator in '1/0'"),
    (CurveNode, "divisor_hits", "0", ValueError, "node divisor_hits must be an integer, got '0'"),
]


def raised(call, *args, **kwargs):
    """The class and message of what call raised."""
    with pytest.raises(Exception) as info:
        call(*args, **kwargs)
    return type(info.value), str(info.value)


class TestNodeConstructors:
    @pytest.mark.parametrize("cls, field, value, error, message", BAD_FIELDS)
    def test_each_bad_field_raises_its_message_by_every_call(self, cls, field, value, error, message):
        good = PUNCTURE_FIELDS if cls is Puncture else NODE_FIELDS
        bad = {**good, field: value}
        assert raised(cls, **bad) == (error, message)
        assert raised(cls, *bad.values()) == (error, message)
        assert raised(replace, cls(**good), **{field: value}) == (error, message)

    def test_the_first_bad_field_in_check_order_is_named(self):
        # Puncture checks cz, sign, paired_with, then action; CurveNode id,
        # the int fields, kind, then energy
        assert raised(Puncture, 1.0, "x", "up", ["a"]) == (ValueError, "puncture cz must be an integer, got 1.0")
        assert raised(Puncture, 1, "x", "up", ["a"]) == (ValueError, "puncture sign must be 'positive' or 'negative'")
        assert raised(Puncture, 1, "x", "positive", ["a"]) == (ValueError, PAIR_MESSAGE.format("['a']"))
        assert raised(CurveNode, 7, 0.0, "x", 0, "x", ()) == (ValueError, "node id must be a string, got 7")
        assert raised(CurveNode, "a", 0, "x", True, "x", (), "0") == (ValueError, "node index must be an integer, got True")
        assert raised(CurveNode, "a", 0, "x", 0, "x", ()) == (ValueError, "unknown node kind 'x'")
        assert raised(CurveNode, "a", 0, "top", 0, "x", ()) == (ValueError, "not a rational number: 'x'")

    def test_good_values_give_equal_hashable_frozen_nodes(self):
        end = Puncture(1, Fraction(1, 2), "positive", ("a", 0))
        for same in (Puncture(cz=1, action="1/2", sign="positive", paired_with=("a", 0)), replace(end, action="2/4")):
            assert same == end and hash(same) == hash(end) and type(same.action) is Fraction
        assert repr(end) == "Puncture(cz=1, action=Fraction(1, 2), sign='positive', paired_with=('a', 0))"
        assert Puncture(1, 1, "negative").paired_with is None
        node = CurveNode("a", 0, "top", 0, "1/3", (end,))
        for same in (CurveNode(id="a", level=0, kind="top", index=0, energy=Fraction(1, 3), punctures=(end,), divisor_hits=0),
                     replace(node)):
            assert same == node and hash(same) == hash(node) and same.divisor_hits == 0
        assert replace(node, divisor_hits=1) != node
        building = Building((node,), energy_budget="1/3")
        assert replace(building) == building and replace(building, total_index=1) != building
        assert (building.total_index, building.energy_budget) == (0, Fraction(1, 3))
        for obj, cls in ((end, Puncture), (node, CurveNode), (building, Building)):
            assert cls.__match_args__ == tuple(f.name for f in fields(cls)) == tuple(cls.__slots__)
            assert not hasattr(obj, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(obj, fields(cls)[0].name, 2)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, fields(cls)[-1].name)
        match node:
            case CurveNode("a", 0, "top", 0, energy, (Puncture(1, action, "positive", ("a", 0)),), 0):
                assert (energy, action) == (Fraction(1, 3), Fraction(1, 2))
            case _:
                pytest.fail("the positional pattern did not match")


properties = settings(max_examples=60)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=24)
# the writer's inputs at their edges: ids with quotes, backslashes, control,
# non-ASCII, lone surrogate and astral characters, and ints past 2**63
odd_ids = st.text(st.sampled_from('a"\\/\x00\x1f\n\x7f\xe9\u20ac\u2028\ud800\U0001d11e') | st.characters(), max_size=6)
wide_ints = st.integers(-3, 3) | st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63))
wide_rationals = st.fractions(max_denominator=10**20) | wide_ints.map(Fraction)


@st.composite
def mutated_buildings(draw):
    """A canonical or stacked ball building with up to three changes to a
    node index or energy, or to an end's cz, action or pairing."""
    n = draw(st.integers(2, 6))
    b = draw(st.sampled_from([canonical_ball_building, stacked_ball_building]))(n, Fraction(1, n + 2))
    nodes = list(b.nodes)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(nodes) - 1))
        nd = nodes[k]
        change = draw(st.sampled_from(["index", "energy", "cz", "action", "pairing"]))
        if change == "index":
            nd = replace(nd, index=draw(st.integers(-2, 2)))
        elif change == "energy":
            nd = replace(nd, energy=draw(small_rationals))
        else:
            i = draw(st.integers(0, len(nd.punctures) - 1))
            p = nd.punctures[i]
            if change == "cz":
                p = replace(p, cz=draw(st.integers(-1, 8)))
            elif change == "action":
                p = replace(p, action=draw(small_rationals))
            else:
                ids = st.sampled_from([other.id for other in nodes] + ["ghost"])
                p = replace(p, paired_with=draw(st.none() | st.tuples(ids, st.integers(-2, 3))))
            nd = replace(nd, punctures=nd.punctures[:i] + (p,) + nd.punctures[i + 1:])
        nodes[k] = nd
    budget = draw(st.sampled_from([b.energy_budget, None, b.energy_budget - Fraction(1, 7)]))
    return Building(nodes=tuple(nodes), total_index=b.total_index, energy_budget=budget)


@st.composite
def odd_buildings(draw):
    """Buildings, valid or not, over the writer's edge inputs: odd ids, wide
    ints, unpaired ends, negative pair indices, shared and distinct Fraction
    objects, and a missing budget."""
    ids = draw(st.lists(odd_ids, min_size=1, max_size=3))
    shared = draw(wide_rationals)
    rationals = st.just(shared) | wide_rationals

    def end():
        pair = draw(st.none() | st.tuples(st.sampled_from(ids) | odd_ids, wide_ints))
        return Puncture(draw(wide_ints), draw(rationals), draw(st.sampled_from(["positive", "negative"])), pair)

    kinds = st.sampled_from(["cotangent", "symplectization", "top"])
    nodes = tuple(
        CurveNode(node_id, draw(wide_ints), draw(kinds), draw(wide_ints), draw(rationals),
                  tuple(end() for _ in range(draw(st.integers(0, 3)))), draw(wide_ints))
        for node_id in ids
    )
    return Building(nodes, draw(wide_ints), draw(st.none() | rationals))


def spellings(x):
    """Strings that spell the rational x: lowest terms, unreduced, padded,
    and as a decimal when one terminates."""
    num, den = x.numerator, x.denominator
    out = [str(x), f"{3 * num}/{3 * den}", f" {x} ", f"{num}/{den}\n"]
    scale = 10 ** den.bit_length()  # a multiple of den when den is 2**a * 5**b
    if scale % den == 0:
        whole, part = divmod(abs(num) * (scale // den), scale)
        out.append(f"{'-' if num < 0 else ''}{whole}.{part:0{len(str(scale)) - 1}d}")
    return out


class TestBuildingJsonProperties:
    @properties
    @given(mutated_buildings())
    def test_round_trip_keeps_the_building_and_its_report(self, b):
        again = building_from_json(building_to_json(b))
        assert again == b
        for parity in (False, True):
            assert report_to_json(building_validate(again, parity)) == report_to_json(building_validate(b, parity))

    @properties
    @given(odd_buildings())
    def test_written_bytes_are_json_dumps_of_the_fields(self, b):
        assert building_to_json(b) == list_based_building_to_json(b)

    def test_equal_values_spelled_differently_load_equal(self):
        payload = json.loads(building_to_json(canonical_ball_building(2, "1/10")))
        bottom, plane = payload["nodes"][:2]  # plane_0, glued to the bottom's end 0
        for spelling in ("1/2", "2/4", " 1/2 ", "0.5"):
            plane["energy"] = plane["punctures"][0]["action"] = spelling
            b = building_from_json(json.dumps(payload))
            assert b.nodes[1].energy == b.nodes[1].punctures[0].action == Fraction(1, 2)
            assert bottom["punctures"][0]["action"] == "1/2"
            assert building_validate(b).ok

    @properties
    @given(st.integers(2, 10), st.data())
    def test_any_spelling_of_each_rational_loads_the_same_building(self, n, data):
        b = canonical_ball_building(n, Fraction(1, n + 3))
        payload = json.loads(building_to_json(b))
        for nd in payload["nodes"]:
            nd["energy"] = data.draw(st.sampled_from(spellings(Fraction(nd["energy"]))))
            for p in nd["punctures"]:
                p["action"] = data.draw(st.sampled_from(spellings(Fraction(p["action"]))))
        text = json.dumps(payload, indent=data.draw(st.sampled_from([None, 1, "\t"])))
        assert building_from_json(text) == b

    @properties
    @given(
        st.floats(allow_nan=False) | st.lists(st.integers(0, 3), max_size=2) | st.sampled_from(["x", "1/0", "1//2"]),
        st.integers(0, 3),
    )
    def test_malformed_action_raises_as_its_constructor_does(self, action, slot):
        with pytest.raises((TypeError, ValueError)) as expected:
            as_rational(action)
        payload = json.loads(building_to_json(canonical_ball_building(3, "1/10")))
        payload["nodes"][0]["punctures"][slot]["action"] = action
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            building_from_json(json.dumps(payload))

    def test_the_first_malformed_field_in_constructor_order_is_named(self):
        payload = json.loads(building_to_json(canonical_ball_building(3, "1/10")))
        payload["nodes"][0]["punctures"][0].update(cz="2", action="x")
        with pytest.raises(ValueError, match="^puncture cz must be an integer, got '2'$"):
            building_from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# the forced-structure solvers on bounded inputs: each returns an answer
# that meets its defining identity, or raises a ValueError with a message

solver_ints = st.integers(-3, 60)


def outcome(call, *args):
    """call(*args), or the ValueError it raised; any other exception fails."""
    try:
        return call(*args)
    except ValueError as exc:
        assert str(exc), call.__name__
        return exc


@st.composite
def partition_inputs(draw):
    """n in -3..60 and epsilon in (-1, 2) with n * epsilon at most 8."""
    n = draw(solver_ints)
    top = min(Fraction(2), Fraction(8, n)) if n > 0 else Fraction(2)
    eps = draw(st.fractions(-1, top, max_denominator=64).filter(lambda e: -1 < e < 2))
    return n, eps


class TestSolverProperties:
    @settings(max_examples=200)
    @given(solver_ints, solver_ints, solver_ints)
    def test_puncture_and_morse_solvers(self, n, tangency, morse):
        l = outcome(min_positive_punctures, n, tangency, morse)
        if not isinstance(l, ValueError):
            gain = morse - n + 3
            assert l * gain - 4 - 2 * tangency >= 0
            assert l == 1 or (l - 1) * gain - 4 - 2 * tangency < 0
        forced = outcome(forced_morse_indices, n)
        if not isinstance(forced, ValueError):
            assert forced == [n - 1] * (n + 1) and sum(forced) == n * n - 1

    @settings(max_examples=100)
    @given(partition_inputs(), st.lists(st.fractions(-1, 2, max_denominator=12), max_size=6))
    def test_partition_solver_and_check(self, inputs, areas):
        n, eps = inputs
        solved = outcome(energy_partition_solve, n, eps)
        if not isinstance(solved, ValueError):
            for candidate in solved:
                assert len(candidate) == n + 1 and sum(candidate) == 1 + eps and candidate[-1] > 0
                assert all(x >= Fraction(1, n) and (x * n).denominator == 1 for x in candidate[:-1])
            assert (len(solved) == 1) if eps < Fraction(1, n) else len(solved) >= 1
        for trial in (areas, [Fraction(1, max(n, 1))] * max(n, 0) + [eps]):
            violations = outcome(energy_partition_check, n, eps, trial)
            if not isinstance(violations, ValueError):
                assert (violations == ()) == (list(trial) == [Fraction(1, n)] * n + [eps])


class TestIntegerArguments:
    """The ledger's integer arguments are exact ints: a float, a bool or a string is
    rejected with ValueError instead of giving a float or a bool's 0 or 1."""

    @pytest.mark.parametrize("call", [
        lambda: cz_from_morse(1.5), lambda: cz_from_morse(True), lambda: cz_from_morse("2"),
        lambda: punctured_sphere_index(3, [1.5]), lambda: punctured_sphere_index(3, [True]),
        lambda: punctured_sphere_index(3.0, [1]), lambda: punctured_sphere_index(3, [1], 0.5),
        lambda: punctured_sphere_index(3, "12"),
        lambda: min_positive_punctures(3, 0.5, 2), lambda: min_positive_punctures(3, 0, 2.0),
        lambda: min_positive_punctures(True, 0, 2), lambda: min_positive_punctures("3", 0, 2),
    ])
    def test_non_ints_are_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: energy_partition_solve(True, "1/10"), "n must be positive"),
        (lambda: energy_partition_solve(2.0, "1/10"), "n must be positive"),
        (lambda: energy_partition_check(True, "1/10", ["1", "1/10"]), "n must be an integer of at least 1, got True"),
        (lambda: energy_partition_check(2.0, "1/10", ["1/2", "1/2", "1/10"]), "n must be an integer of at least 1, got 2.0"),
        (lambda: forced_morse_indices(3.0), "n must be an integer of at least 2, got 3.0"),
        (lambda: forced_morse_indices(True), "n must be an integer of at least 2, got True"),
        (lambda: canonical_ball_building(2.0, "1/10"), "n must be at least 2"),
    ])
    def test_solver_orders_are_ints(self, call, message):
        # True was taken as 1, and a float failed deep inside with a bare TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("areas", ["123", {"1/2": 0, "1/2 ": 0, "1/10": 0}, 7])
    def test_partition_areas_are_a_list_or_tuple(self, areas):
        # "123" was read as the three areas 1, 2 and 3
        with pytest.raises(TypeError, match="^partition areas must be a list or tuple, got "):
            energy_partition_check(2, "1/10", areas)

    def test_ints_still_give_ints(self):
        assert cz_from_morse(3) == 3
        assert punctured_sphere_index(3, (1, 2), 1) == -3
        assert min_positive_punctures(3, 0, 2) == 2


class TestContainers:
    def test_a_building_holds_a_tuple_of_nodes(self):
        # before, building_validate(Building((1, 2))) raised AttributeError
        for nodes in ((1, 2), [CurveNode("a", 0, "top", 0, 1, ())], "ab", (canonical_ball_building(2, "1/10"),)):
            with pytest.raises(ValueError, match="^building nodes must be a tuple of CurveNode values$"):
                Building(nodes)

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"ab"', "str"), ("7", "int"), ("null", "NoneType")])
    def test_a_building_file_is_an_object(self, text, kind):
        # "[1, 2]" raised a bare TypeError, "list indices must be integers or slices, not str"
        with pytest.raises(ValueError, match=f"^building JSON must be an object, not {kind}$"):
            building_from_json(text)

    def test_a_node_holds_a_tuple_of_punctures(self):
        for punctures, name in (("ab", "str"), ([Puncture(1, 1, "positive")], "list"), ({}, "dict"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"^node punctures must be a tuple, got {name}$"):
                CurveNode("a", 0, "top", 0, 1, punctures)

    def test_a_building_holds_puncture_ends(self):
        # before, building_validate(Building((CurveNode("a", 0, "top", 0, 1, (1,)),))) raised AttributeError
        good = CurveNode("a", 0, "top", 0, 1, (Puncture(1, 1, "positive"),))
        for ends in ((1,), (Puncture(1, 1, "positive"), "x"), (None,), (good,)):
            with pytest.raises(ValueError, match="^building node punctures must be Puncture values$"):
                Building((good, CurveNode("b", 0, "top", 0, 1, ends)))


ONE = Fraction(1)


def path_nodes(size):
    """A path of size nodes, v0 - v1 - ..., on alternating levels 0 and 1, each glued to the next."""
    nodes = []
    for i in range(size):
        sign = "negative" if i % 2 else "positive"
        ends = [Puncture(1, ONE, sign, (f"v{i - 1}", 0 if i == 1 else 1))] if i else []
        if i < size - 1:
            ends.append(Puncture(1, ONE, sign, (f"v{i + 1}", 0)))
        nodes.append(CurveNode(f"v{i}", i % 2, "top" if i % 2 else "cotangent", 0, ONE, tuple(ends)))
    return nodes


def star_nodes(size):
    """A star of size nodes: size - 1 top planes, then the center below them glued to each."""
    leaves = [CurveNode(f"leaf{i}", 1, "top", 0, ONE, (Puncture(1, ONE, "negative", ("center", i)),)) for i in range(size - 1)]
    ends = tuple(Puncture(1, ONE, "positive", (f"leaf{i}", 0)) for i in range(size - 1))
    return leaves + [CurveNode("center", 0, "cotangent", 0, ONE, ends)]


class TestLargeTrees:
    @pytest.mark.parametrize("shape", [path_nodes, star_nodes])
    def test_both_node_orders_match_the_oracle(self, shape):
        for size in range(1, 9):
            nodes = shape(size)
            for order in (nodes, nodes[::-1]):
                for budget in (None, size - 1, size):
                    b = Building(tuple(order), energy_budget=budget)
                    for parity in (False, True):
                        assert report_to_json(building_validate(b, parity)) == report_to_json(oracle_validate(b, parity))

    @pytest.mark.parametrize("shape", [path_nodes, star_nodes])
    def test_a_tree_of_a_hundred_thousand_nodes_validates_in_linear_time(self, shape):
        # listed in reverse, the star's center comes first and meets every leaf at its own ends: a union-find
        # without path halving that hung the center's root under each new leaf would walk a chain of all the
        # earlier leaves at every gluing
        gc.disable()  # the cyclic collector would rescan the growing heap hundreds of times while the acyclic values are made
        try:
            b = Building(tuple(shape(10**5)[::-1]), energy_budget=10**5)
        finally:
            gc.enable()
        start = time.process_time()
        report = building_validate(b)
        elapsed = time.process_time() - start
        assert report.ok, report.failed()
        assert elapsed < 1.0, f"{elapsed:.2f}s"
