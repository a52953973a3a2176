"""Integer and rational bookkeeping for punctured spheres and buildings.

Everything here is an identity, not an estimate: Fredholm indices of
constrained punctured spheres, the Conley-Zehnder/Morse conversion in the
zero-Maslov trivialization, the forced-structure solvers (minimal numbers
of positive punctures, forced Morse indices, forced energy partitions),
and a structural validator for two-level genus-zero buildings.  Integer
arguments must be ints, not bools or floats, so all arithmetic is exact.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as encode_string

from .moment_domain import RationalLike, _Frozen, _load_json, _sequence, as_rational, format_rational


class EpsilonTooLarge(ValueError):
    """The partition conclusion requires epsilon < 1/n."""


class IndexBoundUnreachable(ValueError):
    """No number of punctures makes the index non-negative (Morse bound <= n - 3)."""


PARTITION_LIMIT = 10_000
PARTITION_AREA_LIMIT = 10**6


class TooManyPartitions(ValueError):
    """energy_partition_solve would list over PARTITION_LIMIT candidates or PARTITION_AREA_LIMIT areas."""


def cz_from_morse(morse: int) -> int:
    """Conley-Zehnder index of the orbit over a closed geodesic of the
    given Morse index, in the trivialization adjusted so the Maslov term
    vanishes (where the two indices agree)."""
    if type(morse) is not int or morse < 0:
        raise ValueError(f"Morse index must be a non-negative integer, got {morse!r}")
    return morse


# the ledger types take _store, ==, hash, repr and pickling from _Frozen, and keep their defaults in __init__, as a
# slot has no class-level default; the dataclass adds only the __dataclass_fields__ that dataclasses.replace and
# fields read, and a __setattr__ and __delattr__ that raise FrozenInstanceError
_ledger_dataclass = dataclass(frozen=True, init=False, repr=False, eq=False, match_args=False)


@_ledger_dataclass
class Puncture(_Frozen):
    __slots__ = __match_args__ = ("cz", "action", "sign", "paired_with")
    cz: int
    action: Fraction
    sign: str  # 'positive' | 'negative'
    paired_with: tuple[str, int] | None  # (node id, puncture index), None by default

    def __init__(self, cz, action, sign, paired_with=None):
        if type(cz) is not int:
            raise ValueError(f"puncture cz must be an integer, got {cz!r}")
        if sign not in ("positive", "negative"):
            raise ValueError("puncture sign must be 'positive' or 'negative'")
        pair = paired_with
        if pair is not None and not (
            isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str) and type(pair[1]) is int
        ):
            raise ValueError(f"puncture paired_with must be None or a (node id, puncture index) pair, got {pair!r}")
        self._store(cz, action if type(action) is Fraction else as_rational(action), sign, pair)


def punctured_sphere_index(n: int, cz_list: Sequence[int], tangency_order: int = 0) -> int:
    """Fredholm index of a genus-zero curve with l positive punctures of
    the given CZ values and a point constraint of contact order
    k = tangency_order + 1:

        (n - 3)(2 - l) + sum CZ - 2n + 2 - 2 * tangency_order
    """
    if not cz_list:
        raise ValueError("nonconstant curves carry at least one puncture")
    if {type(n), type(tangency_order), *map(type, cz_list)} != {int}:
        raise ValueError("n, each CZ and the tangency order must be integers")
    if tangency_order < 0:
        raise ValueError("tangency order must be non-negative")
    return (n - 3) * (2 - len(cz_list)) + sum(cz_list) - 2 * n + 2 - 2 * tangency_order


def min_positive_punctures(n: int, tangency_order: int, morse_bound: int) -> int:
    """Smallest number of positive punctures admitting a non-negative index.

    The index is increasing in each CZ entry, so the best assignment is
    all l entries equal to the Morse bound M: index l*(M - n + 3) - 4 - 2t
    for t = tangency_order, so l = max(1, ceil((4 + 2t) / (M - n + 3))),
    which is t + 2 (k + 1 for contact order k) when M = n - 1.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    if type(tangency_order) is not int or type(morse_bound) is not int or tangency_order < 0 or morse_bound < 0:
        raise ValueError("tangency order and Morse bound must be non-negative integers")
    gain = morse_bound - n + 3
    if gain <= 0:
        raise IndexBoundUnreachable(f"Morse bound {morse_bound} <= n - 3: the index stays negative")
    return max(1, -(-(4 + 2 * tangency_order) // gain))


def forced_morse_indices(n: int) -> list[int]:
    """The unique (n+1)-tuple of Morse indices in [0, n-1] whose sum meets
    the index bound n^2 - 1.  The bound equals (n + 1)(n - 1), the largest
    sum the n + 1 entries can reach, so every entry is n - 1."""
    if type(n) is not int or n < 2:
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    return [n - 1] * (n + 1)


def energy_partition_check(n: int, epsilon: RationalLike, areas: Sequence[RationalLike]) -> tuple[str, ...]:
    """Violations of the forced partition (the first n areas equal 1/n, the
    last equals epsilon) in the order they are checked; empty when it
    holds.  Requires epsilon < 1/n (EpsilonTooLarge otherwise)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    eps = as_rational(epsilon)
    if eps >= Fraction(1, n):
        raise EpsilonTooLarge(f"epsilon must be below 1/{n}")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    vals = [as_rational(x) for x in _sequence(areas, "partition areas")]
    if len(vals) != n + 1:
        return (f"expected {n + 1} areas, got {len(vals)}",)
    share = Fraction(1, n)
    violations = [f"area {i} is not positive ({format_rational(x)})" for i, x in enumerate(vals) if x <= 0]
    violations += [f"area {i} is {format_rational(x)}, expected {format_rational(share)}"
                   for i, x in enumerate(vals[:-1]) if x != share]
    if vals[-1] != eps:
        violations.append(f"final area is {format_rational(vals[-1])}, expected epsilon = {format_rational(eps)}")
    return tuple(violations)


def energy_partition_solve(n: int, epsilon: RationalLike) -> list[tuple[Fraction, ...]]:
    """All candidate partitions under the constraints alone: n areas in
    {1/n, 2/n, ...}, a final positive area, total 1 + epsilon.

    Partitions are returned as non-increasing multiple lists plus the
    final area.  Exactly one candidate exists when epsilon < 1/n; larger
    epsilon may admit more, which is the point of the hypothesis, so no
    epsilon cap is imposed here.  The candidates are listed lazily, and
    the 10,001st raises TooManyPartitions (PARTITION_LIMIT is 10,000), as
    do over 10**6 areas in all (PARTITION_AREA_LIMIT), before any is built.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be positive")
    eps = as_rational(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    # the n multiples m_i >= 1 must satisfy sum(m_i)/n < 1 + eps; writing
    # m_i = 1 + e_i, the excesses e_i >= 0 form a partition of s - n into
    # at most n parts, and s - n < n * eps bounds the recursion depth
    top = math.ceil(n * eps) - 1  # the largest excess s - n

    def excesses(remaining: int, slots: int, bound: int):
        # a part below ceil(remaining / slots) leaves too much for the
        # slots after it, so every branch yields a partition
        if remaining == 0:
            yield ()
        else:
            for e in range(min(bound, remaining), -(-remaining // slots) - 1, -1):
                for rest in excesses(remaining - e, slots - 1, e):
                    yield (e,) + rest

    every = (excess for total in range(top + 1) for excess in excesses(total, n, total))
    listed = list(itertools.islice(every, PARTITION_LIMIT + 1))
    if len(listed) > PARTITION_LIMIT:
        raise TooManyPartitions(f"at least {PARTITION_LIMIT + 1} candidate partitions, above the limit of {PARTITION_LIMIT}")
    if len(listed) * (n + 1) > PARTITION_AREA_LIMIT:
        raise TooManyPartitions(f"the candidate partitions hold {len(listed) * (n + 1)} areas, above the limit of {PARTITION_AREA_LIMIT}")
    return sorted(
        tuple(Fraction(1 + e, n) for e in excess) + (Fraction(1, n),) * (n - len(excess))
        + (eps - Fraction(sum(excess), n),)  # the final area, 1 + eps less the n areas
        for excess in listed
    )


# ---------------------------------------------------------------------------
# Holomorphic buildings


@_ledger_dataclass
class CurveNode(_Frozen):
    __slots__ = __match_args__ = ("id", "level", "kind", "index", "energy", "punctures", "divisor_hits")
    id: str
    level: int
    kind: str  # 'cotangent' | 'symplectization' | 'top'
    index: int
    energy: Fraction
    punctures: tuple[Puncture, ...]
    divisor_hits: int  # 0 by default

    def __init__(self, id, level, kind, index, energy, punctures, divisor_hits=0):
        if not isinstance(id, str):
            raise ValueError(f"node id must be a string, got {id!r}")
        if not (type(level) is int and type(index) is int and type(divisor_hits) is int):
            name, value = next(item for item in (("level", level), ("index", index), ("divisor_hits", divisor_hits))
                               if type(item[1]) is not int)
            raise ValueError(f"node {name} must be an integer, got {value!r}")
        if kind not in ("cotangent", "symplectization", "top"):
            raise ValueError(f"unknown node kind {kind!r}")
        if type(punctures) is not tuple:  # O(1): Building checks its Puncture entries, in one pass over all nodes
            raise ValueError(f"node punctures must be a tuple, got {type(punctures).__name__}")
        self._store(id, level, kind, index, energy if type(energy) is Fraction else as_rational(energy), punctures,
                    divisor_hits)

    def is_trivial_cylinder(self) -> bool:
        """Index 0, energy 0, one positive and one negative puncture on
        identical orbit data."""
        if self.index != 0 or self.energy.numerator != 0 or len(self.punctures) != 2:
            return False
        p, q = self.punctures
        return p.sign != q.sign and p.cz == q.cz and p.action == q.action


@_ledger_dataclass
class Building(_Frozen):
    """Genus-zero leveled tree of curve nodes.

    Node energies are inputs; the validator checks pairings, index and
    energy totals, and structural constraints, never the decomposition of
    a single curve's energy across its ends.
    """

    __slots__ = __match_args__ = ("nodes", "total_index", "energy_budget")
    nodes: tuple[CurveNode, ...]
    total_index: int  # 0 by default
    energy_budget: Fraction | None  # None by default

    def __init__(self, nodes, total_index=0, energy_budget=None):
        if type(nodes) is not tuple or not {CurveNode}.issuperset(map(type, nodes)):
            raise ValueError("building nodes must be a tuple of CurveNode values")
        if not {Puncture}.issuperset([type(p) for nd in nodes for p in nd.punctures]):
            raise ValueError("building node punctures must be Puncture values")
        if type(total_index) is not int:
            raise ValueError(f"building total_index must be an integer, got {total_index!r}")
        self._store(nodes, total_index, energy_budget if energy_budget is None else as_rational(energy_budget))

    def node(self, node_id: str) -> CurveNode:
        for nd in self.nodes:
            if nd.id == node_id:
                return nd
        raise KeyError(node_id)


class CheckResult(_Frozen):
    __slots__ = __match_args__ = ("check", "status", "detail")
    check: str
    status: str  # 'pass' | 'fail'
    detail: str  # "" by default

    def __init__(self, check, status, detail=""):
        self._store(check, status, detail)


class ValidationReport(_Frozen):
    __slots__ = __match_args__ = ("results",)
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]


def _pairing(nodes: tuple[CurveNode, ...], position: dict[str, int]) -> tuple[str, int, int]:
    """One pass over the ends in node and puncture order: the first pairing violation, or "" when there
    is none, with the gluings met before it and the merges they make in a union-find over node
    positions.  Each gluing is checked in full and counted at whichever of its two ends comes first."""
    parent = list(range(len(nodes)))
    gluings = merges = 0
    for k, nd in enumerate(nodes):
        nd_id, root = nd.id, k
        while parent[root] != root:  # find with path halving; root stays a root, as each union below hangs under it
            parent[root] = root = parent[parent[root]]
        for i, p in enumerate(nd.punctures):
            pair = p.paired_with
            if pair is None:
                continue
            other_id, j = pair
            try:
                m = position[other_id]
                other = nodes[m]
                q = other.punctures[j]
            except (KeyError, IndexError):
                return f"{nd_id}[{i}] points at a missing puncture", gluings, merges
            if q.paired_with != (nd_id, i):
                return f"{nd_id}[{i}] is not reciprocally paired", gluings, merges
            if m < k:
                # checked at q: every end of other passed, q's reciprocity made this end's paired_with
                # q's nonnegative position (a negative index fails at q), and the other checks are symmetric
                continue
            if q.sign == p.sign:
                return f"{nd_id}[{i}] pairs equal signs", gluings, merges
            upper, lower = (nd, other) if p.sign == "negative" else (other, nd)
            if upper.level != lower.level + 1:
                return (f"{lower.id} (level {lower.level}) must pair one level below {upper.id} (level {upper.level})",
                        gluings, merges)
            if (q.cz, q.action) != (p.cz, p.action):
                return f"{nd_id}[{i}] pairs mismatched orbit data", gluings, merges
            gluings += 1
            while parent[m] != m:
                parent[m] = m = parent[parent[m]]
            if m != root:
                parent[m] = root
                merges += 1
    return "", gluings, merges


def _exact_sum(values: list[Fraction]) -> Fraction:
    """The exact sum, in one integer pass over the least common denominator of the distinct Fraction
    objects, each weighted by how often it occurs; a built or loaded building shares its repeated values."""
    ids = list(map(id, values))
    counts, distinct = Counter(ids), dict(zip(ids, values))
    common = math.lcm(*(x.denominator for x in distinct.values()))
    return Fraction(sum(x.numerator * (common // x.denominator) * counts[key] for key, x in distinct.items()), common)


def _check(check: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(check, "pass" if ok else "fail", detail)


def building_validate(b: Building, check_unpaired_parity: bool = False) -> ValidationReport:
    """Run the structural checks; every violation lands in the report
    rather than raising.

    Checks: (tree) the pairing graph is a connected tree: connected, with
    gluings = nodes - 1, each gluing counted once, so two nodes glued along two
    orbit pairs (genus one) fail; (pairing) paired punctures are mutual,
    oppositely signed, one level apart, and agree in CZ and action, each gluing
    checked in full at its first end and for reciprocity at its second;
    (index-total) node indices sum to the declared total; (energy-positivity)
    energies are non-negative and positive except on trivial cylinders, which
    carry exactly zero; (energy-budget) energies sum to at most the declared
    budget; (divisor-budget) at most one divisor hit across top nodes;
    (stability) no symplectization level is made of trivial cylinders only;
    (levels) occupied levels are contiguous.  With check_unpaired_parity,
    unpaired ends must carry odd CZ (elliptic asymptotics).  The run is linear:
    one id -> position map, then one pass over the ends, which checks the
    pairings and unions the two nodes of each gluing it counts in a union-find
    with path halving (connected is nodes - 1 merges), and one pass over the
    nodes for the index total, the first energy violation, the divisor hits and
    the occupied and stable levels.  Paired ends compare (cz, action) as tuples,
    which test identity before ==, so shared actions skip Fraction.__eq__.
    """
    nodes = b.nodes
    position = {nd.id: k for k, nd in enumerate(nodes)}
    if len(position) != len(nodes) or not nodes:
        return ValidationReport((_check("structure", False, "node ids must be unique and nonempty"),))

    pairing_detail, gluings, merges = _pairing(nodes, position)
    connected = merges == len(nodes) - 1
    is_tree = connected and gluings == merges

    total = hits = 0
    negative_hit, energy_detail = False, ""
    stable: set[int] = set()
    cylinders: set[int] = set()  # levels holding a symplectization trivial cylinder
    for nd in nodes:
        total += nd.index
        if nd.kind == "top":
            hits += nd.divisor_hits
        negative_hit |= nd.divisor_hits < 0
        sign = nd.energy.numerator  # a Fraction's denominator is positive
        trivial = sign == 0 and nd.is_trivial_cylinder()
        (cylinders if trivial and nd.kind == "symplectization" else stable).add(nd.level)
        if not energy_detail and (sign < 0 or sign == 0 and not trivial):
            energy_detail = f"{nd.id} has negative energy" if sign < 0 else f"{nd.id} is nonconstant but has zero energy"
    levels = sorted(stable | cylinders)
    unstable = min(cylinders - stable, default=None)

    budget = parity = ()
    if b.energy_budget is not None:
        spent = _exact_sum([nd.energy for nd in nodes])
        budget = (_check("energy-budget", spent <= b.energy_budget,
                         f"total {format_rational(spent)} vs budget {format_rational(b.energy_budget)}"),)
    if check_unpaired_parity:
        even = [f"unpaired end {nd.id}[{i}] has even CZ {p.cz}"
                for nd in nodes for i, p in enumerate(nd.punctures) if p.paired_with is None and p.cz % 2 == 0]
        parity = (_check("unpaired-parity", not even, even[-1] if even else ""),)  # the last even unpaired end

    return ValidationReport((
        _check("structure", True),
        _check("pairing", not pairing_detail, pairing_detail),
        _check("tree", is_tree, "" if is_tree else f"{len(nodes)} nodes, {gluings} pairing edges, connected={connected}"),
        _check("index-total", total == b.total_index, f"sum of indices is {total}, declared {b.total_index}"),
        _check("energy-positivity", not energy_detail, energy_detail),
        *budget,
        _check("divisor-budget", hits <= 1 and not negative_hit, f"{hits} hits across top nodes"),
        _check("levels", levels == list(range(levels[0], levels[-1] + 1)), f"occupied levels {levels}"),
        _check("stability", unstable is None,
               "" if unstable is None else f"level {unstable} consists solely of trivial cylinders"),
        *parity,
    ))


def canonical_ball_building(n: int, epsilon: RationalLike) -> Building:
    """The forced two-level building for the unit-ball argument.

    Bottom level: one sphere with n+1 positive punctures of CZ n-1 and a
    maximal point constraint, index 0.  Top level: n planes of energy 1/n
    on orbits of action 1/n, plus one plane of energy epsilon on an orbit
    of action 1 that carries the single divisor hit.  All indices vanish
    and the declared budget is the exact energy total.
    """
    if type(n) is not int or n < 2:
        raise ValueError("n must be at least 2")
    eps = as_rational(epsilon)
    if not (0 < eps < Fraction(1, n)):
        raise EpsilonTooLarge(f"epsilon must lie in (0, 1/{n})")
    cz = n - 1
    share = Fraction(1, n)
    top = [(f"plane_{i}", share, share, 0) for i in range(n)] + [("plane_last", Fraction(1), eps, 1)]
    bottom_punctures = []
    planes = []
    for i, (plane_id, action, energy, hits) in enumerate(top):
        bottom_punctures.append(Puncture(cz, action, "positive", (plane_id, 0)))
        planes.append(CurveNode(plane_id, 1, "top", 0, energy, (Puncture(cz, action, "negative", ("bottom", i)),), hits))
    # the bottom's energy is the sum of its positive-end actions
    bottom = CurveNode("bottom", 0, "cotangent", 0, Fraction(1) + share * n, tuple(bottom_punctures))
    nodes = (bottom, *planes)
    return Building(nodes=nodes, total_index=0, energy_budget=3 + eps)  # the bottom's 2, the planes' n * (1/n), eps


# ---------------------------------------------------------------------------
# JSON interchange


def building_to_json(b: Building) -> str:
    """Compact one-line JSON, the bytes json.dumps writes for the fields: ids through its ensure_ascii
    encoder, kind and sign checked ASCII words, exact ints, each rational field a Fraction, whose str
    is format_rational's lowest-terms form, and paired_with an array."""
    quoted: dict[int, str] = {}  # keyed by id, as Fraction.__hash__ runs in Python

    def rational(x: Fraction) -> str:  # each distinct Fraction object is quoted once
        return quoted.get(id(x)) or quoted.setdefault(id(x), f'"{x}"')

    nodes = []
    for nd in b.nodes:
        ends = ", ".join([f'{{"cz": {p.cz}, "action": {rational(p.action)}, "sign": "{p.sign}", "paired_with": '
                          + ("null}" if (pair := p.paired_with) is None else f"[{encode_string(pair[0])}, {pair[1]}]}}")
                          for p in nd.punctures])
        nodes.append(f'{{"id": {encode_string(nd.id)}, "level": {nd.level}, "kind": "{nd.kind}", "index": {nd.index}, '
                     f'"energy": {rational(nd.energy)}, "punctures": [{ends}], "divisor_hits": {nd.divisor_hits}}}')
    budget = "null" if b.energy_budget is None else rational(b.energy_budget)
    return f'{{"nodes": [{", ".join(nodes)}], "total_index": {b.total_index}, "energy_budget": {budget}}}'


def building_from_json(text: str) -> Building:
    """The building a JSON text describes, in any whitespace; only an absent
    or null ``paired_with`` is unpaired, and a non-array one is rejected."""
    payload = _load_json(text, "building")
    parsed: dict[str, Fraction] = {}

    def rational(value):
        # each distinct string is parsed once; anything else, and a string
        # that does not parse, goes on for the constructor to reject in turn
        if type(value) is str and value not in parsed:
            try:
                parsed[value] = as_rational(value)
            except ValueError:
                return value
        return parsed[value] if type(value) is str else value

    nodes = []
    for nd in _sequence(payload["nodes"], "building nodes"):
        punctures = tuple([
            Puncture(p["cz"], rational(p["action"]), p["sign"],
                     tuple(pair) if type(pair := p.get("paired_with")) is list else pair)
            for p in _sequence(nd.get("punctures", []), "node punctures")
        ])
        nodes.append(CurveNode(nd["id"], nd["level"], nd["kind"], nd["index"], rational(nd["energy"]), punctures,
                               nd.get("divisor_hits", 0)))
    return Building(
        nodes=tuple(nodes),
        total_index=payload.get("total_index", 0),
        energy_budget=rational(payload.get("energy_budget")),
    )


def report_to_json(report: ValidationReport) -> str:
    return json.dumps(
        [{"check": r.check, "status": r.status, "detail": r.detail} for r in report.results],
        indent=2,
    )
