"""Integer and rational bookkeeping for punctured spheres and buildings.

Everything here is an identity, not an estimate: Fredholm indices of
constrained punctured spheres, the Conley-Zehnder/Morse conversion in the
zero-Maslov trivialization, the forced-structure solvers (minimal numbers
of positive punctures, forced Morse indices, forced energy partitions),
and a structural validator for two-level genus-zero buildings.  All
arithmetic is exact; no floats.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as encode_string
from typing import Optional, Sequence

from .moment_domain import RationalLike, as_rational, format_rational

_set = object.__setattr__  # stores a field of a frozen node type


class EpsilonTooLarge(ValueError):
    """The partition conclusion requires epsilon < 1/n."""


class IndexBoundUnreachable(ValueError):
    """No number of punctures makes the index non-negative (Morse bound <= n - 3)."""


PARTITION_LIMIT = 10_000


class TooManyPartitions(ValueError):
    """energy_partition_solve would list more candidates than PARTITION_LIMIT."""


def cz_from_morse(morse: int) -> int:
    """Conley-Zehnder index of the orbit over a closed geodesic of the
    given Morse index, in the trivialization adjusted so the Maslov term
    vanishes (where the two indices agree)."""
    if morse < 0:
        raise ValueError("Morse index must be non-negative")
    return morse


@dataclass(frozen=True, slots=True, init=False)
class Puncture:
    cz: int
    action: Fraction
    sign: str  # 'positive' | 'negative'
    paired_with: Optional[tuple[str, int]] = None  # (node id, puncture index)

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
        _set(self, "cz", cz)
        _set(self, "action", action if type(action) is Fraction else as_rational(action))
        _set(self, "sign", sign)
        _set(self, "paired_with", pair)


def punctured_sphere_index(n: int, cz_list: Sequence[int], tangency_order: int = 0) -> int:
    """Fredholm index of a genus-zero curve with l positive punctures of
    the given CZ values and a point constraint of contact order
    k = tangency_order + 1:

        (n - 3)(2 - l) + sum CZ - 2n + 2 - 2 * tangency_order
    """
    if not cz_list:
        raise ValueError("nonconstant curves carry at least one puncture")
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
    if n < 2:
        raise ValueError("n must be at least 2")
    if tangency_order < 0 or morse_bound < 0:
        raise ValueError("tangency order and Morse bound must be non-negative")
    gain = morse_bound - n + 3
    if gain <= 0:
        raise IndexBoundUnreachable(f"Morse bound {morse_bound} <= n - 3: the index stays negative")
    return max(1, -(-(4 + 2 * tangency_order) // gain))


def forced_morse_indices(n: int) -> list[int]:
    """The unique (n+1)-tuple of Morse indices in [0, n-1] whose sum meets
    the index bound n^2 - 1.  The bound equals (n + 1)(n - 1), the largest
    sum the n + 1 entries can reach, so every entry is n - 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return [n - 1] * (n + 1)


def energy_partition_check(n: int, epsilon: RationalLike, areas: Sequence[RationalLike]) -> tuple[str, ...]:
    """Violations of the forced partition (the first n areas equal 1/n, the
    last equals epsilon) in the order they are checked; empty when it
    holds.  Requires epsilon < 1/n (EpsilonTooLarge otherwise)."""
    if n < 1:
        raise ValueError("n must be positive")
    eps = as_rational(epsilon)
    if eps >= Fraction(1, n):
        raise EpsilonTooLarge(f"epsilon must be below 1/{n}")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    vals = [as_rational(x) for x in areas]
    if len(vals) != n + 1:
        return (f"expected {n + 1} areas, got {len(vals)}",)
    violations: list[str] = []
    for i, x in enumerate(vals):
        if x <= 0:
            violations.append(f"area {i} is not positive ({format_rational(x)})")
    share = Fraction(1, n)
    for i, x in enumerate(vals[:-1]):
        if x != share:
            violations.append(f"area {i} is {format_rational(x)}, expected {format_rational(share)}")
    if vals[-1] != eps:
        violations.append(
            f"final area is {format_rational(vals[-1])}, expected epsilon = {format_rational(eps)}"
        )
    return tuple(violations)


def energy_partition_solve(n: int, epsilon: RationalLike) -> list[tuple[Fraction, ...]]:
    """All candidate partitions under the constraints alone: n areas in
    {1/n, 2/n, ...}, a final positive area, total 1 + epsilon.

    Partitions are returned as non-increasing multiple lists plus the
    final area.  Exactly one candidate exists when epsilon < 1/n; larger
    epsilon may admit more, which is the point of the hypothesis, so no
    epsilon cap is imposed here.  The candidates are listed lazily, and
    the 10,001st raises TooManyPartitions (PARTITION_LIMIT is 10,000).
    """
    if n < 1:
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
    return sorted(
        tuple(Fraction(1 + e, n) for e in excess) + (Fraction(1, n),) * (n - len(excess))
        + (eps - Fraction(sum(excess), n),)  # the final area, 1 + eps less the n areas
        for excess in listed
    )


# ---------------------------------------------------------------------------
# Holomorphic buildings


@dataclass(frozen=True, slots=True, init=False)
class CurveNode:
    id: str
    level: int
    kind: str  # 'cotangent' | 'symplectization' | 'top'
    index: int
    energy: Fraction
    punctures: tuple[Puncture, ...]
    divisor_hits: int = 0

    def __init__(self, id, level, kind, index, energy, punctures, divisor_hits=0):
        if not isinstance(id, str):
            raise ValueError(f"node id must be a string, got {id!r}")
        if not (type(level) is int and type(index) is int and type(divisor_hits) is int):
            name, value = next(item for item in (("level", level), ("index", index), ("divisor_hits", divisor_hits))
                               if type(item[1]) is not int)
            raise ValueError(f"node {name} must be an integer, got {value!r}")
        if kind not in ("cotangent", "symplectization", "top"):
            raise ValueError(f"unknown node kind {kind!r}")
        _set(self, "id", id)
        _set(self, "level", level)
        _set(self, "kind", kind)
        _set(self, "index", index)
        _set(self, "energy", energy if type(energy) is Fraction else as_rational(energy))
        _set(self, "punctures", punctures)
        _set(self, "divisor_hits", divisor_hits)

    def is_trivial_cylinder(self) -> bool:
        """Index 0, energy 0, one positive and one negative puncture on
        identical orbit data."""
        if self.index != 0 or self.energy.numerator != 0 or len(self.punctures) != 2:
            return False
        p, q = self.punctures
        return p.sign != q.sign and p.cz == q.cz and p.action == q.action


@dataclass(frozen=True, slots=True)
class Building:
    """Genus-zero leveled tree of curve nodes.

    Node energies are inputs; the validator checks pairings, index and
    energy totals, and structural constraints, never the decomposition of
    a single curve's energy across its ends.
    """

    nodes: tuple[CurveNode, ...]
    total_index: int = 0
    energy_budget: Optional[Fraction] = None

    def __post_init__(self):
        if type(self.total_index) is not int:
            raise ValueError(f"building total_index must be an integer, got {self.total_index!r}")
        if self.energy_budget is not None:
            object.__setattr__(self, "energy_budget", as_rational(self.energy_budget))

    def node(self, node_id: str) -> CurveNode:
        for nd in self.nodes:
            if nd.id == node_id:
                return nd
        raise KeyError(node_id)


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str  # 'pass' | 'fail'
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]


def _pairing_failure(by_id: dict[str, CurveNode], gluings: list[tuple[str, str]]) -> str:
    """The first pairing violation in node and puncture order, or "" when
    there is none; gluings collects each gluing met before it once, at
    whichever of its two ends comes first."""
    earlier: set[str] = set()
    for nd_id, nd in by_id.items():
        for i, p in enumerate(nd.punctures):
            pair = p.paired_with
            if pair is None:
                continue
            other_id, j = pair
            other = by_id.get(other_id)
            ends = () if other is None else other.punctures
            if not -len(ends) <= j < len(ends):
                return f"{nd_id}[{i}] points at a missing puncture"
            q = ends[j]
            if q.paired_with != (nd_id, i):
                return f"{nd_id}[{i}] is not reciprocally paired"
            if other_id in earlier:
                # checked at q: every end of other passed, q's reciprocity made this end's paired_with
                # q's nonnegative position (a negative index fails at q), and the other checks are symmetric
                continue
            if q.sign == p.sign:
                return f"{nd_id}[{i}] pairs equal signs"
            upper, lower = (nd, other) if p.sign == "negative" else (other, nd)
            if upper.level != lower.level + 1:
                return f"{lower.id} (level {lower.level}) must pair one level below {upper.id} (level {upper.level})"
            if (q.cz, q.action) != (p.cz, p.action):
                return f"{nd_id}[{i}] pairs mismatched orbit data"
            gluings.append((nd_id, other_id))
        earlier.add(nd_id)
    return ""


def _exact_sum(values: list[Fraction]) -> Fraction:
    """The exact sum, in one integer pass over the least common denominator."""
    common = math.lcm(*(x.denominator for x in values))
    return Fraction(sum(x.numerator * (common // x.denominator) for x in values), common)


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
    unpaired ends must carry odd CZ (elliptic asymptotics).  One id -> node map
    makes the whole run linear; paired ends compare (cz, action) as tuples,
    which test identity before ==, so the actions a loaded or built building
    shares skip Fraction.__eq__.
    """
    results: list[CheckResult] = []

    def add(check: str, ok: bool, detail: str = "") -> None:
        results.append(CheckResult(check, "pass" if ok else "fail", detail))

    by_id = {nd.id: nd for nd in b.nodes}
    if len(by_id) != len(b.nodes) or not b.nodes:
        add("structure", False, "node ids must be unique and nonempty")
        return ValidationReport(tuple(results))
    add("structure", True)

    gluings: list[tuple[str, str]] = []
    pairing_detail = _pairing_failure(by_id, gluings)
    add("pairing", not pairing_detail, pairing_detail)

    # genus zero: the node/edge graph is a tree
    adjacency: dict[str, set[str]] = {i: set() for i in by_id}
    for u, w in gluings:
        adjacency[u].add(w)
        adjacency[w].add(u)
    seen = {b.nodes[0].id}
    stack = list(seen)
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    connected = len(seen) == len(by_id)
    is_tree = connected and len(gluings) == len(by_id) - 1
    tree_detail = f"{len(by_id)} nodes, {len(gluings)} pairing edges, connected={connected}"
    add("tree", is_tree, "" if is_tree else tree_detail)

    total = sum(nd.index for nd in b.nodes)
    add("index-total", total == b.total_index, f"sum of indices is {total}, declared {b.total_index}")

    energy_detail = ""
    for nd in b.nodes:
        sign = nd.energy.numerator  # a Fraction's denominator is positive
        if sign < 0:
            energy_detail = f"{nd.id} has negative energy"
            break
        if sign == 0 and not nd.is_trivial_cylinder():
            energy_detail = f"{nd.id} is nonconstant but has zero energy"
            break
    add("energy-positivity", not energy_detail, energy_detail)

    if b.energy_budget is not None:
        total_energy = _exact_sum([nd.energy for nd in b.nodes])
        budget_detail = f"total {format_rational(total_energy)} vs budget {format_rational(b.energy_budget)}"
        add("energy-budget", total_energy <= b.energy_budget, budget_detail)

    hits = sum(nd.divisor_hits for nd in b.nodes if nd.kind == "top")
    add("divisor-budget", hits <= 1 and all(nd.divisor_hits >= 0 for nd in b.nodes), f"{hits} hits across top nodes")

    levels = sorted({nd.level for nd in b.nodes})
    contiguous = levels == list(range(levels[0], levels[-1] + 1))
    add("levels", contiguous, f"occupied levels {levels}")

    # a level is stable when some node on it is not a symplectization trivial cylinder
    stable = {nd.level for nd in b.nodes if nd.kind != "symplectization" or not nd.is_trivial_cylinder()}
    unstable = [level for level in levels if level not in stable]
    add("stability", not unstable, f"level {unstable[0]} consists solely of trivial cylinders" if unstable else "")

    if check_unpaired_parity:
        parity_detail = ""  # the last even unpaired end
        for nd in b.nodes:
            for i, p in enumerate(nd.punctures):
                if p.paired_with is None and p.cz % 2 == 0:
                    parity_detail = f"unpaired end {nd.id}[{i}] has even CZ {p.cz}"
        add("unpaired-parity", not parity_detail, parity_detail)

    return ValidationReport(tuple(results))


def canonical_ball_building(n: int, epsilon: RationalLike) -> Building:
    """The forced two-level building for the unit-ball argument.

    Bottom level: one sphere with n+1 positive punctures of CZ n-1 and a
    maximal point constraint, index 0.  Top level: n planes of energy 1/n
    on orbits of action 1/n, plus one plane of energy epsilon on an orbit
    of action 1 that carries the single divisor hit.  All indices vanish
    and the declared budget is the exact energy total.
    """
    if n < 2:
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
    return Building(nodes=nodes, total_index=0, energy_budget=_exact_sum([nd.energy for nd in nodes]))


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
    payload = json.loads(text)
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
    for nd in payload["nodes"]:
        punctures = tuple([
            Puncture(p["cz"], rational(p["action"]), p["sign"],
                     tuple(pair) if type(pair := p.get("paired_with")) is list else pair)
            for p in nd.get("punctures", [])
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
