"""Seeded inputs and operation lists for the three workloads, and the CLI
commands of the traced run.

``generate(workload, seed)`` makes the inputs as plain data and needs no
toricap.  ``constructor_calls(workload, inputs)`` lists, per input, the
calls of the program's own constructors that build its input objects, with
plain-string arguments (this is the set-up that ``setup_s`` times, see
setup_probe.py).  ``operations(workload, inputs, tc)`` makes those calls
and returns one round of operations.  Every operation
calls the program through module attributes (``tc.capacities.support``
and so on), so the traced run can swap those names for wrappers.

Operation sizes follow a fixed log-spaced schedule over each size range,
so no cluster of trivial operations sets the median and every seed gives
the same spread of work.  The seed draws the instances (polygon shapes,
axis ratios, epsilon, mutation targets) and the order of the operations.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import checks

WORKLOADS = ("capacity-table", "reeb-spectrum", "ledger-buildings")
REEB_TAUS = (1e-2, 1e-3)
REEB_V = 1.0 / 32.0
# above these sizes the program fails (RecursionError) or a solver costs
# seconds; see CHANGES.md
LEDGER_MAX_N = 960
LEDGER_SOLVER_MAX_N = 240


class OperationFailed(Exception):
    """The program did not complete the operation as documented."""


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def log_grid(count: int, lo: float, hi: float) -> list[float]:
    """Midpoints of ``count`` equal slices of [lo, hi] on a log scale."""
    ratio = hi / lo
    return [lo * ratio ** ((i + 0.5) / count) for i in range(count)]


def spread(i: int) -> float:
    """Low-discrepancy sequence in [0, 1), to pair two schedules evenly."""
    return (i * 0.6180339887498949) % 1.0


def concave_polygon(rng: random.Random, edges: int, width=Fraction(1), height=Fraction(1)) -> list:
    """Random concave moment polygon with exact rational vertices.

    Edge slopes are distinct rationals, log-uniform over a factor of 256,
    strictly decreasing from left to right; the polygon is then scaled to
    x-extent ``width`` and y-extent ``height``.
    """
    mags: set[int] = set()
    while len(mags) < edges:
        mags.add(round(256 * 16.0 ** rng.uniform(-1.0, 1.0)))
    slopes = sorted(mags)
    dxs = [rng.randint(1, 8) for _ in slopes]
    xs = [0]
    for dx in dxs:
        xs.append(xs[-1] + dx)
    ys = [0] * (edges + 1)
    for i in range(edges - 1, -1, -1):
        ys[i] = ys[i + 1] + slopes[i] * dxs[i]
    return [(Fraction(x, xs[-1]) * width, Fraction(y, ys[0]) * height) for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# input generation (plain data)


def _gen_capacity_table(rng: random.Random) -> list[dict]:
    items = []
    # toric min-max: work V*(k+1) over about three decades
    for i, work in enumerate(log_grid(72, 40, 20_000)):
        n_vertices = round(2 * (min(201, work / 3) / 2) ** spread(i))
        k = max(1, round(work / n_vertices) - 1)
        width, height = (Fraction(rng.randint(2, 6), 2) for _ in range(2))
        items.append({"op": "toric", "vertices": concave_polygon(rng, n_vertices - 1, width, height), "k": k})
    # both routes on ellipsoids; every third one a ball
    for i, work in enumerate(log_grid(24, 40, 20_000)):
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        b = a if i % 3 == 0 else a * Fraction(rng.randint(11, 40), 10)
        items.append({"op": "ellipsoid", "axes": [a, b], "k": max(1, round(work / 2) - 1)})
    # equal-diagonal index: the scan costs O(p + q)
    for s in log_grid(16, 2, 2000):
        s = max(2, round(s))
        q = rng.choice([q for q in range(1, s // 2 + 1) if math.gcd(q, s) == 1])
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        items.append({"op": "find_k", "axes": [a, a * Fraction(s - q, q)], "p": s - q, "q": q})
    for size in log_grid(16, 2, 201):
        items.append({"op": "enclose", "vertices": concave_polygon(rng, max(1, round(size) - 1))})
    rng.shuffle(items)
    return items


def height_at(vertices, x) -> Fraction:
    """Height of the polygon's boundary graph at x."""
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        if x1 <= x <= x2 and x1 < x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    raise ValueError("x outside the polygon")


def search_cutoff(box: float, y_mid: float) -> float:
    """Cutoff K whose search box (2K + 1) * (K / y_mid + 1) has the given
    size: orbit_families tries every direction in that box on a unit-width
    polygon with height y_mid at x = 1/2."""
    a, b, c = 2.0 / y_mid, 2.0 + 1.0 / y_mid, 1.0 - box
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def _gen_reeb_spectrum(rng: random.Random) -> list[dict]:
    items = []
    # orbit_families costs about (search box) * (edges + 12) derivative sweeps
    works = log_grid(48, 50, 10_000)
    works = [works[j] for j in sorted(range(48), key=spread)]
    for i, edges in enumerate(log_grid(48, 1, 200)):
        edges = max(1, round(edges))
        vertices = concave_polygon(rng, edges)
        y_mid = float(height_at(vertices, Fraction(1, 2)))
        cutoff = max(1.5, search_cutoff(works[i] / (edges + 12), y_mid))
        # k spread over 1..24 puts capacity_via_spectrum's costs between the
        # cheap and the heavy operations, so no gap sits at the median
        k = max(1, round(24 ** spread(i)))
        items.append({"vertices": vertices, "tau": REEB_TAUS[i % 2], "cutoff": round(cutoff, 3), "k": k})
    rng.shuffle(items)
    return items


def _gen_ledger(rng: random.Random) -> list[dict]:
    items = []
    for n in log_grid(48, 2, LEDGER_MAX_N):
        n = max(2, round(n))
        node = rng.randrange(n)
        items.append({
            "n": n,
            "epsilon": Fraction(rng.randint(1, 9), 10 * n),
            "index_node": rng.choice(["bottom", f"plane_{node}", "plane_last"]),
            "plane": f"plane_{node}",
        })
    rng.shuffle(items)
    return items


# README commands with the outputs their closed forms give; None means the
# output is checked by a property in check_cli_output.  The traced run times
# each as a fresh process.
CLI_FILES = {
    "square.json": '{"type": "polygon", "vertices": [["0", "1"], ["1", "1"], ["1", "0"]]}',
    "tri11.json": '{"type": "polygon", "vertices": [["0", "1"], ["1", "0"]]}',
    "tri12.json": '{"type": "polygon", "vertices": [["0", "2"], ["1", "0"]]}',
}
CLI_COMMANDS = [
    ("diag --ellipsoid 3,6", "2"),
    ("diag --polygon square.json", "1"),
    ("support --polygon square.json --direction 2,3", "5"),
    ("gh --ellipsoid 1,2 --k 1..5", None),
    ("gh --ellipsoid 1,2 --k 3 --via both", None),
    ("spectrum --polygon tri11.json --K 2.1 --tau 1e-3 --boundary-out rim.csv", None),
    ("round --polygon square.json --tau 1e-2 --v 0.1", None),
    ("enclose --polygon tri12.json", None),
    ("lagcap --shape ball --capacity 1 --n 3", "1/3"),
    ("ledger --canonical-ball-building 3 --epsilon 1/10", None),
    ("ledger --min-punctures --n 4 --k 4", "5"),
    ("ledger --counts --n 6", None),
    ("ledger --partition --n 2 --epsilon 1/5", None),
]


_GENERATORS = {
    "capacity-table": _gen_capacity_table,
    "reeb-spectrum": _gen_reeb_spectrum,
    "ledger-buildings": _gen_ledger,
}


def generate(workload: str, seed: int) -> list[dict]:
    return _GENERATORS[workload](_rng(workload, seed))


def inputs_as_json(items: list[dict]) -> str:
    return json.dumps(items, default=str, indent=1)


# ---------------------------------------------------------------------------
# set-up: the program's own constructors


def _string_pairs(vertices) -> list:
    return [[str(x), str(y)] for x, y in vertices]


def constructor_calls(workload: str, items: list[dict]) -> list[tuple[str, Any]]:
    """For each input, the constructor call that builds the program's input
    object: ("module.name", argument), the argument plain strings and lists."""
    if workload == "capacity-table":
        return [("moment_domain.EllipsoidSpec", [str(a) for a in it["axes"]]) if "axes" in it
                else ("moment_domain.make_polygon_domain", _string_pairs(it["vertices"])) for it in items]
    if workload == "reeb-spectrum":
        return [("moment_domain.domain_from_json",
                 json.dumps({"type": "polygon", "vertices": _string_pairs(it["vertices"])})) for it in items]
    return [("sft_ledger.building_from_json", json.dumps(checks.canonical_building_payload(it["n"], it["epsilon"])))
            for it in items]


def construct(tc, name: str, arg):
    module, attr = name.split(".")
    return getattr(getattr(tc, module), attr)(arg)


# ---------------------------------------------------------------------------
# operations


def _ops_capacity_table(items, built, tc) -> list[Op]:
    cap, md = tc.capacities, tc.moment_domain
    ops = []
    for it, obj in zip(items, built):
        if it["op"] == "toric":
            verts, k, domain = it["vertices"], it["k"], obj

            def call(domain=domain, k=k):
                return cap.gh_capacity_toric4(domain, k)

            def check(r, verts=verts, k=k):
                checks.check_toric_capacity(verts, k, r.value, r.minimizer.as_pair())

            ops.append(Op("toric", call, check))
        elif it["op"] == "ellipsoid":
            (a, b), k, spec = it["axes"], it["k"], obj
            simplex = spec.simplex_domain()
            verts = [(Fraction(0), b), (a, Fraction(0))]

            def call(spec=spec, simplex=simplex, k=k):
                return cap.gh_capacity_toric4(simplex, k), cap.gh_spectrum_ellipsoid(spec, k)

            def check(r, a=a, b=b, k=k, verts=verts):
                toric, spectral = r
                checks.check_toric_capacity(verts, k, toric.value, toric.minimizer.as_pair())
                checks.check_ellipsoid_routes(a, b, k, toric.value, spectral.value)

            ops.append(Op("ellipsoid", call, check))
        elif it["op"] == "find_k":
            (a, b), p, q, spec = it["axes"], it["p"], it["q"], obj

            def call(spec=spec):
                k = cap.find_k_equal_diagonal(spec)
                return k, cap.gh_spectrum_ellipsoid(spec, k).value

            def check(r, a=a, b=b, p=p, q=q):
                checks.check_equal_diagonal_k(a, b, p, q, r[0], r[1])

            ops.append(Op("find_k", call, check))
        else:
            verts, domain = it["vertices"], obj

            def call(domain=domain):
                return md.equal_diagonal_enclosing_ellipsoids(domain)

            def check(r, verts=verts):
                checks.expect(r.feasible and r.pairs, "no enclosing ellipsoid reported")
                checks.check_enclosures(verts, r.diagonal, [(p.x_axis, p.y_axis) for p in r.pairs])

            ops.append(Op("enclose", call, check))
    return ops


def _family_rows(rr, families):
    rows = []
    for fam in families:
        split = rr.split_family(fam)
        rows.append((fam.direction.l, fam.direction.m, fam.action, fam.multiplicity,
                     split.elliptic_cz, split.hyperbolic_cz))
    return rows


def _ops_reeb_spectrum(items, built, tc) -> list[Op]:
    rr = tc.rounding_reeb
    ops = []
    for it, domain in zip(items, built):
        verts, tau, cutoff, k = it["vertices"], it["tau"], it["cutoff"], it["k"]
        # the rounded domain made by this round's round_domain operation
        state: dict = {}

        def round_op(domain=domain, tau=tau, state=state):
            state["smooth"] = rr.round_domain(domain, tau, REEB_V)
            return state["smooth"]

        def round_check(s, verts=verts):
            checks.check_rounding(float(verts[-1][0]), float(verts[0][1]), s.hausdorff_bound, s.x_max, s.value(0.0))

        def families_op(cutoff=cutoff, state=state):
            return _family_rows(rr, rr.orbit_families(state["smooth"], cutoff)), state["smooth"].hausdorff_bound

        def families_check(r, verts=verts, cutoff=cutoff):
            checks.check_orbit_families(verts, REEB_V, r[1], cutoff, r[0])

        def capacity_op(k=k, state=state):
            return rr.capacity_via_spectrum(state["smooth"], k), state["smooth"].hausdorff_bound

        def capacity_check(r, verts=verts, k=k):
            checks.check_spectral_capacity(verts, r[1], k, r[0])

        ops += [Op("round", round_op, round_check), Op("families", families_op, families_check),
                Op("spectral_capacity", capacity_op, capacity_check)]
    return ops


def _mutants(building, it) -> list:
    """Single-field mutations of the canonical building, each aimed at one check."""
    nodes = {nd.id: nd for nd in building.nodes}

    def with_node(node_id, **changes):
        new = dataclasses.replace(nodes[node_id], **changes)
        return dataclasses.replace(building, nodes=tuple(new if nd.id == node_id else nd for nd in building.nodes))

    plane = nodes[it["plane"]]
    end = plane.punctures[0]
    return [
        ("index-total", with_node(it["index_node"], index=nodes[it["index_node"]].index + 1)),
        ("divisor-budget", with_node(it["plane"], divisor_hits=1)),
        ("pairing", with_node(it["plane"], punctures=(dataclasses.replace(end, cz=end.cz + 1),))),
        ("pairing", with_node(it["plane"], punctures=(dataclasses.replace(end, action=end.action + 1),))),
        ("energy-positivity", with_node("plane_last", energy=Fraction(0))),
    ]


def _statuses(report) -> dict:
    return {r.check: r.status for r in report.results}


def _ops_ledger(items, built, tc) -> list[Op]:
    sl = tc.sft_ledger
    ops = []
    for it, building in zip(items, built):
        n, eps = it["n"], it["epsilon"]

        def build(n=n, eps=eps):
            return sl.canonical_ball_building(n, eps)

        def build_check(b, n=n, eps=eps):
            checks.check_canonical_building(b, n, eps)

        def round_trip(building=building):
            return sl.building_from_json(sl.building_to_json(building))

        def validate(b=building):
            return _statuses(sl.building_validate(b))

        ops += [
            Op("build", build, build_check),
            Op("round_trip", round_trip, lambda r, b=building: checks.check_round_trip(b, r)),
            Op("validate", validate, checks.check_report_passes),
        ]
        for target, mutant in _mutants(building, it):
            ops.append(Op("validate_mutant", lambda b=mutant: validate(b),
                          lambda r, t=target: checks.check_report_flags(r, t)))
        ops.append(Op("partition", lambda n=n, eps=eps: sl.energy_partition_solve(n, eps),
                      lambda r, n=n, eps=eps: checks.check_partitions(n, eps, r)))
        if n <= LEDGER_SOLVER_MAX_N:
            ops.append(Op("punctures", lambda n=n: sl.min_positive_punctures(n, n - 1, n - 1),
                          lambda r, n=n: checks.check_min_punctures(n, r)))
            ops.append(Op("morse", lambda n=n: sl.forced_morse_indices(n),
                          lambda r, n=n: checks.check_forced_morse(n, r)))
    return ops


def operations(workload: str, items: list[dict], tc) -> list[Op]:
    """One round of operations, with the program's input objects built."""
    built = [construct(tc, name, arg) for name, arg in constructor_calls(workload, items)]
    ops = {"capacity-table": _ops_capacity_table, "reeb-spectrum": _ops_reeb_spectrum, "ledger-buildings": _ops_ledger}
    return ops[workload](items, built, tc)


# ---------------------------------------------------------------------------
# CLI processes (traced run only)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(argv: str, workdir: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "toricap.cli", *argv.split()], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)


def write_cli_files(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, text in CLI_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def check_cli_output(argv: str, out: str, tri11_hausdorff: float) -> None:
    expected = dict(CLI_COMMANDS)[argv]
    if expected is not None:
        checks.check_cli_text(out, expected)
    elif argv.startswith("gh --ellipsoid 1,2 --k 1..5"):
        rows = checks.table_rows(out)
        checks.expect([r[1] for r in rows] == ["1", "2", "2", "3", "4"], f"gh values {rows}")
    elif argv.startswith("gh"):
        rows = checks.table_rows(out)
        checks.expect(sorted(r[-1] for r in rows) == ["minmax", "spectrum"]
                      and all(r[1] == "2" for r in rows), f"gh --via both rows {rows}")
    elif argv.startswith("spectrum"):
        rows = [(int(l), int(m), float(action), int(g), int(cz_e), int(cz_h))
                for l, m, g, action, cz_e, cz_h in checks.table_rows(out)]
        verts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        checks.check_orbit_families(verts, REEB_V, tri11_hausdorff, 2.1, rows)
    elif argv.startswith("round"):
        r = json.loads(out)
        checks.expect((r["tau"], r["v"]) == ("0.01", "0.1"), f"round echoes {r}")
        checks.check_rounding(1.0, 1.0, float(r["hausdorff_bound"]), float(r["x_max"]), float(r["b_prime"]))
    elif argv.startswith("enclose"):
        r = json.loads(out)
        pairs = [(Fraction(p["x_axis"]), Fraction(p["y_axis"])) for p in r["found"]]
        checks.expect(bool(pairs), "no enclosing ellipsoid printed")
        verts = [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(0))]
        checks.check_enclosures(verts, Fraction(r["diagonal"]), pairs)
    elif argv.startswith("ledger --canonical"):
        checks.check_report_passes({r["check"]: r["status"] for r in json.loads(out)})
    elif argv.startswith("ledger --counts"):
        r = json.loads(out)
        checks.expect((r["gw_tangency_count"], r["torus_descendant_zero_sum"]) == (120, 120), f"counts {r}")
    elif argv.startswith("ledger --partition"):
        checks.expect(json.loads(out) == [["1/2", "1/2", "1/5"]], f"partition {out!r}")


def cli_operations(tc, workdir: str, root: str) -> list[Op]:
    """Every README command as a fresh `python -m toricap.cli` process, in
    README order, with the input files written to ``workdir``."""
    write_cli_files(workdir)
    tri11 = tc.moment_domain.make_polygon_domain([(0, 1), (1, 0)])
    hausdorff = tc.rounding_reeb.round_domain(tri11, 1e-3, REEB_V).hausdorff_bound
    env = cli_env(root)
    ops = []
    for argv, _ in CLI_COMMANDS:

        def call(argv=argv):
            return run_cli(argv, workdir, env)

        def check(r, argv=argv):
            if not checks.cli_exit_ok(r.returncode, r.stderr):
                raise OperationFailed(f"{argv}: exit {r.returncode}, stderr {r.stderr.strip()[-120:]!r}")
            check_cli_output(argv, r.stdout, hausdorff)

        ops.append(Op("cli:" + argv.split()[0], call, check))
    return ops
