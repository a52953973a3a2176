"""Command-line front end.

One subcommand per concept: diag, support, gh, spectrum, round, enclose,
lagcap, ledger.  Rationals render in lowest terms ('2', '1/3'),
floats with 12 significant digits.  Exit codes: 0 ok, 1 a validation
check failed, 2 input error, 141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import moment_domain
from .moment_domain import (
    EllipsoidSpec,
    MomentDomain2D,
    as_rational,
    format_rational,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that signal ended
_SIZE_LIMIT = 10**6  # the ball's Fraction axes, the forced Morse list, a --k range and the --samples points are built in full
_BUILDING_N_LIMIT = 10**5  # the canonical building holds n + 2 nodes, about 1 kB each


class InputError(Exception):
    pass


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _parse_payload(parse, text: str):
    """Run a JSON parser; a JSON syntax error, JSON nested too deeply, and
    the TypeError, IndexError, AttributeError or KeyError a malformed payload
    raises (a float coordinate, a list where an object belongs, a string
    where an array belongs, a missing field), becomes an InputError."""
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError("malformed JSON: nested too deeply") from exc
    except KeyError as exc:
        raise InputError(f"malformed input: missing field {exc}") from exc
    except (TypeError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed input: {exc}") from exc


def _load_domain(args) -> MomentDomain2D | EllipsoidSpec:
    if getattr(args, "ellipsoid", None):
        return EllipsoidSpec(args.ellipsoid.split(","))
    spec = args.polygon
    if not spec:  # lagcap offers --polygon only
        options = "exactly one of --ellipsoid or --polygon" if "ellipsoid" in args else "--polygon"
        raise InputError(f"provide {options}")
    if spec == "-":
        text = sys.stdin.read()
    elif spec.lstrip().startswith("{"):
        text = spec
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _parse_payload(moment_domain.domain_from_json, text)


def _rational_pair(text: str, option: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{option} takes two comma-separated values, got {text!r}")
    return as_rational(parts[0]), as_rational(parts[1])


def _require_polygon(domain) -> MomentDomain2D:
    return domain.simplex_domain() if isinstance(domain, EllipsoidSpec) else domain


def _parse_k_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        ks = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        ks = range(0)
    if not ks or ks[0] < 1:
        raise InputError(f"bad k range {text!r}")
    if ks.stop - ks.start > _SIZE_LIMIT:  # len() overflows past sys.maxsize
        raise InputError(f"k range {text!r} holds {ks.stop - ks.start} values: the limit is {_SIZE_LIMIT}")
    return list(ks)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write(text if text.endswith("\n") else text + "\n")


def _write(text: str) -> None:
    """All of text's bytes to stdout, flushed: a closed pipe raises in main, even where an unbuffered write stops short."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text stream, such as io.StringIO under contextlib.redirect_stdout
        sys.stdout.write(text)
        return
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def _emit_rows(args, header: list[str], rows: list[list[str]]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        _emit(args, buf.getvalue())
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [header, *rows]]
        _emit(args, "\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands


def cmd_diag(args) -> int:
    domain = _load_domain(args)
    _emit(args, format_rational(moment_domain.diagonal(domain)))
    return EXIT_OK


def cmd_support(args) -> int:
    domain = _require_polygon(_load_domain(args))
    value = moment_domain.support(domain, _rational_pair(args.direction, "--direction"))
    _emit(args, format_rational(value))
    return EXIT_OK


def cmd_gh(args) -> int:
    from . import capacities
    domain = _load_domain(args)
    ks = _parse_k_range(args.k)
    is_ellipsoid = isinstance(domain, EllipsoidSpec)
    if args.via in ("spectrum", "both") and not is_ellipsoid:
        raise InputError("--via spectrum needs an ellipsoid input")
    paths = {"auto": ["spectrum" if is_ellipsoid else "minmax"], "both": ["minmax", "spectrum"]}.get(args.via, [args.via])
    polygon = _require_polygon(domain) if "minmax" in paths else None

    rows, payload = [], []  # the table or CSV rows and the JSON items, one per (k, path)
    for k in ks:
        for path in paths:
            if path == "minmax":
                report = capacities.gh_capacity_toric4(polygon, k)
                minimizer = list(report.minimizer.as_pair())
            else:
                report = capacities.gh_spectrum_ellipsoid(domain, k)
                minimizer = {"axis": report.minimizer.axis, "multiple": report.minimizer.multiple}
            rows.append([str(k), format_rational(report.value), json.dumps(minimizer), path])
            payload.append({"k": k, "value": rows[-1][1], "minimizer": minimizer} | ({"path": path} if args.via == "both" else {}))
        if args.via == "both" and rows[-2][1] != rows[-1][1]:  # lowest terms: equal values render alike
            print(f"path disagreement at k={k}", file=sys.stderr)
            return EXIT_VALIDATION

    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit_rows(args, ["k", "value", "minimizer", "path"], rows)
    return EXIT_OK


def _rounded(args, work=lambda smooth: smooth):
    """work(smooth), for smooth the polygon of the domain options rounded with --tau and --v.  The
    rounded boundary is then written as an x,y CSV when --boundary-out is given, before any other
    output: an input error in work, a bad --samples or a bad path then prints nothing."""
    from . import rounding_reeb
    smooth = rounding_reeb.round_domain(_require_polygon(_load_domain(args)), args.tau, args.v)
    result = work(smooth)
    if args.boundary_out:
        if args.samples > _SIZE_LIMIT:
            raise InputError(f"--samples {args.samples} is too large: the limit is {_SIZE_LIMIT}")
        points = rounding_reeb.boundary_polyline(smooth, args.samples)
        with open(args.boundary_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for x, y in points:
                writer.writerow([_fmt_float(x), _fmt_float(y)])
    return result


def cmd_spectrum(args) -> int:
    from . import rounding_reeb
    rows = []
    for fam in _rounded(args, lambda smooth: rounding_reeb.orbit_families(smooth, args.cutoff)):
        split = rounding_reeb.split_family(fam)
        rows.append([str(fam.direction.l), str(fam.direction.m), str(fam.multiplicity),
                     _fmt_float(fam.action), str(split.elliptic_cz), str(split.hyperbolic_cz)])
    _emit_rows(args, ["l", "m", "gcd", "action", "cz_e", "cz_h"], rows)
    return EXIT_OK


def cmd_round(args) -> int:
    smooth = _rounded(args)
    payload = {
        "tau": _fmt_float(smooth.tau),
        "v": _fmt_float(smooth.v),
        "x_max": _fmt_float(smooth.x_max),
        "b_prime": _fmt_float(smooth.value(0.0)),
        "hausdorff_bound": _fmt_float(smooth.hausdorff_bound),
        "margins": {check: _fmt_float(slack) for check, slack in smooth.margins._asdict().items()},
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_enclose(args) -> int:
    domain = _require_polygon(_load_domain(args))
    search = moment_domain.equal_diagonal_enclosing_ellipsoids(domain)
    payload = {"diagonal": format_rational(search.diagonal)}
    if search.feasible:
        payload["interval"] = {
            "lower": format_rational(search.lower),
            "lower_attained": search.lower_attained,
            "upper": format_rational(search.upper) if search.upper is not None else None,
        }
    payload["found"] = [
        {
            "x_axis": format_rational(p.x_axis),
            "y_axis": format_rational(p.y_axis),
            "touching_vertices": [
                [format_rational(x), format_rational(y)] for x, y in p.touching_vertices
            ],
        }
        for p in search.pairs
    ]
    if not search.feasible:
        payload["note"] = "no equal-diagonal enclosing ellipsoid exists"
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_lagcap(args) -> int:
    from . import capacities
    if args.shape == "ball":
        if args.n > _SIZE_LIMIT:
            raise InputError(f"--n {args.n} is too large for a ball: the limit is {_SIZE_LIMIT}")
        shape = moment_domain.ball(args.capacity, args.n)
    elif args.shape == "projective":
        shape = capacities.ProjectiveSpace(n=args.n)
    elif args.shape == "ellipsoid4":
        shape = EllipsoidSpec(sorted(_rational_pair(args.axes, "--axes")))
    elif args.shape == "cylinder":
        shape = capacities.Cylinder(k=args.n, m=args.m)
    elif args.shape == "polydisk":
        shape = capacities.Polydisk(radii=args.radii.split(","))
    else:  # "toric", the last of the parser's choices
        shape = _require_polygon(_load_domain(args))
    value = capacities.lagrangian_capacity(shape)
    if isinstance(value, capacities.LowerBound):
        _emit(args, json.dumps({"lower_bound": format_rational(value.value)}))
    else:
        _emit(args, format_rational(value))
    return EXIT_OK


def cmd_ledger(args) -> int:
    from . import sft_ledger
    if args.min_punctures:
        value = sft_ledger.min_positive_punctures(args.n, args.k - 1, args.n - 1)
        _emit(args, str(value))
        return EXIT_OK
    if args.counts:
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or absent before 3.10.7: no limit
        n_max, factorial, bound = 1, 1, 10**digits  # invariant: (n_max - 1)! == factorial < bound
        while n_max <= args.n and factorial * n_max < bound:  # stops at n_max > n or at the limit
            factorial *= n_max
            n_max += 1
        if digits and args.n > n_max:
            raise InputError(f"--n {args.n} is too large: the counts (n-1)! print in full only for n <= {n_max}")
        from . import capacities
        payload = {
            "gw_tangency_count": capacities.gw_tangency_count(args.n),
            "torus_descendant_zero_sum": capacities.torus_descendant(
                args.n + 1, [[1, 0]] * args.n + [[-args.n, 0]]  # n classes (1, 0) and (-n, 0) cancel
            ),
        }
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK
    if args.forced_morse:
        if args.n > _SIZE_LIMIT:
            raise InputError(f"--n {args.n} is too large for the forced Morse indices: the limit is {_SIZE_LIMIT}")
        _emit(args, json.dumps(sft_ledger.forced_morse_indices(args.n)))
        return EXIT_OK
    if args.partition:
        if args.areas:
            violations = sft_ledger.energy_partition_check(args.n, args.epsilon, args.areas.split(","))
            _emit(args, json.dumps({"valid": not violations, "violations": list(violations)}, indent=2))
            return EXIT_VALIDATION if violations else EXIT_OK
        solutions = sft_ledger.energy_partition_solve(args.n, args.epsilon)
        payload = [[format_rational(x) for x in sol] for sol in solutions]
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK

    if args.canonical_ball_building is not None:
        if args.canonical_ball_building > _BUILDING_N_LIMIT:
            raise InputError(f"--canonical-ball-building {args.canonical_ball_building} is too large: the limit is {_BUILDING_N_LIMIT}")
        building = sft_ledger.canonical_ball_building(args.canonical_ball_building, args.epsilon)
    else:
        with open(args.building, "r", encoding="utf-8") as fh:
            building = _parse_payload(sft_ledger.building_from_json, fh.read())
    report = sft_ledger.building_validate(building, check_unpaired_parity=args.check_parity)
    _emit(args, sft_ledger.report_to_json(report))
    return EXIT_OK if report.ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------


def _add_domain_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ellipsoid", help="comma-separated axes, e.g. '1,2' or '1/2,3'")
    group.add_argument("--polygon", help="JSON file path, inline JSON, or '-' for stdin")


def _add_output_options(parser: argparse.ArgumentParser, tabular: bool = False) -> None:
    if tabular:
        parser.add_argument("--format", choices=["json", "csv", "table"], default="table")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _add_rounding_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=float, default=1e-3)
    parser.add_argument("--v", type=float, default=1.0 / 32.0)
    parser.add_argument("--boundary-out", help="also write the rounded boundary polyline CSV here")
    parser.add_argument("--samples", type=int, default=512)


class _Parser(argparse.ArgumentParser):  # the subcommands' parsers are of the same class
    def print_help(self, file=None):
        """Help for stdout goes through _write, as argparse's own write drops a closed pipe's error."""
        if file is not None:
            return super().print_help(file)
        _write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toricap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diag", help="diagonal of a domain")
    _add_domain_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("support", help="support function value in a direction")
    _add_domain_options(p)
    _add_output_options(p)
    p.add_argument("--direction", required=True, help="'l,m' with non-negative rational components")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("gh", help="capacity table")
    _add_domain_options(p)
    _add_output_options(p, tabular=True)
    p.add_argument("--k", required=True, help="single index '3' or range '1..5'")
    p.add_argument("--via", choices=["auto", "minmax", "spectrum", "both"], default="auto")
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("spectrum", help="Reeb orbit families on the rounded boundary")
    _add_domain_options(p)
    _add_output_options(p, tabular=True)
    p.add_argument("--K", dest="cutoff", type=float, required=True, help="action cutoff")
    _add_rounding_options(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("round", help="round a polygon and report the boundary data")
    _add_domain_options(p)
    _add_output_options(p)
    _add_rounding_options(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("enclose", help="equal-diagonal enclosing ellipsoids")
    _add_domain_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_enclose)

    p = sub.add_parser("lagcap", help="Lagrangian capacity of a known shape")
    _add_output_options(p)
    p.add_argument("--shape", required=True, choices=["ball", "projective", "ellipsoid4", "cylinder", "polydisk", "toric"])
    p.add_argument("--capacity", default="1", help="ball capacity")
    p.add_argument("--n", type=int, default=1, help="dimension parameter (ball/projective/cylinder k)")
    p.add_argument("--m", type=int, default=0, help="cylinder trivial factors")
    p.add_argument("--axes", default="1,1", help="ellipsoid4 axes 'a,b'")
    p.add_argument("--radii", default="1", help="polydisk radii, comma separated, all >= 1")
    p.add_argument("--polygon", help="moment polygon for --shape toric")
    p.set_defaults(func=cmd_lagcap)

    p = sub.add_parser("ledger", help="building validation and forced-structure solvers")
    _add_output_options(p)
    scenario = p.add_mutually_exclusive_group(required=True)
    scenario.add_argument("--building", help="building JSON file to validate")
    scenario.add_argument("--canonical-ball-building", type=int, metavar="N", help="validate the canonical two-level building")
    scenario.add_argument("--min-punctures", action="store_true", help="minimal positive punctures for --n --k")
    scenario.add_argument("--counts", action="store_true", help="closed-form curve counts for --n")
    scenario.add_argument("--forced-morse", action="store_true", help="forced Morse indices for --n")
    scenario.add_argument("--partition", action="store_true", help="energy partition check/solve for --n --epsilon [--areas]")
    p.add_argument("--epsilon", default="1/10", help="rational epsilon for fixtures/partitions")
    p.add_argument("--check-parity", action="store_true", help="require odd CZ on unpaired ends")
    p.add_argument("--areas", help="comma-separated rational areas for the partition check")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_ledger)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse reports its own message, and _write has flushed the help
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
        return args.func(args)
    except BrokenPipeError:  # stdout now writes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
