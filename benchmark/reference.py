"""One-off figures quoted in README.md; not part of any workload.

    python3 benchmark/reference.py [--seed 1]

Prints the wall time of the ROADMAP north-star cases, each the median of
three calls, and the tracing overhead: the time of one round of each
in-process workload with the tracer installed over the time without it,
from three alternating pairs of rounds.
"""
from __future__ import annotations

import argparse
import random
import statistics
import time
from fractions import Fraction

import run
import workloads
from tracer import Tracer


def median_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def north_star(tc) -> None:
    md, cap, rr, sl = tc.moment_domain, tc.capacities, tc.rounding_reeb, tc.sft_ledger
    triangle = md.make_polygon_domain([(0, 1), (1, 0)])
    big = md.make_polygon_domain(workloads.concave_polygon(random.Random(0), 200))
    smooth_ball = rr.round_domain(triangle, 1e-3, workloads.REEB_V)
    building = sl.canonical_ball_building(800, Fraction(1, 1000))
    cases = [
        ("gh_capacity_toric4, unit-ball triangle, k=1e5", lambda: cap.gh_capacity_toric4(triangle, 100_000)),
        ("gh_capacity_toric4, 201 vertices, k=1000", lambda: cap.gh_capacity_toric4(big, 1000)),
        (f"orbit_families, unit ball, K=40 ({len(rr.orbit_families(smooth_ball, 40.0))} families)",
         lambda: rr.orbit_families(smooth_ball, 40.0)),
        ("round_domain, 201 vertices, tau=1e-3", lambda: rr.round_domain(big, 1e-3, workloads.REEB_V)),
        ("building_validate, canonical n=800", lambda: sl.building_validate(building)),
    ]
    for label, fn in cases:
        print(f"{label:55s} {median_seconds(fn) * 1e3:10.1f} ms")


def tracing_overhead(tc, seed: int) -> None:
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, workloads.generate(name, seed), tc)

        def one_round():
            for op in ops:
                op.call()

        plain, traced = [], []
        for _ in range(3):
            plain.append(median_seconds(one_round, 1))
            tracer = Tracer()
            tracer.install(tc)
            try:
                traced.append(median_seconds(one_round, 1))
            finally:
                tracer.remove()
        plain, traced = statistics.median(plain), statistics.median(traced)
        print(f"tracing overhead, {name:18s} {plain:7.2f} s untraced, {traced:7.2f} s traced, "
              f"{(traced / plain - 1) * 100:+.1f}%")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    tc = run.import_program()
    north_star(tc)
    tracing_overhead(tc, args.seed)


if __name__ == "__main__":
    main()
