"""Benchmark of toricap: three workloads, one closed-loop client, stdlib only.

    python3 benchmark/run.py --workload capacity-table --seed 1 --seconds 30 --trace 0

Runs the code in src/ as checked out.  One client runs one operation at a
time, with no threads, in whole rounds of a seeded operation list until
``--seconds`` have passed.  After each operation the run times a fixed
reference kernel; each latency is reported in units of the kernel
durations timed around it, which cancels most of the host's speed drift.
Every output is checked apart from the program (see checks.py).  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
``--trace 1`` reports the per-layer metrics instead (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402  (benchmark-local modules)
import workloads  # noqa: E402
from kernel import reference_kernel, time_kernel, trimmed_mean  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 9
# setup_s is reported in seconds at this kernel duration, about the
# kernel's duration on the machine the bounds were measured on
NOMINAL_KERNEL_S = 0.6e-3
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
MIN_OPS = 100
KERNEL_WINDOW = 15
CLI_SUBCOMMANDS = ("diag", "support", "gh", "spectrum", "round", "enclose", "lagcap", "ledger")
CLI_TRACE_ROUNDS = 2
IMPORT_PROBES = 5


def import_program():
    """Import toricap from src/ of this checkout, never from elsewhere."""
    sys.path.insert(0, SRC)
    import toricap
    from toricap import capacities, moment_domain, rounding_reeb, sft_ledger  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(toricap.__file__))) != SRC:
        sys.exit(f"error: toricap was imported from {toricap.__file__}, not {SRC}")
    return toricap


def work_dir() -> str:
    return os.path.join(HERE, "_work", str(os.getpid()))


# ---------------------------------------------------------------------------
# timed phase


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.notes: list[str] = []

    def run_op(self, op) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # the program raised: a failed operation
            self.latencies.append(time.perf_counter() - start)
            self.failed += 1
            self.note(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            op.check(out)
        except workloads.OperationFailed as exc:
            self.failed += 1
            self.note(f"{op.kind}: failed: {exc}")
        except checks.CheckFailed as exc:
            self.wrong.append(f"{op.kind}: wrong output: {exc}")

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    def time_kernel(self) -> None:
        self.kernel.append(time_kernel())


def timed_phase(ops, seconds: float) -> Tally:
    """Whole rounds of ``ops`` until ``seconds`` have passed and at least
    MIN_OPS operations ran, so that ten lie beyond the p90."""
    tally = Tally()
    for _ in range(20):
        reference_kernel()
    # keep the collector from rescanning the benchmark's own inputs, which
    # would bill their size to whichever operation triggers a collection
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        for op in ops:
            tally.run_op(op)
            tally.time_kernel()
        if time.perf_counter() - start >= seconds and tally.attempted >= MIN_OPS:
            return tally


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def in_kernel_units(tally: Tally) -> list[float]:
    """Each latency divided by the kernel durations timed around it, so
    that drift in host speed during a run cancels too."""
    k, w = tally.kernel, KERNEL_WINDOW
    return [lat / trimmed_mean(k[max(0, i - w):i + w + 1]) for i, lat in enumerate(tally.latencies)]


def end_to_end(tally: Tally, setup_s: float, peak_rss_kb: int) -> dict:
    latencies = in_kernel_units(tally)
    completed = tally.attempted - tally.failed
    return {
        "ops_per_kref": (1000.0 * completed / sum(latencies), "1/kref"),
        "latency_p50_ref": (statistics.median(latencies), "ref"),
        "latency_p90_ref": (p90(latencies), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def wall_figures(tally: Tally) -> dict:
    return {
        "host.ref_ms": (statistics.median(tally.kernel) * 1e3, "ms"),
        "wall.ops_per_s": ((tally.attempted - tally.failed) / sum(tally.latencies), "1/s"),
        "wall.latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "wall.latency_p90_ms": (p90(tally.latencies) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds(workload: str, items: list[dict], workdir: str) -> tuple[float, float]:
    """Median over SETUP_PROBES fresh set-ups, in kernel durations times
    NOMINAL_KERNEL_S, and in raw seconds.  The inputs are made here, before
    any probe, so only the program's set-up is timed."""
    os.makedirs(workdir, exist_ok=True)
    calls_file = os.path.join(workdir, "calls.marshal")
    with open(calls_file, "wb") as fh:
        marshal.dump(workloads.constructor_calls(workload, items), fh)
    probes = [probe_setup(calls_file) for _ in range(SETUP_PROBES)]
    return (statistics.median(k for k, _ in probes) * NOMINAL_KERNEL_S,
            statistics.median(s for _, s in probes))


def probe_setup(calls_file: str) -> tuple[float, float]:
    """One set-up in a fresh process (setup_probe.py): interpreter start,
    import toricap and the constructor calls, as (kernel durations, seconds).
    The probe skips site (-S): what the host's site-packages load at start
    is not the program's."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-S", SETUP_PROBE, SRC, calls_file], stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        total = time.perf_counter() - start
        proc.stdout.read()
    word, *figures = line.split()
    if proc.returncode != 0 or word != "ready":
        sys.exit(f"error: set-up probe exited with {proc.returncode}")
    inside, program, in_kernels, kernel_s = map(float, figures)
    interpreter = total - inside
    return interpreter / kernel_s + in_kernels, interpreter + program


# ---------------------------------------------------------------------------
# traced run


def traced_layers(tc, seed: int, workdir: str) -> tuple[dict, Tally]:
    """One round of each workload under the tracer, and the CLI process
    timings, so every layer is measured on the workload that exercises it.
    Counts repeat exactly for equal seeds."""
    metrics = {}
    tracer = Tracer()
    rounds = {name: workloads.operations(name, workloads.generate(name, seed), tc) for name in workloads.WORKLOADS}
    tally = Tally()
    tracer.install(tc)
    try:
        for ops in rounds.values():
            for op in ops:
                tally.run_op(op)
    finally:
        tracer.remove()
    metrics.update(tracer.metrics())

    cli_ops = workloads.cli_operations(tc, workdir, ROOT)
    per_sub: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
    for _ in range(CLI_TRACE_ROUNDS):
        for op in cli_ops:
            before = len(tally.latencies)
            tally.run_op(op)
            per_sub[op.kind.split(":", 1)[1]].extend(tally.latencies[before:])
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.process.{sub}.ms"] = (statistics.median(per_sub[sub]) * 1e3, "ms")
    metrics["cli.import.ms"] = (import_cost_ms(), "ms")
    return metrics, tally


def import_cost_ms() -> float:
    """A fresh `import toricap.cli` minus a bare interpreter start."""
    env = workloads.cli_env(ROOT)

    def median_ms(code: str) -> float:
        times = []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    return median_ms("import toricap.cli") - median_ms("pass")


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-inputs", action="store_true", help="print the generated inputs and exit")
    args = parser.parse_args()

    if args.print_inputs:
        print(workloads.inputs_as_json(workloads.generate(args.workload, args.seed)))
        return 0
    if not os.path.isfile(os.path.join(SRC, "toricap", "__init__.py")):
        sys.exit(f"error: no toricap sources under {SRC}")
    workdir = work_dir()
    try:
        items = workloads.generate(args.workload, args.seed)
        setup_s, setup_wall_s = setup_seconds(args.workload, items, workdir)
        tc = import_program()
        ops = workloads.operations(args.workload, items, tc)

        tally = timed_phase(ops, args.seconds)
        if args.trace:
            # attempted and failed count the timed phase only, so the failed
            # share is the same in every run; the traced round must not fail
            metrics, traced = traced_layers(tc, args.seed, workdir)
            metrics.update(wall_figures(tally))
            metrics["wall.setup_s"] = (setup_wall_s, "s")
            tally.wrong += traced.wrong + traced.notes
        else:
            metrics = end_to_end(tally, setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for line in tally.wrong[:20] + tally.notes:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} operations, {tally.failed} failed, "
          f"{len(tally.wrong)} wrong, median kernel {statistics.median(tally.kernel) * 1e3:.3f} ms",
          file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
