"""The benchmark's contract with the program: its self-test passes, and its
tracer can wrap and then restore every name it records, so renaming or
deleting one of those names fails here rather than only under --trace."""
import importlib.util
import pathlib
import subprocess
import sys

import toricap

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def test_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(BENCHMARK / "selftest.py")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "60 of 60 self-test cases behave as expected" in done.stdout


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCHMARK / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_recorded_name():
    tracer_module = _load_tracer()
    names = tracer_module.TIMED + tracer_module.COUNTED + [entry[:3] for entry in tracer_module.COUNTED_INSIDE]

    def lookup(module, owner, attr):
        target = getattr(toricap, module)
        return getattr(getattr(target, owner) if owner else target, attr)

    originals = [lookup(*name) for name in names]
    tracer = tracer_module.Tracer()
    try:
        tracer.install(toricap)
        for name, original in zip(names, originals):
            assert lookup(*name).__wrapped__ is original, name
        tri = toricap.moment_domain.make_polygon_domain([(0, 1), (1, 0)])
        toricap.capacities.gh_capacity_toric4(tri, 3)
        assert tracer.metrics()["capacities.gh_capacity_toric4.calls"] == (1, "count")
    finally:
        tracer.remove()
    assert [lookup(*name) for name in names] == originals
