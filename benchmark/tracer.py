"""Per-layer counters and timers, installed from outside the program.

``Tracer.install`` replaces public names of the toricap modules (module
functions and class methods) with wrappers that count calls or add up the
time spent inside them, and ``remove`` puts the originals back.  Nothing
under src/ is edited.  Timed names report total milliseconds over the
traced round; counted names report calls.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, owner inside the module or None, attribute): what to record
TIMED = [
    ("capacities", None, "gh_capacity_toric4"),
    ("capacities", None, "gh_spectrum_ellipsoid"),
    ("capacities", None, "find_k_equal_diagonal"),
    ("moment_domain", None, "equal_diagonal_enclosing_ellipsoids"),
    ("rounding_reeb", None, "round_domain"),
    ("rounding_reeb", None, "orbit_families"),
    ("rounding_reeb", None, "capacity_via_spectrum"),
    ("sft_ledger", None, "building_validate"),
    ("sft_ledger", None, "building_from_json"),
    ("sft_ledger", None, "building_to_json"),
    ("sft_ledger", None, "canonical_ball_building"),
    ("sft_ledger", None, "energy_partition_solve"),
    ("sft_ledger", None, "min_positive_punctures"),
    ("sft_ledger", None, "forced_morse_indices"),
]
COUNTED = [
    ("capacities", None, "support"),
    ("rounding_reeb", None, "gauss_point"),
    ("rounding_reeb", "SmoothDomain2D", "derivative"),
    ("rounding_reeb", "SmoothDomain2D", "value"),
    ("sft_ledger", "Building", "node"),
]
# counted only while the named timed function runs
COUNTED_INSIDE = [
    ("moment_domain", "MomentDomain2D", "boundary_value", "rounding_reeb.round_domain"),
]


def _key(module: str, owner, attr: str) -> str:
    return ".".join(part for part in (module, owner, attr) if part)


class Tracer:
    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.active: Counter = Counter()
        self.families = 0
        self.interior_families = 0
        self._saved: list = []

    def _swap(self, tc, module, owner, attr, make):
        target = getattr(tc, module)
        if owner:
            target = getattr(target, owner)
        original = getattr(target, attr)
        self._saved.append((target, attr, original))
        setattr(target, attr, make(original, _key(module, owner, attr)))

    def _timed(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self.active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ms[key] += (time.perf_counter() - start) * 1e3
                self.active[key] -= 1
            if key == "rounding_reeb.orbit_families":
                self.families += len(result)
                self.interior_families += sum(1 for fam in result if fam.point is not None)
            return result

        return wrapper

    def _counted(self, fn, key, inside=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or self.active[inside]:
                self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, tc) -> None:
        for module, owner, attr in TIMED:
            self._swap(tc, module, owner, attr, self._timed)
        for module, owner, attr in COUNTED:
            self._swap(tc, module, owner, attr, self._counted)
        for module, owner, attr, inside in COUNTED_INSIDE:
            self._swap(tc, module, owner, attr, lambda fn, key, inside=inside: self._counted(fn, key, inside))

    def remove(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for module, owner, attr in TIMED:
            key = _key(module, owner, attr)
            out[f"{key}.ms"] = (self.ms[key], "ms")
        out["capacities.gh_capacity_toric4.calls"] = (self.calls["capacities.gh_capacity_toric4"], "count")
        out["capacities.gh_spectrum_ellipsoid.calls"] = (self.calls["capacities.gh_spectrum_ellipsoid"], "count")
        for module, owner, attr, *_ in COUNTED + COUNTED_INSIDE:
            key = _key(module, owner, attr)
            out[f"{key}.calls"] = (self.calls[key], "count")
        out["rounding_reeb.orbit_families.families"] = (self.families, "count")
        gauss = self.calls["rounding_reeb.gauss_point"]
        out["rounding_reeb.gauss_point.yield"] = (self.interior_families / gauss if gauss else 0.0, "ratio")
        return out
