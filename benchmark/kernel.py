"""The reference kernel that every timing is divided by.

It imports only ``fractions`` and ``statistics``, so setup_probe.py can
load it after ``import toricap`` without timing imports of its own.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction


def reference_kernel() -> int:
    """Fixed plain-Python work mixing Fraction and int arithmetic, like the
    exact layers.  Never touches toricap; its duration measures the host."""
    acc = Fraction(0)
    total = 0
    for i in range(1, 49):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7) - Fraction(1, i)
        total = (total * 31 + i * i) % 1_000_003
    return acc.numerator % 97 + total


def time_kernel() -> float:
    """Seconds one reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%: follows the mix of the host's fast and slow
    spells, which a median would flip between, and drops the outliers."""
    s = sorted(values)
    cut = len(s) // 10
    return statistics.fmean(s[cut:len(s) - cut])
