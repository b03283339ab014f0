"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math

# candidate tail percentiles, lowest first
LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.99)


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(n: int, beyond: int = 10) -> float:
    """The highest ladder percentile that leaves at least ``beyond`` samples
    above it; 100 (the maximum) when even the median leaves fewer."""
    best = 100.0
    for p in LADDER:
        if n - _rank(p, n) >= beyond:
            best = p
    return best


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the tail by the rule above."""
    p = tail_percentile(len(values))
    return p, (max(values) if p == 100.0 else percentile(values, p))
