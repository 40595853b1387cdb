"""Order statistics for the benchmark's timings."""
from __future__ import annotations

import math
import statistics

# Candidate tail levels, highest last. The reported tail is the highest
# level that leaves at least TAIL_BEYOND samples above it, so it never rests
# on a handful of outliers; a fixed ladder keeps the level the same across
# runs whose sample counts differ a little.
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], level: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, str, int]:
    """(value, level label, sample count) of the tail latency.

    The level is the highest of TAIL_LEVELS with at least TAIL_BEYOND
    samples strictly beyond its rank. With too few samples for even the
    median to qualify, the tail is the maximum and the label says "max".
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            best = level
    if best is None:
        return ordered[-1], "max", n
    return nearest_rank(ordered, best), f"p{best:g}", n


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
