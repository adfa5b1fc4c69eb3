"""Order statistics shared by the benchmark run and the compare command."""

from __future__ import annotations

import statistics

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """Highest latency percentile with at least ten samples beyond it.

    Returns (value, percentile). With n samples sorted ascending, the value
    at rank n - 10 has exactly ten samples beyond it; its percentile is
    100 (n - 10) / n. Below 2 x 10 samples that rank falls under the
    median, so the maximum is reported instead, as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")
