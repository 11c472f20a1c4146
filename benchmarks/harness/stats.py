"""Summary statistics the harness reports: median, a tail percentile that
the sample count can support, and the quartile spread the bounds are set
from."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` for the highest percentile that still has at
    least ten samples beyond it, or ``None`` below 20 samples (a median is
    all such a series supports)."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, float(xs[n - 11])


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread every bound is compared against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(values) -> dict:
    """Median, sample count and (when supported) the tail of a series."""
    out = {"median": median(values), "n": len(values)}
    t = tail(values)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out
