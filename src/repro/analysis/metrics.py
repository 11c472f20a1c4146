"""Parallel-performance metrics used throughout the evaluation."""

from __future__ import annotations

from typing import Sequence


def speedup(t1: float, tp: float) -> float:
    """Classic speedup ``T(1) / T(p)``."""
    if tp <= 0:
        raise ValueError("parallel time must be positive")
    return t1 / tp


def efficiency(t1: float, tp: float, p: int) -> float:
    """Parallel efficiency ``speedup / p``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return speedup(t1, tp) / p


def flops_per_byte(total_flops: float, nprocs: int, volume_bytes: float) -> float:
    """Table 2's FPs/Byte: per-processor flops over per-processor volume.

    The per-processor communication volume of the axial decomposition is
    independent of the processor count (each interior processor exchanges
    fixed-width boundary columns), so this halves with each doubling of
    ``nprocs`` — exactly the paper's column.
    """
    if nprocs < 2:
        return float("inf")
    return (total_flops / nprocs) / volume_bytes


def flops_per_startup(total_flops: float, nprocs: int, startups: float) -> float:
    """Table 2's FPs/Start-up."""
    if nprocs < 2:
        return float("inf")
    return (total_flops / nprocs) / startups


def minimum_location(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """``(x, y)`` of the minimum of a sampled curve (e.g. the Ethernet
    execution-time minimum near 8 processors)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length, non-empty")
    k = min(range(len(ys)), key=lambda i: ys[i])
    return xs[k], ys[k]


def balance_spread(values: Sequence[float]) -> float:
    """Relative spread ``(max - min) / mean`` — Figure 13's load balance."""
    if not values:
        raise ValueError("empty sequence")
    m = sum(values) / len(values)
    if m == 0:
        return 0.0
    return (max(values) - min(values)) / m


def crossover(
    xs: Sequence[float], ys_a: Sequence[float], ys_b: Sequence[float]
) -> float | None:
    """Smallest x where curve A drops to or below curve B (None if never).

    Used for the T3D / ALLNODE-S crossover near 8 processors.
    """
    for x, a, b in zip(xs, ys_a, ys_b):
        if a <= b:
            return x
    return None
