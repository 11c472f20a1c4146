"""Parallel-performance metrics used throughout the evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs.report import rank_split


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


@dataclass(frozen=True)
class RankComponents:
    """One rank's share of the paper's three execution-time components."""

    computation: float
    startup: float
    transfer: float

    @property
    def communication(self) -> float:
        return self.startup + self.transfer

    @property
    def total(self) -> float:
        return self.computation + self.startup + self.transfer


@dataclass(frozen=True)
class ComponentBreakdown:
    """The paper's computation / startup / data-transfer split (Figs 5-6),
    recomputed from a recorded :class:`repro.obs.Trace`."""

    per_rank: tuple[tuple[int, RankComponents], ...]
    source: str
    """``"simulated"`` (DES timeline spans) or ``"measured"`` (wall-clock
    spans of a real run)."""

    def rank(self, r: int) -> RankComponents:
        for rank, comp in self.per_rank:
            if rank == r:
                return comp
        raise KeyError(f"rank {r} not in trace")

    @property
    def computation(self) -> float:
        """Mean per-rank computation seconds."""
        return sum(c.computation for _, c in self.per_rank) / len(self.per_rank)

    @property
    def startup(self) -> float:
        """Mean per-rank message-startup (send-side software) seconds."""
        return sum(c.startup for _, c in self.per_rank) / len(self.per_rank)

    @property
    def transfer(self) -> float:
        """Mean per-rank data-transfer (receive/wait) seconds."""
        return sum(c.transfer for _, c in self.per_rank) / len(self.per_rank)

    @property
    def communication(self) -> float:
        return self.startup + self.transfer

    @property
    def total(self) -> float:
        return self.computation + self.communication

    def fractions(self) -> tuple[float, float, float]:
        """``(computation, startup, transfer)`` as fractions of the total."""
        t = self.total
        if t <= 0:
            return (0.0, 0.0, 0.0)
        return (self.computation / t, self.startup / t, self.transfer / t)


#: Span category of leaf message operations in real runs.  Collectives
#: (``cat="collective"``) are deliberately excluded: they nest these leaf
#: send/recv spans and counting both would double-book the time.
_COMM_CAT = "comm"


class MissingMeasurementError(ValueError):
    """A breakdown was requested from inputs that don't carry one.

    Names exactly which input is missing or empty (``missing``) and how to
    record it (``hint``) — the structured replacement for the bare
    ``KeyError``/``ValueError`` a caller used to have to decipher.
    """

    def __init__(self, missing: str, hint: str) -> None:
        self.missing = missing
        self.hint = hint
        super().__init__(f"{missing}; {hint}")


def _breakdown_from_metrics(metrics) -> ComponentBreakdown:
    """The component split from a live :class:`~repro.obs.MetricsRegistry`
    or the snapshot dict a run-ledger line stores (no trace needed)."""
    snap = metrics if isinstance(metrics, dict) else metrics.snapshot()
    source, split = rank_split(snap)
    if not split:
        raise MissingMeasurementError(
            "metrics snapshot holds neither sim.* counters nor a "
            "solver.step_seconds histogram",
            "record one with repro.api.run(..., metrics=True)",
        )
    return ComponentBreakdown(
        per_rank=tuple((r, RankComponents(*parts)) for r, *parts in split),
        source=source,
    )


def component_breakdown(trace=None, *, metrics=None) -> ComponentBreakdown:
    """Recompute the paper's component split from a trace or, when no
    trace was recorded, from a metrics snapshot
    (``run(..., metrics=True)`` — either the live registry or the
    ``metrics`` dict stored in a run-ledger line).

    For traces, works on both kinds this package produces:

    * **simulated-platform traces** (``sim.compute`` / ``sim.library`` /
      ``sim.wait`` spans on the DES clock): the components are read off
      directly — computation, startup (message software), transfer
      (blocked on wire/late messages);
    * **real-run traces** (wall-clock spans from the virtual cluster or a
      serial run): computation is ``solver.step`` time net of message
      passing, startup is send-side time (``comm.send`` — the buffered
      deposit, i.e. per-message software cost), transfer is receive-side
      time (``comm.recv`` / ``comm.wait`` — dominated by waiting for data
      to arrive, including the sends/receives inside collectives).

    Accepts a :class:`repro.obs.Trace` (or anything ``load_trace``
    returns).  Raises :class:`MissingMeasurementError` (a ``ValueError``)
    when neither input carries a usable measurement.
    """
    if trace is None:
        if metrics is None:
            raise MissingMeasurementError(
                "neither a trace nor a metrics snapshot was provided",
                "record one with repro.api.run(..., trace=True) or "
                "run(..., metrics=True)",
            )
        return _breakdown_from_metrics(metrics)
    is_sim = any(s.name.startswith("sim.") for s in trace.spans)
    per_rank: list[tuple[int, RankComponents]] = []
    if is_sim:
        for r in trace.ranks():
            per_rank.append(
                (
                    r,
                    RankComponents(
                        computation=trace.total("sim.compute", rank=r),
                        startup=trace.total("sim.library", rank=r),
                        transfer=trace.total("sim.wait", rank=r),
                    ),
                )
            )
    else:
        for r in trace.ranks():
            step = trace.total("solver.step", rank=r)
            if step <= 0:
                continue
            startup = transfer = 0.0
            for s in trace.spans:
                if s.rank != r or s.cat != _COMM_CAT:
                    continue
                if s.name == "comm.send":
                    startup += s.duration
                else:  # comm.recv / comm.wait
                    transfer += s.duration
            per_rank.append(
                (
                    r,
                    RankComponents(
                        computation=max(step - startup - transfer, 0.0),
                        startup=startup,
                        transfer=transfer,
                    ),
                )
            )
    if not per_rank:
        if metrics is not None:
            return _breakdown_from_metrics(metrics)
        raise MissingMeasurementError(
            "trace holds no sim.* or solver.step spans",
            "record one with repro.api.run(..., trace=True)",
        )
    return ComponentBreakdown(
        per_rank=tuple(per_rank), source="simulated" if is_sim else "measured"
    )


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
