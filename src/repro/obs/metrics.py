"""Typed metric registry: counters, gauges, histograms.

The tracer (:mod:`repro.obs.tracer`) records *every* span — precise but
heavy for long runs.  This module is the continuous-measurement
counterpart: fixed-size aggregates (a counter is one float, a histogram a
handful of buckets) that can stay on for a whole production run and feed
the per-run performance ledger (:mod:`repro.obs.report`).

A :class:`MetricsRegistry` is one of the four sinks of
:mod:`repro.obs.spine`: install it with ``obs.use(metrics=...)`` and the
instrumented seams feed it through the spine's verbs; with none installed
they cost a slot test.  Design constraints (mirroring the tracer's):

* **Per-rank.**  Every metric is keyed ``(name, rank)``; rank threads of
  the virtual cluster bind their default rank once
  (:meth:`MetricsRegistry.bind_rank`), exactly like the tracer, so each
  ``(name, rank)`` cell has a single writer and needs no hot-path lock.
* **Deterministic merge.**  :func:`merge` (and ``merged_with`` on every
  metric type) is associative and order-independent *exactly*, floats
  included: merged metrics keep the multiset of their atomic float
  contributions and collapse it with ``math.fsum`` over the sorted parts,
  so any merge tree and any rank permutation produce bit-identical
  snapshots.  Histogram bucket counts are integers and merge exactly by
  construction; gauges merge by maximum.

Histograms default to :data:`STEP_TIME_BUCKETS` — fixed log-spaced
boundaries (three per decade, 100 ns .. 1000 s) sized for solver-step and
message-call times, so histograms from different runs and machines always
share bucket edges and merge without resampling.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right

__all__ = [
    "STEP_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge",
]

#: Fixed log-spaced bucket boundaries (seconds): 3 per decade, 1e-7..1e3.
#: Shared by every histogram by default so cross-run merges are exact.
STEP_TIME_BUCKETS: tuple[float, ...] = tuple(
    float(f"{10.0 ** (e / 3.0):.6e}") for e in range(-21, 10)
)


def _fsum_parts(parts: tuple[float, ...]) -> float:
    """Exactly-rounded sum of a canonical (sorted) parts multiset."""
    return math.fsum(parts)


class Counter:
    """Monotone accumulator (counts, bytes, seconds).

    ``value`` is accumulated in program order by its single writing rank;
    merged counters additionally carry the multiset of atomic
    contributions (``_parts``) so further merging stays exact and
    order-independent.
    """

    kind = "counter"
    __slots__ = ("value", "updates", "_parts")

    def __init__(self, value: float = 0.0, updates: int = 0) -> None:
        self.value = value
        self.updates = updates
        self._parts: tuple[float, ...] | None = None

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.updates += 1
        self._parts = None  # a mutated metric is atomic again

    def parts(self) -> tuple[float, ...]:
        return self._parts if self._parts is not None else (self.value,)

    def merged_with(self, other: "Counter") -> "Counter":
        out = Counter(updates=self.updates + other.updates)
        out._parts = tuple(sorted(self.parts() + other.parts()))
        out.value = _fsum_parts(out._parts)
        return out

    def to_dict(self) -> dict:
        return {"value": self.value, "updates": self.updates}


class Gauge:
    """Last-observed value.

    Merging two gauges keeps the *maximum* — the only aggregate of
    "latest value" that is associative and order-independent across
    ranks; per-rank keying means the common case never merges at all.
    """

    kind = "gauge"
    __slots__ = ("value", "updates")

    def __init__(self, value: float = float("nan"), updates: int = 0) -> None:
        self.value = value
        self.updates = updates

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def merged_with(self, other: "Gauge") -> "Gauge":
        if math.isnan(self.value):
            v = other.value
        elif math.isnan(other.value):
            v = self.value
        else:
            v = max(self.value, other.value)
        return Gauge(v, self.updates + other.updates)

    def to_dict(self) -> dict:
        return {"value": self.value, "updates": self.updates}


class Histogram:
    """Fixed-bucket histogram with exact-merge sum/min/max.

    Buckets are defined by ``bounds`` (sorted upper-open boundaries);
    observation ``x`` lands in the bucket ``i`` with
    ``bounds[i-1] <= x < bounds[i]`` (``counts`` has ``len(bounds) + 1``
    cells, the last catching overflow).  All histograms sharing bounds —
    the default :data:`STEP_TIME_BUCKETS` — merge exactly.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count", "min", "max", "_parts")

    def __init__(self, bounds: tuple[float, ...] = STEP_TIME_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._parts: tuple[float, ...] | None = None

    @property
    def updates(self) -> int:
        return self.count

    def observe(self, x: float) -> None:
        self.counts[bisect_right(self.bounds, x)] += 1
        self.sum += x
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        self._parts = None

    def parts(self) -> tuple[float, ...]:
        return self._parts if self._parts is not None else (self.sum,)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def merged_with(self, other: "Histogram") -> "Histogram":
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} boundaries)"
            )
        out = Histogram(self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out._parts = tuple(sorted(self.parts() + other.parts()))
        out.sum = _fsum_parts(out._parts)
        return out

    def to_dict(self) -> dict:
        return {
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            # Sparse bucket encoding keeps ledger lines small.
            "buckets": {
                str(i): c for i, c in enumerate(self.counts) if c
            },
        }


class MetricsRegistry:
    """Collects per-rank typed metrics; see the module docstring.

    The hot-path methods (:meth:`count`, :meth:`observe`, :meth:`gauge`)
    create metrics on demand; a name must keep one type — reusing a
    counter name as a histogram raises ``TypeError`` at the call site
    rather than silently corrupting the ledger.
    """

    def __init__(self, name: str = "") -> None:
        self.meta: dict[str, object] = {"name": name} if name else {}
        self._data: dict[tuple[str, int], object] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- pickling (process-substrate obs shipping) -----------------------------
    def __getstate__(self) -> dict:
        """Pickle the recorded data only: the lock and the thread-local
        rank binding are process-private and rebuilt on load."""
        return {"meta": self.meta, "data": self._data}

    def __setstate__(self, state: dict) -> None:
        self.meta = state["meta"]
        self._data = state["data"]
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- per-thread default rank (mirrors Tracer.bind_rank) -------------------
    def bind_rank(self, rank: int) -> None:
        self._tls.rank = rank

    def _rank(self, rank: int | None) -> int:
        if rank is not None:
            return rank
        return getattr(self._tls, "rank", 0)

    # -- metric lookup ---------------------------------------------------------
    def _metric(self, cls, name: str, rank: int | None, *args):
        key = (name, self._rank(rank))
        m = self._data.get(key)
        if m is None:
            with self._lock:
                m = self._data.get(key)
                if m is None:
                    m = self._data[key] = cls(*args)
        if type(m) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(m).__name__}, not a {cls.__name__}"
            )
        return m

    # -- recording -------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, rank: int | None = None) -> None:
        self._metric(Counter, name, rank).inc(value)

    def observe(self, name: str, value: float, rank: int | None = None) -> None:
        self._metric(Histogram, name, rank).observe(value)

    def gauge(self, name: str, value: float, rank: int | None = None) -> None:
        self._metric(Gauge, name, rank).set(value)

    # -- reading ---------------------------------------------------------------
    def get(self, name: str, rank: int = 0):
        """The metric object at ``(name, rank)`` or ``None``."""
        return self._data.get((name, rank))

    def value(self, name: str, rank: int = 0, default: float = 0.0) -> float:
        """Counter/gauge value or histogram sum at ``(name, rank)``."""
        m = self._data.get((name, rank))
        if m is None:
            return default
        return m.sum if isinstance(m, Histogram) else m.value

    def ranks(self) -> list[int]:
        return sorted({r for _, r in self._data})

    def names(self, prefix: str = "") -> list[str]:
        return sorted({n for n, _ in self._data if n.startswith(prefix)})

    def items(self):
        """``((name, rank), metric)`` pairs in deterministic order."""
        return sorted(self._data.items())

    @property
    def total_updates(self) -> int:
        """Number of recording operations performed (overhead accounting)."""
        return sum(m.updates for m in self._data.values())

    # -- merge -----------------------------------------------------------------
    def merged_with(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Pairwise merge; see :func:`merge` for the n-ary form.  Exact:
        merged metrics keep their contribution multisets, so any merge
        tree over the same registries yields bit-identical snapshots."""
        out = MetricsRegistry()
        out.meta = {**other.meta, **self.meta}
        for key in set(self._data) | set(other._data):
            a, b = self._data.get(key), other._data.get(key)
            if a is None:
                out._data[key] = b
            elif b is None:
                out._data[key] = a
            else:
                out._data[key] = a.merged_with(b)
        return out

    def ingest(self, other: "MetricsRegistry") -> None:
        """Merge ``other``'s metrics into this registry *in place*, with
        the same exactness guarantee as :meth:`merged_with` (contribution
        multisets, sorted ``fsum``).  This is how the process substrate
        folds each worker's locally-recorded registry into the parent's
        active one on join — any ingest order yields identical bits."""
        with self._lock:
            for key, m in other._data.items():
                mine = self._data.get(key)
                self._data[key] = m if mine is None else mine.merged_with(m)
            self.meta = {**other.meta, **self.meta}

    # -- serialization ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able nested dict: ``{kind: {name: {rank: payload}}}``.

        Deterministic: keys sorted, histogram buckets sparse.  This is
        the shape the run ledger stores and
        :func:`repro.analysis.metrics.component_breakdown` accepts.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, rank), m in self.items():
            group = out[m.kind + "s"]
            group.setdefault(name, {})[str(rank)] = m.to_dict()
        out["bucket_bounds"] = "step-time-log3"  # STEP_TIME_BUCKETS tag
        return out


def merge(registries) -> MetricsRegistry:
    """Merge any iterable of registries, order-independently and exactly.

    Equivalent to folding :meth:`MetricsRegistry.merged_with` in any
    order — the contribution-multiset representation makes every fold
    tree produce the same bits.
    """
    regs = list(registries)
    if not regs:
        return MetricsRegistry()
    out = regs[0]
    for r in regs[1:]:
        out = out.merged_with(r)
    return out
