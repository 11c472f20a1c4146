"""Streaming per-step telemetry and the straggler/imbalance detector.

While a run executes, each rank publishes one compact record per solver
step — step number, simulated time, dt, wall ms, comm split and byte
deltas — to the step stream installed with ``obs.use(stream=...)``.  The
solver hands the ``step`` verb of :mod:`repro.obs.spine` a callback, so
with no publisher installed the record is never even built.

Publishers:

* :class:`BufferStepStream` — thread-safe bounded ring for in-process
  consumers (tests, the facade's ``stream=True``).
* :class:`QueueStepStream` — fans records into a bounded
  ``multiprocessing.Queue`` with drop-on-full semantics (the hot path
  never blocks on a slow consumer); the run service hands one of these to
  each worker so per-rank records (the queue is inherited through fork by
  the rank processes) flow straight to the service parent, which serves
  them to ``repro tail`` / ``repro top``.

Across a fork (``substrate="process"``) a buffer cannot be shared: each
rank fills a buffer of its own and the parent republishes the records
when the rank reports (:class:`~repro.obs.ranks.ForkedRanks`); a queue
publisher keeps publishing live.

Records follow the versioned ``repro.stream/1`` schema built by
:func:`step_record`.

:class:`StragglerDetector` consumes the stream online and
:func:`imbalance_verdict` analyzes a finished run's per-rank rows; both
flag load imbalance (max/mean step time) and comm-bound ranks
(communication share of step time), the "why was this slow" signal the
paper's comp:comm tables answer by hand.
"""

from __future__ import annotations

import queue as _queue
import threading
from collections import deque

#: Version tag carried by every streamed step record.
STREAM_SCHEMA = "repro.stream/1"


def step_record(
    *,
    rank: int,
    step: int,
    t: float,
    dt: float,
    ms: float,
    **extra,
) -> dict:
    """One ``repro.stream/1`` record.  ``extra`` carries optional fields
    (``comm_ms`` and the blocked part of it, ``wait_ms``; ``sent_bytes``,
    ``retries``, ...)."""
    rec = {
        "schema": STREAM_SCHEMA,
        "rank": rank,
        "step": step,
        "t": t,
        "dt": dt,
        "ms": ms,
    }
    if extra:
        rec.update(extra)
    return rec


class BufferStepStream:
    """Thread-safe bounded ring of step records (in-process consumers).

    ``publish`` appends under a lock; when the ring is full the oldest
    record is evicted (``dropped`` counts evictions).  Virtual-cluster
    ranks are threads sharing one instance, so the lock is required.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.published = 0
        self.dropped = 0

    def publish(self, record: dict) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
            self.published += 1

    def records(self) -> list[dict]:
        """A snapshot of the buffered records, oldest first."""
        with self._lock:
            return list(self._ring)


class QueueStepStream:
    """Publisher over a bounded multiprocessing (or stdlib) queue.

    ``put_nowait`` only — a full queue drops the record rather than
    stalling the solver step.  ``tags`` (e.g. ``job=<id>``) are merged
    into every record so a shared fan-in queue can demultiplex.
    """

    def __init__(self, channel, **tags) -> None:
        self._channel = channel
        self._tags = tags
        self.published = 0
        self.dropped = 0

    def publish(self, record: dict) -> None:
        if self._tags:
            record = {**record, **self._tags}
        try:
            self._channel.put_nowait(record)
        except (_queue.Full, ValueError, OSError):
            # Full queue or a channel torn down mid-run: drop, never block.
            self.dropped += 1
        else:
            self.published += 1


# -- imbalance analysis -------------------------------------------------------

#: A rank whose mean step time exceeds the cross-rank mean by this factor
#: is flagged as a straggler.
IMBALANCE_RATIO = 1.5
#: A rank spending at least this share of its step inside communication is
#: flagged as comm-bound.
COMM_BOUND_SHARE = 0.5


def _verdict_doc(
    per_rank_ms: dict[int, float],
    comm_share: dict[int, float],
    *,
    ratio_threshold: float = IMBALANCE_RATIO,
    comm_threshold: float = COMM_BOUND_SHARE,
) -> dict:
    """Build the balance verdict from per-rank mean step ms + comm share."""
    ranks = sorted(per_rank_ms)
    means = [per_rank_ms[r] for r in ranks]
    mean = sum(means) / len(means)
    slowest = max(ranks, key=lambda r: per_rank_ms[r])
    ratio = (per_rank_ms[slowest] / mean) if mean > 0 else 1.0
    comm_bound = [
        r for r in ranks if comm_share.get(r, 0.0) >= comm_threshold
    ]
    flags = []
    if ratio > ratio_threshold:
        flags.append("imbalanced")
    if comm_bound:
        flags.append("comm-bound")
    return {
        "schema": "repro.balance/1",
        "ranks": len(ranks),
        "max_mean_step_ratio": round(ratio, 4),
        "slowest_rank": slowest,
        "comm_bound_ranks": comm_bound,
        "comm_share": {str(r): round(comm_share.get(r, 0.0), 4) for r in ranks},
        "verdict": "+".join(flags) if flags else "balanced",
    }


def imbalance_verdict(
    per_rank: list[dict],
    *,
    ratio_threshold: float = IMBALANCE_RATIO,
    comm_threshold: float = COMM_BOUND_SHARE,
) -> dict | None:
    """Post-run balance verdict from :class:`PerfReport` per-rank rows.

    Each row carries ``rank`` plus (real runs) ``step_seconds`` /
    ``comm_seconds`` or (simulated runs) ``comp_seconds`` +
    ``comm_seconds``; rows without timing signal are ignored.  Returns
    ``None`` for fewer than two usable ranks.
    """
    per_rank_ms: dict[int, float] = {}
    comm_share: dict[int, float] = {}
    for row in per_rank:
        rank = row.get("rank")
        if rank is None:
            continue
        comm = float(row.get("comm_seconds") or 0.0)
        step = row.get("step_seconds")
        if step is None:
            comp = row.get("comp_seconds")
            if comp is None:
                continue
            step = float(comp) + comm
        step = float(step)
        if step <= 0.0:
            continue
        per_rank_ms[rank] = 1e3 * step
        comm_share[rank] = comm / step
    if len(per_rank_ms) < 2:
        return None
    return _verdict_doc(
        per_rank_ms,
        comm_share,
        ratio_threshold=ratio_threshold,
        comm_threshold=comm_threshold,
    )


class StragglerDetector:
    """Online imbalance analyzer over a live per-rank step stream.

    Feed it records via :meth:`observe` (``repro tail`` order is fine —
    ranks may interleave arbitrarily); :meth:`verdict` reports over a
    sliding window of the last ``window`` steps per rank.
    """

    def __init__(
        self,
        window: int = 64,
        *,
        ratio_threshold: float = IMBALANCE_RATIO,
        comm_threshold: float = COMM_BOUND_SHARE,
    ) -> None:
        self.window = window
        self.ratio_threshold = ratio_threshold
        self.comm_threshold = comm_threshold
        self._ms: dict[int, deque] = {}
        self._comm: dict[int, deque] = {}

    def observe(self, record: dict) -> None:
        rank = record.get("rank", 0)
        ms = record.get("ms")
        if ms is None:
            return
        self._ms.setdefault(rank, deque(maxlen=self.window)).append(float(ms))
        self._comm.setdefault(rank, deque(maxlen=self.window)).append(
            float(record.get("comm_ms", 0.0))
        )

    def verdict(self) -> dict | None:
        """Current balance verdict (``None`` until >= 2 ranks reported)."""
        usable = {r: d for r, d in self._ms.items() if d}
        if len(usable) < 2:
            return None
        per_rank_ms = {r: sum(d) / len(d) for r, d in usable.items()}
        comm_share = {}
        for r, d in usable.items():
            comm = self._comm.get(r)
            total = sum(d)
            comm_share[r] = (sum(comm) / total) if comm and total > 0 else 0.0
        return _verdict_doc(
            per_rank_ms,
            comm_share,
            ratio_threshold=self.ratio_threshold,
            comm_threshold=self.comm_threshold,
        )
