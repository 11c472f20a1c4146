"""Core tracing primitives: spans and instant events.

A :class:`Tracer` is one of the four sinks of :mod:`repro.obs.spine`:
install it with ``obs.use(tracer=...)`` and the instrumented seams reach
it through the spine's verbs; with none installed they cost a slot test.
Design constraints:

* **Deterministic when driven by a deterministic clock.**  Every record
  carries a global monotone sequence number assigned at span *start*;
  exports sort by ``(t0, seq)``, so two runs over the discrete-event
  engine's clock serialize byte-identically.
* **Thread-safe.**  The virtual cluster runs one thread per rank; appends
  go through a lock-free path (CPython list.append / itertools.count are
  atomic) and per-thread state (current rank, span stack) lives in
  ``threading.local``.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceContext:
    """Distributed trace identity, carried across process/socket hops.

    Minted once when a :class:`~repro.request.RunRequest` is submitted and
    propagated through the service wire protocol and the fork-worker job
    queue into every rank's tracer, so the spans of one logical run — on
    the client, the service, the worker, and each rank — share a single
    ``trace_id`` and assemble into one tree in a Perfetto export.

    ``parent_span`` names the span in the *upstream* tier under which this
    tier's spans nest (e.g. the worker runs under ``"service.worker"``).
    """

    trace_id: str
    parent_span: str | None = None
    origin: str = "client"

    @classmethod
    def mint(cls, origin: str = "client") -> "TraceContext":
        """A fresh context with a new random trace id."""
        return cls(trace_id=uuid.uuid4().hex[:16], origin=origin)

    def child(self, parent_span: str, origin: str) -> "TraceContext":
        """The same trace, one tier down (new parent span + origin)."""
        return TraceContext(self.trace_id, parent_span, origin)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_span": self.parent_span,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceContext":
        return cls(
            trace_id=doc["trace_id"],
            parent_span=doc.get("parent_span"),
            origin=doc.get("origin", "client"),
        )


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (a named, timed interval on one rank)."""

    name: str
    cat: str
    rank: int
    t0: float
    t1: float
    seq: int
    parent: str | None = None
    args: tuple = ()
    """Extra attributes as a sorted tuple of ``(key, value)`` pairs."""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class EventRecord:
    """An instant event (zero duration)."""

    name: str
    cat: str
    rank: int
    t: float
    seq: int
    args: tuple = ()


@dataclass
class Trace:
    """The collected records of one traced run."""

    spans: list[SpanRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)

    def ordered_spans(self) -> list[SpanRecord]:
        """Spans in monotone ``(t0, seq)`` order."""
        return sorted(self.spans, key=lambda s: (s.t0, s.seq))

    def ordered_events(self) -> list[EventRecord]:
        return sorted(self.events, key=lambda e: (e.t, e.seq))

    def ranks(self) -> list[int]:
        seen = {s.rank for s in self.spans}
        seen.update(e.rank for e in self.events)
        return sorted(seen)

    def spans_named(self, name: str, rank: int | None = None) -> list[SpanRecord]:
        return [
            s
            for s in self.spans
            if s.name == name and (rank is None or s.rank == rank)
        ]

    def events_named(self, name: str, rank: int | None = None) -> list[EventRecord]:
        """Instant events with this name (optionally one rank), in record
        order; name may be a prefix ending in ``.`` to select a family
        (e.g. ``"fault."`` matches every injected-fault event)."""
        if name.endswith("."):
            match = lambda n: n.startswith(name)
        else:
            match = lambda n: n == name
        return [
            e
            for e in self.events
            if match(e.name) and (rank is None or e.rank == rank)
        ]

    def total(self, name: str, rank: int | None = None) -> float:
        """Summed duration of all spans with this name (optionally one rank)."""
        return sum(s.duration for s in self.spans_named(name, rank))


class _Span:
    """Context manager recording one span into the owning tracer."""

    __slots__ = ("tracer", "name", "cat", "rank", "args", "t0", "seq", "parent")

    def __init__(self, tracer: "Tracer", name: str, cat: str, rank: int, args: tuple):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.rank = rank
        self.args = args

    def __enter__(self) -> "_Span":
        tr = self.tracer
        stack = tr._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.name)
        self.seq = next(tr._seq)
        self.t0 = tr.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tr = self.tracer
        t1 = tr.clock()
        stack = tr._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        tr.trace.spans.append(
            SpanRecord(
                name=self.name,
                cat=self.cat,
                rank=self.rank,
                t0=self.t0,
                t1=t1,
                seq=self.seq,
                parent=self.parent,
                args=self.args,
            )
        )


class Tracer:
    """Collects spans and instant events into a :class:`Trace`.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in seconds.
        Defaults to ``time.perf_counter`` (wall clock).  Pass a
        deterministic clock (e.g. ``lambda: engine.now``) for byte-stable
        exports; records built from the DES timelines use explicit
        timestamps and bypass the clock entirely.
    name:
        Stored in ``trace.meta['name']`` and carried into exports.
    context:
        Optional :class:`TraceContext` stamping this tracer's records with
        a distributed trace identity (``trace.meta['trace_id']`` etc.).
    """

    def __init__(
        self,
        clock=time.perf_counter,
        name: str = "",
        context: TraceContext | None = None,
    ) -> None:
        self.clock = clock
        self.trace = Trace(meta={"name": name} if name else {})
        self._seq = itertools.count()
        self._tls = threading.local()
        self.context = None
        if context is not None:
            self.adopt_context(context)

    def adopt_context(self, context: TraceContext) -> None:
        """Join a distributed trace: stamp its identity into ``meta``."""
        self.context = context
        meta = self.trace.meta
        meta["trace_id"] = context.trace_id
        meta["trace_origin"] = context.origin
        if context.parent_span is not None:
            meta["parent_span"] = context.parent_span

    # -- per-thread state -----------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def bind_rank(self, rank: int) -> None:
        """Set the default rank for spans opened from the calling thread
        (the virtual cluster binds each rank thread once)."""
        self._tls.rank = rank

    def _rank(self, rank: int | None) -> int:
        if rank is not None:
            return rank
        return getattr(self._tls, "rank", 0)

    # -- recording ------------------------------------------------------------
    def span(self, name: str, cat: str = "solver", rank: int | None = None, **args):
        """Open a span; use as a context manager."""
        return _Span(
            self, name, cat, self._rank(rank), tuple(sorted(args.items()))
        )

    def instant(
        self,
        name: str,
        cat: str = "event",
        rank: int | None = None,
        ts: float | None = None,
        **args,
    ) -> None:
        """Record an instant event (``ts=None`` reads the clock)."""
        self.trace.events.append(
            EventRecord(
                name=name,
                cat=cat,
                rank=self._rank(rank),
                t=self.clock() if ts is None else ts,
                seq=next(self._seq),
                args=tuple(sorted(args.items())),
            )
        )

    def add_span(
        self,
        name: str,
        t0: float,
        t1: float,
        cat: str = "solver",
        rank: int = 0,
        parent: str | None = None,
        **args,
    ) -> None:
        """Append a pre-timed span (used when converting DES timelines)."""
        self.trace.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                rank=rank,
                t0=t0,
                t1=t1,
                seq=next(self._seq),
                parent=parent,
                args=tuple(sorted(args.items())),
            )
        )
