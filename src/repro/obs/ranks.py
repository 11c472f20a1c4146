"""Which sinks exist, how they bind a rank, and how they cross a fork.

Execution substrates (:mod:`repro.msglib`) run one rank per thread or per
forked process; what that means for the tracer, the metrics registry and
the flight recorder is decided here, so a substrate names no sink type.
"""

from __future__ import annotations

import os
import tempfile

from .flight import DEFAULT_CAPACITY, FlightRing, get_flight, set_flight
from .metrics import MetricsRegistry, get_metrics, set_metrics
from .tracer import Tracer, get_tracer, set_tracer


def bind_rank(rank: int) -> None:
    """Attribute what the calling thread records from here on (solver
    stages, MacCormack phases) to ``rank``, in every sink that keeps a
    per-thread default."""
    get_tracer().bind_rank(rank)
    get_metrics().bind_rank(rank)


class ForkedRanks:
    """The sinks of one run whose ranks are forked processes.

    Composes by *local record, exact merge*: each worker records into
    fresh per-process instances mirroring the parent's enabled state (the
    parent's tracer and registry hold thread locks a child must not
    share), ships them back with its result, and the parent folds them in
    with the order-independent exact merge
    (:meth:`~repro.obs.metrics.MetricsRegistry.ingest`), so the merged
    metrics are bitwise-independent of rank completion order.  Flight
    events go straight into a file-backed :class:`FlightRing` created
    while a recorder is installed, so they survive even a SIGKILLed
    worker; an explicit recorder ``ring_path`` (the service points it into
    the result store) is reused, otherwise a throwaway temp file.
    """

    def __init__(self, nranks: int) -> None:
        self._tracer: Tracer | None = None
        self._registry: MetricsRegistry | None = None
        self._ring: FlightRing | None = None
        self._ring_owned = False
        recorder = get_flight()
        if recorder.enabled:
            path = getattr(recorder, "ring_path", None)
            if path is None:
                fd, path = tempfile.mkstemp(
                    prefix="repro-flight-", suffix=".ring"
                )
                os.close(fd)
                self._ring_owned = True
            self._ring = FlightRing.create(
                str(path), nranks,
                capacity=getattr(recorder, "capacity", DEFAULT_CAPACITY),
            )

    # -- worker side -----------------------------------------------------------
    def enter(self, rank: int) -> None:
        """First thing in the forked worker: install this rank's sinks."""
        parent = get_tracer()
        if parent.enabled:
            # The distributed trace context (if any) crosses the fork so
            # the rank's spans share the submit-time trace id.
            self._tracer = set_tracer(Tracer(context=parent.context))
        if get_metrics().enabled:
            self._registry = set_metrics(MetricsRegistry())
        bind_rank(rank)
        if self._ring is not None:
            # The parent (or the service, after a SIGKILL) reads the
            # shared file back by path.
            set_flight(self._ring.writer(rank))

    def shipment(self) -> tuple:
        """What the worker sends home with its result (picklable)."""
        trace = self._tracer.trace if self._tracer is not None else None
        return self._registry, trace

    # -- parent side -----------------------------------------------------------
    @staticmethod
    def absorb(shipment: tuple) -> None:
        """Fold one worker's registry and trace into the active ones."""
        reg, trace = shipment
        metrics = get_metrics()
        if reg is not None and metrics.enabled:
            metrics.ingest(reg)
        tracer = get_tracer()
        if trace is not None and tracer.enabled:
            dst = tracer.trace
            dst.spans.extend(trace.spans)
            dst.events.extend(trace.events)
            for key, v in trace.counters.items():
                dst.counters[key] = dst.counters.get(key, 0.0) + v

    def flight_events(self) -> dict[int, list] | None:
        """Every rank's surviving ring events, also folded into the
        installed recorder; ``None`` when no recorder was installed."""
        if self._ring is None:
            return None
        events = self._ring.read_all()
        recorder = get_flight()
        if recorder.enabled and hasattr(recorder, "ingest"):
            for rank, evs in events.items():
                if evs:
                    recorder.ingest(rank, evs)
        return events

    def close(self) -> None:
        """Unmap the ring file (and delete it when it was a temp file)."""
        if self._ring is not None:
            self._ring.close()
            if self._ring_owned:
                self._ring.unlink()
            self._ring = None
