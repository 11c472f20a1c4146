"""How the sinks bind a rank, and how all four cross a fork.

Execution substrates (:mod:`repro.msglib`) run one rank per thread or per
forked process; what that means for each sink of
:mod:`repro.obs.spine` is decided here, so a substrate names no sink type.
"""

from __future__ import annotations

import os
import tempfile

from .flight import DEFAULT_CAPACITY, FlightRing
from .metrics import MetricsRegistry
from .spine import Sinks, _install, current
from .stream import BufferStepStream
from .tracer import Tracer


def bind_rank(rank: int) -> None:
    """Attribute what the calling thread records from here on (solver
    stages, MacCormack phases) to ``rank``, in every sink that keeps a
    per-thread default."""
    sinks = current()
    for sink in (sinks.tracer, sinks.metrics):
        if sink is not None:
            sink.bind_rank(rank)


class ForkedRanks:
    """The sinks of one run whose ranks are forked processes.

    Composes by *local record, exact merge*: each worker records into
    fresh per-process instances mirroring what the parent has installed
    (the parent's tracer, registry and stream buffer hold thread locks a
    child must not share), ships them back with its result, and the parent
    folds them in — metrics with the order-independent exact merge
    (:meth:`~repro.obs.metrics.MetricsRegistry.ingest`), so they are
    bitwise-independent of rank completion order; buffered step records by
    republishing them.  A stream publisher that is not an in-process
    buffer (the service's queue) is inherited through the fork and keeps
    publishing live.  Flight events go straight into a file-backed
    :class:`FlightRing` created while a recorder is installed, so they
    survive even a SIGKILLed worker; an explicit recorder ``ring_path``
    (the service points it into the result store) is reused, otherwise a
    throwaway temp file.
    """

    def __init__(self, nranks: int) -> None:
        self._local: Sinks | None = None
        self._ring: FlightRing | None = None
        self._ring_owned = False
        recorder = current().flight
        if recorder is not None:
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
        parent = current()
        stream = parent.stream
        if isinstance(stream, BufferStepStream):
            stream = BufferStepStream(stream.capacity)
        self._local = _install(Sinks(
            # The distributed trace context (if any) crosses the fork so
            # the rank's spans share the submit-time trace id.
            tracer=None if parent.tracer is None else Tracer(
                context=parent.tracer.context
            ),
            metrics=None if parent.metrics is None else MetricsRegistry(),
            stream=stream,
            # The parent (or the service, after a SIGKILL) reads the
            # shared file back by path.
            flight=None if self._ring is None else self._ring.writer(rank),
        ))
        bind_rank(rank)

    def shipment(self) -> tuple:
        """What the worker sends home with its result (picklable)."""
        local = self._local
        # A buffer in the child is the one enter() made: a parent's buffer
        # never crosses, any other publisher crosses as it is.
        buffered = isinstance(local.stream, BufferStepStream)
        return (
            local.metrics,
            None if local.tracer is None else local.tracer.trace,
            local.stream.records() if buffered else None,
        )

    # -- parent side -----------------------------------------------------------
    @staticmethod
    def absorb(shipment: tuple) -> None:
        """Fold one worker's registry, trace and step records into the
        installed sinks."""
        reg, trace, records = shipment
        sinks = current()
        if reg is not None and sinks.metrics is not None:
            sinks.metrics.ingest(reg)
        if trace is not None and sinks.tracer is not None:
            dst = sinks.tracer.trace
            dst.spans.extend(trace.spans)
            dst.events.extend(trace.events)
        if records is not None and sinks.stream is not None:
            for record in records:
                sinks.stream.publish(record)

    def flight_events(self) -> dict[int, list] | None:
        """Every rank's surviving ring events, also folded into the
        installed recorder; ``None`` when no recorder was installed."""
        if self._ring is None:
            return None
        events = self._ring.read_all()
        ingest = getattr(current().flight, "ingest", None)
        if ingest is not None:
            for rank, evs in events.items():
                if evs:
                    ingest(rank, evs)
        return events

    def close(self) -> None:
        """Unmap the ring file (and delete it when it was a temp file)."""
        if self._ring is not None:
            self._ring.close()
            if self._ring_owned:
                self._ring.unlink()
            self._ring = None
