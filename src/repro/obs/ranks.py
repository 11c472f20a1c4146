"""How the sinks bind a rank, and how all four cross a fork.

Execution substrates (:mod:`repro.msglib`) run one rank per thread or per
forked process; what that means for each sink of
:mod:`repro.obs.spine` is decided here, so a substrate names no sink type.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .spine import Sinks, _install, current
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

    Composes by *local record, exact merge*: each worker records spans and
    metrics into fresh per-process instances mirroring what the parent has
    installed (the parent's tracer and registry hold thread locks a child
    must not share), ships them back with its result, and the parent folds
    them in — metrics with the order-independent exact merge
    (:meth:`~repro.obs.metrics.MetricsRegistry.ingest`), so they are
    bitwise-independent of rank completion order.  The step ring and the
    flight recorder need no crossing: each installed
    :class:`~repro.obs.flight.FlightRing` is a ``MAP_SHARED`` file mapping
    the fork inherits, so each rank writes its own region of the parent's
    ring, and its records survive even a SIGKILLed worker.
    """

    _local: Sinks | None = None

    # -- worker side -----------------------------------------------------------
    def enter(self, rank: int) -> None:
        """First thing in the forked worker: install this rank's sinks."""
        parent = current()
        self._local = _install(Sinks(
            # The distributed trace context (if any) crosses the fork so
            # the rank's spans share the submit-time trace id.
            tracer=None if parent.tracer is None else Tracer(
                context=parent.tracer.context
            ),
            metrics=None if parent.metrics is None else MetricsRegistry(),
            stream=parent.stream,
            flight=parent.flight,
        ))
        bind_rank(rank)

    def shipment(self) -> tuple:
        """What the worker sends home with its result (picklable)."""
        local = self._local
        return local.metrics, None if local.tracer is None else local.tracer.trace

    # -- parent side -----------------------------------------------------------
    @staticmethod
    def absorb(shipment: tuple) -> None:
        """Fold one worker's registry and trace into the installed sinks."""
        reg, trace = shipment
        sinks = current()
        if reg is not None and sinks.metrics is not None:
            sinks.metrics.ingest(reg)
        if trace is not None and sinks.tracer is not None:
            dst = sinks.tracer.trace
            dst.spans.extend(trace.spans)
            dst.events.extend(trace.events)
