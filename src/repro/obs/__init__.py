"""Observability: one seam, four sinks.

The paper's entire contribution is *measurement* — Section 6 decomposes
execution time into computation, communication-startup and data-transfer
components per platform.  This package provides the corresponding
instrumentation for the reproduction itself:

* :mod:`~repro.obs.spine` — the one seam.  Instrumented code calls a verb
  on :func:`current` (``span``, ``stages``/``step``, ``exchange``,
  ``message``, ``mark``, ``instant``, ``count``) and the spine routes the
  event to whichever of the four sinks :func:`use` installed; with none
  installed a verb is a slot test, keeping the unobserved path within
  noise (asserted by ``tests/test_obs.py``).
* :class:`Tracer` — the timeline: hierarchical spans with per-rank
  attribution and instant events, and no totals (a time total is the sum
  of one name's spans, :meth:`Trace.total`).  Records are monotonically
  ordered by ``(t0, seq)`` where ``seq`` is a global monotone sequence
  number, so exports from deterministic clocks (the DES engine's) are
  byte-stable.
* :class:`MetricsRegistry` and two :class:`FlightRing` files — the other
  three sinks: fixed-size aggregates for the run ledger (the one store of
  per-rank totals beside the communicators' own ``CommStats``), and two
  crash-survivable file rings, one of each rank's live per-step records
  (:mod:`~repro.obs.stream`) and one of its last events for post-mortems.
* The trace file — Chrome ``trace_event`` JSON (:func:`chrome_trace_json`,
  :func:`write_chrome_trace`, :func:`load_trace`), which opens directly in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Typical use through the facade::

    from repro.api import run
    res = run("jet", steps=50, nprocs=4, trace="jet.trace.json")
    # jet.trace.json now opens in Perfetto; res.trace holds the records.

Or standalone::

    from repro import obs
    tracer = obs.Tracer()
    with obs.use(tracer=tracer):
        solver.run(10)              # every instrumented seam reports to it
    obs.write_chrome_trace(tracer.trace, "solver.trace.json")
"""

from .spine import Sinks, current, use
from .tracer import EventRecord, SpanRecord, Trace, TraceContext, Tracer
from .flight import (
    FLIGHT_SCHEMA,
    FlightRing,
    read_flight_jsonl,
    write_flight_jsonl,
)
from .stream import STREAM_SCHEMA, imbalance_verdict, read_steps, step_record
from .export import (
    chrome_counter_events,
    chrome_trace_events,
    chrome_trace_json,
    load_trace,
    trace_from_timelines,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    STEP_TIME_BUCKETS,
    merge,
)
from .ranks import ForkedRanks, bind_rank
from .report import (
    PerfReport,
    append_ledger,
    build_perf_report,
    read_ledger,
    render_ledger,
    render_report,
)

__all__ = [
    "Sinks",
    "current",
    "use",
    "EventRecord",
    "SpanRecord",
    "Trace",
    "TraceContext",
    "Tracer",
    "FLIGHT_SCHEMA",
    "FlightRing",
    "read_flight_jsonl",
    "write_flight_jsonl",
    "STREAM_SCHEMA",
    "imbalance_verdict",
    "read_steps",
    "step_record",
    "chrome_counter_events",
    "chrome_trace_events",
    "chrome_trace_json",
    "load_trace",
    "trace_from_timelines",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STEP_TIME_BUCKETS",
    "merge",
    "ForkedRanks",
    "bind_rank",
    "PerfReport",
    "append_ledger",
    "build_perf_report",
    "read_ledger",
    "render_ledger",
    "render_report",
]
