"""Observability: hierarchical tracing and per-rank metrics.

The paper's entire contribution is *measurement* — Section 6 decomposes
execution time into computation, communication-startup and data-transfer
components per platform.  This package provides the corresponding
instrumentation for the reproduction itself:

* :class:`Tracer` — hierarchical spans (``with tracer.span("solver.step")``)
  with per-rank attribution, instant events, and per-rank counters
  (messages, bytes, barrier/halo time).  Records are monotonically ordered
  by ``(t0, seq)`` where ``seq`` is a global monotone sequence number, so
  exports from deterministic clocks (the DES engine's) are byte-stable.
* :class:`NullTracer` — the zero-overhead default.  All hot seams fetch the
  active tracer via :func:`get_tracer`; with the null tracer every span is
  a shared no-op context manager, keeping the uninstrumented fast path
  within noise (asserted by ``benchmarks/bench_solver_kernels.py``).
* Exporters — JSON-lines (:func:`to_jsonl` / :func:`load_trace`) and Chrome
  ``trace_event`` format (:func:`chrome_trace_json`,
  :func:`write_chrome_trace`) whose files open directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

Typical use through the facade::

    from repro.api import run
    res = run("jet", steps=50, nprocs=4, trace="jet.trace.json")
    # jet.trace.json now opens in Perfetto; res.trace holds the records.

Or standalone::

    from repro import obs
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        with tracer.span("maccormack.predictor", rank=0):
            ...
    print(obs.to_jsonl(tracer.trace))
"""

from .tracer import (
    EventRecord,
    NullTracer,
    SpanRecord,
    Trace,
    TraceContext,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from .flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    FlightRing,
    NullFlightRecorder,
    get_flight,
    read_flight_jsonl,
    set_flight,
    use_flight,
    write_flight_jsonl,
)
from .stream import (
    STREAM_SCHEMA,
    BufferStepStream,
    NullStepStream,
    QueueStepStream,
    StragglerDetector,
    get_stream,
    imbalance_verdict,
    set_stream,
    step_record,
    use_stream,
)
from .export import (
    chrome_counter_events,
    chrome_trace_events,
    chrome_trace_json,
    load_trace,
    to_jsonl,
    trace_from_timelines,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    STEP_TIME_BUCKETS,
    get_metrics,
    merge,
    set_metrics,
    use_metrics,
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
    "EventRecord",
    "NullTracer",
    "SpanRecord",
    "Trace",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "FlightRing",
    "NullFlightRecorder",
    "get_flight",
    "read_flight_jsonl",
    "set_flight",
    "use_flight",
    "write_flight_jsonl",
    "STREAM_SCHEMA",
    "BufferStepStream",
    "NullStepStream",
    "QueueStepStream",
    "StragglerDetector",
    "get_stream",
    "imbalance_verdict",
    "set_stream",
    "step_record",
    "use_stream",
    "chrome_counter_events",
    "chrome_trace_events",
    "chrome_trace_json",
    "load_trace",
    "to_jsonl",
    "trace_from_timelines",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "STEP_TIME_BUCKETS",
    "get_metrics",
    "merge",
    "set_metrics",
    "use_metrics",
    "ForkedRanks",
    "bind_rank",
    "PerfReport",
    "append_ledger",
    "build_perf_report",
    "read_ledger",
    "render_ledger",
    "render_report",
]
