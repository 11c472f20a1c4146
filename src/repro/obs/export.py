"""The trace file format: Chrome ``trace_event`` JSON, written and read.

The serialization is deterministic — keys sorted, compact separators,
records in monotone ``(t0, seq)`` order — so traces recorded against a
deterministic clock (the DES engine's) export byte-identically across
runs.  The files open directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one process, one thread row per rank, nested slices
for hierarchical spans.
"""

from __future__ import annotations

import json
from .tracer import EventRecord, SpanRecord, Trace

#: Spans shorter than this many seconds are still exported with a non-zero
#: Chrome ``dur`` so Perfetto renders them as selectable slices.
_MIN_DUR_US = 1e-3


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Chrome trace_event format (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------


def chrome_trace_events(trace: Trace) -> list[dict]:
    """The ``traceEvents`` array: complete ('X') slices + instant ('i')
    events on one thread per rank, with thread-name metadata."""
    events: list[dict] = []
    for rank in trace.ranks():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
    for s in trace.ordered_spans():
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.cat,
                "pid": 0,
                "tid": s.rank,
                "ts": s.t0 * 1e6,
                "dur": max(s.duration * 1e6, _MIN_DUR_US),
                "args": dict(s.args),
            }
        )
    for e in trace.ordered_events():
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": e.name,
                "cat": e.cat,
                "pid": 0,
                "tid": e.rank,
                "ts": e.t * 1e6,
                "args": dict(e.args),
            }
        )
    return events


def chrome_counter_events(trace: Trace) -> list[dict]:
    """Perfetto counter ('C') tracks synthesized from the trace.

    Two cumulative time series per rank, rendered by Perfetto as counter
    tracks alongside the slice rows:

    * ``rank{r}.faults`` — running count of ``cat="fault"`` instants
      (injections and recovery actions), stepping at each event;
    * ``rank{r}.comm_calls`` — running count of ``cat="comm"`` leaf spans
      (send/recv library calls), stepping at each span end.

    These must be appended *after* every X/i record (see
    :func:`chrome_trace_json`): :func:`load_trace` numbers records by
    position, so trailing counter samples leave the span/event sequence
    numbering of a round-tripped trace unchanged.
    """
    events: list[dict] = []
    fault_counts: dict[int, int] = {}
    for e in trace.ordered_events():
        if e.cat != "fault":
            continue
        c = fault_counts.get(e.rank, 0) + 1
        fault_counts[e.rank] = c
        events.append(
            {
                "ph": "C",
                "name": f"rank{e.rank}.faults",
                "pid": 0,
                "tid": e.rank,
                "ts": e.t * 1e6,
                "args": {"faults": c},
            }
        )
    comm_counts: dict[int, int] = {}
    for s in trace.ordered_spans():
        if s.cat != "comm":
            continue
        c = comm_counts.get(s.rank, 0) + 1
        comm_counts[s.rank] = c
        events.append(
            {
                "ph": "C",
                "name": f"rank{s.rank}.comm_calls",
                "pid": 0,
                "tid": s.rank,
                "ts": s.t1 * 1e6,
                "args": {"calls": c},
            }
        )
    return events


def chrome_trace_json(trace: Trace) -> str:
    """Deterministic Chrome-trace JSON document for a whole trace.

    Counter tracks come last in ``traceEvents`` — Perfetto doesn't care
    about record order, but :func:`load_trace` does (positional sequence
    numbers), so the X/i prefix must stay byte-for-byte what it was
    before counter tracks existed.
    """
    doc = {
        "traceEvents": chrome_trace_events(trace) + chrome_counter_events(trace),
        "displayTimeUnit": "ms",
        "otherData": {str(k): v for k, v in trace.meta.items()},
    }
    return _dumps(doc)


def write_chrome_trace(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(chrome_trace_json(trace))


def load_trace(path: str) -> Trace:
    """Load a trace file written by :func:`write_chrome_trace`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError:
            doc = None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace_event JSON file (no 'traceEvents')")
    trace = Trace(meta=dict(doc.get("otherData", {})))
    seq = 0
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "X":
            t0 = ev["ts"] / 1e6
            trace.spans.append(
                SpanRecord(
                    name=ev["name"],
                    cat=ev.get("cat", ""),
                    rank=ev.get("tid", 0),
                    t0=t0,
                    t1=t0 + ev.get("dur", 0.0) / 1e6,
                    seq=seq,
                    args=tuple(sorted(ev.get("args", {}).items())),
                )
            )
        elif ph == "i":
            trace.events.append(
                EventRecord(
                    name=ev["name"],
                    cat=ev.get("cat", ""),
                    rank=ev.get("tid", 0),
                    t=ev["ts"] / 1e6,
                    seq=seq,
                    args=tuple(sorted(ev.get("args", {}).items())),
                )
            )
        seq += 1
    return trace


# ---------------------------------------------------------------------------
# DES timelines -> trace
# ---------------------------------------------------------------------------


def trace_from_timelines(timelines, tracer=None, meta: dict | None = None) -> Trace:
    """Convert simulated per-rank :class:`~repro.simulate.timeline.RankTimeline`
    segments into spans (``sim.compute`` / ``sim.library`` / ``sim.wait``).

    Timestamps are the engine's deterministic simulated seconds, so the
    resulting trace exports byte-identically across runs.  Pass an existing
    ``tracer`` to append to its trace (e.g. one that also collected engine
    scheduling events); otherwise a fresh :class:`Trace` is returned.
    """
    from .tracer import Tracer

    if tracer is None:
        tracer = Tracer(clock=lambda: 0.0)
    if meta:
        tracer.trace.meta.update(meta)
    for tl in timelines:
        for seg in tl.segments or []:
            tracer.add_span(
                f"sim.{seg.kind}",
                seg.start,
                seg.end,
                cat=seg.kind,
                rank=tl.rank,
            )
    return tracer.trace
