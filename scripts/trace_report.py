#!/usr/bin/env python3
"""Component-split report from a recorded trace file (the paper's Figure 5).

Reads a trace produced by ``repro.api.run(..., trace="out.json")`` (Chrome
``trace_event`` JSON) and prints the per-rank and mean computation /
message-startup / data-transfer breakdown that Figures 5-6 of the paper
plot per platform.

Flight-recorder post-mortems (``*.flight.jsonl`` files flushed by
``run(..., flight=...)`` or recovered by the run service after a killed
worker) are autodetected by their ``repro.flight/1`` schema line and
rendered as a per-rank table of each rank's last recorded events.

Usage::

    python scripts/trace_report.py out.json [more.json ...]
    python scripts/trace_report.py results/0af5d.flight.jsonl
    python scripts/trace_report.py --selftest

``--selftest`` records two fresh traces of the same deterministic simulated
run and verifies the exports are byte-identical (the determinism smoke test
wired into ``make check``).
"""

import argparse
import sys


def fault_timeline(trace, limit: int = 40) -> str:
    """Chronological table of injected faults and recovery actions.

    Covers the ``cat="fault"`` instants both substrates record: the
    thread substrate's ``fault.drop`` / ``fault.duplicate`` / ... /
    ``recovery.restart`` events and the DES substrate's
    ``fault.sim_delay`` occupancy injections.  Empty string when the run
    had no fault layer active.
    """
    from repro.analysis.report import format_table

    events = [e for e in trace.ordered_events() if e.cat == "fault"]
    if not events:
        return ""
    rows = []
    for e in events[:limit]:
        args = dict(e.args)
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(args.items()) if k != "step"
        )
        rows.append(
            [f"{e.t:.6f}", e.rank, args.get("step", ""), e.name, detail]
        )
    counts = {}
    for e in events:
        counts[e.name] = counts.get(e.name, 0) + 1
    summary = ", ".join(f"{n} x{c}" for n, c in sorted(counts.items()))
    title = f"fault timeline ({len(events)} events: {summary})"
    table = format_table(
        ["t (s)", "rank", "step", "event", "detail"], rows, title=title
    )
    if len(events) > limit:
        table += f"\n... and {len(events) - limit} more fault events"
    return table


def _is_flight_file(path: str) -> bool:
    """True when the file's first line carries the flight schema tag."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
        return bool(first) and json.loads(first).get("schema") == (
            "repro.flight/1"
        )
    except (OSError, ValueError):
        return False


def flight_report(path: str, last: int = 10) -> str:
    """Per-rank table of the flight recorder's last events.

    The recorder keeps only each rank's final ``capacity`` events, so this
    is exactly the "what was every rank doing when it died" view.
    """
    from repro.analysis.report import format_table
    from repro.obs import read_flight_jsonl

    events_by_rank = read_flight_jsonl(path)
    rows = []
    for rank in sorted(events_by_rank):
        events = events_by_rank[rank]
        for e in events[-last:]:
            detail = ", ".join(
                f"{k}={v}"
                for k, v in sorted(e.items())
                if k not in ("kind", "rank", "t")
            )
            rows.append([rank, f"{e.get('t', 0.0):.6f}", e.get("kind"), detail])
    total = sum(len(v) for v in events_by_rank.values())
    title = (
        f"{path}: flight recorder, {len(events_by_rank)} rank(s), "
        f"{total} surviving events (last {last} per rank shown)"
    )
    return format_table(["rank", "t (epoch s)", "event", "detail"], rows,
                        title=title)


def report(path: str) -> str:
    from repro.analysis.metrics import component_breakdown
    from repro.analysis.report import render_components
    from repro.obs import load_trace

    if _is_flight_file(path):
        return flight_report(path)
    trace = load_trace(path)
    bd = component_breakdown(trace)
    where = trace.meta.get("platform", f"{len(bd.per_rank)} rank(s)")
    table = render_components(bd, f"{path} ({where})")
    faults = fault_timeline(trace)
    if faults:
        table += "\n\n" + faults
    return table


def selftest() -> int:
    import tempfile, os

    from repro import run
    from repro.obs import chrome_trace_json

    def one() -> str:
        res = run(
            "jet", platform="Cray T3D", nprocs=4, version=5,
            steps_window=4, trace=True,
        )
        return chrome_trace_json(res.trace)

    a, b = one(), one()
    if a != b:
        print("FAIL: two identical simulated runs exported different bytes")
        return 1
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.json")
        res = run(
            "jet", platform="Cray T3D", nprocs=4, version=5,
            steps_window=4, trace=p,
        )
        print(report(p))
    print("OK: trace exports byte-identical across runs")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*", help="trace or flight post-mortem files")
    ap.add_argument("--selftest", action="store_true",
                    help="trace determinism smoke test")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if not args.paths:
        ap.error("give at least one trace file (or --selftest)")
    for p in args.paths:
        print(report(p))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
