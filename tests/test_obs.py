"""Tracing/metrics layer: tracer semantics, the one seam, exporters,
determinism."""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

import repro.obs
from repro import jet_scenario, run
from repro.numerics.kernels import get_backend
from repro.obs import (
    BufferStepStream,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    current,
    load_trace,
    trace_from_timelines,
    use,
)


class TickClock:
    """Deterministic clock: returns 0.0, 1.0, 2.0, ..."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ---------------------------------------------------------------------------
# Tracer semantics
# ---------------------------------------------------------------------------


def test_span_records_nesting_and_args():
    tr = Tracer(clock=TickClock())
    with tr.span("outer", cat="a", rank=3, step=7):
        with tr.span("inner", cat="b", rank=3):
            pass
    inner, outer = tr.trace.spans  # inner closes first
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == "outer" and outer.parent is None
    assert outer.args == (("step", 7),)
    assert outer.rank == 3 and inner.cat == "b"
    assert outer.t0 < inner.t0 and inner.t1 < outer.t1
    assert outer.seq < inner.seq  # seq assigned at span *start*


def test_bind_rank_sets_thread_default():
    tr = Tracer()
    tr.bind_rank(5)
    with tr.span("s"):
        pass
    assert tr.trace.spans[0].rank == 5
    # explicit rank wins over the bound default
    with tr.span("s", rank=1):
        pass
    assert tr.trace.spans[1].rank == 1

    # another thread gets its own binding
    seen = []

    def other():
        tr.bind_rank(9)
        with tr.span("o"):
            pass
        seen.append(True)

    th = threading.Thread(target=other)
    th.start()
    th.join()
    assert seen and tr.trace.spans_named("o")[0].rank == 9


# ---------------------------------------------------------------------------
# The seam: current(), use(), and what it costs with nobody watching
# ---------------------------------------------------------------------------

SLOTS = ("tracer", "metrics", "stream", "flight")


def _installed() -> tuple:
    return tuple(getattr(current(), slot) for slot in SLOTS)


def test_nothing_is_installed_by_default_and_use_scopes_what_it_names():
    assert _installed() == (None, None, None, None)
    tr, reg, fl = Tracer(), MetricsRegistry(), FlightRecorder()
    with use(tracer=tr, flight=fl) as outer:
        assert outer is current()
        assert _installed() == (tr, None, None, fl)
        with use(tracer=None, metrics=reg):  # off, added, the rest inherited
            assert _installed() == (None, reg, None, fl)
        assert current() is outer
        with pytest.raises(RuntimeError), use(stream=BufferStepStream()):
            raise RuntimeError("the scope ends on the way out all the same")
        assert current() is outer
    assert _installed() == (None, None, None, None)


def _calls_into_obs(fn) -> int:
    """Python-level calls ``fn()`` makes into ``repro/obs/``."""
    package = os.path.dirname(repro.obs.__file__) + os.sep
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_unobserved_seam_is_inert_and_costs_under_one_percent_of_a_step():
    """DESIGN §10's budget, measured the noise-proof way: count the calls
    one unobserved step makes into ``obs/``, time that many off-path verb
    calls directly (the priciest kind: a context-manager verb entered and
    left), and compare with the median step."""
    assert _installed() == (None, None, None, None)
    obs = current()
    with obs.span("anything", rank=3, arbitrary="arg") as span:
        with obs.stages(0, 7) as stage, stage("dt") as inner:
            assert span is stage is inner  # one shared do-nothing object

    class Comm:
        rank = 0

    with obs.exchange("uvT", Comm(), "tag"):
        obs.instant("x", cat="fault", step=1)
        obs.count("layer.metric")
        obs.count("bare_total", 2.0, rank=1)
        obs.mark("checkpoint", 0, step=4)
        obs.message("send", 0, 1, "tag", 128, 1e-5)
        obs.step(0, 1e-3, 2048, record=lambda: pytest.fail("nobody listens"))
    assert obs.post_mortem() is None

    solver = jet_scenario(nx=64, nr=32, viscous=True).solver
    solver.run(2)
    calls = _calls_into_obs(solver.step)
    assert 0 < calls <= 38, calls  # 35 before the spine, +10 % allowed
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        solver.step()
        samples.append(time.perf_counter() - t0)
    step_seconds = sorted(samples)[len(samples) // 2]

    reps = 20_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with current().span("x", rank=0):
            pass
    per_call = (time.perf_counter() - t0) / (4 * reps)  # current, span, enter, exit

    overhead = calls * per_call
    assert overhead < 0.01 * step_seconds, (
        f"unobserved seam costs {1e6 * overhead:.1f}us/step ({calls} calls) — "
        f"over 1% of the {1e3 * step_seconds:.2f}ms step"
    )


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process substrate needs the fork start method",
)


@pytest.mark.parametrize("route", [
    dict(steps=3),
    dict(steps=3, nprocs=2),
    pytest.param(dict(steps=3, nprocs=2, substrate="process"), marks=needs_fork),
    dict(platform="Cray T3D", nprocs=2),
], ids=["serial", "virtual", "process", "simulated"])
def test_a_run_inherits_the_sinks_it_does_not_name(route):
    """One rule on every route: the caller's enclosing sinks observe the
    run unless the request names its own."""
    tr, reg = Tracer(), MetricsRegistry()
    with use(tracer=tr, metrics=reg):
        res = run("jet", nx=32, nr=16, **route)
        assert res.trace is None and res.metrics is None  # not asked for
        spans, updates = len(tr.trace.spans), reg.total_updates
        assert spans > 0 and updates > 0
        own = run("jet", nx=32, nr=16, trace=True, **route)
    assert own.trace is not tr.trace and len(own.trace.spans) == spans
    assert len(tr.trace.spans) == spans  # the named tracer was in charge
    assert reg.total_updates == 2 * updates  # the registry still inherited


def test_stage_histograms_tile_the_step():
    """The five ``stage.*`` sums add up to the step: the stages share one
    clock whose reading passes from each to the next (a timer per stage
    would lose what runs between them and read about 0.98)."""
    if not get_backend("compiled").available():
        pytest.skip("no compiled kernel engine on this host")
    res = run("jet", nx=250, nr=100, steps=50, backend="compiled", metrics=True)
    stages = res.metrics.names("stage.")
    assert len(stages) == 5
    tiled = sum(res.metrics.value(n) for n in stages)
    assert tiled >= 0.99 * res.metrics.value("solver.step_seconds")


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_trace() -> Tracer:
    tr = Tracer(clock=TickClock(), name="sample")
    tr.bind_rank(0)
    with tr.span("step", cat="solver", step=1):
        with tr.span("sweep", cat="solver"):
            pass
    tr.instant("mark", cat="engine", rank=1, ts=2.5, note="hello")
    return tr


def test_chrome_export_structure(tmp_path):
    tr = _sample_trace()
    doc = json.loads(chrome_trace_json(tr.trace))
    evs = doc["traceEvents"]
    phases = [e["ph"] for e in evs]
    # thread-name metadata for both ranks, slices, one instant
    assert phases.count("M") == 2
    assert phases.count("X") == 2
    assert phases.count("i") == 1
    x = [e for e in evs if e["ph"] == "X"]
    assert x[0]["name"] == "step" and x[0]["tid"] == 0
    assert x[0]["ts"] == pytest.approx(tr.trace.spans[1].t0 * 1e6)
    assert all(e["dur"] > 0 for e in x)
    assert doc["otherData"] == {"name": "sample"}  # the meta, and no totals


def test_chrome_roundtrip(tmp_path):
    from repro.obs import write_chrome_trace

    tr = _sample_trace()
    p = tmp_path / "t.json"
    write_chrome_trace(tr.trace, str(p))
    back = load_trace(str(p))
    assert [s.name for s in back.ordered_spans()] == ["step", "sweep"]
    assert back.events[0].args == (("note", "hello"),)
    assert back.meta == {"name": "sample"}
    assert back.total("sweep") == pytest.approx(tr.trace.total("sweep"))


def test_what_the_parent_commit_stored_still_loads(tmp_path):
    """Stores written before the tracer stopped counting keep serving hits:
    a Chrome trace file with ``rank<r>.<name>`` totals in ``otherData``
    loads (the keys are plain ``meta`` now), and a pickled ``Trace`` with a
    ``counters`` attribute unpickles (so no ``__slots__``)."""
    import pickle

    old = _sample_trace().trace
    doc = json.loads(chrome_trace_json(old))
    doc["otherData"]["rank0.bytes_sent"] = 96.0
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc))
    back = load_trace(str(p))
    assert [s.name for s in back.ordered_spans()] == ["step", "sweep"]
    assert back.meta == {"name": "sample", "rank0.bytes_sent": 96.0}
    p.write_text('{"type":"meta"}\n{"type":"span"}\n')  # nothing in src/ wrote these
    with pytest.raises(ValueError, match="not a Chrome trace_event JSON file"):
        load_trace(str(p))
    old.counters = {(0, "bytes_sent"): 96.0}  # as the parent's dataclass had it
    assert pickle.loads(pickle.dumps(old)).spans == old.spans


def test_chrome_counter_tracks_trail_and_roundtrip(tmp_path):
    """Perfetto 'C' counter tracks: cumulative per-rank series appended
    *after* every X/i record, so positional seq numbering — and hence the
    round-tripped trace — is unchanged by their presence."""
    from repro.obs import chrome_counter_events, write_chrome_trace

    tr = Tracer(clock=TickClock(), name="counters")
    tr.bind_rank(0)
    with tr.span("comm.send", cat="comm"):
        pass
    with tr.span("solver.step", cat="solver"):
        pass
    with tr.span("comm.recv", cat="comm", rank=1):
        pass
    tr.instant("fault.drop", cat="fault")
    tr.instant("fault.retransmission", cat="fault")

    evs = json.loads(chrome_trace_json(tr.trace))["traceEvents"]
    phases = [e["ph"] for e in evs]
    assert "C" in phases
    last_slice = max(i for i, p in enumerate(phases) if p in ("X", "i"))
    first_counter = min(i for i, p in enumerate(phases) if p == "C")
    assert first_counter > last_slice  # counters strictly trail

    counters = chrome_counter_events(tr.trace)
    faults = [e for e in counters if e["name"] == "rank0.faults"]
    assert [e["args"]["faults"] for e in faults] == [1, 2]  # cumulative
    calls0 = [e for e in counters if e["name"] == "rank0.comm_calls"]
    calls1 = [e for e in counters if e["name"] == "rank1.comm_calls"]
    assert [e["args"]["calls"] for e in calls0] == [1]
    assert [e["args"]["calls"] for e in calls1] == [1]
    # non-comm/fault records produce no counter samples
    assert not any("solver" in e["name"] for e in counters)

    p = tmp_path / "t.json"
    write_chrome_trace(tr.trace, str(p))
    back = load_trace(str(p))
    assert [s.name for s in back.ordered_spans()] == [
        "comm.send", "solver.step", "comm.recv"
    ]
    assert [e.name for e in back.ordered_events()] == [
        "fault.drop", "fault.retransmission"
    ]
    # re-export of the round-tripped trace is stable
    assert chrome_trace_json(back) == chrome_trace_json(load_trace(str(p)))


def test_zero_duration_spans_get_min_chrome_dur():
    tr = Tracer(clock=lambda: 1.0)
    with tr.span("instantaneous"):
        pass
    ev = [e for e in chrome_trace_events(tr.trace) if e["ph"] == "X"][0]
    assert ev["dur"] > 0


# ---------------------------------------------------------------------------
# Engine events and DES timelines
# ---------------------------------------------------------------------------


def test_engine_records_schedule_and_resume_events():
    from repro.simulate.engine import Delay, Engine

    def prog():
        yield Delay(1.0)
        yield Delay(0.5)

    tr = Tracer()
    eng = Engine(tracer=tr)
    eng.add_process(prog(), name="p0")
    eng.run()
    resumes = [e.t for e in tr.trace.events if e.name == "proc.resume"]
    assert resumes == [0.0, 1.0, 1.5]
    scheds = [e for e in tr.trace.events if e.name == "proc.schedule"]
    assert [dict(e.args)["at"] for e in scheds] == [0.0, 1.0, 1.5]
    assert all(dict(e.args)["proc"] == "p0" for e in scheds)


def test_trace_from_timelines_spans_and_counters():
    """Spans and no counters: a timeline's totals are ``sim.*`` ledger counters."""
    from repro.simulate.timeline import RankTimeline, Segment

    tl = RankTimeline(rank=2)
    tl.segments = [
        Segment(kind="compute", start=0.0, end=2.5),
        Segment(kind="library", start=2.5, end=3.0),
        Segment(kind="wait", start=3.0, end=4.0),
    ]
    trace = trace_from_timelines([tl], meta={"platform": "x"})
    assert trace.total("sim.compute", rank=2) == pytest.approx(2.5)
    assert trace.total("sim.library", rank=2) == pytest.approx(0.5)
    assert trace.total("sim.wait", rank=2) == pytest.approx(1.0)
    assert trace.ranks() == [2] and trace.meta["platform"] == "x"


# ---------------------------------------------------------------------------
# Determinism: identical simulated runs export identical bytes
# ---------------------------------------------------------------------------


def _traced_sim_run() -> Tracer:
    from repro.machines.platforms import LACE_560
    from repro.simulate.machine import SimulatedMachine
    from repro.simulate.workload import NAVIER_STOKES

    tr = Tracer(name="det")
    SimulatedMachine(LACE_560, 4, version=5).run(
        NAVIER_STOKES, steps_window=2, tracer=tr
    )
    return tr


def test_simulated_trace_exports_are_byte_identical():
    a, b = _traced_sim_run(), _traced_sim_run()
    assert a.trace.spans, "traced simulation produced no spans"
    assert a.trace.events, "engine produced no schedule/resume events"
    assert chrome_trace_json(a.trace) == chrome_trace_json(b.trace)


def test_instrumented_serial_solver_spans():
    from repro import run

    res = run("jet", steps=2, nx=32, nr=16, trace=True)
    names = {s.name for s in res.trace.spans}
    assert {
        "solver.step",
        "solver.dt",
        "solver.sweep_x",
        "solver.sweep_r",
        "solver.filter",
        "solver.boundaries",
        "maccormack.predictor",
        "maccormack.corrector",
    } <= names
    assert len(res.trace.spans_named("solver.step")) == 2
    # hierarchical: sweeps are children of the step span
    sweep = res.trace.spans_named("solver.sweep_x")[0]
    assert sweep.parent == "solver.step"
