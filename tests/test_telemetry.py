"""The live telemetry plane (ISSUE 9).

Four capabilities, each tested bottom-up and then end-to-end through the
run service:

* **Distributed trace propagation** — a :class:`~repro.obs.TraceContext`
  minted at submission rides the service wire protocol and the
  fork-worker job queue into every rank's tracer, so
  ``RunService.job_trace`` assembles client, service, worker and rank
  spans into one Perfetto-openable tree under a single trace id.
* **Streaming step telemetry** — each rank writes one compact
  ``repro.stream/1`` record per solver step into a step ring (a
  :class:`~repro.obs.FlightRing`); the service hands each job one in its
  store, which ``tail()`` serves live and ``top()`` summarizes.
* **Flight recorder** — a bounded ring of each rank's last structured
  events, a file every rank writes so the parent (or the service)
  recovers it even after the writer is SIGKILLed mid-write.
* **Straggler / imbalance detection** — :func:`~repro.obs.imbalance_verdict`
  over the records in a running job's step ring (``top()``) and over a
  finished run's per-rank rows (recorded into ``PerfReport``).

Also here: the regression test for torn run-ledger lines and the
service-vs-direct observability identity (telemetry must never perturb
physics, metrics, or the trace shape).
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.msglib import ProcessCluster, RankFailure
from repro.obs import (
    FlightRing,
    TraceContext,
    Tracer,
    chrome_trace_json,
    imbalance_verdict,
    read_flight_jsonl,
    read_steps,
    step_record,
    use,
    write_flight_jsonl,
)
from repro.obs.flight import FLIGHT_SCHEMA
from repro.obs.report import read_ledger
from repro.obs.stream import STEP_SLOT_BYTES, STREAM_SCHEMA
from repro.request import RunRequest
from repro.service import ResultStore, RunService, ServiceClient, serve

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process substrate / run service need the fork start method",
)

SOD_SMALL = dict(nx=64, nr=8)


def make_service(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("ledger", False)
    return RunService(store=ResultStore(tmp_path / "store"), **kw)


# -- trace context ------------------------------------------------------------


class TestTraceContext:
    def test_mint_child_roundtrip(self):
        ctx = TraceContext.mint(origin="client")
        assert len(ctx.trace_id) == 16
        assert ctx.parent_span is None
        assert TraceContext.mint().trace_id != ctx.trace_id
        child = ctx.child("service.worker", origin="worker")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span == "service.worker"
        assert child.origin == "worker"
        assert TraceContext.from_dict(child.to_dict()) == child

    def test_tracer_adopts_context_into_meta(self):
        ctx = TraceContext.mint(origin="client").child("outer", "worker")
        tracer = Tracer(name="t")
        tracer.adopt_context(ctx)
        assert tracer.trace.meta["trace_id"] == ctx.trace_id
        assert tracer.trace.meta["trace_origin"] == "worker"
        assert tracer.trace.meta["parent_span"] == "outer"

    def test_observability_never_perturbs_fingerprints(self):
        bare = RunRequest.from_run_args("sod", steps=5)
        instrumented = RunRequest.from_run_args(
            "sod", steps=5, trace=True, metrics=True, stream=True, flight=32
        )
        assert instrumented.fingerprint() == bare.fingerprint()


# -- step stream --------------------------------------------------------------


class TestStepStream:
    def test_step_record_schema(self):
        rec = step_record(
            rank=1, step=3, t=0.5, dt=1e-4, ms=2.0, comm_ms=0.4
        )
        assert rec["schema"] == STREAM_SCHEMA
        assert rec["rank"] == 1 and rec["step"] == 3
        assert rec["comm_ms"] == 0.4

    def test_serial_run_publishes_one_record_per_step(self):
        ring = FlightRing.create(capacity=16, slot_bytes=STEP_SLOT_BYTES)
        api.run("sod", steps=5, stream=ring, **SOD_SMALL)
        recs = read_steps(ring)
        ring.close()
        assert len(recs) == 5
        assert all(r["schema"] == STREAM_SCHEMA for r in recs)
        assert [r["step"] for r in recs] == [1, 2, 3, 4, 5]
        assert {r["rank"] for r in recs} == {0}

    def test_distributed_records_carry_comm_split(self):
        recs = api.run("sod", steps=4, nprocs=2, stream=True, **SOD_SMALL).stream
        assert len(recs) == 8  # one per step per rank
        assert [(r["step"], r["rank"]) for r in recs] == [
            (n, r) for n in (1, 2, 3, 4) for r in (0, 1)
        ]
        assert all("comm_ms" in r and "sent_bytes" in r for r in recs)

    @needs_fork
    def test_a_step_stream_survives_the_fork(self):
        """A forked rank writes the step ring its parent installed: both
        substrates deliver the same records."""
        seen = {}
        for substrate in ("virtual", "process"):
            ring = FlightRing.create(nranks=2, slot_bytes=STEP_SLOT_BYTES)
            api.run(
                "sod", steps=4, nprocs=2, stream=ring, substrate=substrate,
                **SOD_SMALL,
            )
            recs = read_steps(ring)
            ring.close()
            assert len(recs) == 8, substrate
            assert all("comm_ms" in r and "sent_bytes" in r for r in recs)
            seen[substrate] = [(r["rank"], r["step"]) for r in recs]
        assert seen["process"] == seen["virtual"]
        assert set(seen["virtual"]) == {(r, n) for r in (0, 1) for n in (1, 2, 3, 4)}

    def test_stream_true_returns_what_it_buffered(self):
        res = api.run("sod", steps=5, stream=True, **SOD_SMALL)
        assert [r["step"] for r in res.stream] == [1, 2, 3, 4, 5]
        assert all(r["schema"] == STREAM_SCHEMA for r in res.stream)
        # A depth keeps the last records of each rank.
        res = api.run("sod", steps=5, stream=3, **SOD_SMALL)
        assert [r["step"] for r in res.stream] == [3, 4, 5]
        # A caller's ring keeps its records for the caller.
        ring = FlightRing.create(slot_bytes=STEP_SLOT_BYTES)
        assert api.run("sod", steps=2, stream=ring, **SOD_SMALL).stream is None
        assert [r["step"] for r in read_steps(ring)] == [1, 2]
        ring.close()
        assert api.run("sod", steps=2, **SOD_SMALL).stream is None

    def test_read_steps_since_reads_each_record_once(self):
        ring = FlightRing.create(nranks=2, capacity=4)
        since: dict[int, int] = {}
        for step in (1, 2):
            for rank in (1, 0):
                ring.record("step", **step_record(rank=rank, step=step, t=0.1,
                                                  dt=0.1, ms=1.0))
        ring.record("send", rank=0, peer=1)  # not a step record
        first = read_steps(ring, since)
        assert [(r["step"], r["rank"]) for r in first] == [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert "kind" not in first[0] and first[0]["t"] == 0.1
        assert since == {0: 3, 1: 2}
        ring.record("step", **step_record(rank=1, step=3, t=0.3, dt=0.1, ms=1.0))
        assert [(r["step"], r["rank"]) for r in read_steps(ring, since)] == [(3, 1)]
        assert read_steps(ring, since) == []
        ring.close()


# -- flight recorder ----------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_only_last_events(self):
        ring = FlightRing.create(nranks=3, capacity=3)
        for i in range(7):
            ring.record("send", rank=0, step=i)
        ring.record("recv", rank=1)
        by_rank = ring.events_by_rank()
        assert [e["step"] for e in by_rank[0]] == [4, 5, 6]
        assert by_rank[1][0]["kind"] == "recv"
        assert 2 not in by_rank  # a rank that recorded nothing is left out
        with pytest.raises(IndexError, match="outside ring"):
            ring.record("send", rank=3)
        ring.close()

    def test_jsonl_roundtrip_and_schema_guard(self, tmp_path):
        ring = FlightRing.create(nranks=2, capacity=4)
        ring.record("send", rank=0, dest=1, tag="halo")
        ring.record("recv", rank=1, source=0)
        path = tmp_path / "post.flight.jsonl"
        write_flight_jsonl(ring.events_by_rank(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == FLIGHT_SCHEMA
        back = read_flight_jsonl(path)
        assert back == ring.events_by_rank()
        ring.close()
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(json.dumps({"schema": "nope/0"}) + "\n")
        with pytest.raises(ValueError, match="unknown flight schema"):
            read_flight_jsonl(bogus)

    def test_facade_collects_flight_per_rank(self):
        res = api.run("sod", steps=4, nprocs=2, flight=16, **SOD_SMALL)
        assert set(res.flight) == {0, 1}
        assert all(0 < len(v) <= 16 for v in res.flight.values())
        kinds = {e["kind"] for evs in res.flight.values() for e in evs}
        assert kinds, "ranks recorded no structured events"

    @pytest.mark.parametrize(
        "substrate", ["virtual", pytest.param("process", marks=needs_fork)]
    )
    def test_temp_rings_never_outlive_a_run(self, substrate):
        rings = lambda: set(
            glob.glob(os.path.join(tempfile.gettempdir(), "repro-flight-*"))
        )
        before = rings()
        kw = dict(steps=6, nprocs=2, substrate=substrate, flight=True, **SOD_SMALL)
        assert api.run("sod", **kw).flight
        assert rings() <= before
        with pytest.raises(RankFailure) as exc:
            api.run("sod", faults="crash-rank1", max_restarts=0, **kw)
        assert exc.value.flight, "the failure carried no post-mortem"
        assert rings() <= before


class TestFlightRing:
    def test_write_read_reopen(self, tmp_path):
        path = str(tmp_path / "f.ring")
        ring = FlightRing.create(path, nranks=2, capacity=8)
        for i in range(3):
            ring.record("send", rank=0, step=i)
        ring.record("recv", rank=1, source=0)
        assert [e["step"] for e in ring.read(0)] == [0, 1, 2]
        # A different handle (post-mortem reader) sees the same events.
        other = FlightRing.open(path)
        assert other.events_by_rank() == ring.events_by_rank()
        other.close()
        ring.close()
        assert os.path.exists(path)  # a named ring outlives its handles

    def test_capacity_wraps_to_last_events(self, tmp_path):
        ring = FlightRing.create(str(tmp_path / "f.ring"), 1, capacity=4)
        for i in range(10):
            ring.record("send", step=i)
        assert [e["step"] for e in ring.read(0)] == [6, 7, 8, 9]
        ring.close()

    def test_torn_slots_are_skipped_not_propagated(self, tmp_path):
        """A SIGKILL mid-write leaves garbage payloads; readers skip them."""
        ring = FlightRing.create(str(tmp_path / "f.ring"), 1, capacity=8)
        for i in range(3):
            ring.record("send", step=i)
        ring._write_slot(0, 3, b"\xfe\xffhalf-written junk")  # torn payload
        ring._write_slot(0, 4, b"")  # zero-length slot
        events = ring.read(0)
        assert [e["step"] for e in events] == [0, 1, 2]
        ring.close()

    def test_oversized_payload_never_crashes_reader(self, tmp_path):
        """An event the slot cannot hold is refused before anything is
        written, so the ring never counts an event no reader can parse."""
        ring = FlightRing.create(
            str(tmp_path / "f.ring"), 1, capacity=4, slot_bytes=64
        )
        with pytest.raises(ValueError, match="does not fit a 64-byte"):
            ring.record("send", blob="x" * 500)
        assert ring.written(0) == 0 and ring.read(0) == []
        ring.record("send", step=1)
        assert [e["step"] for e in ring.read(0)] == [1]
        ring.close()

    @needs_fork
    def test_sigkilled_rank_leaves_recoverable_flight(self):
        """A forked rank writes the ring its parent installed, so the
        killed rank's last events are there to read — the acceptance path
        for post-mortems."""

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, "ring", np.zeros(4))
            comm.recv(left, "ring", timeout=30)
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            comm.recv(1, "never", timeout=60)  # survivor gets aborted

        ring = FlightRing.create(nranks=2)
        with use(flight=ring):
            with ProcessCluster(2, timeout=60) as cluster:
                with pytest.raises(RankFailure):
                    cluster.run(program)
        flight = ring.events_by_rank()
        ring.close()
        assert flight.get(1), "the killed rank's ring was not recovered"
        kinds = {e["kind"] for e in flight[1]}
        assert kinds & {"send", "recv", "recv_view", "slot_wait"}


# -- straggler / imbalance ----------------------------------------------------


class TestStragglerDetection:
    """``top()``'s verdict: :func:`imbalance_verdict` over the records in
    a step ring's window."""

    def _window_verdict(self, *per_rank):
        """Write ``(rank, ms, comm_ms)`` per step into a ring, as ``top()``
        reads a running job's, and judge its window."""
        ring = FlightRing.create(nranks=2, capacity=8, slot_bytes=STEP_SLOT_BYTES)
        for step, rows in enumerate(zip(*per_rank)):
            for rank, ms, comm_ms in rows:
                ring.record("step", **step_record(
                    rank=rank, step=step, t=0.0, dt=1e-3, ms=ms, comm_ms=comm_ms
                ))
        records = read_steps(ring)
        ring.close()
        return imbalance_verdict(records)

    def test_detector_needs_two_ranks(self):
        assert self._window_verdict() is None
        assert self._window_verdict([(0, 10.0, 1.0)]) is None

    def test_detector_flags_slow_comm_bound_rank(self):
        v = self._window_verdict([(0, 10.0, 1.0)] * 8, [(1, 40.0, 30.0)] * 8)
        assert v["verdict"] == "imbalanced+comm-bound"
        assert v["slowest_rank"] == 1
        assert v["comm_bound_ranks"] == [1]
        assert v["max_mean_step_ratio"] == pytest.approx(1.6)

    def test_detector_balanced(self):
        v = self._window_verdict([(0, 10.0, 1.0)] * 8, [(1, 11.0, 1.0)] * 8)
        assert v["verdict"] == "balanced"

    def test_post_run_verdict_from_perf_rows(self):
        rows = [
            {"rank": 0, "step_seconds": 0.5, "comm_seconds": 0.05},
            {"rank": 1, "step_seconds": 2.0, "comm_seconds": 1.2},
        ]
        v = imbalance_verdict(rows)
        assert v["schema"] == "repro.balance/1"
        assert v["verdict"] == "imbalanced+comm-bound"
        assert imbalance_verdict(rows[:1]) is None

    def test_perf_report_records_balance(self):
        res = api.run("sod", steps=6, nprocs=2, metrics=True, **SOD_SMALL)
        balance = res.perf.balance
        assert balance is not None
        assert balance["schema"] == "repro.balance/1"
        assert balance["ranks"] == 2
        assert "verdict" in balance


# -- ledger robustness (satellite: torn BENCH_runs.jsonl lines) ---------------


class TestLedgerRobustness:
    def test_read_ledger_skips_torn_lines_with_warning(self, tmp_path):
        path = tmp_path / "BENCH_runs.jsonl"
        api.run("sod", steps=4, ledger=path, **SOD_SMALL)
        api.run("sod", steps=5, ledger=path, **SOD_SMALL)
        good = path.read_text().splitlines()
        assert len(good) == 2
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(good[0][: len(good[0]) // 2] + "\n")  # torn mid-append
            fh.write("[1, 2, 3]\n")  # well-formed JSON, not an object
        with pytest.warns(UserWarning, match="skipping"):
            reports = read_ledger(path)
        assert len(reports) == 2
        assert [r.steps for r in reports] == [4, 5]

    def test_unknown_schema_still_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"schema": "bogus/9"}) + "\n")
        with pytest.raises(ValueError, match="unknown ledger schema"):
            read_ledger(path)


# -- the run service end-to-end ----------------------------------------------


def _metrics_projection(reg) -> dict:
    """The deterministic slice of a MetricsRegistry snapshot.

    Counter values/updates and histogram observation counts are pure
    functions of the numerics; ``*_seconds`` counters, histogram sums and
    gauges carry wall-clock timings and are excluded.
    """
    snap = reg.snapshot()
    return {
        "counters": {
            name: ranks
            for name, ranks in snap["counters"].items()
            if not name.endswith("seconds")
        },
        "histogram_counts": {
            name: {rank: payload["count"] for rank, payload in ranks.items()}
            for name, ranks in snap["histograms"].items()
        },
    }


def _trace_projection(trace) -> dict:
    """The deterministic shape of a trace: span/event structure, no times."""
    return {
        "spans": sorted(
            (s.name, s.cat, s.rank, s.parent or "") for s in trace.spans
        ),
        "events": sorted((e.name, e.cat, e.rank) for e in trace.events),
    }


@needs_fork
class TestServiceTelemetry:
    def test_service_run_assembles_single_trace_tree(self, tmp_path):
        """Acceptance: one Perfetto export of a service-submitted 4-rank
        process run shows client → service → worker → ranks as one tree."""
        ctx = TraceContext.mint(origin="client")
        req = RunRequest.from_run_args(
            "sod", steps=8, nx=96, nr=8, nprocs=4, substrate="process",
            trace=True,
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(req, context=ctx)
            assert svc.wait(job.id, timeout=180).status == "done"
            merged = svc.job_trace(job.id)
            stored = svc.result(job.id)
        # The minted context reached the worker's tracer across the job
        # queue and fork boundary.
        assert stored.trace.meta["trace_id"] == ctx.trace_id
        assert merged.meta["trace_id"] == ctx.trace_id
        names = {s.name for s in merged.spans}
        assert {"client.submit", "service.job", "service.worker"} <= names
        roots = [s for s in merged.spans if s.parent is None]
        assert [r.name for r in roots] == ["client.submit"]
        for s in merged.spans:  # fully connected: every parent exists
            assert s.parent is None or s.parent in names
        assert set(merged.ranks()) >= {0, 1, 2, 3}
        # And it exports: valid Chrome trace JSON with the service tiers.
        doc = json.loads(chrome_trace_json(merged))
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        exported = {e.get("name") for e in events}
        assert {"client.submit", "service.worker"} <= exported

    def test_tail_streams_live_records(self, tmp_path):
        """Acceptance: ``tail`` serves per-rank records from a running
        job.  100 steps x 2 ranks = 200 records < the 256-record ring, so
        every published record must come back, in arrival order."""
        req = RunRequest.from_run_args(
            "sod", steps=100, nx=96, nr=8, nprocs=2, substrate="process"
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            records, live = [], False
            for rec in svc.tail(job.id, timeout=180):
                records.append(rec)
                if not live and not svc.job(job.id).terminal:
                    live = True
            assert svc.wait(job.id, timeout=60).status == "done"
        assert live, "tail never yielded while the job was running"
        assert len(records) == 200
        assert all(r["schema"] == STREAM_SCHEMA for r in records)
        assert all(r["job"] == job.id for r in records)
        assert {r["rank"] for r in records} == {0, 1}
        seqs = [r["_seq"] for r in records]
        assert seqs == sorted(seqs)
        for rank in (0, 1):
            steps = [r["step"] for r in records if r["rank"] == rank]
            assert steps == sorted(steps) and len(steps) == 100

    def test_top_reports_running_job(self, tmp_path):
        req = RunRequest.from_run_args(
            "sod", steps=400, nx=96, nr=8, nprocs=2, substrate="process"
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            row = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                top = svc.top()
                rows = [r for r in top["running"] if r["id"] == job.id]
                if rows and rows[0]["step"] is not None:
                    row = rows[0]
                    break
                if svc.job(job.id).terminal:
                    break
                time.sleep(0.02)
            assert row is not None, "top never showed the running job"
            assert row["scenario"] == "sod"
            assert row["worker_pid"]
            assert svc.wait(job.id, timeout=120).status == "done"
            # The pump keeps draining in-flight records after completion.
            deadline = time.monotonic() + 10
            while (
                svc.top()["stream_records"] < 2 * 400
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            top = svc.top()
            assert top["executed"] == 1
            assert top["stream_records"] == 2 * 400
            assert top["running"] == []

    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    def test_sigkilled_worker_yields_recovered_flight(self, tmp_path, substrate):
        """Acceptance: SIGKILL a worker mid-run; the service recovers the
        flight ring into the job's failure report, whether the ranks were
        threads of the worker or processes it forked."""
        req = RunRequest.from_run_args(
            "sod", steps=400, nx=96, nr=8, nprocs=2, substrate=substrate
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            snap = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                snap = svc.job(job.id)
                mid_run = (
                    snap.status == "running"
                    and snap.worker_pid
                    and snap.flight_path
                    and svc.top()["stream_records"] > 10
                )
                if mid_run or snap.terminal:
                    break
                time.sleep(0.02)
            assert snap is not None and snap.status == "running", (
                "job finished before it could be killed mid-run"
            )
            os.kill(snap.worker_pid, signal.SIGKILL)
            done = svc.wait(job.id, timeout=120)
            assert done.status == "failed"
            assert "worker process died" in done.error
            assert done.flight, "no flight events recovered from the ring"
            assert any(done.flight.values())
            kinds = {
                e["kind"] for evs in done.flight.values() for e in evs
            }
            assert kinds & {"send", "recv", "recv_view", "slot_wait"}
            # The post-mortem is also flushed beside the ring for triage
            # tooling (scripts/dump_telemetry.py picks it up).
            assert done.flight_path
            jsonl = done.flight_path[: -len(".ring")] + ".jsonl"
            assert os.path.exists(jsonl)
            assert read_flight_jsonl(jsonl) == {
                int(r): evs for r, evs in done.flight.items()
            }

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_ended_jobs_leave_no_step_ring_and_no_descriptor(self, tmp_path):
        """The parent reads a job's step ring once when the job ends, keeps
        its records for ``tail`` and deletes the file: after done jobs and
        a failed one, no ring is left and no descriptor is held."""
        fds = lambda: len(os.listdir("/proc/self/fd"))
        kw = dict(nx=32, nr=8)
        with make_service(tmp_path) as svc:
            before = fds()
            jobs = [
                svc.submit(RunRequest.from_run_args("sod", steps=n, **kw))
                for n in (3, 4, 5)
            ]
            jobs.append(svc.submit(RunRequest.from_run_args(
                "sod", steps=6, nprocs=2, faults="crash-rank1", max_restarts=0,
                **kw,
            )))
            ended = [svc.wait(job.id, timeout=120) for job in jobs]
            assert [job.status for job in ended] == ["done"] * 3 + ["failed"]
            rings = glob.glob(str(tmp_path / "store" / "results" / "*.steps.ring"))
            assert rings == []
            assert fds() == before
            tails = [list(svc.tail(job.id, timeout=10)) for job in jobs]
            assert [len(t) for t in tails[:3]] == [3, 4, 5]
            assert svc.top()["stream_records"] == 12 + len(tails[3])

    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    def test_service_obs_identical_to_direct_run(self, tmp_path, substrate):
        """Satellite: the service's always-on telemetry (stream + flight +
        forced metrics) must not perturb the run — merged metrics and the
        trace shape are identical to a direct ``api.run_request``."""
        kw = dict(
            steps=10, nx=64, nr=8, nprocs=2, substrate=substrate,
            metrics=True, trace=True,
        )
        direct = api.run_request(RunRequest.from_run_args("sod", **kw))
        with make_service(tmp_path) as svc:
            job = svc.submit(RunRequest.from_run_args("sod", **kw))
            assert svc.wait(job.id, timeout=180).status == "done"
            via = svc.result(job.id)
        assert np.array_equal(via.state.q, direct.state.q)
        assert _metrics_projection(via.metrics) == _metrics_projection(
            direct.metrics
        )
        assert _trace_projection(via.trace) == _trace_projection(
            direct.trace
        )


@needs_fork
class TestSocketTelemetry:
    @pytest.fixture
    def endpoint(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        ready = threading.Event()
        t = threading.Thread(
            target=serve,
            kwargs=dict(socket_path=sock, workers=1,
                        store=ResultStore(tmp_path / "store"),
                        ledger=False, ready=lambda _srv: ready.set()),
        )
        t.start()
        assert ready.wait(30), "server never came up"
        yield sock
        client = ServiceClient(sock)
        try:
            client.shutdown()
        except Exception:
            pass
        t.join(30)
        assert not t.is_alive()

    def test_context_tail_and_top_over_the_socket(self, endpoint):
        client = ServiceClient(endpoint, timeout=180)
        ctx = TraceContext.mint(origin="client")
        job = client.submit(
            RunRequest.from_run_args(
                "sod", steps=30, nx=64, nr=8, nprocs=2, substrate="process",
                trace=True,
            ),
            context=ctx,
        )
        records = list(client.tail(job["id"], timeout=180))
        states = [s["status"] for s in client.watch(job["id"], timeout=60)]
        assert states[-1] == "done"
        assert len(records) == 60
        assert {r["rank"] for r in records} == {0, 1}
        assert all(r["job"] == job["id"] for r in records)
        top = client.top()
        assert top["executed"] == 1
        assert top["stream_records"] == 60
        # The client-minted trace id survived two process hops and a fork.
        res = client.result(job["id"])
        assert res.trace.meta["trace_id"] == ctx.trace_id
