"""The live telemetry plane (ISSUE 9).

Four capabilities, each tested bottom-up and then end-to-end through the
run service:

* **Distributed trace propagation** — a :class:`~repro.obs.TraceContext`
  minted at submission rides the service wire protocol and the
  fork-worker job queue into every rank's tracer, so
  ``RunService.job_trace`` assembles client, service, worker and rank
  spans into one Perfetto-openable tree under a single trace id.
* **Streaming step telemetry** — each rank publishes one compact
  ``repro.stream/1`` record per solver step; the service fans them into
  a parent-side ring served live by ``tail()`` / summarized by ``top()``.
* **Flight recorder** — a bounded ring of each rank's last structured
  events, file-backed on the process substrate so the parent (or the
  service) recovers it even after the writer is SIGKILLed mid-write.
* **Straggler / imbalance detection** — online
  :class:`~repro.obs.StragglerDetector` verdicts plus the post-run
  :func:`~repro.obs.imbalance_verdict` recorded into ``PerfReport``.

Also here: the regression test for torn run-ledger lines and the
service-vs-direct observability identity (telemetry must never perturb
physics, metrics, or the trace shape).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.msglib import ProcessCluster, RankFailure
from repro.obs import (
    BufferStepStream,
    FlightRecorder,
    QueueStepStream,
    StragglerDetector,
    TraceContext,
    Tracer,
    chrome_trace_json,
    imbalance_verdict,
    read_flight_jsonl,
    step_record,
    use,
    write_flight_jsonl,
)
from repro.obs.flight import FLIGHT_SCHEMA, FlightRing
from repro.obs.report import read_ledger
from repro.obs.stream import STREAM_SCHEMA
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

    def test_buffer_stream_bounds_and_counts(self):
        buf = BufferStepStream(capacity=4)
        for i in range(6):
            buf.publish(step_record(rank=0, step=i, t=0.0, dt=1.0, ms=1.0))
        assert buf.published == 6 and buf.dropped == 2
        assert [r["step"] for r in buf.records()] == [2, 3, 4, 5]

    def test_queue_stream_drops_instead_of_blocking(self):
        channel = queue.Queue(maxsize=2)
        qs = QueueStepStream(channel, job="j-1")
        for i in range(5):
            qs.publish(step_record(rank=0, step=i, t=0.0, dt=1.0, ms=1.0))
        assert qs.published == 2 and qs.dropped == 3
        rec = channel.get_nowait()
        assert rec["job"] == "j-1"  # tags merged for demultiplexing

    def test_serial_run_publishes_one_record_per_step(self):
        buf = BufferStepStream()
        api.run("sod", steps=5, stream=buf, **SOD_SMALL)
        recs = buf.records()
        assert len(recs) == 5
        assert all(r["schema"] == STREAM_SCHEMA for r in recs)
        assert [r["step"] for r in recs] == sorted(r["step"] for r in recs)
        assert {r["rank"] for r in recs} == {0}

    def test_distributed_records_carry_comm_split(self):
        buf = BufferStepStream()
        api.run("sod", steps=4, nprocs=2, stream=buf, **SOD_SMALL)
        recs = buf.records()
        assert len(recs) == 8  # one per step per rank
        assert {r["rank"] for r in recs} == {0, 1}
        assert all("comm_ms" in r and "sent_bytes" in r for r in recs)

    @needs_fork
    def test_a_step_stream_survives_the_fork(self):
        """A forked rank buffers its own records and the parent
        republishes them: both substrates deliver the same set."""
        seen = {}
        for substrate in ("virtual", "process"):
            buf = BufferStepStream()
            api.run(
                "sod", steps=4, nprocs=2, stream=buf, substrate=substrate,
                **SOD_SMALL,
            )
            recs = buf.records()
            assert len(recs) == 8, substrate
            assert all("comm_ms" in r and "sent_bytes" in r for r in recs)
            seen[substrate] = {(r["rank"], r["step"]) for r in recs}
        assert seen["process"] == seen["virtual"]
        assert seen["virtual"] == {(r, n) for r in (0, 1) for n in (1, 2, 3, 4)}

    def test_stream_true_returns_what_it_buffered(self):
        res = api.run("sod", steps=5, stream=True, **SOD_SMALL)
        assert [r["step"] for r in res.stream] == [1, 2, 3, 4, 5]
        assert all(r["schema"] == STREAM_SCHEMA for r in res.stream)
        buf = BufferStepStream()
        assert api.run("sod", steps=2, stream=buf, **SOD_SMALL).stream == buf.records()
        # Nothing buffered in-process, nothing to return.
        live = QueueStepStream(queue.Queue())
        assert api.run("sod", steps=2, stream=live, **SOD_SMALL).stream is None
        assert api.run("sod", steps=2, **SOD_SMALL).stream is None


# -- flight recorder ----------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_only_last_events(self):
        fl = FlightRecorder(capacity=3)
        for i in range(7):
            fl.record("send", rank=0, step=i)
        fl.record("recv", rank=1)
        by_rank = fl.events_by_rank()
        assert [e["step"] for e in by_rank[0]] == [4, 5, 6]
        assert by_rank[1][0]["kind"] == "recv"

    def test_jsonl_roundtrip_and_schema_guard(self, tmp_path):
        fl = FlightRecorder(capacity=4)
        fl.record("send", rank=0, dest=1, tag="halo")
        fl.record("recv", rank=1, source=0)
        path = tmp_path / "post.flight.jsonl"
        write_flight_jsonl(fl.events_by_rank(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == FLIGHT_SCHEMA
        back = read_flight_jsonl(path)
        assert back == fl.events_by_rank()
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


class TestFlightRing:
    def test_write_read_reopen(self, tmp_path):
        path = str(tmp_path / "f.ring")
        ring = FlightRing.create(path, nranks=2, capacity=8)
        w0, w1 = ring.writer(0), ring.writer(1)
        for i in range(3):
            w0.record("send", step=i)
        w1.record("recv", source=0)
        assert [e["step"] for e in ring.read(0)] == [0, 1, 2]
        # A different handle (post-mortem reader) sees the same events.
        other = FlightRing.open(path)
        assert other.read_all() == ring.read_all()
        other.close()
        ring.close()

    def test_capacity_wraps_to_last_events(self, tmp_path):
        ring = FlightRing.create(str(tmp_path / "f.ring"), 1, capacity=4)
        w = ring.writer(0)
        for i in range(10):
            w.record("send", step=i)
        assert [e["step"] for e in ring.read(0)] == [6, 7, 8, 9]
        ring.close()

    def test_torn_slots_are_skipped_not_propagated(self, tmp_path):
        """A SIGKILL mid-write leaves garbage payloads; readers skip them."""
        ring = FlightRing.create(str(tmp_path / "f.ring"), 1, capacity=8)
        w = ring.writer(0)
        for i in range(3):
            w.record("send", step=i)
        ring._write_slot(0, 3, b"\xfe\xffhalf-written junk")  # torn payload
        ring._write_slot(0, 4, b"")  # zero-length slot
        events = ring.read(0)
        assert [e["step"] for e in events] == [0, 1, 2]
        ring.close()

    def test_oversized_payload_never_crashes_reader(self, tmp_path):
        ring = FlightRing.create(
            str(tmp_path / "f.ring"), 1, capacity=4, slot_bytes=48
        )
        ring.writer(0).record("send", blob="x" * 500)  # truncated to slot
        assert ring.read(0) == []  # unparseable, skipped
        ring.close()

    @needs_fork
    def test_sigkilled_rank_leaves_recoverable_flight(self):
        """ProcessCluster attaches the killed rank's last events to the
        RankFailure it raises — the acceptance path for post-mortems."""

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, "ring", np.zeros(4))
            comm.recv(left, "ring", timeout=30)
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            comm.recv(1, "never", timeout=60)  # survivor gets aborted

        with use(flight=FlightRecorder()):
            with ProcessCluster(2, timeout=60) as cluster:
                with pytest.raises(RankFailure) as exc:
                    cluster.run(program)
        flight = getattr(exc.value, "flight", None)
        assert flight, "failure carried no flight events"
        assert flight.get(1), "the killed rank's ring was not recovered"
        kinds = {e["kind"] for e in flight[1]}
        assert kinds & {"send", "recv", "recv_view", "slot_wait"}


# -- straggler / imbalance ----------------------------------------------------


class TestStragglerDetection:
    def _rec(self, rank, step, ms, comm_ms):
        return step_record(
            rank=rank, step=step, t=0.0, dt=1e-3, ms=ms, comm_ms=comm_ms
        )

    def test_detector_needs_two_ranks(self):
        d = StragglerDetector()
        assert d.verdict() is None
        d.observe(self._rec(0, 0, 10.0, 1.0))
        assert d.verdict() is None

    def test_detector_flags_slow_comm_bound_rank(self):
        d = StragglerDetector(window=8)
        for step in range(8):
            d.observe(self._rec(0, step, 10.0, 1.0))
            d.observe(self._rec(1, step, 40.0, 30.0))
        v = d.verdict()
        assert v["verdict"] == "imbalanced+comm-bound"
        assert v["slowest_rank"] == 1
        assert v["comm_bound_ranks"] == [1]
        assert v["max_mean_step_ratio"] == pytest.approx(1.6)

    def test_detector_balanced(self):
        d = StragglerDetector(window=8)
        for step in range(8):
            d.observe(self._rec(0, step, 10.0, 1.0))
            d.observe(self._rec(1, step, 11.0, 1.0))
        assert d.verdict()["verdict"] == "balanced"

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

    def test_sigkilled_worker_yields_recovered_flight(self, tmp_path):
        """Acceptance: SIGKILL a worker mid-run; the service recovers the
        flight ring into the job's failure report."""
        req = RunRequest.from_run_args(
            "sod", steps=400, nx=96, nr=8, nprocs=2, substrate="process"
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
