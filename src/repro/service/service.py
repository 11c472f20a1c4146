"""The run service core: queue, scheduler, worker pool, dedupe, streaming.

:class:`RunService` is the in-process engine behind both the Unix-socket
server (``repro serve``) and direct library use.  Design points:

* **Worker OS processes.**  Jobs execute in forked worker processes (the
  PR 5 process-substrate discipline): a crashing or runaway run cannot
  take the service down, and real runs get real cores.  A worker that
  dies mid-job (killed, segfault) is detected by liveness polling; its
  job fails with a structured error — never a hang — and a replacement
  worker is forked.
* **Fingerprint dedupe, two layers.**  At submit time a request whose
  ``fingerprint()`` is already in the :class:`~repro.service.store.ResultStore`
  completes instantly as ``cached``; one whose fingerprint is already
  *in flight* attaches to the running execution (``attached``) and
  completes when it does.  Either way: N identical submissions, one
  execution, N results.
* **Status streaming.**  Every job transition bumps a version counter
  and wakes waiters; :meth:`RunService.watch` yields each transition as
  it happens (the socket server forwards these lines to clients).
* **Persistent results.**  Workers write the pickled payload into the
  store's content-addressed ``results/`` directory; the parent (single
  writer) appends the index line.  A restarted service sees every prior
  result.

Workers force ``metrics=True`` on run requests (every cached entry then
carries a :class:`~repro.obs.PerfReport`) and by default append to the
anchored run ledger — the service is how the run database grows.
"""

from __future__ import annotations

import itertools
import multiprocessing as _mp
import os
import queue as _queue
import threading
import time
import traceback
from collections import deque
from struct import error as struct_error
from dataclasses import dataclass, field, replace as _dc_replace
from pathlib import Path
from typing import Any, Iterator

from ..obs import (
    FlightRecorder,
    QueueStepStream,
    SpanRecord,
    StragglerDetector,
    Trace,
    TraceContext,
)
from ..obs.flight import FlightRing, write_flight_jsonl
from ..request import RunRequest
from .experiments import EXPERIMENT_SCHEMA, ExperimentRequest
from .store import ResultStore, write_payload

__all__ = ["Job", "JobFailed", "RunService"]

#: Liveness/queue poll interval for the pump thread (seconds).
_POLL = 0.1
#: After a job goes terminal, ``tail`` keeps draining the fan-in queue
#: until no new record has arrived for this long (in-flight records can
#: trail the worker's completion message through the queue feeders).
_TAIL_GRACE = 0.5

#: Job states.  ``cached`` is terminal-on-arrival: served from the store
#: without execution.  ``attached`` jobs mirror their primary's state.
_TERMINAL = frozenset({"done", "failed", "cached"})


class JobFailed(RuntimeError):
    """Asking for the result of a failed job; carries the job's error."""


@dataclass
class Job:
    """One submission's lifecycle record (safe to snapshot/serialize)."""

    id: str
    fingerprint: str
    kind: str
    """``"run"`` or ``"experiment"``."""
    request: dict
    """Wire form of the submitted request."""
    status: str = "queued"
    """``queued`` → ``running`` → ``done`` | ``failed``; or ``cached``."""
    error: str | None = None
    """Structured failure description (``status == "failed"``)."""
    cached: bool = False
    """Served from the persistent store without execution."""
    attached_to: str | None = None
    """Primary job id this submission deduped onto (in-flight dedupe)."""
    worker_pid: int | None = None
    """PID of the worker executing this job (while ``running``)."""
    submitted: float = 0.0
    started: float | None = None
    finished: float | None = None
    version: int = 0
    """Monotone transition counter (drives ``watch`` streaming)."""
    context: dict | None = None
    """Wire form of the job's :class:`~repro.obs.TraceContext`."""
    flight: dict | None = None
    """``rank -> last flight-recorder events`` recovered from a failed
    execution (the post-mortem half of the failure report)."""
    flight_path: str | None = None
    """The worker's shared flight-ring file, announced before execution so
    the parent can read the last events of every rank even after the
    worker is SIGKILLed."""

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "request": self.request,
            "status": self.status,
            "error": self.error,
            "cached": self.cached,
            "attached_to": self.attached_to,
            "worker_pid": self.worker_pid,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "version": self.version,
            "context": self.context,
            "flight": (
                {str(r): evs for r, evs in self.flight.items()}
                if self.flight
                else None
            ),
            "flight_path": self.flight_path,
        }


def _encode_request(request) -> tuple[str, dict, str]:
    """Normalize a submission to ``(kind, wire_dict, fingerprint)``."""
    if isinstance(request, dict):
        if request.get("schema") == EXPERIMENT_SCHEMA:
            request = ExperimentRequest.from_dict(request)
        else:
            request = RunRequest.from_dict(request)
    if isinstance(request, ExperimentRequest):
        return "experiment", request.to_dict(), request.fingerprint()
    if isinstance(request, RunRequest):
        return "run", request.to_dict(), request.fingerprint()
    raise TypeError(
        "submit() takes a RunRequest, an ExperimentRequest, or a wire "
        f"dict; got {type(request).__name__}"
    )


def _flight_ring_path(store_root: str, fingerprint: str) -> str:
    """Where a run's crash-survivable flight ring lives in the store."""
    return str(Path(store_root) / "results" / f"{fingerprint}.flight.ring")


def _flight_jsonl_path(ring_path: str) -> str:
    """The flushed post-mortem file beside a ring (``.ring`` -> ``.jsonl``)."""
    base = ring_path[: -len(".ring")] if ring_path.endswith(".ring") else ring_path
    return base + ".jsonl"


def _worker_main(tasks, results, store_root: str, policy: dict, stream_q) -> None:
    """Worker process loop: execute queued requests, ship results back.

    Payloads are written straight into the store's content-addressed
    ``results/`` directory (atomic rename); only small manifests cross
    the result queue.  ``None`` is the poison pill.

    Telemetry plumbing per run job:

    * per-step records flow through ``stream_q`` (a bounded fan-in queue
      shared by all workers, tagged with the job id) — the rank processes
      a process-substrate run forks inherit the queue and publish
      directly;
    * a flight ring file is announced to the parent *before* execution
      (``("flight", ...)``) so the last events of every rank survive this
      worker being SIGKILLed;
    * the submit-time :class:`~repro.obs.TraceContext` is adopted one
      tier down, so every rank's spans join the client's trace tree.
    """
    from ..msglib.process import bind_to_parent_lifetime

    # Workers are non-daemonic (they fork rank children), so they would
    # survive a SIGKILLed service process; die with the parent instead.
    bind_to_parent_lifetime()
    while True:
        item = tasks.get()
        if item is None:
            return
        job_id, kind, req_dict, ctx_dict = item
        results.put(("started", job_id, os.getpid(), None))
        ring_path = None
        try:
            if kind == "experiment":
                req = ExperimentRequest.from_dict(req_dict)
                text = req.execute()
                write_payload(store_root, req.fingerprint(), text)
                report = req.report_for(text)
            else:
                from ..api import run_request

                req = RunRequest.from_dict(req_dict)
                fp = req.fingerprint()
                ring_path = _flight_ring_path(store_root, fp)
                os.makedirs(os.path.dirname(ring_path), exist_ok=True)
                results.put(("flight", job_id, os.getpid(), ring_path))
                obs = _dc_replace(
                    req.observability,
                    metrics=req.observability.metrics
                    or policy.get("force_metrics", True),
                    ledger=req.observability.ledger
                    or policy.get("ledger", False),
                    stream=(
                        QueueStepStream(stream_q, job=job_id)
                        if stream_q is not None
                        else req.observability.stream
                    ),
                    flight=FlightRecorder(ring_path=ring_path),
                )
                req = req.replace(observability=obs)
                context = (
                    TraceContext.from_dict(ctx_dict).child(
                        "service.worker", origin="worker"
                    )
                    if ctx_dict
                    else None
                )
                result = run_request(req, context=context)
                result.request = None  # live objects stay out of the pickle
                write_payload(store_root, fp, result)
                if result.flight:
                    write_flight_jsonl(
                        result.flight, _flight_jsonl_path(ring_path)
                    )
                try:  # clean exit: the jsonl flush supersedes the ring
                    os.unlink(ring_path)
                except OSError:
                    pass
                report = result.perf.to_dict() if result.perf else {}
            results.put(("done", job_id, os.getpid(), report))
        except BaseException as exc:  # ship *everything* back structured
            err = (
                f"{type(exc).__name__}: {exc}\n"
                + "".join(traceback.format_exception(exc)[-3:])
            )
            detail: dict = {"message": err, "flight_path": ring_path}
            flight = getattr(exc, "flight", None)
            if flight:
                detail["flight"] = {
                    int(r): list(evs) for r, evs in flight.items()
                }
            results.put(("failed", job_id, os.getpid(), detail))


class _JobStream:
    """Parent-side view of one job's streamed step records.

    A bounded ring of the most recent records (``tail`` serves from it),
    a monotone ``_seq`` stamped on arrival (so tailers can resume), and a
    live :class:`~repro.obs.StragglerDetector` fed every record (``top``
    reports its verdict while the job runs).
    """

    def __init__(self, maxlen: int = 256) -> None:
        self.records: deque = deque(maxlen=maxlen)
        self.total = 0
        self.first: float | None = None
        self.last: float | None = None
        self.detector = StragglerDetector()

    def add(self, record: dict) -> None:
        self.total += 1
        record = dict(record)
        record["_seq"] = self.total
        now = time.monotonic()
        if self.first is None:
            self.first = now
        self.last = now
        self.records.append(record)
        self.detector.observe(record)

    @property
    def record_rate(self) -> float | None:
        """Streamed records per second (all ranks pooled), or ``None``."""
        if self.first is None or self.total < 2 or self.last <= self.first:
            return None
        return (self.total - 1) / (self.last - self.first)


class RunService:
    """Async job-queue run service over a pool of worker OS processes.

    Use as a context manager (or call :meth:`start` / :meth:`close`)::

        with RunService(workers=2) as svc:
            job = svc.submit(RunRequest("jet", steps=50,
                                        scenario_kw={"nx": 48, "nr": 24}))
            job = svc.wait(job.id)
            res = svc.result(job.id)

    Parameters
    ----------
    workers:
        Worker processes to fork (each executes one job at a time).
    store:
        A :class:`~repro.service.store.ResultStore` (or path / ``None``
        for the anchored default) — the persistent dedupe cache.
    ledger:
        Append every executed run's PerfReport to the anchored run
        ledger (default ``True`` — service runs feed the run database).
    """

    def __init__(
        self,
        workers: int = 2,
        store: ResultStore | str | os.PathLike | None = None,
        *,
        ledger: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.workers = workers
        self._policy = {"force_metrics": True, "ledger": ledger}
        try:
            self._ctx = _mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "RunService requires the 'fork' start method (POSIX only), "
                "matching the process substrate"
            ) from None
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        # Bounded fan-in for per-step telemetry (publishers drop on full —
        # a slow parent never stalls a solver step).
        self._stream_q = self._ctx.Queue(4096)
        self._streams: dict[str, _JobStream] = {}
        self._procs: list[Any] = []
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._inflight: dict[str, str] = {}  # fingerprint -> primary job id
        self._followers: dict[str, list[str]] = {}  # primary id -> followers
        self._pid_job: dict[int, str] = {}  # worker pid -> running job id
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._pump: threading.Thread | None = None
        self._closing = False
        self.executed = 0
        """Jobs actually executed by a worker (cache/dedupe hits excluded)."""

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RunService":
        if self._pump is not None:
            return self
        for _ in range(self.workers):
            self._spawn_worker()
        self._pump = threading.Thread(
            target=self._pump_loop, name="repro-service-pump", daemon=True
        )
        self._pump.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers and the pump; queued jobs stay queued (persist by
        resubmitting after a restart — completed work is in the store)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._changed.notify_all()
        for _ in self._procs:
            self._tasks.put(None)
        deadline = time.monotonic() + timeout
        for p in self._procs:
            p.join(max(deadline - time.monotonic(), 0.1))
            if p.is_alive():
                p.terminate()
                p.join(1.0)
            if p.is_alive():  # non-daemonic workers must not outlive us
                p.kill()
                p.join(1.0)
        if self._pump is not None:
            self._pump.join(timeout=2.0)
        self._tasks.close()
        self._results.close()
        self._stream_q.close()

    def __enter__(self) -> "RunService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn_worker(self) -> None:
        # NOT daemonic: a worker must be able to fork its own children —
        # the process substrate runs one OS process per rank inside the
        # worker, and daemonic processes may not have children.  close()
        # joins, then terminates, then kills, so they never outlive us.
        p = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results, str(self.store.root),
                  dict(self._policy), self._stream_q),
            daemon=False,
            name=f"repro-service-worker-{len(self._procs)}",
        )
        p.start()
        self._procs.append(p)

    # -- submission ----------------------------------------------------------

    def submit(self, request, context=None) -> Job:
        """Enqueue (or instantly satisfy) one request; returns its Job.

        Dedupe order: persistent store first (``cached``), then in-flight
        fingerprints (``attached``), then a fresh queue entry.

        ``context`` is the submitting client's
        :class:`~repro.obs.TraceContext` (object or wire dict); ``None``
        mints a fresh one, so every job carries a distributed trace
        identity that the worker — and each forked rank — joins.
        """
        if self._pump is None:
            raise RuntimeError("RunService is not started (use 'with' or start())")
        kind, wire, fp = _encode_request(request)
        if context is None:
            context = TraceContext.mint(origin="service")
        elif isinstance(context, dict):
            context = TraceContext.from_dict(context)
        now = time.time()
        with self._lock:
            if self._closing:
                raise RuntimeError("RunService is closing")
            job = Job(
                id=f"job-{next(self._ids):06d}",
                fingerprint=fp,
                kind=kind,
                request=wire,
                submitted=now,
                context=context.to_dict(),
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            if fp in self.store:
                job.status = "cached"
                job.cached = True
                job.finished = now
                self._bump(job)
                return _snapshot(job)
            primary_id = self._inflight.get(fp)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                job.attached_to = primary_id
                job.status = primary.status
                job.started = primary.started
                job.worker_pid = primary.worker_pid
                self._followers.setdefault(primary_id, []).append(job.id)
                self._bump(job)
                return _snapshot(job)
            self._inflight[fp] = job.id
            self._tasks.put((job.id, kind, wire, job.context))
            self._bump(job)
            return _snapshot(job)

    # -- queries -------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        with self._lock:
            return _snapshot(self._require(job_id))

    def jobs(self) -> list[Job]:
        with self._lock:
            return [_snapshot(self._jobs[i]) for i in self._order]

    @property
    def job_count(self) -> int:
        """``len(jobs())`` without snapshotting the table."""
        return len(self._order)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            job = self._require(job_id)
            while not job.terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._changed.wait(timeout=remaining if remaining else _POLL)
                if self._closing and not job.terminal:
                    break
            return _snapshot(job)

    def watch(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[Job]:
        """Yield a snapshot at each status transition, ending terminal.

        This is the streaming surface: the socket server forwards each
        yielded snapshot as one JSON line to the watching client.
        """
        last_version = -1
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                job = self._require(job_id)
                while job.version == last_version and not job.terminal:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return
                    self._changed.wait(
                        timeout=remaining if remaining else _POLL
                    )
                    if self._closing:
                        break
                if job.version == last_version:
                    return
                last_version = job.version
                snap = _snapshot(job)
            yield snap
            if snap.terminal:
                return

    def result(self, job_id: str) -> Any:
        """The stored payload of a completed job (RunResult / text).

        Raises :class:`JobFailed` for failed jobs and ``RuntimeError``
        for jobs still in flight.
        """
        with self._lock:
            job = self._require(job_id)
            if job.status == "failed":
                raise JobFailed(f"{job.id}: {job.error}")
            if not job.terminal:
                raise RuntimeError(
                    f"{job.id} is {job.status}; wait() for it first"
                )
            fp = job.fingerprint
        self.store.refresh()
        return self.store.load_result(fp)

    # -- telemetry -----------------------------------------------------------

    def tail(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict]:
        """Yield the job's per-step stream records as they arrive.

        Serves from the parent-side ring (records already buffered come
        first), then follows the live stream; returns once the job is
        terminal and the ring is drained (or on timeout).  Each yielded
        record is a ``repro.stream/1`` dict plus ``_seq`` (arrival order)
        and ``job`` tags.

        A ``cached`` job (store dedupe hit at submit) never forked a
        worker, so no stream records exist or will ever arrive; tailing
        one yields a single served-from-cache marker record and returns
        immediately instead of waiting out the post-terminal grace
        window.
        """
        with self._lock:
            job = self._require(job_id)
            if job.cached:
                from ..obs.stream import STREAM_SCHEMA

                yield {
                    "schema": STREAM_SCHEMA,
                    "kind": "cached",
                    "job": job_id,
                    "fingerprint": job.fingerprint,
                    "_seq": 0,
                }
                return
        deadline = None if timeout is None else time.monotonic() + timeout
        last_seq = 0
        grace = None
        while True:
            with self._lock:
                job = self._require(job_id)
                ring = self._streams.get(job_id)
                fresh = (
                    [r for r in ring.records if r["_seq"] > last_seq]
                    if ring is not None
                    else []
                )
                if fresh:
                    last_seq = fresh[-1]["_seq"]
                    grace = None
                else:
                    if self._closing:
                        return
                    if job.terminal:
                        # Records the ranks published just before finishing
                        # may still be in flight through the fan-in queue's
                        # feeder threads; keep draining through a short
                        # grace window that fresh arrivals re-arm.
                        if grace is None:
                            grace = time.monotonic() + _TAIL_GRACE
                        elif time.monotonic() >= grace:
                            return
                        self._drain_stream()
                        self._changed.wait(timeout=0.02)
                        continue
                    remaining = _POLL
                    if deadline is not None:
                        remaining = min(
                            _POLL, deadline - time.monotonic()
                        )
                        if remaining <= 0:
                            return
                    self._changed.wait(timeout=remaining)
                    continue
            for record in fresh:
                yield dict(record)

    def top(self) -> dict:
        """A live utilization snapshot (the ``repro top`` payload).

        Queue depth, busy workers, dedupe hit rate, and one row per
        running job: latest step per rank pool, streamed-record rate, and
        the online straggler verdict.
        """
        with self._lock:
            jobs = [self._jobs[i] for i in self._order]
            queued = sum(
                1
                for j in jobs
                if j.status == "queued" and j.attached_to is None
            )
            running = [
                j
                for j in jobs
                if j.status == "running" and j.attached_to is None
            ]
            dedupe_hits = sum(
                1 for j in jobs if j.cached or j.attached_to is not None
            )
            rows = []
            for j in running:
                ring = self._streams.get(j.id)
                row = {
                    "id": j.id,
                    "scenario": j.request.get("scenario"),
                    "worker_pid": j.worker_pid,
                    "step": None,
                    "records_per_s": None,
                    "balance": None,
                }
                if ring is not None and ring.records:
                    row["step"] = max(
                        r.get("step", 0) for r in ring.records
                    )
                    rate = ring.record_rate
                    row["records_per_s"] = (
                        round(rate, 2) if rate is not None else None
                    )
                    row["balance"] = ring.detector.verdict()
                rows.append(row)
            return {
                "workers": self.workers,
                "busy": len(self._pid_job),
                "queue_depth": queued,
                "jobs_total": len(jobs),
                "executed": self.executed,
                "dedupe_hits": dedupe_hits,
                "dedupe_rate": (
                    round(dedupe_hits / len(jobs), 4) if jobs else 0.0
                ),
                "stream_records": sum(
                    s.total for s in self._streams.values()
                ),
                "running": rows,
            }

    def job_trace(self, job_id: str) -> Trace:
        """One merged :class:`~repro.obs.Trace` for a completed job.

        Synthetic service-tier spans (``client.submit`` → ``service.job``
        → ``service.worker``, rank ``-1``) frame the stored worker trace;
        worker spans are rebased onto the job's wall-clock epoch and
        parentless ones re-parented under ``service.worker``, so a
        Perfetto export of the result shows client, service, worker and
        every rank as a single tree sharing the job's trace id.
        """
        with self._lock:
            job = _snapshot(self._require(job_id))
        if not job.terminal:
            raise RuntimeError(
                f"{job.id} is {job.status}; the merged trace exists once "
                "the job completes"
            )
        merged = Trace(meta={"name": f"service:{job.id}"})
        if job.context:
            merged.meta["trace_id"] = job.context.get("trace_id")
            merged.meta["trace_origin"] = "service"
        started = job.started or job.submitted
        finished = job.finished or started
        merged.spans.append(
            SpanRecord(
                "client.submit", "service", -1, job.submitted, started, 0
            )
        )
        merged.spans.append(
            SpanRecord(
                "service.job", "service", -1, job.submitted, finished, 1,
                parent="client.submit",
            )
        )
        merged.spans.append(
            SpanRecord(
                "service.worker", "service", -1, started, finished, 2,
                parent="service.job",
            )
        )
        seq = itertools.count(3)
        inner = None
        if job.status in ("done", "cached"):
            self.store.refresh()
            try:
                inner = getattr(
                    self.store.load_result(job.fingerprint), "trace", None
                )
            except (KeyError, OSError):
                inner = None
        if inner is not None:
            stamps = [s.t0 for s in inner.spans]
            stamps += [e.t for e in inner.events]
            shift = (started - min(stamps)) if stamps else 0.0
            for s in inner.ordered_spans():
                merged.spans.append(
                    _dc_replace(
                        s,
                        t0=s.t0 + shift,
                        t1=s.t1 + shift,
                        seq=next(seq),
                        parent=s.parent or "service.worker",
                    )
                )
            for e in inner.ordered_events():
                merged.events.append(
                    _dc_replace(e, t=e.t + shift, seq=next(seq))
                )
        return merged

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _read_flight_ring(ring_path: str | None) -> dict | None:
        """Recover ``rank -> events`` from a (possibly torn) ring file."""
        if not ring_path or not os.path.exists(ring_path):
            return None
        try:
            ring = FlightRing.open(ring_path)
        except (OSError, ValueError, struct_error):
            return None
        try:
            events = ring.read_all()
        except (OSError, ValueError):
            return None
        finally:
            ring.close()
        return events if any(events.values()) else None

    @staticmethod
    def _flush_flight(ring_path: str | None, flight: dict) -> None:
        """Best-effort post-mortem flush beside the ring file."""
        if not ring_path:
            return
        try:
            write_flight_jsonl(flight, _flight_jsonl_path(ring_path))
        except OSError:
            pass

    def _require(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def _bump(self, job: Job) -> None:
        job.version += 1
        self._changed.notify_all()

    def _group(self, primary: Job) -> list[Job]:
        return [primary] + [
            self._jobs[i] for i in self._followers.get(primary.id, [])
        ]

    def _pump_loop(self) -> None:
        """Drain worker results; poll worker liveness; respawn the dead."""
        while True:
            with self._lock:
                if self._closing:
                    return
            try:
                msg = self._results.get(timeout=_POLL)
            except _queue.Empty:
                msg = None
            except (EOFError, OSError):
                return
            if msg is not None:
                self._handle(msg)
            self._drain_stream()
            self._check_liveness()

    def _drain_stream(self) -> None:
        """Fold queued per-step records into their jobs' stream rings."""
        while True:
            try:
                record = self._stream_q.get_nowait()
            except _queue.Empty:
                return
            except (EOFError, OSError):
                return
            if not isinstance(record, dict):
                continue
            job_id = record.get("job")
            if job_id is None:
                continue
            with self._lock:
                ring = self._streams.get(job_id)
                if ring is None:
                    ring = self._streams[job_id] = _JobStream()
                ring.add(record)
                self._changed.notify_all()

    def _handle(self, msg) -> None:
        event, job_id, pid, detail = msg
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            if event == "started":
                self._pid_job[pid] = job_id
                for j in self._group(job):
                    j.status = "running"
                    j.started = time.time()
                    j.worker_pid = pid
                    self._bump(j)
                return
            if event == "flight":
                # The worker names its shared flight-ring file up front, so
                # a SIGKILL later still leaves the parent a ring to read.
                for j in self._group(job):
                    j.flight_path = detail
                    self._bump(j)
                return
            self._pid_job.pop(pid, None)
            self._inflight.pop(job.fingerprint, None)
            if event == "done":
                # Single-writer index append happens here, in the parent.
                self.store.commit(
                    job.fingerprint,
                    kind=job.kind,
                    request=job.request,
                    report=detail or {},
                    meta={"job": job.id},
                )
                self.executed += 1
                for j in self._group(job):
                    j.status = "done"
                    j.finished = time.time()
                    j.worker_pid = None
                    self._bump(j)
            else:  # failed
                if isinstance(detail, dict):
                    message = detail.get("message", "unknown failure")
                    flight = detail.get("flight")
                    flight_path = detail.get("flight_path") or job.flight_path
                else:  # plain-string detail (older workers)
                    message, flight, flight_path = detail, None, job.flight_path
                if flight is None and flight_path:
                    flight = self._read_flight_ring(flight_path)
                if flight:
                    self._flush_flight(flight_path, flight)
                for j in self._group(job):
                    j.status = "failed"
                    j.error = message
                    j.flight = flight
                    if flight_path:
                        j.flight_path = flight_path
                    j.finished = time.time()
                    j.worker_pid = None
                    self._bump(j)

    def _check_liveness(self) -> None:
        """Fail jobs owned by dead workers; fork replacements."""
        with self._lock:
            if self._closing:
                return
            dead = [p for p in self._procs if not p.is_alive()]
            if not dead:
                return
            for p in dead:
                self._procs.remove(p)
                job_id = self._pid_job.pop(p.pid, None)
                if job_id is not None:
                    job = self._jobs.get(job_id)
                    if job is not None and not job.terminal:
                        self._inflight.pop(job.fingerprint, None)
                        # Post-mortem: the dead worker's flight ring is a
                        # plain file — read the last events of every rank.
                        flight = self._read_flight_ring(job.flight_path)
                        if flight:
                            self._flush_flight(job.flight_path, flight)
                        err = (
                            f"worker process died (pid={p.pid}, "
                            f"exitcode={p.exitcode}) while running {job_id}"
                        )
                        for j in self._group(job):
                            j.status = "failed"
                            j.error = err
                            j.flight = flight
                            j.finished = time.time()
                            j.worker_pid = None
                            self._bump(j)
            while len(self._procs) < self.workers:
                self._spawn_worker()


def _snapshot(job: Job) -> Job:
    """A detached copy safe to return across the lock boundary."""
    return _dc_replace(job)
