"""The run service core: scheduler, worker pool, dedupe, streaming.

:class:`RunService` is the in-process engine behind both the Unix-socket
server (``repro serve``) and direct library use.  Design points:

* **Worker OS processes, one pipe each.**  Jobs execute in forked
  worker processes (the process-substrate discipline): a crashing or
  runaway run cannot take the service down, and real runs get real cores.
  The parent schedules: it keeps the FIFO of pending jobs and sends each
  one down the pipe of an idle worker, and the job is ``running`` from
  that moment.  No queue is shared between processes: a worker SIGKILLed
  while holding a shared queue's cross-process lock would leave it held
  and wedge every other worker.  A worker that dies (killed, segfault) is
  found by the pump's ``is_alive`` poll; its job fails with a structured
  error — never a hang — and a replacement worker is forked.
* **Fingerprint dedupe, two layers.**  At submit time a request whose
  ``fingerprint()`` is already in the :class:`~repro.service.store.ResultStore`
  completes instantly as ``cached``; one whose fingerprint is already
  *in flight* attaches to the running execution (``attached``) and
  completes when it does.  Either way: N identical submissions, one
  execution, N results.
* **Status streaming.**  Every job transition bumps a version counter
  and wakes waiters; :meth:`RunService.watch` yields each transition as
  it happens (the socket server forwards these lines to clients).
* **Live telemetry from files.**  Every rank of a run job writes its
  per-step records into the job's step ring, ``results/<fp>.steps.ring``
  (a :class:`~repro.obs.FlightRing`); :meth:`RunService.tail` and
  :meth:`RunService.top` read it while the job runs, and the parent reads
  it once more when the job ends, keeps the last records for ``tail``
  and deletes the file.
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
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait
from struct import error as struct_error
from dataclasses import dataclass, fields, replace as _dc_replace
from pathlib import Path
from typing import Any, Iterator

from ..obs import (
    STREAM_SCHEMA,
    FlightRing,
    SpanRecord,
    Trace,
    TraceContext,
    imbalance_verdict,
    read_steps,
)
from ..obs.flight import write_flight_jsonl
from ..obs.stream import STEP_SLOT_BYTES
from ..request import RunRequest
from .experiments import EXPERIMENT_SCHEMA, ExperimentRequest
from .store import ResultStore, write_payload

__all__ = ["Job", "JobFailed", "RunService"]

#: Liveness poll interval for the pump thread, and how often
#: ``tail`` reads a running job's step ring (seconds).
_POLL = 0.1
#: Step records a job's ring keeps per rank, and the most ``tail`` serves
#: of a job that has ended.
_TAIL_DEPTH = 256

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
    """When the job was sent to a worker; it is ``running`` from then."""
    finished: float | None = None
    version: int = 0
    """Monotone transition counter (drives ``watch`` streaming)."""
    context: dict | None = None
    """Wire form of the job's :class:`~repro.obs.TraceContext`."""
    flight: dict | None = None
    """``rank -> last flight-recorder events`` recovered from a failed
    execution (the post-mortem half of the failure report)."""
    flight_path: str | None = None
    """The flight-ring file of an executed run job,
    ``results/<fp>.flight.ring``: set at submit from the fingerprint, on
    every substrate, so the parent reads the last events of every rank
    from it even after the worker is SIGKILLed."""
    steps_path: str | None = None
    """The step ring of an executed run job, ``results/<fp>.steps.ring``:
    set at submit like ``flight_path``; the ranks write their per-step
    records into it, and the parent deletes it once the job has ended."""

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> dict:
        wire = {f.name: getattr(self, f.name) for f in fields(self)}
        wire["flight"] = ({str(r): evs for r, evs in self.flight.items()}
                          if self.flight else None)
        return wire


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


def _ring_path(store_root: str, fingerprint: str, sink: str) -> str:
    """Where a run's crash-survivable ``flight`` or ``steps`` ring lives
    in the store."""
    return str(Path(store_root) / "results" / f"{fingerprint}.{sink}.ring")


def _read_step_ring(path: str, since: dict[int, int]) -> list[dict]:
    """The records of the step ring at ``path`` not yet in ``since``
    (advanced past them); none while the worker has yet to make it."""
    try:
        ring = FlightRing.open(path)
    except (OSError, ValueError, struct_error):
        return []
    try:
        return read_steps(ring, since)
    finally:
        ring.close()


def _flight_jsonl_path(path: str) -> str:
    """The flushed post-mortem file beside a ring (``.ring`` -> ``.jsonl``)."""
    return path.removesuffix(".ring") + ".jsonl"


def _worker_main(conn, store_root: str, policy: dict) -> None:
    """Worker process loop: execute the tasks the parent sends down
    ``conn``, one at a time, and answer each with ``("done", report)`` or
    ``("failed", error)``.

    Payloads are written straight into the store's content-addressed
    ``results/`` directory (atomic rename); only small manifests cross
    the pipe.  ``None`` (or the parent's end gone) ends the loop.

    Telemetry plumbing per run job:

    * every rank writes its per-step records into the job's step ring at
      ``results/<fp>.steps.ring`` and its last events into the flight ring
      at ``results/<fp>.flight.ring`` — files the parent knows from the
      fingerprint, so both survive this worker being SIGKILLed (the
      parent deletes the step ring once it has read it);
    * the submit-time :class:`~repro.obs.TraceContext` is adopted one
      tier down, so every rank's spans join the client's trace tree.
    """
    from ..msglib.process import bind_to_parent_lifetime

    # Workers are non-daemonic (they fork rank children), so they would
    # survive a SIGKILLed service process; die with the parent instead.
    bind_to_parent_lifetime()
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        kind, req_dict, ctx_dict = item
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
                nprocs = req.execution.nprocs
                flight_path = _ring_path(store_root, fp, "flight")
                os.makedirs(os.path.dirname(flight_path), exist_ok=True)
                ring = FlightRing.create(flight_path, nprocs)
                steps = FlightRing.create(
                    _ring_path(store_root, fp, "steps"), nprocs,
                    capacity=_TAIL_DEPTH, slot_bytes=STEP_SLOT_BYTES,
                )
                obs = _dc_replace(
                    req.observability,
                    metrics=req.observability.metrics
                    or policy.get("force_metrics", True),
                    ledger=req.observability.ledger
                    or policy.get("ledger", False),
                    stream=steps,
                    flight=ring,
                )
                req = req.replace(observability=obs)
                context = (
                    TraceContext.from_dict(ctx_dict).child(
                        "service.worker", origin="worker"
                    )
                    if ctx_dict
                    else None
                )
                try:  # the parent reads both ring files after a failure
                    result = run_request(req, context=context)
                finally:
                    ring.close()
                    steps.close()
                result.request = None  # live objects stay out of the pickle
                write_payload(store_root, fp, result)
                if result.flight:
                    write_flight_jsonl(
                        result.flight, _flight_jsonl_path(flight_path)
                    )
                try:  # clean exit: the jsonl flush supersedes the ring
                    os.unlink(flight_path)
                except OSError:
                    pass
                report = result.perf.to_dict() if result.perf else {}
            reply = ("done", report)
        except BaseException as exc:  # ship *everything* back structured
            reply = ("failed", (
                f"{type(exc).__name__}: {exc}\n"
                + "".join(traceback.format_exception(exc)[-3:])
            ))
        conn.send(reply)


class RunService:
    """Async run service over a pool of worker OS processes.

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
        # job id -> (records per rank, the last records) of its step ring,
        # read once when the job ended.
        self._tails: dict[str, tuple[dict[int, int], list[dict]]] = {}
        self._stream_records = 0  # step records of the jobs that ended
        # The pool, worker process -> the parent's end of its pipe, and the
        # dispatch table, worker -> the job sent to it.
        self._workers: dict[Any, Any] = {}
        self._running: dict[Any, str] = {}
        self._pending: deque[str] = deque()  # job ids, oldest first
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._inflight: dict[str, str] = {}  # fingerprint -> primary job id
        self._followers: dict[str, list[str]] = {}  # primary id -> followers
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
        if self._pump is not None:  # the pump alone reads and closes pipes
            self._pump.join(timeout=2.0)
        for conn in self._workers.values():
            try:
                conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for p, conn in self._workers.items():
            p.join(max(deadline - time.monotonic(), 0.1))
            if p.is_alive():
                p.terminate()
                p.join(1.0)
            if p.is_alive():  # non-daemonic workers must not outlive us
                p.kill()
                p.join(1.0)
            conn.close()

    def __enter__(self) -> "RunService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn_worker(self) -> None:
        # NOT daemonic: a worker must be able to fork its own children —
        # the process substrate runs one OS process per rank inside the
        # worker, and daemonic processes may not have children.  close()
        # joins, then terminates, then kills, so they never outlive us.
        ours, theirs = self._ctx.Pipe()
        p = self._ctx.Process(
            target=_worker_main,
            args=(theirs, str(self.store.root), dict(self._policy)),
            daemon=False,
            name=f"repro-service-worker-{len(self._workers)}",
        )
        p.start()
        theirs.close()
        self._workers[p] = ours

    # -- submission ----------------------------------------------------------

    def submit(self, request, context=None) -> Job:
        """Enqueue (or instantly satisfy) one request; returns its Job.

        Dedupe order: persistent store first (``cached``), then in-flight
        fingerprints (``attached``), then execution: sent to an idle
        worker at once (``running``) or queued behind the pending jobs.

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
                job.flight_path = primary.flight_path
                job.steps_path = primary.steps_path
                self._followers.setdefault(primary_id, []).append(job.id)
                self._bump(job)
                return _snapshot(job)
            self._inflight[fp] = job.id
            if kind == "run":
                job.flight_path = _ring_path(str(self.store.root), fp, "flight")
                job.steps_path = _ring_path(str(self.store.root), fp, "steps")
            self._pending.append(job.id)
            self._bump(job)
            self._dispatch()
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

        Reads the job's step ring every :data:`_POLL` seconds while it
        runs, then what the parent kept of it when the job ended (its last
        :data:`_TAIL_DEPTH` records), and returns (or on timeout).  Each
        yielded record is a ``repro.stream/1`` dict plus ``_seq`` (the
        order served) and ``job`` (the job that executed it) tags.

        A ``cached`` job (store dedupe hit at submit) never forked a
        worker, so no stream records exist or will ever arrive; tailing
        one yields a single served-from-cache marker record and returns.
        """
        with self._lock:
            job = self._require(job_id)
            if job.cached:
                yield {
                    "schema": STREAM_SCHEMA,
                    "kind": "cached",
                    "job": job_id,
                    "fingerprint": job.fingerprint,
                    "_seq": 0,
                }
                return
        deadline = None if timeout is None else time.monotonic() + timeout
        seen: dict[int, int] = {}  # rank -> records of it served
        seq = 0
        while True:
            with self._lock:
                job = self._require(job_id)
                owner = job.attached_to or job.id
                kept = self._tails.get(owner)
                if kept is not None:
                    fresh = _unseen(*kept, seen)
                elif job.status == "running" and job.steps_path:
                    fresh = _read_step_ring(job.steps_path, seen)
                else:
                    fresh = []
                over = kept is not None or job.terminal or self._closing
            for record in fresh:
                seq += 1
                yield {**record, "job": owner, "_seq": seq}
            if over:
                return
            remaining = _POLL
            if deadline is not None:
                remaining = min(_POLL, deadline - time.monotonic())
                if remaining <= 0:
                    return
            with self._lock:
                self._changed.wait(timeout=remaining)

    def top(self) -> dict:
        """A live utilization snapshot (the ``repro top`` payload).

        Queue depth, busy workers, dedupe hit rate, and one row per
        running job from its step ring: latest step, record rate, and the
        balance verdict over the records in the ring's window.
        """
        with self._lock:
            jobs = [self._jobs[i] for i in self._order]
            running = [
                j
                for j in jobs
                if j.status == "running" and j.attached_to is None
            ]
            dedupe_hits = sum(
                1 for j in jobs if j.cached or j.attached_to is not None
            )
            rows = []
            live = 0  # step records written so far by the running jobs
            for j in running:
                writes: dict[int, int] = {}
                records = (
                    _read_step_ring(j.steps_path, writes) if j.steps_path else []
                )
                total = sum(writes.values())
                live += total
                elapsed = time.time() - (j.started or time.time())
                rows.append({
                    "id": j.id,
                    "scenario": j.request.get("scenario"),
                    "worker_pid": j.worker_pid,
                    "step": records[-1]["step"] if records else None,
                    "records_per_s": (
                        round(total / elapsed, 2)
                        if total > 1 and elapsed > 0
                        else None
                    ),
                    "balance": imbalance_verdict(records),
                })
            return {
                "workers": self.workers,
                "busy": len(self._running),
                "queue_depth": len(self._pending),
                "jobs_total": len(jobs),
                "executed": self.executed,
                "dedupe_hits": dedupe_hits,
                "dedupe_rate": (
                    round(dedupe_hits / len(jobs), 4) if jobs else 0.0
                ),
                "stream_records": self._stream_records + live,
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
    def _post_mortem(job: Job) -> dict | None:
        """``rank -> events`` recovered from a failed or dead job's
        (possibly torn) flight ring, flushed beside it as JSON lines;
        ``None`` when the job has no ring or the ring holds nothing."""
        path = job.flight_path
        if not path:
            return None
        try:
            ring = FlightRing.open(path)
        except (OSError, ValueError, struct_error):
            return None
        try:
            events = ring.events_by_rank()
        finally:
            ring.close()
        if events:
            try:
                write_flight_jsonl(events, _flight_jsonl_path(path))
            except OSError:
                pass
        return events or None

    def _keep_steps(self, job: Job) -> None:
        """Read an ended job's step ring once: keep its last records for
        ``tail``, count them all, and delete the file."""
        if not job.steps_path:
            return
        ends: dict[int, int] = {}
        records = _read_step_ring(job.steps_path, ends)
        self._tails[job.id] = (ends, records[-_TAIL_DEPTH:])
        self._stream_records += sum(ends.values())
        try:
            os.unlink(job.steps_path)
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

    def _dispatch(self) -> None:
        """Send pending jobs, oldest first, to idle workers (lock held).

        A job is ``running`` once its task is in a worker's pipe.  A send
        that fails means the worker is dead: the job goes back to the
        front of the queue, and the pump replaces the worker.
        """
        for p, conn in self._workers.items():
            if not self._pending:
                return
            if p in self._running:
                continue
            job = self._jobs[self._pending.popleft()]
            try:
                conn.send((job.kind, job.request, job.context))
            except OSError:
                self._pending.appendleft(job.id)
                continue
            self._running[p] = job.id
            now = time.time()
            for j in self._group(job):
                j.status = "running"
                j.started = now
                j.worker_pid = p.pid
                self._bump(j)

    def _pump_loop(self) -> None:
        """Read worker replies; fail the jobs of dead workers and replace
        them; hand pending jobs to the idle.

        A worker's pipe is no liveness signal: rank children it forked
        hold its end open until their parent-death signal arrives, so the
        ``is_alive`` poll after each wait is what finds the dead.  Only
        this thread, and ``close`` once it has ended, reads or closes a
        pipe.
        """
        while True:
            with self._lock:
                if self._closing:
                    return
                ends = {conn: p for p, conn in self._workers.items()}
            replies = {}
            for conn in _wait(list(ends), timeout=_POLL):
                p = ends[conn]
                try:
                    replies[p] = conn.recv()
                except (EOFError, OSError):  # the worker is dead
                    p.kill()
                    p.join(1.0)
            with self._lock:
                if self._closing:
                    return
                ended = [(self._running.pop(p), *r) for p, r in replies.items()]
                for p in [p for p in self._workers if not p.is_alive()]:
                    self._workers.pop(p).close()
                    if p in self._running:
                        job_id = self._running.pop(p)
                        ended.append((job_id, "failed", (
                            f"worker process died (pid={p.pid}, exitcode="
                            f"{p.exitcode}) while running {job_id}"
                        )))
                while len(self._workers) < self.workers:
                    self._spawn_worker()
                self._dispatch()  # idle workers start before the ended are filed
                for job_id, status, detail in ended:
                    self._finish(self._jobs[job_id], status, detail)

    def _finish(self, job: Job, status: str, detail) -> None:
        """End an executed job and its followers ``done`` (``detail`` is
        the PerfReport dict) or ``failed`` (``detail`` is the error)."""
        self._inflight.pop(job.fingerprint, None)
        self._keep_steps(job)  # the rings are plain files, even of the dead
        flight = None
        if status == "done":
            # Single-writer index append happens here, in the parent.
            self.store.commit(job.fingerprint, kind=job.kind,
                              request=job.request, report=detail or {},
                              meta={"job": job.id})
            self.executed += 1
        else:
            flight = self._post_mortem(job)
        now = time.time()
        for j in self._group(job):
            j.status = status
            if status == "failed":
                j.error = detail
                j.flight = flight
            j.finished = now
            j.worker_pid = None
            self._bump(j)


def _unseen(ends: dict[int, int], records: list[dict], seen: dict[int, int]):
    """The kept ``records`` of an ended job that a tailer which has read
    ``seen[rank]`` of each rank's ``ends[rank]`` has not served yet."""
    left = {rank: n - seen.get(rank, 0) for rank, n in ends.items()}
    fresh = []
    for record in reversed(records):
        if left.get(record["rank"], 0) > 0:
            left[record["rank"]] -= 1
            fresh.append(record)
    return fresh[::-1]


def _snapshot(job: Job) -> Job:
    """A detached copy safe to return across the lock boundary."""
    return _dc_replace(job)
