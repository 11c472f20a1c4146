"""Run service: worker pool, fingerprint dedupe, persistent result store,
crash handling, and the Unix-socket front end."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.request import RunRequest
from repro.service import (
    ExperimentRequest,
    JobFailed,
    ResultStore,
    RunService,
    ServiceClient,
    ServiceServer,
    ServiceUnavailable,
    experiments,
    serve,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="run service needs the fork start method",
)

SOD = dict(steps=40)


def make_service(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("ledger", False)
    return RunService(store=ResultStore(tmp_path / "store"), **kw)


def sod_request(**overrides):
    kw = {**SOD, **overrides}
    return RunRequest.from_run_args("sod", **kw)


class TestDedupe:
    def test_identical_submits_execute_once(self, tmp_path):
        req = sod_request()
        with make_service(tmp_path) as svc:
            j1 = svc.submit(req)
            j2 = svc.submit(req.to_dict())  # same fingerprint, wire form
            a = svc.wait(j1.id, timeout=120)
            b = svc.wait(j2.id, timeout=120)
            assert a.status == "done" and b.status == "done"
            assert j2.attached_to == j1.id
            assert svc.executed == 1
            r1, r2 = svc.result(j1.id), svc.result(j2.id)
        assert np.array_equal(r1.state.rho, r2.state.rho)

    def test_service_result_bitwise_matches_direct_run(self, tmp_path):
        req = sod_request()
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            svc.wait(job.id, timeout=120)
            via_service = svc.result(job.id)
        direct = api.run("sod", **SOD)
        assert np.array_equal(via_service.state.rho, direct.state.rho)
        assert np.array_equal(via_service.state.u, direct.state.u)
        assert via_service.t == direct.t

    def test_decomposition_is_route_irrelevant(self, tmp_path):
        """An axial-cached result is served to radial and 2-D requests.

        The unified exchange core makes every decomposition bitwise-equal,
        so ``RunRequest.fingerprint()`` nulls ``decomposition``/``px``/``pr``
        and the service dedupes across them."""
        kw = dict(steps=6, nx=48, nr=24, nprocs=2)
        axial = RunRequest.from_run_args("jet", **kw)
        radial = RunRequest.from_run_args("jet", decomposition="radial", **kw)
        two_d = RunRequest.from_run_args(
            "jet", decomposition="2d", px=2, pr=1, **kw
        )
        assert radial.fingerprint() == axial.fingerprint()
        assert two_d.fingerprint() == axial.fingerprint()
        with make_service(tmp_path) as svc:
            j1 = svc.submit(axial)
            j2 = svc.submit(radial)
            j3 = svc.submit(two_d)
            svc.wait(j1.id, timeout=120)
            svc.wait(j2.id, timeout=120)
            svc.wait(j3.id, timeout=120)
            assert j2.attached_to == j1.id
            assert j3.attached_to == j1.id
            assert svc.executed == 1
            r1, r2 = svc.result(j1.id), svc.result(j3.id)
        assert np.array_equal(r1.state.q, r2.state.q)

    def test_distinct_fingerprints_both_execute(self, tmp_path):
        with make_service(tmp_path) as svc:
            j1 = svc.submit(sod_request())
            j2 = svc.submit(sod_request(steps=41))
            svc.wait(j1.id, timeout=120)
            svc.wait(j2.id, timeout=120)
            assert svc.executed == 2


class TestPersistentStore:
    def test_cache_hit_after_restart(self, tmp_path):
        req = sod_request()
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            svc.wait(job.id, timeout=120)
            first = svc.result(job.id)
            assert svc.executed == 1
        # Fresh service, same store: served without re-execution.
        with make_service(tmp_path) as svc2:
            job = svc2.submit(req)
            assert job.status == "cached"
            again = svc2.result(job.id)
            assert svc2.executed == 0
        assert np.array_equal(first.state.rho, again.state.rho)

    def test_tail_of_cached_job_returns_immediately(self, tmp_path):
        """``tail`` on a cache-resolved job returns at once.

        Cached jobs never executed in this service, so no step ring will
        ever appear; tail yields a single served-from-cache marker at once
        instead of polling for one."""
        req = sod_request()
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            svc.wait(job.id, timeout=120)
        with make_service(tmp_path) as svc2:
            job = svc2.submit(req)
            assert job.status == "cached"
            t0 = time.monotonic()
            records = list(svc2.tail(job.id, timeout=30))
            elapsed = time.monotonic() - t0
        assert elapsed < 0.25  # no polling
        assert len(records) == 1
        marker = records[0]
        assert marker["kind"] == "cached"
        assert marker["job"] == job.id
        assert marker["fingerprint"] == req.fingerprint()

    def test_store_entry_carries_request_and_report(self, tmp_path):
        req = sod_request()
        with make_service(tmp_path) as svc:
            job = svc.submit(req)
            svc.wait(job.id, timeout=120)
            entry = svc.store.get(req.fingerprint())
        assert entry is not None
        assert entry.kind == "run"
        assert RunRequest.from_dict(entry.request).fingerprint() == \
            req.fingerprint()
        assert entry.report["fingerprint"] == req.fingerprint()

    def test_index_survives_reload(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(sod_request())
            svc.wait(job.id, timeout=120)
        store = ResultStore(tmp_path / "store")
        assert len(store) == 1
        fp = sod_request().fingerprint()
        assert fp in store
        assert store.load_result(fp).steps == SOD["steps"]

    def test_torn_index_tail_means_reexecution_not_a_bricked_service(
        self, tmp_path
    ):
        """A writer killed mid-append leaves half a line; the entry is
        simply absent, so the request runs again and results still load
        (every ``result`` used to raise ``JSONDecodeError`` from then on)."""
        with make_service(tmp_path, workers=1) as svc:
            svc.wait(svc.submit(sod_request()).id, timeout=120)
        index = tmp_path / "store" / "index.jsonl"
        index.write_bytes(index.read_bytes()[:-40])
        with make_service(tmp_path, workers=1) as svc:
            job = svc.submit(sod_request())
            assert job.status != "cached"
            assert svc.wait(job.id, timeout=120).status == "done"
            with pytest.warns(UserWarning, match="skipping corrupt index"):
                assert svc.result(job.id).steps == SOD["steps"]
            assert svc.executed == 1 and svc.store.skipped_lines == 1
        with pytest.warns(UserWarning, match="skipping corrupt index"):
            assert len(ResultStore(tmp_path / "store")) == 1

    def test_experiment_jobs_cache_rendered_text(self, tmp_path):
        req = ExperimentRequest("table2")
        with make_service(tmp_path, workers=1) as svc:
            job = svc.submit(req)
            svc.wait(job.id, timeout=120)
            text = svc.result(job.id)
            assert "Table 2" in text
            assert svc.submit(req).status == "cached"

    def test_experiment_fingerprint_covers_the_code(self, monkeypatch):
        """A store that outlives a code change must not serve the text an
        older program rendered."""
        req = ExperimentRequest("table2")
        monkeypatch.setattr(experiments, "code_digest", lambda: "a" * 64)
        first = req.fingerprint()
        assert ExperimentRequest("table2").fingerprint() == first
        monkeypatch.setattr(experiments, "code_digest", lambda: "b" * 64)
        assert req.fingerprint() != first


class TestFailures:
    def test_bad_request_fails_structurally(self, tmp_path):
        with make_service(tmp_path, workers=1) as svc:
            job = svc.submit(RunRequest.from_run_args("no-such-scenario",
                                                      steps=5))
            done = svc.wait(job.id, timeout=120)
            assert done.status == "failed"
            assert "no-such-scenario" in done.error
            with pytest.raises(JobFailed):
                svc.result(job.id)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_fails_and_is_not_stored(self, tmp_path):
        """A run that goes non-finite fails with the step it diverged at,
        and its NaN state is never served from the store."""
        req = RunRequest.from_run_args(
            "jet", nx=24, nr=12, steps=2000, backend="baseline"
        )
        with make_service(tmp_path, workers=1) as svc:
            done = svc.wait(svc.submit(req).id, timeout=120)
            assert done.status == "failed"
            assert "SolutionDiverged" in done.error
            assert "diverged at step" in done.error
            again = svc.submit(req)
            assert again.status != "cached"
            assert svc.wait(again.id, timeout=120).status == "failed"
            assert svc.executed == 0

    def test_worker_crash_fails_job_and_pool_recovers(self, tmp_path):
        with make_service(tmp_path, workers=1) as svc:
            job = svc.submit(sod_request(steps=100000))
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snap = svc.job(job.id)
                if snap.status == "running" and snap.worker_pid:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("job never started running")
            os.kill(snap.worker_pid, signal.SIGKILL)
            done = svc.wait(job.id, timeout=120)
            assert done.status == "failed"
            assert "worker process died" in done.error
            # The pool respawned: new work still completes.
            j2 = svc.submit(sod_request())
            done2 = svc.wait(j2.id, timeout=120)
            assert done2.status == "done", _pool_state(svc, done2)
            assert svc.result(j2.id).steps == SOD["steps"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigkilled_idle_workers_do_not_wedge_the_pool(
        self, tmp_path, workers
    ):
        """Workers SIGKILLed while idle, waiting for a task, take nothing
        of the pool with them: the next job runs on a replacement.  (A
        worker that dies holding a lock shared with the others would
        leave every later job ``queued``.)"""
        with make_service(tmp_path, workers=workers) as svc:
            time.sleep(1.0)  # every worker reaches its read of a task
            pids = [p.pid for p in svc._workers]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not all(_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "SIGKILL not delivered"
                time.sleep(0.01)
            job = svc.submit(sod_request())
            done = svc.wait(job.id, timeout=60)
            assert done.status == "done", _pool_state(svc, done)
            assert svc.result(job.id).steps == SOD["steps"]


class TestScheduling:
    def test_pending_jobs_run_in_submission_order(self, tmp_path):
        """One worker, three jobs: the first runs, the other two wait in
        the parent (``top()`` counts them) and start in the order they
        were submitted — also after the busy worker dies."""
        with make_service(tmp_path, workers=1) as svc:
            a = svc.submit(sod_request(steps=100000))
            b = svc.submit(sod_request(steps=40))
            c = svc.submit(sod_request(steps=41))
            assert svc.job(a.id).status == "running"
            assert [svc.job(j.id).status for j in (b, c)] == ["queued"] * 2
            top = svc.top()
            assert (top["busy"], top["queue_depth"]) == (1, 2)
            assert [row["id"] for row in top["running"]] == [a.id]
            os.kill(svc.job(a.id).worker_pid, signal.SIGKILL)
            assert svc.wait(a.id, timeout=60).status == "failed"
            b, c = svc.wait(b.id, timeout=60), svc.wait(c.id, timeout=60)
            assert (b.status, c.status) == ("done", "done"), _pool_state(svc, c)
            assert a.started <= b.started < c.started
            assert svc.top()["busy"] == svc.top()["queue_depth"] == 0


def _exited(pid: int) -> bool:
    """Whether process ``pid`` is gone or a zombie (read, not reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"  # state follows (comm)


def _pool_state(svc, job) -> str:
    """Why a job did not finish: each worker's pid, liveness, kernel wait
    channel and dispatched job, the pending jobs, and the parent's live
    threads."""
    workers = []
    for p in list(svc._workers):
        try:
            wchan = Path(f"/proc/{p.pid}/wchan").read_text() or "-"
        except OSError as exc:
            wchan = f"unreadable ({exc.strerror})"
        workers.append(f"pid={p.pid} alive={p.is_alive()} wchan={wchan} "
                       f"job={svc._running.get(p)}")
    threads = sorted(t.name for t in threading.enumerate())
    return (
        f"{job.id} ended {job.status} (error: {job.error}); "
        f"workers: {'; '.join(workers) or 'none'}; "
        f"pending: {list(svc._pending)}; parent threads: {threads}"
    )


def _serve_in_thread(sock, tmp_path) -> threading.Thread:
    """``serve()`` on ``sock`` in a thread, returned once it accepts."""
    ready = threading.Event()
    t = threading.Thread(
        target=serve,
        kwargs=dict(socket_path=sock, workers=1,
                    store=ResultStore(tmp_path / "store"),
                    ledger=False, ready=lambda _srv: ready.set()),
    )
    t.start()
    assert ready.wait(30), "server never came up"
    return t


def _running_job(client) -> tuple[dict, int]:
    """A job that runs until its worker is killed, once it is running."""
    job = client.submit(sod_request(steps=100000))
    deadline = time.monotonic() + 60
    while (pid := client.status(job["id"])["worker_pid"]) is None:
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.02)
    return job, pid


def _handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if "process_request_thread" in t.name]


class TestSocketFrontEnd:
    @pytest.fixture
    def endpoint(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        t = _serve_in_thread(sock, tmp_path)
        yield sock
        with ServiceClient(sock) as client:
            try:
                client.shutdown()
            except (ServiceUnavailable, RuntimeError):
                pass
        t.join(30)
        assert not t.is_alive()

    def test_submit_watch_result(self, endpoint):
        with ServiceClient(endpoint, timeout=120) as client:
            job = client.submit(sod_request())
            states = [s["status"] for s in client.watch(job["id"], timeout=120)]
            assert states[-1] == "done"
            res = client.result(job["id"])
            direct = api.run("sod", **SOD)
            assert np.array_equal(res.state.rho, direct.state.rho)
            # Second submit: served from the store, no execution.
            assert client.submit(sod_request())["status"] == "cached"
            assert client.ping()["executed"] == 1
            assert len(client.jobs()) == 2
            ping = client.ping()
        assert ping["jobs"] == 2 and ping["store_entries"] == 1
        assert set(ping) == {"ok", "pid", "workers", "jobs", "executed",
                             "store_root", "store_entries"}

    def test_unknown_wire_key_is_a_structured_error_and_no_job(self, endpoint):
        """A dict with a key nobody reads must not run as something else
        (``"nproc": 4`` used to execute, and cache, a serial run)."""
        wire = sod_request().to_dict()
        wire["execution"] = {"nproc": 4}
        with ServiceClient(endpoint, timeout=120) as client:
            with pytest.raises(
                RuntimeError,
                match=r"ValueError: unknown execution field\(s\) \['nproc'\]",
            ):
                client.submit(wire)
            # The error reply left the kept connection usable.
            ping = client.ping()
        assert (ping["jobs"], ping["executed"], ping["store_entries"]) == (0, 0, 0)

    def test_unavailable_raises_with_hint(self, tmp_path):
        with ServiceClient(tmp_path / "nobody-home.sock") as client:
            with pytest.raises(ServiceUnavailable, match="repro serve"):
                client.ping()

    @pytest.fixture
    def accepted(self, monkeypatch):
        """Every connection the server accepts from here on."""
        conns = []
        accept = ServiceServer.get_request

        def counting(srv):
            conns.append(accept(srv))
            return conns[-1]

        monkeypatch.setattr(ServiceServer, "get_request", counting)
        return conns

    def test_calls_share_one_connection(self, endpoint, accepted):
        """Every call of one client thread rides one accepted connection,
        a cache hit's submit + result included; ``watch`` streams over a
        connection of its own."""
        with ServiceClient(endpoint, timeout=120) as client:
            job = client.submit(sod_request())
            client.result(job["id"])
            hit = client.submit(sod_request())
            assert hit["status"] == "cached"
            client.result(hit["id"])
            for _ in range(5):
                client.ping()
            client.jobs()
            client.top()
            assert len(accepted) == 1
            assert list(client.watch(job["id"]))[-1]["status"] == "done"
            assert len(accepted) == 2
            client.ping()
        assert len(accepted) == 2

    def test_client_reconnects_after_server_restart(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        with ServiceClient(sock, timeout=120) as client:
            for _ in range(2):
                t = _serve_in_thread(sock, tmp_path)
                assert client.ping()["executed"] == 0
                client.shutdown()
                t.join(30)
                assert not t.is_alive()

    def test_shutdown_leaves_no_handler_thread(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        t = _serve_in_thread(sock, tmp_path)
        with ServiceClient(sock, timeout=120) as client:
            client.ping()
            # The kept connection holds one handler thread, blocked in
            # its read of the next request.
            assert len(_handler_threads()) == 1
            client.shutdown()
            t.join(30)
            assert not t.is_alive()
            assert _handler_threads() == []
            with pytest.raises(ServiceUnavailable):
                client.ping()

    def test_shutdown_releases_a_client_parked_in_wait(self, tmp_path):
        """A handler blocked in ``wait`` on a running job neither holds
        the shutdown up nor outlives it; its client is told at once."""
        sock = str(tmp_path / "svc.sock")
        t = _serve_in_thread(sock, tmp_path)
        with ServiceClient(sock, timeout=120) as client:
            job, pid = _running_job(client)
            errors = []

            def park():
                try:
                    client.wait(job["id"])
                except ConnectionError as exc:
                    errors.append(exc)

            waiter = threading.Thread(target=park)
            waiter.start()
            time.sleep(0.3)  # the waiter is parked in the server's wait
            client.shutdown()
            waiter.join(30)
            assert not waiter.is_alive() and errors
            # The parked handler returns while the job still runs.
            deadline = time.monotonic() + 10
            while _handler_threads() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert _handler_threads() == []
            os.kill(pid, signal.SIGKILL)  # spares close() its join timeout
            t.join(30)
            assert not t.is_alive()

    def test_blocked_wait_does_not_delay_another_threads_ping(self, endpoint):
        with ServiceClient(endpoint, timeout=120) as client:
            job, pid = _running_job(client)
            waited = []
            waiter = threading.Thread(
                target=lambda: waited.append(client.wait(job["id"]))
            )
            waiter.start()
            time.sleep(0.3)  # the waiter is parked in the server's wait
            t0 = time.monotonic()
            client.ping()
            elapsed = time.monotonic() - t0
            assert waiter.is_alive() and not waited
            os.kill(pid, signal.SIGKILL)  # ends the job, and the wait
            waiter.join(60)
        assert elapsed < 1.0
        assert waited and waited[0]["status"] == "failed"

    def test_forked_child_opens_its_own_connection(self, endpoint, accepted):
        with ServiceClient(endpoint, timeout=120) as client:
            parent_pid = client.ping()["pid"]
            child = os.fork()
            if child == 0:  # never touches the parent's kept socket
                code = 1
                try:
                    code = 0 if client.ping()["pid"] == parent_pid else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(child, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert client.ping()["pid"] == parent_pid
        assert len(accepted) == 2
