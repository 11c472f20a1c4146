"""Run service: worker pool, fingerprint dedupe, persistent result store,
crash handling, and the Unix-socket front end."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

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
    ServiceUnavailable,
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
        """``tail`` on a cache-resolved job must not wait the grace window.

        Cached jobs never executed in this service, so no step stream will
        ever appear; tail yields a single served-from-cache marker at once
        instead of blocking until the tail grace deadline expires."""
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
        assert elapsed < 0.25  # well under the 0.5 s tail grace
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
            assert svc.wait(j2.id, timeout=120).status == "done"
            assert svc.result(j2.id).steps == SOD["steps"]


class TestSocketFrontEnd:
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
        except (ServiceUnavailable, RuntimeError):
            pass
        t.join(30)
        assert not t.is_alive()

    def test_submit_watch_result(self, endpoint):
        client = ServiceClient(endpoint, timeout=120)
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
        client = ServiceClient(endpoint, timeout=120)
        wire = sod_request().to_dict()
        wire["execution"] = {"nproc": 4}
        with pytest.raises(
            RuntimeError,
            match=r"ValueError: unknown execution field\(s\) \['nproc'\]",
        ):
            client.submit(wire)
        ping = client.ping()
        assert (ping["jobs"], ping["executed"], ping["store_entries"]) == (0, 0, 0)

    def test_unavailable_raises_with_hint(self, tmp_path):
        client = ServiceClient(tmp_path / "nobody-home.sock")
        with pytest.raises(ServiceUnavailable, match="repro serve"):
            client.ping()
