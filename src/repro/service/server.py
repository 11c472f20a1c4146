"""Unix-domain-socket front end for :class:`~repro.service.RunService`.

Protocol: newline-delimited JSON, one request per connection.  The client
sends one object ``{"op": ..., ...}``; the server answers with one
``{"ok": true, ...}`` line (or ``{"ok": false, "error": ...}``).  The
``watch`` op streams one line per job transition and closes after the
terminal one — job status streaming over a raw socket, no framework.

Result payloads never cross the socket: ``result`` returns the store
entry's manifest plus the payload *path*, and the client unpickles it
from the shared filesystem (server and clients sit on one machine, by
construction of a Unix socket).

Ops: ``ping``, ``submit``, ``jobs``, ``status``, ``wait``, ``watch``,
``result``, ``top``, ``tail``, ``shutdown``.

``submit`` accepts an optional ``context`` (a
:class:`~repro.obs.TraceContext` wire dict) so the client's trace id rides
the socket into the service, the worker, and every rank.  ``tail``
streams the job's live per-step telemetry records exactly like ``watch``
streams status transitions.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
from pathlib import Path

from ..config import default_service_dir
from .service import RunService

__all__ = ["SOCKET_ENV", "ServiceServer", "default_socket_path", "serve"]

#: Environment variable overriding the control socket location.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"


def default_socket_path() -> Path:
    env = os.environ.get(SOCKET_ENV)
    if env:
        return Path(env)
    return default_service_dir() / "repro.sock"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one JSON request per connection
        server: "ServiceServer" = self.server  # type: ignore[assignment]
        line = self.rfile.readline()
        if not line:
            return
        try:
            req = json.loads(line)
            op = req.get("op")
            fn = getattr(self, f"_op_{op}", None)
            if fn is None:
                raise ValueError(f"unknown op {op!r}")
            fn(server.service, req)
        except Exception as exc:  # malformed input must not kill the server
            self._send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})

    def _send(self, obj: dict) -> None:
        try:
            self.wfile.write(json.dumps(obj).encode() + b"\n")
            self.wfile.flush()
        except (BrokenPipeError, OSError):
            pass  # client went away mid-stream

    # -- ops -----------------------------------------------------------------

    def _op_ping(self, svc: RunService, req: dict) -> None:
        self._send({
            "ok": True,
            "pid": os.getpid(),
            "workers": svc.workers,
            "jobs": svc.job_count,
            "executed": svc.executed,
            "store_root": str(svc.store.root),
            "store_entries": len(svc.store),
        })

    def _op_submit(self, svc: RunService, req: dict) -> None:
        job = svc.submit(req["request"], context=req.get("context"))
        self._send({"ok": True, "job": job.to_dict()})

    def _op_jobs(self, svc: RunService, req: dict) -> None:
        self._send({"ok": True, "jobs": [j.to_dict() for j in svc.jobs()]})

    def _op_status(self, svc: RunService, req: dict) -> None:
        self._send({"ok": True, "job": svc.job(req["job_id"]).to_dict()})

    def _op_wait(self, svc: RunService, req: dict) -> None:
        job = svc.wait(req["job_id"], timeout=req.get("timeout"))
        self._send({
            "ok": True,
            "job": job.to_dict(),
            "timed_out": not job.terminal,
        })

    def _op_watch(self, svc: RunService, req: dict) -> None:
        for snap in svc.watch(req["job_id"], timeout=req.get("timeout")):
            self._send({
                "ok": True,
                "job": snap.to_dict(),
                "final": snap.terminal,
            })

    def _op_result(self, svc: RunService, req: dict) -> None:
        job = svc.wait(req["job_id"], timeout=req.get("timeout"))
        if job.status == "failed":
            self._send({
                "ok": False,
                "error": f"{job.id} failed: {job.error}",
                "job": job.to_dict(),
            })
            return
        if not job.terminal:
            self._send({
                "ok": False,
                "error": f"{job.id} still {job.status} (timeout)",
                "job": job.to_dict(),
            })
            return
        svc.store.refresh()
        entry = svc.store.get(job.fingerprint)
        if entry is None:
            self._send({
                "ok": False,
                "error": f"{job.id}: store entry vanished",
            })
            return
        self._send({
            "ok": True,
            "job": job.to_dict(),
            "report": entry.report,
            "kind": entry.kind,
            "payload_path": str(svc.store.root / entry.payload),
        })

    def _op_top(self, svc: RunService, req: dict) -> None:
        self._send({"ok": True, "top": svc.top()})

    def _op_tail(self, svc: RunService, req: dict) -> None:
        for record in svc.tail(req["job_id"], timeout=req.get("timeout")):
            self._send({"ok": True, "record": record, "final": False})
        self._send({"ok": True, "record": None, "final": True})

    def _op_shutdown(self, svc: RunService, req: dict) -> None:
        self._send({"ok": True, "stopping": True})
        # shutdown() must come from another thread (it joins the serve loop)
        threading.Thread(
            target=self.server.shutdown, daemon=True  # type: ignore[attr-defined]
        ).start()


class ServiceServer(socketserver.ThreadingUnixStreamServer):
    """Threaded Unix-socket server bound to a :class:`RunService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: RunService,
        socket_path: str | os.PathLike | None = None,
    ) -> None:
        self.service = service
        path = Path(socket_path) if socket_path else default_socket_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()  # stale socket from a previous serve
        self.socket_path = path
        super().__init__(str(path), _Handler)

    def server_close(self) -> None:
        super().server_close()
        try:
            self.socket_path.unlink()
        except OSError:
            pass


def serve(
    socket_path: str | os.PathLike | None = None,
    workers: int = 2,
    store=None,
    *,
    ledger: bool = True,
    ready=None,
) -> None:
    """Run the service + socket server until ``shutdown`` (blocking).

    ``ready`` (optional) is a callable invoked with the bound
    :class:`ServiceServer` once accepting — tests use it to coordinate.
    """
    with RunService(workers=workers, store=store, ledger=ledger) as svc:
        server = ServiceServer(svc, socket_path)
        try:
            if ready is not None:
                ready(server)
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
