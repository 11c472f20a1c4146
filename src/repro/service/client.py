"""Client for the Unix-socket run service (``repro submit`` / ``jobs``).

Each (process, thread) keeps one connection, opened on first use, for all
its calls: no request pays a connection set-up, a forked child never
writes into its parent's socket, and a thread blocked in ``wait`` never
delays another's ``ping``.  A kept connection the server closed is
reopened once and the request resent (every op is safe to resend; a
``submit`` dedupes by fingerprint).  ``watch`` and ``tail`` stream over a
connection of their own: a generator may be abandoned mid-stream.
Results come back as real objects: the client reads the payload path
from the server's reply and unpickles it from the shared filesystem.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
from typing import Any, Iterator

from .server import default_socket_path

__all__ = ["ServiceClient", "ServiceUnavailable"]


class ServiceUnavailable(ConnectionError):
    """No service is listening on the control socket."""


class ServiceClient:
    """Talk to a running ``repro serve`` over its Unix socket."""

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        timeout: float | None = None,
    ) -> None:
        self.socket_path = str(socket_path or default_socket_path())
        self.timeout = timeout
        # (pid, thread id) -> (socket, its read file) kept between calls
        self._conns: dict[tuple[int, int], tuple[socket.socket, Any]] = {}

    def close(self) -> None:
        """Close every kept connection (the client stays usable)."""
        for key in list(self._conns):
            self._drop(key)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _connect(self) -> tuple[socket.socket, Any]:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            s.settimeout(self.timeout)
        try:
            s.connect(self.socket_path)
        except (FileNotFoundError, ConnectionRefusedError) as exc:
            s.close()
            raise ServiceUnavailable(
                f"no run service listening on {self.socket_path} "
                "(start one with: repro serve)"
            ) from exc
        return s, s.makefile("rb")

    def _call(self, op: str, **kw) -> dict:
        msg = json.dumps({"op": op, **kw}).encode() + b"\n"
        key = (os.getpid(), threading.get_ident())
        while True:
            reused = key in self._conns
            if not reused:
                self._conns[key] = self._connect()
            s, fh = self._conns[key]
            try:
                s.sendall(msg)
                line = fh.readline()
            except (BrokenPipeError, ConnectionResetError):
                line = b""
            except BaseException:  # a late reply would answer the next call
                self._drop(key)
                raise
            if line.endswith(b"\n"):
                break
            self._drop(key)
            if not reused or line:
                raise ConnectionError(f"service closed the connection mid-{op}")
        resp = json.loads(line)
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", f"{op} failed"))
        return resp

    def _drop(self, key: tuple[int, int]) -> None:
        for part in self._conns.pop(key, ()):
            part.close()

    def _stream(self, op: str, job_id: str, timeout: float | None):
        """Yield each streamed reply line of ``op`` over its own
        connection, up to and including the final one."""
        s, fh = self._connect()
        with s, fh:
            s.sendall(
                json.dumps({"op": op, "job_id": job_id, "timeout": timeout})
                .encode() + b"\n"
            )
            for line in fh:
                resp = json.loads(line)
                if not resp.get("ok"):
                    raise RuntimeError(resp.get("error", f"{op} failed"))
                yield resp
                if resp.get("final"):
                    return

    # -- ops -----------------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")

    def submit(self, request, context=None) -> dict:
        """Submit a RunRequest / ExperimentRequest (or wire dict); returns
        the job record.

        A :class:`~repro.obs.TraceContext` is minted here (origin
        ``"client"``) unless one is passed in, so the job's whole
        execution — service, worker, every forked rank — shares this
        client call's trace id.
        """
        from ..obs import TraceContext

        if context is None:
            context = TraceContext.mint(origin="client")
        wire = request if isinstance(request, dict) else request.to_dict()
        ctx = context if isinstance(context, dict) else context.to_dict()
        return self._call("submit", request=wire, context=ctx)["job"]

    def jobs(self) -> list[dict]:
        return self._call("jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._call("status", job_id=job_id)["job"]

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        return self._call("wait", job_id=job_id, timeout=timeout)["job"]

    def watch(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict]:
        """Yield job snapshots as the service streams transitions."""
        for resp in self._stream("watch", job_id, timeout):
            yield resp["job"]

    def top(self) -> dict:
        """Live service utilization: queue depth, busy workers, dedupe
        hit rate, and per-running-job step rates / balance verdicts."""
        return self._call("top")["top"]

    def tail(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict]:
        """Yield the job's per-step telemetry records as they stream."""
        for resp in self._stream("tail", job_id, timeout):
            if not resp["final"]:
                yield resp["record"]

    def result(self, job_id: str, timeout: float | None = None) -> Any:
        """The completed job's payload (RunResult / experiment text)."""
        resp = self._call("result", job_id=job_id, timeout=timeout)
        with open(resp["payload_path"], "rb") as fh:
            return pickle.load(fh)

    def report(self, job_id: str, timeout: float | None = None) -> dict:
        """The completed job's manifest (PerfReport dict for runs)."""
        return self._call("result", job_id=job_id, timeout=timeout)["report"]

    def shutdown(self) -> None:
        self._call("shutdown")
