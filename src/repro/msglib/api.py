"""The one instrumented message path, and per-rank communication accounting.

The interface is deliberately PVM-flavoured (the paper's primary library):
sends are *buffered* — they deposit the message and return immediately —
and receives block until a matching ``(source, tag)`` message arrives.
This matches how the paper's code communicates (group data into long
vectors, send, continue) and makes the neighbour-exchange patterns
deadlock-free by construction.

Every send/receive on every transport is timed and recorded by
:class:`Communicator` itself, in :class:`CommStats` and in the
:mod:`repro.obs` sinks alike; the distributed solver's statistics are the
*measured* source for the paper's Table 1 (communication startups and
volume per processor).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..obs import current


@dataclass
class CommStats:
    """Per-rank message counts, byte volumes, and library time.

    ``startups`` counts each send *and* each receive as one startup, the
    convention that best matches the magnitude of the paper's Table 1
    (sends alone undercount the library's per-message overheads, which is
    what the startup figure is meant to capture).

    The time dimension (``send_seconds`` / ``recv_seconds``) accumulates
    wall time spent inside the communication calls — the measured
    counterpart of the paper's communication-startup (send side, buffered
    deposit) and data-transfer/wait (receive side, blocking) components.
    ``wait_seconds`` is the part of ``recv_seconds`` spent until the
    message was in this rank's hands: partner skew, the scheduler, and —
    since a transport hands over an owned array — its copy out of
    transport memory.
    """

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    send_seconds: float = 0.0
    recv_seconds: float = 0.0
    wait_seconds: float = 0.0
    max_message_bytes: int = 0
    """Largest single message this rank sent (grouping diagnostics: V5's
    grouped flux pairs double this relative to V7's split columns)."""

    @property
    def startups(self) -> int:
        return self.sends + self.recvs

    @property
    def volume_bytes(self) -> int:
        """Per-processor communication volume (bytes sent), Table 1 style."""
        return self.bytes_sent

    @property
    def comm_seconds(self) -> float:
        """Total wall time inside send + receive calls."""
        return self.send_seconds + self.recv_seconds

    def record_send(self, nbytes: int, seconds: float) -> None:
        self.sends += 1
        self.bytes_sent += nbytes
        self.send_seconds += seconds
        if nbytes > self.max_message_bytes:
            self.max_message_bytes = nbytes

    def record_recv(self, nbytes: int, seconds: float, wait: float) -> None:
        self.recvs += 1
        self.bytes_received += nbytes
        self.recv_seconds += seconds
        self.wait_seconds += wait

    def merged_with(self, other: "CommStats") -> "CommStats":
        return CommStats(
            sends=self.sends + other.sends,
            recvs=self.recvs + other.recvs,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
            send_seconds=self.send_seconds + other.send_seconds,
            recv_seconds=self.recv_seconds + other.recv_seconds,
            wait_seconds=self.wait_seconds + other.wait_seconds,
            max_message_bytes=max(
                self.max_message_bytes, other.max_message_bytes
            ),
        )


class Request:
    """Handle for a non-blocking operation (PVM/MPL ``irecv`` style).

    ``test()`` polls without blocking; ``wait()`` blocks until completion
    and returns the payload (receives) or ``None`` (sends).  The base
    class is the request that completed immediately — what a buffered
    ``isend`` returns.
    """

    def test(self) -> bool:
        return True

    def wait(self):
        return None


#: Stands in for the span a probing receive does not open.
_NO_SPAN = nullcontext()


class PostedRecv(Request):
    """A posted receive (``irecv`` / ``irecv_view``) on any transport.

    ``test()`` asks the transport's probing primitive and completes the
    receive the moment the message has landed; ``wait()`` is the blocking
    ``recv`` / ``recv_view`` call (``kind`` names which).  Either way the
    completion goes through the communicator's one accounting point,
    exactly once.
    """

    def __init__(self, comm, kind: str, source: int, tag: str, timeout) -> None:
        self._comm = comm
        self._args = (kind, source, tag)
        self._timeout = timeout
        self._value = None

    def test(self) -> bool:
        if self._value is None:
            self._value = self._comm._receive(*self._args, probe=True)
        return self._value is not None

    def wait(self):
        if self._value is None:
            kind, source, tag = self._args
            blocking = getattr(self._comm, kind)  # a decorator's override counts
            self._value = blocking(source, tag, timeout=self._timeout)
        return self._value


class MessageView:
    """A received payload behind a scope: read-only ``array``, ``release()``
    exactly once, context manager to do so.

    ``recv_view`` / ``irecv_view`` hand out this type on every transport.
    The payload is owned by the view — no transport lends its memory — so
    releasing frees nothing; what the class keeps is the access discipline
    (no reads after release, a second release raises ``RuntimeError``).
    """

    __slots__ = ("_array", "_released")

    def __init__(self, array: np.ndarray) -> None:
        array.setflags(write=False)
        self._array = array
        self._released = False

    @property
    def array(self) -> np.ndarray:
        if self._released:
            raise RuntimeError("MessageView.array accessed after release()")
        return self._array

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        if self._released:
            raise RuntimeError(
                "MessageView.release() called twice (view already returned)"
            )
        self._released = True
        self._array = None

    def __enter__(self) -> "MessageView":
        return self

    def __exit__(self, *exc) -> None:
        if not self._released:
            self.release()


class Communicator:
    """Point-to-point + collective interface for SPMD programs.

    This class is the one place a message is validated, timed and
    accounted: the public calls below open the ``comm.*`` span, time the
    call and report it once — to :class:`CommStats` and, as one
    ``message`` event, to whatever :mod:`repro.obs` sinks are installed —
    the same way on every transport.  A transport only moves bytes,
    through three primitives:

    * :meth:`_deposit` — buffered send of a copy, returns its byte count;
    * :meth:`_take` / :meth:`_probe` — the ``(source, tag)`` payload as an
      array the caller owns, blocking or only if it has already arrived.

    A decorator (:class:`~repro.faults.FaultyComm`) overrides the public
    calls instead and shares the wrapped endpoint's ``stats``.
    """

    rank: int
    size: int
    stats: CommStats

    # -- transport primitives --------------------------------------------------
    def _deposit(self, dest: int, tag: str, array: np.ndarray) -> int:
        raise NotImplementedError

    def _take(self, source: int, tag: str, timeout: float | None):
        raise NotImplementedError

    def _probe(self, source: int, tag: str):
        """Default for transports without a probing mailbox: never ready,
        so a posted receive completes at ``wait()``."""
        return None

    # -- the one accounting point ----------------------------------------------
    def _mark(self, kind: str, **fields) -> None:
        """A post-mortem breadcrumb of this rank (a transport's too: the
        transports name nothing from :mod:`repro.obs`)."""
        current().mark(kind, self.rank, **fields)

    def _account(
        self, kind: str, peer: int, tag: str, nbytes: int, seconds: float,
        wait: float = 0.0,
    ) -> None:
        """Record one completed message: in ``stats``, and as one event.
        ``wait`` is the part of a receive's ``seconds`` spent blocked
        before the message had arrived."""
        if kind == "send":
            self.stats.record_send(nbytes, seconds)
        else:
            self.stats.record_recv(nbytes, seconds, wait)
        current().message(kind, self.rank, peer, tag, nbytes, seconds, wait)

    def _receive(
        self, kind: str, source: int, tag: str, timeout=None, probe=False
    ):
        """Every receive completes here.  ``probe`` only asks whether the
        message has landed (``None`` if not) and opens no span — a polling
        loop would flood the trace — but a completion is accounted with
        the time the probe took.  The clock is read once more when the
        transport returns, so a receive is accounted as *until the item
        was in hand* (``wait``) plus what this class does with it."""
        span = _NO_SPAN if probe else current().span(
            f"comm.{kind}", cat="comm", rank=self.rank, peer=source, tag=tag
        )
        with span:
            t0 = _time.perf_counter()
            if probe:
                item = self._probe(source, tag)
                if item is None:
                    return None
            else:
                item = self._take(source, tag, timeout)
            arrived = _time.perf_counter()
            value = MessageView(item) if kind == "recv_view" else item
            seconds = _time.perf_counter() - t0
        self._account(kind, source, tag, item.nbytes, seconds, arrived - t0)
        return value

    # -- point to point ------------------------------------------------------
    def send(self, dest: int, tag: str, array: np.ndarray) -> None:
        """Buffered send: deposits a copy and returns immediately."""
        if not (0 <= dest < self.size) or dest == self.rank:
            raise ValueError(f"invalid destination {dest} from rank {self.rank}")
        with current().span(
            "comm.send", cat="comm", rank=self.rank, peer=dest, tag=tag
        ):
            t0 = _time.perf_counter()
            nbytes = self._deposit(dest, tag, array)
            seconds = _time.perf_counter() - t0
        self._account("send", dest, tag, nbytes, seconds)

    def recv(
        self, source: int, tag: str, timeout: float | None = None
    ) -> np.ndarray:
        """Blocking receive of the message matching ``(source, tag)``.

        ``timeout`` optionally bounds this call in seconds (overriding any
        backend default); on expiry the backend raises
        :class:`~repro.msglib.vchannel.DeadlockError` naming receiver,
        sender and tag so a mis-tagged send fails fast instead of hanging.
        """
        return self._receive("recv", source, tag, timeout)

    # -- non-blocking variants (paper Version 6's primitive) -------------------
    def isend(self, dest: int, tag: str, array: np.ndarray) -> Request:
        """Non-blocking send.  With buffered semantics this completes
        immediately (the paper's PVM behaves the same way)."""
        self.send(dest, tag, array)
        return Request()

    def irecv(
        self, source: int, tag: str, timeout: float | None = None
    ) -> Request:
        """Non-blocking receive: returns a request to poll or wait on.

        ``timeout`` bounds the eventual ``wait()`` exactly like
        :meth:`recv`'s — an irecv against a crashed peer fails fast
        instead of hanging for the backend default.  ``test()`` makes true
        progress on transports with a probing mailbox (virtual: the
        mailbox; process: the control pipe) and stays false until
        ``wait()`` elsewhere.
        """
        return PostedRecv(self, "recv", source, tag, timeout)

    def recv_view(
        self, source: int, tag: str, timeout: float | None = None
    ) -> MessageView:
        """:meth:`recv` with the payload behind a :class:`MessageView`
        (read-only, released once) — same copy, tag matching, timeouts,
        abort behaviour and accounting, recorded as a ``recv_view``."""
        return self._receive("recv_view", source, tag, timeout)

    def irecv_view(
        self, source: int, tag: str, timeout: float | None = None
    ) -> Request:
        """Non-blocking :meth:`recv_view`: ``wait()`` yields the view."""
        return PostedRecv(self, "recv_view", source, tag, timeout)

    # -- collectives (generic implementations over send/recv) -----------------
    def _collective_tag(self, tag: str) -> str:
        """Wire tag for one collective call: the caller's tag plus this
        communicator's monotonic collective sequence number.

        Every rank enters the same collectives in the same order (SPMD),
        so the counters advance in lockstep and the suffix matches across
        ranks.  Without it, consecutive collectives called with the same
        tag (the defaults: ``"allreduce"``, ``"barrier"``, ``"gather"``)
        share wire tags, and on an at-least-once transport a duplicated
        or reordered message from collective *N* satisfies collective
        *N+1*'s receive, silently returning a stale value.
        """
        seq = getattr(self, "_collective_seq", 0)
        self._collective_seq = seq + 1
        return f"{tag}#{seq}"

    def allreduce_min(self, value: float, tag: str = "allreduce") -> float:
        """Global minimum via gather-to-root + broadcast."""
        if self.size == 1:
            return value
        wire = self._collective_tag(tag)
        self._mark("collective", tag=wire, op="allreduce_min")
        obs = current()
        with obs.span("comm.allreduce", cat="collective", rank=self.rank, tag=tag):
            t0 = _time.perf_counter()
            buf = np.array([value])
            if self.rank == 0:
                acc = float(value)
                for src in range(1, self.size):
                    acc = min(acc, float(self.recv(src, f"{wire}:up")[0]))
                out = np.array([acc])
                for dst in range(1, self.size):
                    self.send(dst, f"{wire}:down", out)
            else:
                self.send(0, f"{wire}:up", buf)
                acc = float(self.recv(0, f"{wire}:down")[0])
            obs.count(
                "comm.barrier_wait_seconds", _time.perf_counter() - t0, rank=self.rank
            )
            return acc

    def barrier(self, tag: str = "barrier") -> None:
        """Synchronize all ranks."""
        self.allreduce_min(0.0, tag=tag)

    def gather_arrays(self, array: np.ndarray, tag: str = "gather"):
        """Gather per-rank arrays to rank 0; returns list there, None else.

        Every slot of the returned list is an independent copy — rank 0's
        own contribution included, so a caller that reuses its send buffer
        after the gather cannot corrupt the gathered state.
        """
        wire = self._collective_tag(tag)
        self._mark("collective", tag=wire, op="gather_arrays")
        if self.rank == 0:
            out = [np.ascontiguousarray(array).copy()]
            for src in range(1, self.size):
                out.append(self.recv(src, wire))
            return out
        self.send(0, wire, array)
        return None
