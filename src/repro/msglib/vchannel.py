"""In-process mailboxes with tagged, source-matched delivery.

Each rank owns one :class:`Mailbox`.  Senders deposit ``(source, tag,
payload)`` envelopes (never blocking — PVM-style buffered semantics);
receivers block on the mailbox until an envelope matching their
``(source, tag)`` arrives.  Out-of-order arrivals are stashed so message
selectivity works exactly like PVM's ``pvm_recv(tid, tag)``.

Two failure channels exist:

* a receive that outlives its (per-call or cluster-default) timeout raises
  :class:`DeadlockError` naming receiver, sender and tag — a mis-tagged
  send therefore fails fast instead of hanging the suite;
* :meth:`Mailbox.abort` poisons the mailbox: any current or future blocked
  receive raises :class:`ClusterAborted`.  The virtual cluster aborts all
  mailboxes the moment any rank dies, turning a would-be hang into a
  prompt, structured failure.
"""

from __future__ import annotations

import queue
import threading
import time as _time
from collections import defaultdict, deque

import numpy as np


class DeadlockError(RuntimeError):
    """Raised when a receive waits longer than its timeout."""


class ClusterAborted(RuntimeError):
    """Raised in ranks blocked on a mailbox after another rank failed."""


#: Source value of the internal wake-up envelope deposited by ``abort``.
_ABORT_SRC = None


class TagStash(defaultdict):
    """Arrived-but-unclaimed items, ``(source, tag) -> deque`` in arrival
    order, shared by the mailbox and the process communicator.

    Append with ``stash[key].append(item)``; claim with :meth:`take`,
    which looks up without inserting and drops a key once its deque is
    drained.  Tags carry the step number, so a key never comes back: an
    empty deque left behind per message is a leak (≈ 0.9 KB each).
    """

    def __init__(self) -> None:
        super().__init__(deque)

    def take(self, key: tuple[int, str]):
        """The oldest item under ``key``, or ``None``."""
        items = self.get(key)
        if not items:
            return None
        item = items.popleft()
        if not items:
            del self[key]
        return item


class Mailbox:
    """Tagged mailbox for one receiving rank."""

    def __init__(self, owner: int, timeout: float = 60.0) -> None:
        self.owner = owner
        self.timeout = timeout
        self._incoming: queue.Queue = queue.Queue()
        self._stash = TagStash()
        self._lock = threading.Lock()
        self._aborted: str | None = None

    def put(self, source: int, tag: str, payload: np.ndarray) -> None:
        """Deposit an envelope (called from the sender's thread)."""
        self._incoming.put((source, tag, payload))

    def abort(self, reason: str) -> None:
        """Poison the mailbox: blocked and future receives raise
        :class:`ClusterAborted` with ``reason``."""
        self._aborted = reason
        # Wake a blocked owner promptly with a sentinel envelope.
        self._incoming.put((_ABORT_SRC, "", None))

    def _raise_aborted(self, source: int, tag: str) -> None:
        raise ClusterAborted(
            f"rank {self.owner}: cluster aborted while waiting for message "
            f"from {source} tag {tag!r}: {self._aborted}"
        )

    def try_get(self, source: int, tag: str):
        """Non-blocking probe: the matching payload, or ``None``.

        Drains any queued envelopes into the stash first, so a message
        that has already arrived is found regardless of arrival order.
        """
        key = (source, tag)
        with self._lock:
            while True:
                try:
                    src, t, payload = self._incoming.get_nowait()
                except queue.Empty:
                    break
                if src is _ABORT_SRC:
                    continue
                self._stash[(src, t)].append(payload)
            payload = self._stash.take(key)
        if payload is not None:
            return payload
        if self._aborted is not None:
            self._raise_aborted(source, tag)
        return None

    def get(
        self, source: int, tag: str, timeout: float | None = None
    ) -> np.ndarray:
        """Block until the envelope matching ``(source, tag)`` arrives.

        ``timeout`` overrides the mailbox default for this call only; the
        deadline covers the whole call (unmatched arrivals do not reset
        it).
        """
        limit = self.timeout if timeout is None else timeout
        key = (source, tag)
        with self._lock:
            payload = self._stash.take(key)
        if payload is not None:
            return payload
        deadline = _time.monotonic() + limit
        while True:
            if self._aborted is not None:
                self._raise_aborted(source, tag)
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise DeadlockError(
                    f"rank {self.owner}: no message from {source} tag {tag!r} "
                    f"within {limit}s (likely deadlock, tag mismatch, or a "
                    "lost message)"
                )
            try:
                src, t, payload = self._incoming.get(timeout=remaining)
            except queue.Empty:
                raise DeadlockError(
                    f"rank {self.owner}: no message from {source} tag {tag!r} "
                    f"within {limit}s (likely deadlock, tag mismatch, or a "
                    "lost message)"
                ) from None
            if src is _ABORT_SRC:
                continue  # the loop re-checks the aborted flag
            if (src, t) == key:
                return payload
            with self._lock:
                self._stash[(src, t)].append(payload)

    def pending(self) -> int:
        """Number of stashed (unconsumed) envelopes — should be 0 at exit."""
        with self._lock:
            return sum(len(d) for d in self._stash.values()) + self._incoming.qsize()
