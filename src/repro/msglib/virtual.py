"""The virtual cluster: real SPMD execution with one thread per rank.

This is the *correctness* execution substrate (the performance substrate is
the discrete-event simulator in :mod:`repro.simulate`).  Rank programs are
ordinary callables ``fn(comm, *args)``; they exchange numpy arrays through
:class:`VirtualComm` with buffered sends and tag-matched blocking receives.

Typical use::

    cluster = VirtualCluster(4)
    results = cluster.run(my_rank_program, extra_arg)

Failure semantics (the resilience contract the chaos suite exercises):

* any rank exception aborts every mailbox, so ranks blocked on a dead
  peer fail promptly with :class:`~repro.msglib.vchannel.ClusterAborted`
  instead of hanging until the cluster timeout;
* the caller receives a single structured :class:`RankFailure` naming the
  primary failing rank, the solver step it died at (when known), and every
  secondary casualty;
* receives that stall past the (per-call or cluster-default) timeout raise
  :class:`~repro.msglib.vchannel.DeadlockError`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from ..obs import bind_rank
from .api import Communicator, CommStats
from .vchannel import ClusterAborted, Mailbox


class RankFailure(RuntimeError):
    """A rank (or several) died during a :meth:`VirtualCluster.run`.

    Attributes
    ----------
    rank:
        The primary failing rank (the first non-secondary casualty).
    step:
        Solver step the primary failure occurred at, when the underlying
        exception carried one (e.g. an injected crash), else ``None``.
    failures:
        Every ``(rank, step, exception)`` collected from the run —
        secondary :class:`~repro.msglib.vchannel.ClusterAborted` casualties
        included.
    last_good_step:
        Highest checkpointed step available for restart (filled in by the
        checkpointing runner; ``None`` when no checkpointing was active).
    """

    def __init__(
        self,
        rank: int,
        cause: BaseException,
        step: int | None = None,
        failures: tuple[tuple[int, int | None, BaseException], ...] = (),
    ) -> None:
        self.rank = rank
        self.step = step
        self.failures = tuple(failures)
        self.last_good_step: int | None = None
        at = f" at step {step}" if step is not None else ""
        others = [r for r, _, _ in self.failures if r != rank]
        tail = f"; also took down ranks {sorted(others)}" if others else ""
        super().__init__(f"rank {rank} failed{at}: {cause!r}{tail}")

    @property
    def ranks(self) -> list[int]:
        """All ranks that raised, primary first."""
        rest = sorted({r for r, _, _ in self.failures if r != self.rank})
        return [self.rank, *rest]


class VirtualComm(Communicator):
    """Communicator endpoint for one rank of a :class:`VirtualCluster`."""

    def __init__(self, cluster: "VirtualCluster", rank: int) -> None:
        self.cluster = cluster
        self.rank = rank
        self.size = cluster.size
        self.stats = CommStats()

    def _deposit(self, dest: int, tag: str, array: np.ndarray) -> int:
        payload = np.ascontiguousarray(array).copy()
        self.cluster.mailboxes[dest].put(self.rank, tag, payload)
        return payload.nbytes

    def _take(self, source: int, tag: str, timeout: float | None) -> np.ndarray:
        """``timeout`` overrides the cluster default for this call
        (seconds), failing fast with a ``DeadlockError`` that names
        receiver, sender and tag."""
        return self.cluster.mailboxes[self.rank].get(source, tag, timeout=timeout)

    def _probe(self, source: int, tag: str) -> np.ndarray | None:
        return self.cluster.mailboxes[self.rank].try_get(source, tag)


class VirtualCluster:
    """A fixed-size set of ranks with all-to-all mailbox connectivity."""

    def __init__(self, size: int, timeout: float = 120.0) -> None:
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        self.size = size
        self.mailboxes = [Mailbox(r, timeout=timeout) for r in range(size)]
        self.comms = [VirtualComm(self, r) for r in range(size)]

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        per_rank_args: Sequence[tuple] | None = None,
    ) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; returns per-rank results.

        ``per_rank_args`` optionally supplies a distinct argument tuple per
        rank (appended after the shared ``args``).  Any rank exception
        aborts every mailbox (so peers blocked on the dead rank fail fast
        instead of hanging) and is re-raised in the caller as a structured
        :class:`RankFailure` after all threads stop.
        """
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, BaseException]] = []

        def worker(rank: int) -> None:
            extra = per_rank_args[rank] if per_rank_args is not None else ()
            bind_rank(rank)
            try:
                results[rank] = fn(self.comms[rank], *args, *extra)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors.append((rank, exc))
                self.abort(f"rank {rank} died with {exc!r}")

        if self.size == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(target=worker, args=(r,), daemon=True)
                for r in range(self.size)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise self._failure(errors)
        return results

    def abort(self, reason: str) -> None:
        """Poison every mailbox: blocked receives raise ``ClusterAborted``."""
        for mb in self.mailboxes:
            mb.abort(reason)

    @staticmethod
    def _failure(errors: list[tuple[int, BaseException]]) -> RankFailure:
        """Build the structured failure: the primary casualty is the first
        rank that did not merely observe the abort of another rank."""
        primary = [e for e in errors if not isinstance(e[1], ClusterAborted)]
        rank, exc = (primary or errors)[0]
        failures = tuple(
            (r, getattr(e, "step", None), e) for r, e in errors
        )
        failure = RankFailure(
            rank, exc, step=getattr(exc, "step", None), failures=failures
        )
        failure.__cause__ = exc
        return failure

    def total_stats(self) -> CommStats:
        """Aggregate statistics over all ranks."""
        agg = CommStats()
        for c in self.comms:
            agg = agg.merged_with(c.stats)
        return agg
