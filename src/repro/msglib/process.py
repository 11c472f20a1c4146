"""The process cluster: real multi-core SPMD execution, one OS process per rank.

The virtual cluster (:mod:`repro.msglib.virtual`) runs every rank on a
daemon *thread* — real message passing, but the ranks run concurrently
only inside calls that release the GIL (the compiled kernels' foreign
calls among them).  This module is the third execution substrate:
:class:`ProcessCluster` forks one worker process per rank and
:class:`ProcessCommunicator` implements the same :class:`Communicator`
contract over two planes:

* a **shared-memory data plane** — one POSIX shared-memory segment
  (:class:`multiprocessing.shared_memory.SharedMemory`) carved into a
  fixed ring of slots per directed ``src -> dst`` channel.  A send packs
  the payload straight into its channel's next slot with one vectorized
  ``np.copyto`` (no pickling, whatever the size).  A payload larger than
  a slot crosses as consecutive slot-sized byte pieces of the same ring,
  reassembled per source by the receiver.  One rule frees a slot:
  *the receive that reads a slot's descriptor copies the payload out and
  frees the slot*, whatever tag that receive is waiting for — so no
  transport memory is held between two calls, and slots come free in the
  order they were filled.  Each channel counts its free slots in one
  semaphore, so senders keep PVM's buffered deposit-and-return semantics
  up to the ring depth.  A sender that finds its ring full reads its own
  pending descriptors before each wait, which frees its peers' slots: two
  ranks flooding each other head to head both finish, and only a peer
  that enters no send or receive at all can wedge its sender;
* a **pipe control plane** — one ``Pipe(duplex=False)`` per rank carrying
  the small records a blocked receive waits for: ``("shm", ...)`` and
  ``("piece", ...)`` slot descriptors and ``("abort", reason)`` notices.
  Any process may write a rank's pipe, *synchronously*, under that rank's
  lock: the record is readable the moment ``send`` returns.  (A
  :class:`multiprocessing.Queue` hands the write to a feeder thread that
  must first win the GIL from a sender which has gone back to computing —
  that wait, not the copy, was most of a message's latency.)  The write
  never blocks: a descriptor is ~150 bytes and at most ring depth x peers
  of them are ever unread, far below the pipe's capacity.

Tag matching, ``(source, tag)`` selectivity with a stash, per-call
``recv(timeout=)`` and the mailbox failure contract
(:class:`~repro.msglib.vchannel.DeadlockError`,
:class:`~repro.msglib.vchannel.ClusterAborted`) mirror
:class:`~repro.msglib.vchannel.Mailbox` exactly.  A blocked receive does
not sleep at once: it polls the pipe and yields the CPU in turn for up to
:data:`_SPIN`, then sleeps (:meth:`ProcessCommunicator._take`).

Failure semantics match the virtual cluster: any worker exception is
shipped back structured, the parent broadcasts an abort to every rank
(blocked receives fail promptly), and the caller gets one
:class:`~repro.msglib.virtual.RankFailure`.  A worker that dies without
reporting (killed, segfault) is detected by liveness polling and treated
the same way, so the cluster never hangs on a silent death.

Observability composes by *local record, exact merge*
(:class:`repro.obs.ForkedRanks`): what each worker records rank-locally
is shipped back with its result and folded into the parent's sinks, so a
process run's metrics are bitwise-independent of rank completion order.

Requires the ``fork`` start method (rank programs are closures; POSIX
only) — :class:`ProcessCluster` raises a clear error where unavailable.
"""

from __future__ import annotations

import math
import multiprocessing as _mp
import os
import pickle
import queue as _queue
import time as _time
from multiprocessing import shared_memory as _shm
from typing import Any, Callable, Sequence

import numpy as np

from ..obs import ForkedRanks
from .api import Communicator, CommStats
from .vchannel import ClusterAborted, DeadlockError, TagStash
from .virtual import RankFailure, VirtualCluster

__all__ = [
    "ProcessCluster",
    "ProcessCommunicator",
    "ProcessComm",
    "RemoteRankError",
]

#: Bytes per shared-memory slot.  Sized for one grouped halo message,
#: ``H * line * 32`` B (``halo_depth`` lines of 4 float64 variables): for
#: Navier-Stokes on the paper's 250x100 grid 25 600 B axial and 64 000 B
#: radial — the radial one fits by 1 536 B (``tests/test_process.py`` pins
#: both).  A larger payload crosses as several slot-sized pieces of the same
#: ring (a halo one byte over would be two); nothing is pickled.
DEFAULT_SLOT_BYTES = 1 << 16

#: Slots per directed channel — the buffered-send ring depth.
DEFAULT_SLOTS_PER_CHANNEL = 8

#: Poll interval for abort-aware blocking waits (seconds).
_POLL = 0.05

#: How long a blocked receive spins on its pipe — ``poll(0)`` and
#: ``os.sched_yield()`` in turn — before it sleeps in ``poll(_POLL)``.
#: A sleeping receiver halts its vCPU, and waking it costs the sender and
#: the receiver more than the message does (one way 6400 B: 92 us asleep,
#: 34 us spinning).  A constant, because the result is flat in it: on the
#: paper's grid 2 ranks read 3.4-3.6 / 3.3-3.7 / 3.5-3.8 ms/step at
#: 0.5 / 2 / 5 ms and 4 ranks on 2 vCPUs 8.0-8.5 / 8.1-8.6 / 7.6-8.4
#: (parent 9.1-12.9).  2 ms is > 99 % of the waits of a balanced 2-rank
#: step (< 1 ms); what outlives it — a gather, a straggler, a dead
#: peer — is worth sleeping through.  The yield is not optional: without
#: it 4 ranks on 2 vCPUs take 16.5 ms/step (DESIGN section 11).
_SPIN = 0.002

class RemoteRankError(RuntimeError):
    """A worker failure whose original exception could not cross the
    process boundary intact (unpicklable, or the worker died without
    reporting).  Carries the original type name and, when known, the
    solver step (``.step``) so restart bookkeeping still works."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.original_type: str | None = None
        self.step: int | None = None


def _portable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a structured
    :class:`RemoteRankError` preserving type name, message and step."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc):
            return exc
    except Exception:  # noqa: BLE001 - any pickling failure takes the fallback
        pass
    wrapped = RemoteRankError(f"{type(exc).__name__}: {exc}")
    wrapped.original_type = type(exc).__name__
    wrapped.step = getattr(exc, "step", None)
    return wrapped


class ProcessCommunicator(Communicator):
    """Communicator endpoint for one rank of a :class:`ProcessCluster`.

    Constructed inside the worker process (the cluster object arrives by
    fork inheritance, never pickled).  Point-to-point traffic crosses
    through shared memory, one slot (or, if larger, one slot-sized piece)
    per descriptor on the destination's pipe.
    Only the transport primitives live here; validation, timing and
    accounting are :class:`~repro.msglib.api.Communicator`'s.
    """

    def __init__(self, cluster: "ProcessCluster", rank: int) -> None:
        self.cluster = cluster
        self.rank = rank
        self.size = cluster.size
        self.stats = CommStats()
        self._rx = cluster._ctl_rx[rank]
        # Per source, the message whose pieces are still arriving and the
        # count of its bytes already in: a source's pieces arrive in order.
        self._partial: dict[int, tuple[np.ndarray, int]] = {}
        self._stash = TagStash()
        self._tx_seq = [0] * cluster.size
        self._aborted: str | None = None

    # -- shared-memory ring helpers --------------------------------------------
    def _free_slots(self, src: int, dst: int):
        """The semaphore counting the free slots of channel ``src -> dst``."""
        return self.cluster._ring_sems[src * self.size + dst]

    def _pack(self, dest: int, payload: np.ndarray) -> int:
        """Copy ``payload`` into the next ring slot of ``self -> dest``;
        returns the slot index.  Slots are written and freed in the same
        strict sequence, so a free slot is always the next one.  With none
        free the send ingests its own pending descriptors before each wait
        — freeing the slots of a peer that may be blocked sending to this
        rank — and blocks (abort-aware) until the receiver reads one: the
        bounded counterpart of PVM's buffered deposit."""
        slot = self._tx_seq[dest] % self.cluster.slots_per_channel
        sem = self._free_slots(self.rank, dest)
        deadline = _time.monotonic() + self.cluster.timeout
        waited = False
        while not sem.acquire(False):
            self._drain()
            if sem.acquire(timeout=_POLL):
                break
            if not waited:
                waited = True
                self._mark("slot_wait", peer=dest, slot=slot)
            if self.cluster._abort.is_set():
                raise ClusterAborted(
                    f"rank {self.rank}: cluster aborted while sending to "
                    f"{dest}"
                )
            if _time.monotonic() > deadline:
                raise DeadlockError(
                    f"rank {self.rank}: slot {slot} to {dest} stayed "
                    f"occupied for {self.cluster.timeout}s "
                    f"({self.cluster.slots_per_channel}-slot ring; receiver "
                    "stuck, dead, or never entering a send or receive)"
                )
        self._tx_seq[dest] += 1
        np.copyto(
            self._slot_array(self.rank, dest, slot, payload.shape, payload.dtype),
            payload,
        )
        return slot

    def _slot_array(self, src: int, dst: int, slot: int, shape, dtype) -> np.ndarray:
        """An array aliasing a ring slot of ``src -> dst`` (no copy)."""
        index = (src * self.size + dst) * self.cluster.slots_per_channel + slot
        return np.frombuffer(
            self.cluster._shm.buf, dtype=np.dtype(dtype), count=math.prod(shape),
            offset=index * self.cluster.slot_bytes,
        ).reshape(shape)

    # -- point to point --------------------------------------------------------
    def _deposit(self, dest: int, tag: str, array: np.ndarray) -> int:
        payload = np.ascontiguousarray(array)
        shape, dtype = payload.shape, payload.dtype.str
        step = self.cluster.slot_bytes
        if payload.nbytes <= step:
            slot = self._pack(dest, payload)
            self._post(dest, ("shm", self.rank, tag, slot, shape, dtype))
            return payload.nbytes
        data = payload.reshape(-1).view(np.uint8)
        for start in range(0, data.size, step):
            slot = self._pack(dest, data[start:start + step])
            self._post(dest, ("piece", self.rank, tag, slot, shape, dtype))
        return payload.nbytes

    def _post(self, dest: int, record: tuple) -> None:
        """Write one control record into ``dest``'s pipe; abort-aware,
        because a rank killed mid-write keeps the pipe's lock."""
        while not self.cluster._post(dest, record):
            if self.cluster._abort.is_set():
                raise ClusterAborted(
                    f"rank {self.rank}: cluster aborted while sending to "
                    f"{dest}"
                )

    def _raise_aborted(self, source: int, tag: str) -> None:
        raise ClusterAborted(
            f"rank {self.rank}: cluster aborted while waiting for message "
            f"from {source} tag {tag!r}: {self._aborted}"
        )

    def _ingest(self, record: tuple) -> None:
        """Stash one control record's payload under its (source, tag).

        A slot descriptor's payload is copied out and its slot freed here,
        by whichever receive (or blocked send) read it: a sender never
        blocks just because the receiver is waiting on a different tag.
        A piece is copied into its message's buffer, which is stashed
        once its last piece is in."""
        kind = record[0]
        if kind == "shm":
            _, src, tag, slot, shape, dtype = record
            payload = self._slot_array(src, self.rank, slot, shape, dtype).copy()
            self._free_slots(src, self.rank).release()
            self._stash[(src, tag)].append(payload)
        elif kind == "piece":
            _, src, tag, slot, shape, dtype = record
            whole, done = self._partial.pop(src, None) or (np.empty(shape, dtype), 0)
            data = whole.reshape(-1).view(np.uint8)
            n = min(self.cluster.slot_bytes, data.size - done)
            data[done:done + n] = self._slot_array(
                src, self.rank, slot, (n,), np.uint8
            )
            self._free_slots(src, self.rank).release()
            if done + n < data.size:
                self._partial[src] = (whole, done + n)
            else:
                self._stash[(src, tag)].append(whole)
        elif kind == "abort":
            self._aborted = record[1]

    def _drain(self) -> None:
        """Ingest every record already in the pipe, without waiting."""
        while self._rx.poll():
            self._ingest(self._rx.recv())

    def _take(self, source: int, tag: str, timeout: float | None):
        """Blocking tag-matched fetch with Mailbox-identical semantics.

        A receive that finds nothing first *spins*: for up to
        :data:`_SPIN` it polls the pipe without sleeping and yields the
        CPU between polls, so a descriptor written meanwhile is picked up
        by a receiver that never left its core.  Only then does it sleep
        in ``poll(_POLL)``.  Abort and the deadline sit where they always
        did; the spin merely postpones the first sleep."""
        limit = self.cluster.timeout if timeout is None else timeout
        key = (source, tag)
        deadline = _time.monotonic() + limit
        spin_until = min(deadline, _time.monotonic() + _SPIN)
        while True:
            item = self._stash.take(key)
            if item is not None:
                return item
            if self._aborted is not None or self.cluster._abort.is_set():
                # abort() raises the flag, then posts the notice naming the
                # reason: whoever saw only the flag gives the notice one
                # bounded poll to come through the pipe.
                while self._aborted is None and self._rx.poll(_POLL):
                    self._ingest(self._rx.recv())
                if self._aborted is None:
                    self._aborted = "cluster abort flagged"
                self._raise_aborted(source, tag)
            now = _time.monotonic()
            remaining = deadline - now
            if remaining <= 0:
                raise DeadlockError(
                    f"rank {self.rank}: no message from {source} tag {tag!r} "
                    f"within {limit}s (likely deadlock, tag mismatch, or a "
                    "lost message)"
                )
            if now < spin_until:
                if not self._rx.poll(0):
                    os.sched_yield()
                    continue
            elif not self._rx.poll(min(remaining, _POLL)):
                continue
            self._ingest(self._rx.recv())

    def _probe(self, source: int, tag: str):
        self._drain()
        return self._stash.take((source, tag))

    def pending(self) -> int:
        """Stashed (unconsumed) envelopes — should be 0 at a clean exit."""
        return sum(len(d) for d in self._stash.values())


#: Short alias, mirroring ``VirtualComm``.
ProcessComm = ProcessCommunicator


def bind_to_parent_lifetime() -> None:
    """Ask the kernel to SIGTERM this process when its parent dies.

    A SIGKILLed cluster parent (e.g. a run-service worker) must not leave
    immortal rank orphans: an orphan's queue feeder threads block forever
    on pipes nobody reads, and the orphan holds every inherited file
    descriptor — including stdio, which hangs any pipeline reading the
    original process's output.  Linux-only (``PR_SET_PDEATHSIG``);
    elsewhere this is a silent no-op and orphans fall back to
    communication timeouts.
    """
    try:
        import ctypes
        import signal as _signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, _signal.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError, TypeError):  # pragma: no cover
        pass


def _worker_main(
    cluster: "ProcessCluster",
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    extra: tuple,
) -> None:
    """Worker-process entry: run the rank program, ship the outcome
    (with what this rank's own sinks recorded, for an exact merge)."""
    bind_to_parent_lifetime()
    if os.getppid() != cluster._owner_pid:
        os._exit(1)  # parent died before the death signal was armed
    comm = ProcessCommunicator(cluster, rank)
    cluster._sinks.enter(rank)
    try:
        value = fn(comm, *args, *extra)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        outcome = ("error", rank, _portable_exception(exc))
    else:
        outcome = ("result", rank, value)
    cluster._to_parent.put((*outcome, comm.stats, cluster._sinks.shipment()))


class ProcessCluster:
    """A fixed-size set of ranks, one OS process each, with all-to-all
    shared-memory connectivity.  API mirrors :class:`VirtualCluster`."""

    def __init__(
        self,
        size: int,
        timeout: float = 120.0,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        slots_per_channel: int = DEFAULT_SLOTS_PER_CHANNEL,
    ) -> None:
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        try:
            self._ctx = _mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "substrate='process' needs the 'fork' start method (rank "
                "programs are closures); unavailable on this platform — "
                "use the default substrate='virtual' instead"
            ) from exc
        self.size = size
        self.timeout = timeout
        self.slot_bytes = int(slot_bytes)
        self.slots_per_channel = int(slots_per_channel)
        nbytes = size * size * self.slots_per_channel * self.slot_bytes
        self._shm = _shm.SharedMemory(create=True, size=max(nbytes, 1))
        # Control plane: one synchronous pipe per rank (slot descriptors and
        # abort notices; any process may write, under the rank's lock).
        pipes = [self._ctx.Pipe(duplex=False) for _ in range(size)]
        self._ctl_rx = [rx for rx, _ in pipes]
        self._ctl_tx = [tx for _, tx in pipes]
        self._ctl_locks = [self._ctx.Lock() for _ in range(size)]
        self._to_parent = self._ctx.Queue()
        self._abort = self._ctx.Event()
        # One semaphore per directed channel, counting its free slots: a
        # ring's slots are filled and freed in the same order.
        self._ring_sems = [
            self._ctx.Semaphore(self.slots_per_channel)
            for _ in range(size * size)
        ]
        self._procs: list = []
        self._closed = False
        self._owner_pid = os.getpid()
        self._sinks = ForkedRanks()
        self.last_stats: list[CommStats] = [CommStats() for _ in range(size)]
        #: Parent-side checkpoint hook: ``snapshot_sink(step, t, q)`` is
        #: called for every snapshot a worker submits (see
        #: :meth:`submit_snapshot`); the runner points it at its
        #: :class:`~repro.parallel.checkpoint.CheckpointStore`.
        self.snapshot_sink: Callable[[int, float, np.ndarray], Any] | None = None

    # -- worker-side checkpoint proxy ------------------------------------------
    def submit_snapshot(self, step: int, t: float, q: np.ndarray) -> None:
        """Ship a checkpoint snapshot to the parent (worker-side call).

        The checkpoint store lives in the parent so snapshots survive the
        crash of any worker — including the rank that gathered them."""
        self._to_parent.put(("snapshot", int(step), float(t), np.array(q, copy=True)))

    # -- parent-side control ---------------------------------------------------
    def abort(self, reason: str) -> None:
        """Poison every rank: blocked operations raise ``ClusterAborted``."""
        self._abort.set()
        for dest in range(self.size):
            # The notice only makes the wake-up prompt and carries the
            # reason: if a rank killed mid-write still holds the lock, the
            # event above reaches every waiter within one _POLL anyway.
            self._post(dest, ("abort", reason))

    def _post(self, dest: int, record: tuple) -> bool:
        """Write one small control record into ``dest``'s pipe, now;
        False when the pipe's lock could not be had within ``_POLL``.

        Synchronous on purpose: the record is in the pipe when this
        returns, so the receiver's wake-up never waits for a feeder
        thread to win the GIL from a sender that went back to computing.
        The write itself cannot block — records are ~150 bytes and at
        most ring depth x peers descriptors are ever unread."""
        lock = self._ctl_locks[dest]
        if not lock.acquire(timeout=_POLL):
            return False
        try:
            self._ctl_tx[dest].send(record)
        finally:
            lock.release()
        return True

    def _handle_silent_deaths(self, pending, errors) -> None:
        for rank in sorted(pending):
            p = self._procs[rank]
            if not p.is_alive():
                exc = RemoteRankError(
                    f"rank {rank} worker exited (code {p.exitcode}) without "
                    "reporting a result"
                )
                errors.append((rank, exc))
                pending.discard(rank)
                self.abort(f"rank {rank} died silently (exit {p.exitcode})")

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        per_rank_args: Sequence[tuple] | None = None,
    ) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; returns per-rank results.

        Mirrors :meth:`VirtualCluster.run`: any rank failure aborts the
        others and raises one structured
        :class:`~repro.msglib.virtual.RankFailure`.  What each worker's
        own sinks recorded (metrics, trace, buffered step records) is
        folded into the caller's installed ones — metrics by the exact,
        order-independent merge — before this returns or raises."""
        if self._closed:
            raise RuntimeError("ProcessCluster is closed")
        if self._procs:
            raise RuntimeError("ProcessCluster.run is single-shot; build a "
                               "fresh cluster per attempt")
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, BaseException]] = []
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    self, r, fn, args,
                    per_rank_args[r] if per_rank_args is not None else (),
                ),
                daemon=True,
            )
            for r in range(self.size)
        ]
        for p in self._procs:
            p.start()
        pending = set(range(self.size))
        while pending:
            try:
                msg = self._to_parent.get(timeout=0.2)
            except _queue.Empty:
                self._handle_silent_deaths(pending, errors)
                continue
            kind = msg[0]
            if kind == "snapshot":
                _, step, t, q = msg
                if self.snapshot_sink is not None:
                    self.snapshot_sink(step, t, q)
            else:
                _, rank, outcome, stats, shipped = msg
                self.last_stats[rank] = stats
                self._sinks.absorb(shipped)
                pending.discard(rank)
                if kind == "result":
                    results[rank] = outcome
                else:
                    errors.append((rank, outcome))
                    self.abort(f"rank {rank} died with {outcome!r}")
        for p in self._procs:
            p.join(timeout=10.0)
            if p.is_alive():  # pragma: no cover - stuck worker backstop
                p.terminate()
                p.join(timeout=5.0)
        if errors:
            raise VirtualCluster._failure(errors)
        return results

    def total_stats(self) -> CommStats:
        """Aggregate statistics over all ranks (last completed run)."""
        agg = CommStats()
        for st in self.last_stats:
            agg = agg.merged_with(st)
        return agg

    def close(self) -> None:
        """Release processes, the result queue, pipes and the shared memory."""
        if self._closed:
            return
        self._closed = True
        for p in self._procs:
            if p.is_alive():  # pragma: no cover - only after a failed run
                p.terminate()
                p.join(timeout=5.0)
        self._to_parent.close()
        self._to_parent.cancel_join_thread()
        for conn in [*self._ctl_rx, *self._ctl_tx]:
            conn.close()
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            if not self._closed and os.getpid() == getattr(
                self, "_owner_pid", os.getpid()
            ):
                self.close()
        except Exception:  # noqa: BLE001 - interpreter shutdown
            pass
