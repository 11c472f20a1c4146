"""mpi4py backend: run the distributed solver on a real MPI cluster.

The in-process :class:`~repro.msglib.virtual.VirtualCluster` is the
default and :class:`~repro.msglib.process.ProcessCluster` the multi-core
one; this adapter supplies the same
:class:`~repro.msglib.api.Communicator` transport primitives over
``mpi4py`` so the identical SPMD solver code — with the same spans,
timing and accounting — runs across the processes of an MPI job (CI has
no MPI: the tests drive it through a stub ``mpi4py``)::

    mpiexec -n 8 python scripts/mpi_runner.py --nx 250 --nr 100 --steps 100

Design notes:

* Our tags are strings (step/op/phase encoded); MPI tags are small ints.
  The adapter hashes each string into the MPI tag space and sends the
  string alongside the payload header so collisions are detected rather
  than silently mismatched.
* Sends use ``MPI.Comm.Send`` on a contiguous copy after a small pickled
  header (shape/dtype/tag) — the buffered-send semantics the solver's
  deadlock-freedom argument requires hold because each neighbour exchange
  posts at most one in-flight message per direction, well inside MPI's
  eager threshold for the solver's kilobyte-scale messages.
"""

from __future__ import annotations

import time as _time

import numpy as np

from .api import Communicator, CommStats
from .vchannel import DeadlockError

#: MPI tag space is implementation-defined but at least 2**15 - 1.
_TAG_SPACE = 32_000


def _mpi():
    try:
        from mpi4py import MPI  # noqa: PLC0415
    except ImportError as exc:  # pragma: no cover - exercised off-cluster
        raise RuntimeError(
            "mpi4py is not installed; use the VirtualCluster backend "
            "(repro.msglib.virtual) or install mpi4py on an MPI cluster"
        ) from exc
    return MPI


def tag_to_int(tag: str) -> int:
    """Deterministic string-tag -> MPI-tag mapping (stable across ranks)."""
    h = 2166136261
    for ch in tag.encode():
        h = (h ^ ch) * 16777619 & 0xFFFFFFFF
    return h % _TAG_SPACE


class MPIComm(Communicator):
    """Communicator over ``mpi4py.MPI.COMM_WORLD`` (or a sub-communicator)."""

    def __init__(self, comm=None) -> None:
        MPI = _mpi()
        self._MPI = MPI
        self._comm = comm if comm is not None else MPI.COMM_WORLD
        self.rank = self._comm.Get_rank()
        self.size = self._comm.Get_size()
        self.stats = CommStats()

    def _deposit(self, dest: int, tag: str, array: np.ndarray) -> int:
        payload = np.ascontiguousarray(array)
        itag = tag_to_int(tag)
        header = (tag, payload.shape, payload.dtype.str)
        self._comm.send(header, dest=dest, tag=itag)
        self._comm.Send(payload, dest=dest, tag=itag)
        return payload.nbytes

    def _take(self, source: int, tag: str, timeout: float | None) -> np.ndarray:
        itag = tag_to_int(tag)
        if timeout is not None:
            # MPI has no timed receive; poll the matching envelope so the
            # fault layer's retry/backoff loop works over this adapter too.
            deadline = _time.monotonic() + timeout
            while not self._comm.iprobe(source=source, tag=itag):
                if _time.monotonic() >= deadline:
                    raise DeadlockError(
                        f"rank {self.rank}: no message from {source} tag "
                        f"{tag!r} within {timeout}s (likely deadlock, tag "
                        "mismatch, or a lost message)"
                    )
                _time.sleep(1e-4)
        header = self._comm.recv(source=source, tag=itag)
        got_tag, shape, dtype = header
        if got_tag != tag:
            raise RuntimeError(
                f"MPI tag collision: expected {tag!r}, received {got_tag!r} "
                f"(both hash to {itag}); widen _TAG_SPACE or rename tags"
            )
        buf = np.empty(shape, dtype=np.dtype(dtype))
        self._comm.Recv(buf, source=source, tag=itag)
        return buf

    # MPI has efficient native collectives; override the generic loops.
    def allreduce_min(self, value: float, tag: str = "allreduce") -> float:
        return float(self._comm.allreduce(value, op=self._MPI.MIN))

    def barrier(self, tag: str = "barrier") -> None:
        self._comm.Barrier()

    def gather_arrays(self, array: np.ndarray, tag: str = "gather"):
        # Remote contributions arrive as fresh (deserialized) copies, but
        # the root's own slot passes through in-process: force a copy so
        # rank 0's gathered slot never aliases the caller's send buffer.
        payload = np.ascontiguousarray(array)
        if self.rank == 0 and payload is array:
            payload = payload.copy()
        parts = self._comm.gather(payload, root=0)
        return parts if self.rank == 0 else None
