"""Message-passing substrate.

Three halves (two real, one modelled):

* A **real** in-process message-passing implementation
  (:class:`~repro.msglib.virtual.VirtualCluster` +
  :class:`~repro.msglib.virtual.VirtualComm`) with PVM-style buffered sends,
  tagged receives, reductions and barriers.  The distributed solver runs on
  it for real — one thread per rank — and is verified bitwise against the
  serial solver.
* A **multi-core** counterpart (:class:`~repro.msglib.process.ProcessCluster`
  + :class:`~repro.msglib.process.ProcessCommunicator`): one OS process per
  rank, halo payloads through POSIX shared memory, a pipe control plane for
  slot descriptors and aborts.  Same :class:`~repro.msglib.api.Communicator`
  contract, bitwise-identical results, and real wall-clock speedup on
  multi-core hosts for every backend (the virtual cluster's threads run
  concurrently only inside calls that release the GIL, such as the
  compiled kernels' ``ctypes.CDLL`` foreign calls).
* **Cost models** of the 1995 message-passing libraries the paper used
  (PVM 3.2.2, IBM's MPL, PVMe) in :mod:`repro.msglib.libmodel`; these feed
  the discrete-event simulator, not the real executor.
"""

from .api import CommStats, Communicator
from .vchannel import ClusterAborted, DeadlockError, Mailbox
from .virtual import RankFailure, VirtualCluster, VirtualComm
from .process import ProcessCluster, ProcessComm, ProcessCommunicator, RemoteRankError
from .libmodel import LibraryModel, MPL, PVM, PVME, library_by_name

__all__ = [
    "ClusterAborted",
    "Communicator",
    "CommStats",
    "DeadlockError",
    "Mailbox",
    "ProcessCluster",
    "ProcessComm",
    "ProcessCommunicator",
    "RankFailure",
    "RemoteRankError",
    "VirtualCluster",
    "VirtualComm",
    "LibraryModel",
    "PVM",
    "PVME",
    "MPL",
    "library_by_name",
]
