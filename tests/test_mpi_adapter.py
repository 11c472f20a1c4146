"""The mpi4py backend adapter (the real library only runs on an MPI
cluster; a dict-mailbox stub drives the adapter's own code here)."""

import sys
import types
from collections import defaultdict, deque

import numpy as np
import pytest

from repro import jet_scenario
from repro.msglib import DeadlockError
from repro.msglib.api import CommStats, Communicator
from repro.msglib.mpi import _TAG_SPACE, MPIComm, tag_to_int
from repro.obs import Tracer, use
from repro.parallel.decomposition import CartesianDecomposition
from repro.parallel.spmd import BlockDistributedSolver

try:
    import mpi4py  # noqa: F401

    HAVE_MPI = True
except ImportError:
    HAVE_MPI = False


class TestTagHashing:
    def test_deterministic(self):
        assert tag_to_int("12:x:predictor:fxh") == tag_to_int(
            "12:x:predictor:fxh"
        )

    def test_in_mpi_tag_space(self):
        for tag in ("a", "0:dt:", "999:filter:qlo", "x" * 200):
            assert 0 <= tag_to_int(tag) < _TAG_SPACE

    def test_solver_tags_collision_free_within_a_step(self):
        """All tags a rank can use within one step must hash distinctly
        (cross-step reuse is safe: exchanges are matched in order).  The
        list is what the solver itself puts on a recording communicator:
        a halo refresh (grouped and one line per message), the ``dt``
        all-reduce, a gather and a checkpoint, on a rank of a 3 x 2 grid
        with both axial neighbours."""
        sc = jet_scenario(nx=26, nr=24, viscous=True)
        decomp = CartesianDecomposition(26, 24, 3, 2)
        rank = next(
            r for r in range(6)
            if None not in (decomp.topology(r).left, decomp.topology(r).right)
        )
        tags = []
        for version in (5, 7):
            comm = _RecordingComm(rank, 6)
            solver = BlockDistributedSolver(
                comm, sc.grid, sc.state.q, sc.solver.config, decomp, version
            )
            solver.nstep = 7
            solver.plan.refresh(solver.state.q, solver.nstep)
            solver.current_dt()
            solver.gather_state()
            solver.checkpoint()
            tags += comm.tags
        assert len(tags) == 2 * 3 * (1 + 8) + 2 * 4  # 3 neighbours, H = 8
        assert all(t.startswith("7:") for t in tags)
        hashes = {tag_to_int(t) for t in set(tags)}
        assert len(hashes) == len(set(tags))


class _RecordingComm(Communicator):
    """Records every tag its rank sends with or waits for; a receive is
    answered with a zero."""

    def __init__(self, rank, size):
        self.rank, self.size, self.stats, self.tags = rank, size, CommStats(), []

    def _deposit(self, dest, tag, array):
        self.tags.append(tag)
        return array.nbytes

    def _take(self, source, tag, timeout):
        self.tags.append(tag)
        return np.zeros(1)


class TestWithoutMPI:
    @pytest.mark.skipif(HAVE_MPI, reason="mpi4py present")
    def test_helpful_error_without_mpi4py(self):
        with pytest.raises(RuntimeError, match="mpi4py is not installed"):
            MPIComm()


class _StubWorld:
    """The slice of ``mpi4py.MPI.Comm`` the adapter calls, for one rank of
    a world whose mailboxes are one shared dict of deques."""

    def __init__(self, rank, size, boxes):
        self._rank, self._size, self._boxes = rank, size, boxes

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def send(self, obj, dest, tag):
        self._boxes[dest, self._rank, tag].append(obj)

    def Send(self, buf, dest, tag):
        self._boxes[dest, self._rank, tag].append(np.array(buf))

    def recv(self, source, tag):
        return self._boxes[self._rank, source, tag].popleft()

    def Recv(self, buf, source, tag):
        buf[...] = self._boxes[self._rank, source, tag].popleft()

    def iprobe(self, source, tag):
        return bool(self._boxes[self._rank, source, tag])


class TestOverStubMPI:
    """MPIComm supplies only transport primitives, so it inherits the
    destination check, the spans and the timing of every other backend."""

    @pytest.fixture
    def pair(self, monkeypatch):
        boxes = defaultdict(deque)
        worlds = [_StubWorld(r, 2, boxes) for r in range(2)]
        stub = types.ModuleType("mpi4py")
        stub.MPI = types.SimpleNamespace(COMM_WORLD=worlds[0], MIN="min")
        monkeypatch.setitem(sys.modules, "mpi4py", stub)
        return [MPIComm(w) for w in worlds]

    def test_send_and_recv_are_timed_and_traced(self, pair):
        a, b = pair
        tracer = Tracer()
        with use(tracer=tracer):
            a.send(1, "7:x:fxh", np.arange(12.0).reshape(3, 4))
            got = b.recv(0, "7:x:fxh", timeout=1.0)
        assert np.array_equal(got, np.arange(12.0).reshape(3, 4))
        assert a.stats.sends == 1 and a.stats.bytes_sent == 96
        assert b.stats.recvs == 1 and b.stats.bytes_received == 96
        assert a.stats.send_seconds > 0 and b.stats.recv_seconds > 0
        assert [(s.name, s.rank) for s in tracer.trace.ordered_spans()] == [
            ("comm.send", 0), ("comm.recv", 1)
        ]

    def test_rejects_an_invalid_destination(self, pair):
        for dest in (0, 2, -1):
            with pytest.raises(ValueError, match="invalid destination"):
                pair[0].send(dest, "t", np.zeros(1))

    def test_timed_receive_expires_into_deadlock_error(self, pair):
        with pytest.raises(DeadlockError, match="no message from 0"):
            pair[1].recv(0, "never", timeout=0.01)
        assert pair[1].stats.recvs == 0

    def test_posted_receive_completes_at_wait(self, pair):
        a, b = pair
        req = b.irecv_view(0, "v", timeout=1.0)
        a.send(1, "v", np.full(4, 2.0))
        assert not req.test()  # no probing primitive under MPI
        with req.wait() as view:
            assert np.array_equal(view.array, np.full(4, 2.0))
        assert b.stats.recvs == 1


@pytest.mark.skipif(not HAVE_MPI, reason="mpi4py not installed")
class TestSingletonMPI:
    """Single-process MPI checks (mpiexec multi-rank runs are exercised by
    scripts/mpi_runner.py --verify on a real cluster)."""

    def test_world_singleton(self):
        comm = MPIComm()
        assert comm.size >= 1
        assert 0 <= comm.rank < comm.size

    def test_allreduce_identity(self):
        comm = MPIComm()
        if comm.size == 1:
            assert comm.allreduce_min(3.5) == 3.5
