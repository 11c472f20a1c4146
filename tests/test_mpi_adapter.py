"""The mpi4py backend adapter (the real library only runs on an MPI
cluster; here a stub ``mpi4py`` whose ranks are threads sharing one set of
mailboxes drives the adapter and ``scripts/mpi_runner.py``)."""

import importlib.util
import pathlib
import sys
import threading
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

RUNNER = pathlib.Path(__file__).parents[1] / "scripts" / "mpi_runner.py"


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
    a world whose ranks share one ``hub`` of mailboxes: a receive blocks
    until its message is in, a collective until every rank has called it."""

    def __init__(self, rank, size, hub):
        self._rank, self._size, self._hub = rank, size, hub

    @staticmethod
    def hub(size):
        return types.SimpleNamespace(
            boxes=defaultdict(deque), cv=threading.Condition(), slots={},
            barrier=threading.Barrier(size, timeout=60),
        )

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def send(self, obj, dest, tag):
        with self._hub.cv:
            self._hub.boxes[dest, self._rank, tag].append(obj)
            self._hub.cv.notify_all()

    def Send(self, buf, dest, tag):
        self.send(np.array(buf), dest, tag)

    def recv(self, source, tag):
        with self._hub.cv:
            box = self._hub.boxes[self._rank, source, tag]
            assert self._hub.cv.wait_for(lambda: box, timeout=60), "no message"
            return box.popleft()

    def Recv(self, buf, source, tag):
        buf[...] = self.recv(source, tag)

    def iprobe(self, source, tag):
        with self._hub.cv:
            return bool(self._hub.boxes[self._rank, source, tag])

    def _all(self, value):
        """Every rank's ``value``, in rank order, once each has given one."""
        self._hub.slots[self._rank] = value
        self._hub.barrier.wait()
        values = [self._hub.slots[r] for r in range(self._size)]
        self._hub.barrier.wait()  # all have read before a next round writes
        return values

    def allreduce(self, value, op):
        assert op == "min"
        return min(self._all(value))

    def Barrier(self):
        self._hub.barrier.wait()

    def gather(self, obj, root):
        values = self._all(np.array(obj))  # MPI hands the root copies
        return values if self._rank == root else None


class _ThreadedMPI:
    """``mpi4py.MPI`` for ranks that are threads of this process:
    ``COMM_WORLD`` is the world of the calling thread's rank."""

    MIN = "min"

    def __init__(self, size):
        hub = _StubWorld.hub(size)
        self.worlds = [_StubWorld(r, size, hub) for r in range(size)]
        self.me = threading.local()

    @property
    def COMM_WORLD(self):
        return self.worlds[self.me.rank]


class TestOverStubMPI:
    """MPIComm supplies only transport primitives, so it inherits the
    destination check, the spans and the timing of every other backend."""

    @pytest.fixture
    def pair(self, monkeypatch):
        mpi = _ThreadedMPI(2)
        monkeypatch.setitem(sys.modules, "mpi4py", types.SimpleNamespace(MPI=mpi))
        return [MPIComm(w) for w in mpi.worlds]

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


@pytest.mark.parametrize(
    "size, layout",
    [(2, ["--decomposition", "axial"]),
     (4, ["--decomposition", "2d", "--px", "2", "--pr", "2"])],
    ids=["axial-p2", "2d-2x2"],
)
def test_mpi_runner_end_to_end(monkeypatch, capsys, size, layout):
    """``scripts/mpi_runner.py`` run as an MPI job of ``size`` ranks, one
    thread each, over the stub: rank 0 reports the gathered field bit-equal
    to the serial run."""
    mpi = _ThreadedMPI(size)
    monkeypatch.setitem(sys.modules, "mpi4py", types.SimpleNamespace(MPI=mpi))
    argv = ["--nx", "48", "--nr", "24", "--steps", "4", "--verify", *layout]
    monkeypatch.setattr(sys, "argv", ["mpi_runner.py", *argv])
    spec = importlib.util.spec_from_file_location("mpi_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    failures = []

    def rank(r):
        mpi.me.rank = r
        try:
            runner.main()
        except (Exception, SystemExit) as exc:  # rank 0 exits 1 on a mismatch
            failures.append((r, exc))

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not failures and not any(t.is_alive() for t in threads)
    out = capsys.readouterr().out
    assert f"ranks={size} steps=4" in out
    assert "bitwise identical to serial: True" in out


@pytest.mark.skipif(not HAVE_MPI, reason="mpi4py not installed")
class TestSingletonMPI:
    """Single-process MPI checks (multi-rank runs: the threaded stub above,
    or ``mpiexec ... scripts/mpi_runner.py --verify`` on a real cluster)."""

    def test_world_singleton(self):
        comm = MPIComm()
        assert comm.size >= 1
        assert 0 <= comm.rank < comm.size

    def test_allreduce_identity(self):
        comm = MPIComm()
        if comm.size == 1:
            assert comm.allreduce_min(3.5) == 3.5
