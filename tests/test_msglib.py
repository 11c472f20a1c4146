"""The message-passing substrate: mailboxes, virtual cluster, collectives."""

import numpy as np
import pytest

from repro.msglib.api import CommStats
from repro.msglib.libmodel import CRAY_PVM, MPL, PVM, PVME, library_by_name
from repro.msglib.vchannel import DeadlockError, Mailbox
from repro.msglib.virtual import VirtualCluster


class TestMailbox:
    def test_in_order_delivery(self):
        mb = Mailbox(owner=0, timeout=1.0)
        mb.put(1, "a", np.array([1.0]))
        mb.put(1, "b", np.array([2.0]))
        assert mb.get(1, "a")[0] == 1.0
        assert mb.get(1, "b")[0] == 2.0

    def test_out_of_order_stash(self):
        mb = Mailbox(owner=0, timeout=1.0)
        mb.put(1, "late", np.array([1.0]))
        mb.put(1, "early", np.array([2.0]))
        # Request the second-deposited tag first.
        assert mb.get(1, "early")[0] == 2.0
        assert mb.get(1, "late")[0] == 1.0

    def test_source_selectivity(self):
        mb = Mailbox(owner=0, timeout=1.0)
        mb.put(2, "t", np.array([20.0]))
        mb.put(1, "t", np.array([10.0]))
        assert mb.get(1, "t")[0] == 10.0
        assert mb.get(2, "t")[0] == 20.0

    def test_timeout_raises_deadlock(self):
        mb = Mailbox(owner=0, timeout=0.05)
        with pytest.raises(DeadlockError, match="no message"):
            mb.get(1, "never")

    def test_pending_count(self):
        mb = Mailbox(owner=0, timeout=1.0)
        mb.put(1, "x", np.array([1.0]))
        mb.put(1, "y", np.array([1.0]))
        mb.get(1, "y")  # stashes x
        assert mb.pending() == 1


class TestVirtualCluster:
    def test_point_to_point(self):
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "data", np.arange(5.0))
                return None
            return comm.recv(0, "data")

        results = cluster.run(prog)
        assert np.array_equal(results[1], np.arange(5.0))

    def test_send_copies_payload(self):
        """Buffered semantics: mutating after send must not corrupt."""
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(3)
                comm.send(1, "t", buf)
                buf[:] = 99.0
                return None
            return comm.recv(0, "t")

        results = cluster.run(prog)
        assert np.array_equal(results[1], np.ones(3))

    def test_invalid_destination(self):
        cluster = VirtualCluster(2, timeout=1.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(0, "self", np.ones(1))
            return True

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            cluster.run(prog)

    def test_exception_propagates_with_rank(self):
        cluster = VirtualCluster(3, timeout=1.0)

        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            cluster.run(prog)

    def test_per_rank_args(self):
        cluster = VirtualCluster(3, timeout=5.0)
        results = cluster.run(
            lambda comm, base, extra: base + extra,
            10,
            per_rank_args=[(1,), (2,), (3,)],
        )
        assert results == [11, 12, 13]

    def test_single_rank_runs_inline(self):
        cluster = VirtualCluster(1)
        assert cluster.run(lambda comm: comm.size) == [1]

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_allreduce_min(self, size):
        cluster = VirtualCluster(size, timeout=5.0)
        results = cluster.run(lambda comm: comm.allreduce_min(float(comm.rank + 3)))
        assert results == [3.0] * size

    def test_barrier_completes(self):
        cluster = VirtualCluster(4, timeout=5.0)
        cluster.run(lambda comm: comm.barrier())

    def test_gather_arrays(self):
        cluster = VirtualCluster(3, timeout=5.0)

        def prog(comm):
            return comm.gather_arrays(np.full(2, float(comm.rank)))

        results = cluster.run(prog)
        assert results[1] is None and results[2] is None
        gathered = results[0]
        assert [g[0] for g in gathered] == [0.0, 1.0, 2.0]

    def test_stats_accounting(self):
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x", np.zeros(10))  # 80 bytes
            else:
                comm.recv(0, "x")
            return None

        cluster.run(prog)
        s0, s1 = cluster.comms[0].stats, cluster.comms[1].stats
        assert (s0.sends, s0.bytes_sent) == (1, 80)
        assert (s1.recvs, s1.bytes_received) == (1, 80)
        assert s0.startups == 1 and s1.startups == 1
        total = cluster.total_stats()
        assert total.startups == 2


class TestLibraryModels:
    def test_registry(self):
        assert library_by_name("pvm") is PVM
        assert library_by_name("MPL") is MPL
        with pytest.raises(KeyError, match="known"):
            library_by_name("mpi")

    def test_cost_structure(self):
        t_small = PVM.send_cpu_time(100)
        t_big = PVM.send_cpu_time(100_000)
        assert t_big > t_small
        assert t_small > PVM.per_byte_cpu * 100  # startup dominates

    def test_paper_orderings(self):
        """MPL is the lean native library; PVMe the heavy port; Cray PVM
        the thin T3D shim (paper Sections 7.2-7.3)."""
        n = 3000
        assert MPL.send_cpu_time(n) < PVME.send_cpu_time(n)
        assert CRAY_PVM.send_cpu_time(n) < MPL.send_cpu_time(n)
        assert CRAY_PVM.wire_startup < MPL.wire_startup < PVM.wire_startup

    def test_only_mpl_blocks(self):
        assert MPL.blocking_send
        assert not PVM.blocking_send
        assert not PVME.blocking_send

    def test_scaling(self):
        fast = PVM.scaled(0.5)
        assert fast.cpu_send_overhead == pytest.approx(
            PVM.cpu_send_overhead / 2
        )
        assert fast.wire_startup == pytest.approx(PVM.wire_startup / 2)
        assert PVM.scaled(1.0) is PVM

    def test_stats_merge(self):
        a = CommStats(sends=2, recvs=1, bytes_sent=10, bytes_received=5)
        b = CommStats(sends=1, recvs=2, bytes_sent=20, bytes_received=40)
        m = a.merged_with(b)
        assert (m.sends, m.recvs) == (3, 3)
        assert (m.bytes_sent, m.bytes_received) == (30, 45)


class TestNonBlocking:
    def test_isend_completes_immediately(self):
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(1, "x", np.arange(3.0))
                assert req.test()
                assert req.wait() is None
                return None
            return comm.recv(0, "x")

        results = cluster.run(prog)
        assert np.array_equal(results[1], np.arange(3.0))

    def test_irecv_wait(self):
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x", np.ones(4))
                return None
            req = comm.irecv(0, "x")
            return req.wait()

        results = cluster.run(prog)
        assert np.array_equal(results[1], np.ones(4))

    def test_irecv_test_polls_without_blocking(self):
        import time

        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                comm.send(1, "late", np.ones(1))
                return None
            req = comm.irecv(0, "late")
            polls = 0
            while not req.test():
                polls += 1
                time.sleep(0.005)
            return polls, req.wait()

        results = cluster.run(prog)
        polls, payload = results[1]
        assert polls >= 1  # genuinely overlapped with the sender's delay
        assert payload[0] == 1.0

    def test_irecv_accounts_stats_once(self):
        cluster = VirtualCluster(2, timeout=5.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "x", np.zeros(10))
                return None
            req = comm.irecv(0, "x")
            req.wait()
            req.wait()  # idempotent
            return comm.stats.recvs

        results = cluster.run(prog)
        assert results[1] == 1

    def test_try_get_drains_out_of_order(self):
        mb = Mailbox(owner=0, timeout=1.0)
        mb.put(1, "b", np.array([2.0]))
        mb.put(1, "a", np.array([1.0]))
        assert mb.try_get(1, "missing") is None
        assert mb.try_get(1, "a")[0] == 1.0
        assert mb.try_get(1, "b")[0] == 2.0


class TestReceiveResilience:
    """Per-call timeouts, fast tag-mismatch failure, and cluster aborts
    (the ISSUE-3 hot-seam hardening)."""

    def test_per_call_timeout_overrides_default(self):
        import time

        mb = Mailbox(owner=0, timeout=30.0)
        t0 = time.perf_counter()
        with pytest.raises(DeadlockError):
            mb.get(1, "never", timeout=0.05)
        assert time.perf_counter() - t0 < 5.0

    def test_timeout_error_names_the_seam(self):
        """The failure message must carry receiver, sender and tag."""
        mb = Mailbox(owner=3, timeout=0.05)
        with pytest.raises(
            DeadlockError, match=r"rank 3.*from 1.*'halo:left'"
        ):
            mb.get(1, "halo:left")

    def test_mistagged_send_fails_fast_with_context(self):
        """A tag typo must fail within the receive timeout, naming both
        endpoints and the tag the receiver was blocked on — not hang for
        the cluster-default timeout."""
        import time

        cluster = VirtualCluster(2, timeout=60.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "halo:rigth", np.ones(3))  # the typo
                return None
            return comm.recv(0, "halo:right", timeout=0.1)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc:
            cluster.run(prog)
        assert time.perf_counter() - t0 < 10.0
        cause = exc.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert "rank 1" in str(cause)
        assert "from 0" in str(cause)
        assert "'halo:right'" in str(cause)

    def test_comm_recv_forwards_timeout(self):
        cluster = VirtualCluster(2, timeout=60.0)

        def prog(comm):
            if comm.rank == 1:
                try:
                    comm.recv(0, "nothing", timeout=0.05)
                except DeadlockError:
                    return "timed-out"
            return "sender"

        assert cluster.run(prog)[1] == "timed-out"

    def test_crashed_rank_aborts_blocked_peers(self):
        """A dying rank must wake receivers immediately (no hang): the
        survivors see ClusterAborted, the failure is structured."""
        import time

        from repro.msglib import RankFailure
        from repro.msglib.vchannel import ClusterAborted

        cluster = VirtualCluster(4, timeout=60.0)

        def prog(comm):
            if comm.rank == 2:
                raise ValueError("injected death")
            # Everyone else blocks on a message rank 2 will never send.
            return comm.recv(2, "never")

        t0 = time.perf_counter()
        with pytest.raises(RankFailure) as exc:
            cluster.run(prog)
        assert time.perf_counter() - t0 < 10.0
        failure = exc.value
        assert failure.rank == 2
        assert isinstance(failure.__cause__, ValueError)
        assert set(failure.ranks) == {0, 1, 2, 3}
        secondary = [e for _, _, e in failure.failures if
                     isinstance(e, ClusterAborted)]
        assert len(secondary) == 3

    def test_abort_reason_propagates(self):
        from repro.msglib.vchannel import ClusterAborted

        mb = Mailbox(owner=0, timeout=5.0)
        mb.abort("rank 7 died")
        with pytest.raises(ClusterAborted, match="rank 7 died"):
            mb.get(1, "anything")


class TestCollectiveTagSafety:
    """Generic collectives must be safe on *any* conforming transport,
    including at-least-once ones that deliver duplicates (ISSUE-5 bugfix:
    constant collective tags let a stale duplicate from collective N
    satisfy collective N+1's receive)."""

    class _DuplicatingComm:
        """At-least-once transport: every send is delivered twice.

        Thin decorator over a VirtualComm — no reliable-framing layer, so
        the duplicate really reaches the peer's mailbox as a second
        envelope under the same (source, tag)."""

        def __init__(self, inner):
            self.inner = inner
            self.rank = inner.rank
            self.size = inner.size
            self.stats = inner.stats
            # Inherit the generic collectives unchanged.
            self.allreduce_min = lambda *a, **kw: type(inner).allreduce_min(
                self, *a, **kw
            )
            self.barrier = lambda *a, **kw: type(inner).barrier(self, *a, **kw)
            self.gather_arrays = lambda *a, **kw: type(inner).gather_arrays(
                self, *a, **kw
            )

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def send(self, dest, tag, array):
            self.inner.send(dest, tag, array)
            self.inner.send(dest, tag, array)  # the duplicate

        def recv(self, source, tag, timeout=None):
            return self.inner.recv(source, tag, timeout=timeout)

    def test_consecutive_allreduces_survive_duplication(self):
        """Each collective must compute its own minimum even when every
        message is delivered twice: with constant tags, collective i+1
        consumes the duplicate of collective i's contribution and returns
        a stale (wrong) value."""
        from repro.msglib.api import Communicator

        rounds = [(3.0, 8.0), (9.0, 4.0), (1.0, 7.0), (6.0, 2.0)]
        cluster = VirtualCluster(2, timeout=10.0)

        def prog(comm):
            dup = self._DuplicatingComm(comm)
            return [
                Communicator.allreduce_min(dup, vals[comm.rank])
                for vals in rounds
            ]

        results = cluster.run(prog)
        expected = [min(vals) for vals in rounds]
        assert results[0] == expected
        assert results[1] == expected

    def test_consecutive_barriers_and_gathers_survive_duplication(self):
        from repro.msglib.api import Communicator

        cluster = VirtualCluster(2, timeout=10.0)

        def prog(comm):
            dup = self._DuplicatingComm(comm)
            out = []
            for i in range(3):
                Communicator.barrier(dup)
                g = Communicator.gather_arrays(
                    dup, np.array([float(comm.rank), float(i)])
                )
                if g is not None:
                    out.append([a.copy() for a in g])
            return out

        results = cluster.run(prog)
        for i, gathered in enumerate(results[0]):
            assert np.array_equal(gathered[0], [0.0, float(i)])
            assert np.array_equal(gathered[1], [1.0, float(i)])


class TestGatherAliasing:
    """ISSUE-5 bugfix: rank 0's own contribution to gather_arrays must be
    a copy — mutating the send buffer after the gather must not corrupt
    the gathered slot (remote slots already arrive as fresh copies)."""

    def test_gather_does_not_alias_rank0_send_buffer(self):
        cluster = VirtualCluster(2, timeout=10.0)

        def prog(comm):
            mine = np.full(4, float(comm.rank + 1))
            g = comm.gather_arrays(mine, tag="g")
            mine[:] = -99.0  # caller reuses its send buffer
            return g

        results = cluster.run(prog)
        gathered = results[0]
        assert np.array_equal(gathered[0], np.full(4, 1.0))
        assert np.array_equal(gathered[1], np.full(4, 2.0))


class TestIrecvTimeout:
    """ISSUE-5 bugfix: irecv must honour recv's timeout= plumbing — a lazy
    irecv against a silent peer fails fast instead of hanging for the
    cluster-default timeout."""

    def test_lazy_irecv_wait_honours_timeout(self):
        import time

        cluster = VirtualCluster(2, timeout=60.0)

        def prog(comm):
            if comm.rank == 0:
                return "sender"
            req = comm.irecv(0, "never", timeout=0.05)
            t0 = time.perf_counter()
            try:
                req.wait()
            except DeadlockError:
                return time.perf_counter() - t0
            return None

        waited = cluster.run(prog)[1]
        assert waited is not None, "irecv.wait() never timed out"
        assert waited < 5.0

    def test_generic_fallback_irecv_wait_honours_timeout(self):
        """The base class's posted receive (what a backend without a
        probing mailbox gets too) must forward timeout= to recv."""
        import time

        from repro.msglib.api import Communicator

        cluster = VirtualCluster(2, timeout=60.0)

        def prog(comm):
            if comm.rank == 0:
                return "sender"
            req = Communicator.irecv(comm, 0, "never", timeout=0.05)
            t0 = time.perf_counter()
            try:
                req.wait()
            except DeadlockError:
                return time.perf_counter() - t0
            return None

        waited = cluster.run(prog)[1]
        assert waited is not None, "fallback irecv.wait() never timed out"
        assert waited < 5.0
