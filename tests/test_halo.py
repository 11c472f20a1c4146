"""Halo-exchange orientation and version grouping, against a stub comm."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import jet_scenario
from repro.msglib import VirtualCluster
from repro.obs import FlightRecorder, use
from repro.parallel.decomposition import HaloTopology
from repro.parallel.halo import ExchangePlan, ExchangePolicy
from repro.parallel.runner import ParallelJetSolver
from repro.parallel.versions import version_by_number


class LoopbackComm:
    """Stub: records sends; receives replay a scripted mailbox."""

    def __init__(self, inbox=None):
        self.sent = []
        self.inbox = inbox or {}

    def send(self, dest, tag, array):
        self.sent.append((dest, tag, np.asarray(array).copy()))

    def recv(self, source, tag):
        return self.inbox[(source, tag)]

    def recv_view(self, source, tag, timeout=None):
        # recv_view is part of the Communicator contract (a transport
        # that lends no memory hands out exactly this owned view).
        from repro.msglib.api import MessageView

        return MessageView(np.array(self.recv(source, tag)))


GROUPED = ExchangePolicy(split_flux_columns=False)
SPLIT = ExchangePolicy(split_flux_columns=True)


def plan(comm, shape, left, right, policy=GROUPED):
    """A rank's plan over an axial neighbour pair (axis 1)."""
    topo = HaloTopology(5, left, right, None, None)
    return ExchangePlan(comm, topo, policy, shape)


class TestPolicy:
    def test_from_version(self):
        assert ExchangePolicy.from_version(version_by_number(5)) == ExchangePolicy()
        assert ExchangePolicy.from_version(version_by_number(6)).overlap
        assert ExchangePolicy.from_version(version_by_number(7)).split_flux_columns


class TestUvT:
    def test_interior_rank_sends_both_edges(self, rng):
        nr = 6
        u, v, T = (rng.random((5, nr)) for _ in range(3))
        lo_ghost = rng.random((3, nr))
        hi_ghost = rng.random((3, nr))
        comm = LoopbackComm(
            {(1, "t:uvT:toright"): lo_ghost, (3, "t:uvT:toleft"): hi_ghost}
        )
        halo_lo, halo_hi, *radial = plan(comm, (4, 5, nr), 1, 3).uvT("t", u, v, T)
        assert np.array_equal(halo_lo, lo_ghost)
        assert np.array_equal(halo_hi, hi_ghost)
        assert radial == [None, None]
        # Sent the packed edge columns the right way.
        (d1, t1, a1), (d2, t2, a2) = comm.sent
        assert (d1, t1) == (1, "t:uvT:toleft")
        assert np.array_equal(a1, np.stack([u[0], v[0], T[0]]))
        assert (d2, t2) == (3, "t:uvT:toright")
        assert np.array_equal(a2, np.stack([u[-1], v[-1], T[-1]]))

    def test_edge_rank_one_sided(self, rng):
        u, v, T = (rng.random((5, 4)) for _ in range(3))
        ghost = rng.random((3, 4))
        comm = LoopbackComm({(1, "t:uvT:toleft"): ghost})
        halo_lo, halo_hi, *radial = plan(comm, (4, 5, 4), None, 1).uvT("t", u, v, T)
        assert halo_lo is None
        assert np.array_equal(halo_hi, ghost)
        assert radial == [None, None]
        assert len(comm.sent) == 1


class TestFluxExchanges:
    def test_high_ghost_orientation(self, rng):
        """High ghosts = right neighbour's first two columns, nearest first."""
        F = rng.random((4, 7, 5))
        neighbour_cols = rng.random((4, 2, 5))
        comm = LoopbackComm({(9, "t:fxh"): neighbour_cols})
        ghosts = plan(comm, F.shape, 3, 9).exchange("flux_high", 1, "t", F)
        assert ghosts.shape == (2, 4, 5)
        assert np.array_equal(ghosts[0], neighbour_cols[:, 0])
        assert np.array_equal(ghosts[1], neighbour_cols[:, 1])
        # And it shipped MY first two columns leftward.
        dest, tag, sent = comm.sent[0]
        assert dest == 3
        assert np.array_equal(sent, F[:, :2])

    def test_low_ghost_orientation(self, rng):
        """Low ghosts = left neighbour's last two columns, nearest first."""
        F = rng.random((4, 7, 5))
        neighbour_cols = rng.random((4, 2, 5))  # their [:, -2:]
        comm = LoopbackComm({(3, "t:fxl"): neighbour_cols})
        ghosts = plan(comm, F.shape, 3, 9).exchange("flux_low", 1, "t", F)
        # Nearest ghost = their LAST column = index 1 of the sent pair.
        assert np.array_equal(ghosts[0], neighbour_cols[:, 1])
        assert np.array_equal(ghosts[1], neighbour_cols[:, 0])
        dest, tag, sent = comm.sent[0]
        assert dest == 9
        assert np.array_equal(sent, F[:, -2:])

    def test_boundary_rank_returns_none(self, rng):
        F = rng.random((4, 7, 5))
        comm = LoopbackComm()
        assert plan(comm, F.shape, 0, None).exchange("flux_high", 1, "t", F) is None
        # Still sent to the left neighbour.
        assert len(comm.sent) == 1

    def test_v7_splits_into_single_columns(self, rng):
        F = rng.random((4, 7, 5))
        c0, c1 = rng.random((4, 5)), rng.random((4, 5))
        comm = LoopbackComm({(9, "t:fxh:c0"): c0, (9, "t:fxh:c1"): c1})
        ghosts = plan(comm, F.shape, 3, 9, SPLIT).exchange("flux_high", 1, "t", F)
        assert np.array_equal(ghosts[0], c0)
        assert np.array_equal(ghosts[1], c1)
        # Two separate sends, same total data.
        assert len(comm.sent) == 2
        total = sum(a.size for _, _, a in comm.sent)
        assert total == F[:, :2].size


class TestStateHalo:
    def test_low_flows_rightward(self, rng):
        q = rng.random((4, 6, 3))
        left_cols = rng.random((4, 2, 3))
        comm = LoopbackComm({(0, "t:qlo"): left_cols})
        ghosts = plan(comm, q.shape, 0, 2).exchange("state_low", 1, "t", q)
        assert np.array_equal(ghosts[0], left_cols[:, 1])  # nearest first
        assert np.array_equal(ghosts[1], left_cols[:, 0])
        dest, _, sent = comm.sent[0]
        assert dest == 2
        assert np.array_equal(sent, q[:, -2:])

    def test_high_flows_leftward(self, rng):
        q = rng.random((4, 6, 3))
        right_cols = rng.random((4, 2, 3))
        comm = LoopbackComm({(2, "t:qhi"): right_cols})
        ghosts = plan(comm, q.shape, 0, 2).exchange("state_high", 1, "t", q)
        assert np.array_equal(ghosts[0], right_cols[:, 0])
        assert np.array_equal(ghosts[1], right_cols[:, 1])
        dest, _, sent = comm.sent[0]
        assert dest == 0
        assert np.array_equal(sent, q[:, :2])

    def test_global_edges(self, rng):
        q = rng.random((4, 6, 3))
        comm = LoopbackComm()
        edge = plan(comm, q.shape, None, None)
        for kind in ("state_low", "state_high", "flux_low", "flux_high"):
            assert edge.exchange(kind, 1, "t", q) is None
        assert comm.sent == []


class TestWireLog:
    """The on-wire traffic is part of the contract: the fault schedules,
    the dedupe cache and the per-step message counts all key on each
    rank's ordered ``(peer, tag, nbytes)`` send sequence."""

    #: sha256 prefixes of the per-rank send logs: the 2x2 ones recorded at
    #: PR 12 (the last commit with one exchange function per kind), the
    #: axial and radial ones at PR 16 (the last commit with a class per
    #: decomposition).  Version 6 posts its receives instead of blocking
    #: on them but must put the same messages on the wire as Version 5;
    #: Version 7 splits the flux pairs.
    DIGESTS = {
        ("2d", 5): "727d687ac99cfe4c",
        ("2d", 6): "727d687ac99cfe4c",
        ("2d", 7): "a0d1a0767a67f316",
        ("axial", 5): "86ccc11512154cf7",
        ("axial", 6): "86ccc11512154cf7",
        ("axial", 7): "3694bca0f05cfc96",
        ("radial", 5): "8e3419a50e909baf",
        ("radial", 6): "8e3419a50e909baf",
        ("radial", 7): "5fe011df82f70c01",
    }

    def _check(self, decomposition, version):
        sc = jet_scenario(nx=24, nr=20, viscous=True)
        config = dataclasses.replace(sc.solver.config, backend="fused")
        runner = ParallelJetSolver(
            sc.state, config, nranks=4, version=version,
            decomposition=decomposition, px=2, pr=2,
        )
        cluster = VirtualCluster(4, timeout=60)

        def program(comm):
            solver = runner._make_solver(comm, sc.state.q)
            for _ in range(3):
                solver.step()
            return solver.overlap

        flight = FlightRecorder(1 << 14)
        with use(flight=flight):
            overlapped = cluster.run(program)
        assert overlapped == [version == 6] * 4
        log = [
            [
                (e["peer"], e["tag"], e["nbytes"])
                for e in flight.events(rank) if e["kind"] == "send"
            ]
            for rank in range(4)
        ]
        digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[decomposition, version]

    @pytest.mark.parametrize("version", [5, 6, 7])
    def test_send_log_digest_is_pinned(self, version):
        self._check("2d", version)

    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize("decomposition", ["axial", "radial"])
    def test_one_axis_send_log_digest_is_pinned(self, decomposition, version):
        self._check(decomposition, version)
