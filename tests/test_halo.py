"""Halo-exchange orientation and version grouping, against a stub comm."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import jet_scenario
from repro.msglib import VirtualCluster
from repro.obs import FlightRecorder, use
from repro.parallel.decomposition import HaloTopology
from repro.parallel.halo import ExchangePlan
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


GROUPED = version_by_number(5)
SPLIT = version_by_number(7)
H = 3


def plan(comm, shape, left, right, version=GROUPED):
    """A rank's plan over an axial neighbour pair (axis 1), ``H`` deep."""
    topo = HaloTopology(5, left, right, None, None)
    return ExchangePlan(comm, topo, version, shape, H)


class TestPolicy:
    def test_from_version(self):
        """How the halo travels is read off the ``Version`` itself: 5
        grouped and blocking, 6 the same message posted, 7 split."""
        flags = {
            n: (v.overlap_communication, v.split_flux_columns)
            for n, v in ((n, version_by_number(n)) for n in (5, 6, 7))
        }
        assert flags == {5: (False, False), 6: (True, False), 7: (False, True)}


class TestStateHalo:
    """Orientation of the one halo: ``H`` owned lines out, ``H`` ghost
    lines in, per neighbour."""

    def test_low_flows_rightward(self, rng):
        """My low ghosts are the left neighbour's last owned lines, in
        place and in order; my own last owned lines go right."""
        q = rng.random((4, H + 6 + H, 3))
        theirs = rng.random((4, H, 3))
        mine = q[:, -2 * H : -H].copy()
        comm = LoopbackComm(
            {(0, "7:halo:x:up"): theirs, (2, "7:halo:x:dn"): rng.random((4, H, 3))}
        )
        plan(comm, q.shape, 0, 2).refresh(q, 7)
        assert np.array_equal(q[:, :H], theirs)
        (dest, tag, sent), = [m for m in comm.sent if m[0] == 2]
        assert tag == "7:halo:x:up"
        assert np.array_equal(sent, mine)

    def test_high_flows_leftward(self, rng):
        q = rng.random((4, H + 6 + H, 3))
        theirs = rng.random((4, H, 3))
        mine = q[:, H : 2 * H].copy()
        comm = LoopbackComm(
            {(0, "7:halo:x:up"): rng.random((4, H, 3)), (2, "7:halo:x:dn"): theirs}
        )
        plan(comm, q.shape, 0, 2).refresh(q, 7)
        assert np.array_equal(q[:, -H:], theirs)
        (dest, tag, sent), = [m for m in comm.sent if m[0] == 0]
        assert tag == "7:halo:x:dn"
        assert np.array_equal(sent, mine)

    def test_global_edges(self, rng):
        """A side on a physical boundary has no ghost lines: nothing is
        sent, nothing received, every cell is owned."""
        q = rng.random((4, 6, 3))
        before = q.copy()
        comm = LoopbackComm()
        edge = plan(comm, q.shape, None, None)
        assert edge.refresh(q, 0) is None
        assert comm.sent == [] and np.array_equal(q, before)
        assert q[edge.owned].shape == q.shape

    def test_edge_rank_is_one_sided(self, rng):
        q = rng.random((4, 6 + H, 3))
        theirs = rng.random((4, H, 3))
        comm = LoopbackComm({(1, "0:halo:x:dn"): theirs})
        right_only = plan(comm, q.shape, None, 1)
        right_only.refresh(q, 0)
        assert q[right_only.owned].shape == (4, 6, 3)
        assert np.array_equal(q[:, -H:], theirs)
        assert [m[0] for m in comm.sent] == [1]

    def test_v7_ships_one_line_per_message(self, rng):
        """Same lines, same bytes, ``H`` startups."""
        q = rng.random((4, 6 + H, 3))
        mine = q[:, -2 * H : -H].copy()
        lines = [rng.random((4, 1, 3)) for _ in range(H)]
        comm = LoopbackComm(
            {(9, f"0:halo:x:dn:{k}"): line for k, line in enumerate(lines)}
        )
        plan(comm, q.shape, None, 9, SPLIT).refresh(q, 0)
        assert np.array_equal(q[:, -H:], np.concatenate(lines, axis=1))
        assert [m[1] for m in comm.sent] == [f"0:halo:x:up:{k}" for k in range(H)]
        assert np.array_equal(np.concatenate([m[2] for m in comm.sent], axis=1), mine)

    def test_corners_ride_in_the_radial_message(self, rng):
        """On a ``px x pr`` grid the radial message spans the *extended*
        axial width, so it carries the corner ghosts the axial exchange
        just delivered to the sender."""
        q = rng.random((4, 6 + H, 5 + H))
        comm = LoopbackComm({
            (1, "0:halo:x:dn"): rng.random((4, H, 5)),
            (2, "0:halo:r:dn"): rng.random((4, 6 + H, H)),
        })
        topo = HaloTopology(0, None, 1, None, 2)
        ExchangePlan(comm, topo, GROUPED, q.shape, H).refresh(q, 0)
        (_, _, axial), (_, _, radial) = comm.sent
        assert axial.shape == (4, H, 5)  # owned rows only
        assert radial.shape == (4, 6 + H, H)  # ghost columns included
        # ... and they are the ghosts received a moment ago.
        assert np.array_equal(radial[:, -H:], q[:, -H:, -2 * H : -H])


class TestWireLog:
    """The on-wire traffic is part of the contract: the fault schedules,
    the dedupe cache and the per-step message counts all key on each
    rank's ordered ``(peer, tag, nbytes)`` send sequence."""

    #: sha256 prefixes of the per-rank send logs of three steps, recorded
    #: at PR 22 (the first commit with one halo message per neighbour per
    #: step).  Version 6 posts its receives instead of blocking on them but
    #: must put the same messages on the wire as Version 5; Version 7
    #: ships the halo one line per message.
    DIGESTS = {
        ("2d", 5): "1b41480c8528a599",
        ("2d", 6): "1b41480c8528a599",
        ("2d", 7): "4291805221a9e544",
        ("axial", 5): "f9eef561b7c53ceb",
        ("axial", 6): "f9eef561b7c53ceb",
        ("axial", 7): "cca5a23b2ae83685",
        ("radial", 5): "0ff00ff8929d1bd6",
        ("radial", 6): "0ff00ff8929d1bd6",
        ("radial", 7): "6a57e8acba375569",
    }

    def _check(self, decomposition, version):
        sc = jet_scenario(nx=32, nr=32, viscous=True)
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

        flight = FlightRecorder(1 << 14)
        with use(flight=flight):
            cluster.run(program)
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
