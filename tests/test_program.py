"""The DES rank-program builder: message pairing, versions, edge ranks."""

import pytest

from repro.msglib.libmodel import MPL, PVM
from repro.numerics.kernels import _cc
from repro.parallel.versions import version_by_number
from repro.simulate import native
from repro.simulate import program
from repro.simulate.engine import MAX_EVENTS, Engine, Resource
from repro.simulate.program import (
    _COMPUTE,
    _SEND,
    EDGE_COMPUTE_FRACTION,
    Transfer,
    _split_for_version,
    build_plan,
)
from repro.simulate.timeline import RankTimeline
from repro.simulate.workload import EULER, NAVIER_STOKES, Message, Workload
from repro.machines.network.crossbar import CrossbarNetwork


def _plan(nprocs, workload, version=5, library=PVM, steps=2, step_seconds=1.0):
    return build_plan(nprocs, workload, version_by_number(version), library,
                      CrossbarNetwork(nprocs), steps, step_seconds)


def _run_program(nprocs, workload, version=5, library=PVM, steps=2,
                 step_seconds=1.0):
    """The timelines and makespan of ``nprocs`` ranks on the Python engine."""
    timelines = [RankTimeline(r) for r in range(nprocs)]
    makespan, _ = program.run(
        _plan(nprocs, workload, version, library, steps, step_seconds), timelines)
    return timelines, makespan


class TestSplit:
    def test_v5_keeps_messages_whole(self):
        m = Message("L", 3000, "flux")
        assert _split_for_version(m, version_by_number(5)) == [(0, 3000)]

    def test_v7_splits_flux_only(self):
        v7 = version_by_number(7)
        flux = Message("L", 3001, "flux")
        parts = _split_for_version(flux, v7)
        assert len(parts) == 2
        assert sum(n for _, n in parts) == 3001
        uvt = Message("L", 3000, "uvT")
        assert _split_for_version(uvt, v7) == [(0, 3000)]


class TestProgramExecution:
    def test_all_ranks_finish(self):
        ctxs, makespan = _run_program(4, Workload.paper(NAVIER_STOKES))
        assert makespan > 2.0  # at least the compute time
        for t in ctxs:
            assert t.finished_at > 0

    def test_single_rank_never_communicates(self):
        ctxs, makespan = _run_program(1, Workload.paper(NAVIER_STOKES))
        t = ctxs[0]
        assert t.library == 0.0
        assert t.comm_wait == 0.0
        assert makespan == pytest.approx(2.0)

    def test_edge_ranks_cheaper(self):
        ctxs, _ = _run_program(4, Workload.paper(NAVIER_STOKES))
        lib = [t.library for t in ctxs]
        assert lib[0] < lib[1]
        assert lib[3] < lib[2]
        assert lib[1] == pytest.approx(lib[2], rel=1e-9)

    def test_euler_communicates_less_than_ns(self):
        ns, _ = _run_program(4, Workload.paper(NAVIER_STOKES))
        eu, _ = _run_program(4, Workload.paper(EULER))
        assert eu[1].library < ns[1].library

    def test_v7_more_library_time(self):
        v5, _ = _run_program(4, Workload.paper(NAVIER_STOKES), version=5)
        v7, _ = _run_program(4, Workload.paper(NAVIER_STOKES), version=7)
        assert v7[1].library > v5[1].library

    def test_v6_overlap_reduces_wait(self):
        """On a fast network with early posting, waits shrink vs V5."""
        v5, _ = _run_program(
            4, Workload.paper(NAVIER_STOKES), version=5, step_seconds=0.01
        )
        v6, _ = _run_program(
            4, Workload.paper(NAVIER_STOKES), version=6, step_seconds=0.01
        )
        w5 = sum(t.comm_wait for t in v5)
        w6 = sum(t.comm_wait for t in v6)
        assert w6 <= w5 + 1e-12

    def test_blocking_send_charges_sender_wait(self):
        ctxs, _ = _run_program(2, Workload.paper(NAVIER_STOKES), library=MPL)
        # MPL transfers run inline: the sender accumulates comm_wait.
        assert ctxs[0].comm_wait > 0

    def test_makespan_scales_with_steps(self):
        _, m2 = _run_program(4, Workload.paper(NAVIER_STOKES), steps=2)
        _, m4 = _run_program(4, Workload.paper(NAVIER_STOKES), steps=4)
        assert m4 == pytest.approx(2 * m2, rel=0.02)


class TestTransferProcess:
    def test_holds_route_and_triggers(self):
        engine = Engine()
        net = CrossbarNetwork(2, bytes_per_s=1000.0, latency=0.0)
        resources = {k: Resource(c, k) for k, c in net.capacities().items()}
        route = [resources[k] for k in net.link_ids(0, 1)]
        slots = [None]
        occupancy = net.latency + net.transfer_time(500)
        engine.add_process(
            Transfer(engine, "transfer", route, occupancy, slots, 0, startup=0.25)
        )
        end = engine.run()
        assert slots[0] is True
        # 0.25 startup + 500/1000 transfer.
        assert end == pytest.approx(0.75)
        assert resources["pair:0->1"].in_use == 0

    def test_edge_fraction_sane(self):
        assert 0.0 < EDGE_COMPUTE_FRACTION < 0.2


def _stall(plan):
    """Rank 1 never sends: ranks 0 and 2 wait for its first message
    forever, and rank 1 waits for theirs a step later."""
    for e in reversed(range(plan.eoff[1], plan.eoff[2])):
        if plan.op[e] == _SEND:
            for column in (plan.op, plan.sec, plan.wire, plan.side, plan.piece):
                del column[e]
            for r in range(2, len(plan.eoff)):
                plan.eoff[r] -= 1


def _negative(plan):
    plan.op[plan.eoff[1]], plan.sec[plan.eoff[1]] = _COMPUTE, -1.0


class TestNativeEngine:
    """The C plan engine against the Python one on the same plan: the
    same timelines, clock and event count, or the same error."""

    @staticmethod
    def _outcome(use_native, library, edit=None, max_events=MAX_EVENTS):
        plan = _plan(3, Workload.paper(NAVIER_STOKES), 6, library)
        if edit is not None:
            edit(plan)
        timelines = [RankTimeline(r) for r in range(3)]
        try:
            if use_native:
                end = native.run(plan, timelines, None, max_events)
                assert end
            else:
                end = program.run(plan, timelines, None, max_events)
        except (RuntimeError, ValueError) as exc:
            return type(exc), str(exc)
        return end, [
            (t.busy, t.compute, t.library, t.comm_wait, t.finished_at)
            for t in timelines
        ]
    @pytest.mark.parametrize("library", [PVM, MPL], ids=["buffered", "blocking"])
    @pytest.mark.parametrize("edit,max_events,error", [
        (None, MAX_EVENTS, None),
        (_stall, MAX_EVENTS, "blocked processes: ['rank0', 'rank1', 'rank2']"),
        (None, 7, "event budget exceeded"),
        (_negative, MAX_EVENTS, "negative delay -1.0 in rank1"),
    ], ids=["clean", "stall", "budget", "negative"])
    def test_parity(self, library, edit, max_events, error):
        if _cc.find_compiler() is None:
            pytest.skip("no C compiler")
        theirs = self._outcome(False, library, edit, max_events)
        assert self._outcome(True, library, edit, max_events) == theirs
        if error is not None:
            assert error in theirs[1]
