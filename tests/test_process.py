"""The process substrate: real multi-core SPMD execution (ISSUE 5).

Three layers of coverage:

* **msglib unit tests** — :class:`~repro.msglib.ProcessCluster` and
  :class:`~repro.msglib.ProcessCommunicator` honour the same
  :class:`~repro.msglib.Communicator` contract as the virtual cluster:
  tag-matched point-to-point (shared-memory and oversized-inline paths),
  ``(source, tag)`` selectivity, collectives, timeouts
  (:class:`~repro.msglib.DeadlockError`) and the structured failure
  contract (:class:`~repro.msglib.RankFailure` + survivor abort).
* **cross-substrate equivalence** — a distributed run on OS processes is
  bitwise-identical to the same run on the virtual cluster and to the
  serial reference, for Euler and Navier-Stokes, for the fused and
  baseline kernel backends, and through checkpoint/restart recovery.
* **facade composition** — ``api.run(..., substrate="process")`` routes,
  records per-rank metrics/traces from every worker (exact merge on
  join), stamps the substrate into the perf report fingerprint, and
  rejects meaningless combinations.

Worker processes are forked, so every test here is POSIX-only (the
cluster raises a clear error elsewhere); spawn cost keeps the chaos
matrix subset behind ``-m slow``.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

import numpy as np
import pytest

from repro import jet_scenario
from repro.api import run
from repro.faults import FaultPlan, MessageTimeout, RankCrashed
from repro.msglib import (
    ClusterAborted,
    DeadlockError,
    ProcessCluster,
    ProcessCommunicator,
    RankFailure,
    RemoteRankError,
    VirtualCluster,
)
from repro.msglib import process as process_module
from repro.msglib.process import (
    _POLL,
    _SPIN,
    DEFAULT_SLOT_BYTES,
    _portable_exception,
)
from repro.parallel.halo import halo_depth
from repro.parallel.runner import ParallelJetSolver, serial_reference

STEPS = 6

#: Chaos-matrix subset exercised over real processes (the full matrix
#: lives in test_faults.py on the cheap-to-spawn virtual cluster).
CHAOS_KINDS = {
    "duplicate": dict(duplicate=0.25),
    "reorder": dict(reorder=0.2),
    "mixed": dict(drop=0.08, duplicate=0.08, reorder=0.08, truncate=0.05,
                  delay=0.15, max_delay=0.001, max_transmits=4),
}


def _case(viscous: bool):
    sc = jet_scenario(nx=48, nr=16, viscous=viscous)
    config = dataclasses.replace(sc.solver.config, dt_recompute_every=1)
    ref = serial_reference(sc.state, config, steps=STEPS)
    return sc, config, ref


@pytest.fixture(scope="module")
def ns_case():
    return _case(viscous=True)


@pytest.fixture(scope="module")
def euler_case():
    return _case(viscous=False)


# -- msglib unit tests --------------------------------------------------------


class TestProcessCluster:
    def test_ring_exchange(self):
        """Every rank sends right / receives left; payloads intact."""

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, "ring", np.full(8, float(comm.rank)))
            got = comm.recv(left, "ring")
            return float(got[0])

        with ProcessCluster(3, timeout=20) as cluster:
            results = cluster.run(program)
        assert results == [2.0, 0.0, 1.0]

    def test_tag_selectivity_and_stash(self):
        """Receives match on (source, tag) even against arrival order."""

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "first", np.array([1.0]))
                comm.send(1, "second", np.array([2.0]))
                return None
            # Consume in reverse send order: 'first' must wait stashed.
            b = comm.recv(0, "second", timeout=10)
            a = comm.recv(0, "first", timeout=10)
            assert comm.pending() == 0
            return (float(a[0]), float(b[0]))

        with ProcessCluster(2, timeout=20) as cluster:
            results = cluster.run(program)
        assert results[1] == (1.0, 2.0)

    def test_oversized_payload_rides_inline(self):
        """Payloads beyond slot_bytes cross the queue, bit-exact."""
        big = np.arange(DEFAULT_SLOT_BYTES // 8 + 100, dtype=np.float64)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "big", big)
                return None
            got = comm.recv(0, "big", timeout=20)
            return bool(np.array_equal(got, big))

        with ProcessCluster(2, timeout=20) as cluster:
            results = cluster.run(program)
        assert results[1] is True

    def test_symmetric_oversize_exchange(self):
        """Both ranks send 2 MB before either receives.  Oversize payloads
        must keep the queue's unbounded buffering: on the synchronous
        descriptor pipe each send would block on a full pipe nobody is
        reading, and the pair would hang."""
        big = np.arange(1 << 18, dtype=np.float64)  # 2 MB

        def program(comm):
            peer = 1 - comm.rank
            comm.send(peer, "swap", big + comm.rank)
            got = comm.recv(peer, "swap")
            return bool(np.array_equal(got, big + peer))

        with ProcessCluster(2, timeout=10) as cluster:
            assert cluster.run(program) == [True, True]

    def test_abort_wakes_a_blocked_recv_after_oversize_exchange(self):
        """abort() reaches a rank blocked in recv through the pipe it is
        waiting on: ClusterAborted within a poll interval, never a hang."""
        big = np.zeros(1 << 18)

        def program(comm):
            peer = 1 - comm.rank
            comm.send(peer, "swap", big)
            comm.recv(peer, "swap")
            if comm.rank == 1:
                time.sleep(0.3)  # let rank 0 block first
                issued = time.monotonic()
                comm.cluster.abort("test abort")
                return issued
            with pytest.raises(ClusterAborted, match="test abort"):
                comm.recv(peer, "never")
            return time.monotonic()

        with ProcessCluster(2, timeout=10) as cluster:
            woke, issued = cluster.run(program)
        # One _POLL by design; the slack absorbs scheduling on a busy host.
        assert 0.0 <= woke - issued < 10 * _POLL, (
            f"woke {woke - issued:.4f} s after the abort was issued "
            f"(limit {10 * _POLL:.4f} s)"
        )

    def test_oversize_and_slot_messages_keep_send_order(self):
        """A source's messages are matched in send order even when they
        alternate between the queue (oversize) and the slot ring, with a
        second source's oversize payloads interleaved on the same queue."""
        big = np.zeros(DEFAULT_SLOT_BYTES // 8 + 1)

        def program(comm):
            if comm.rank != 0:
                for k in range(6):
                    comm.send(0, "seq", (big if k % 2 == 0 else big[:4]) + k)
                return None
            return [
                [float(comm.recv(src, "seq")[0]) for _ in range(6)]
                for src in (1, 2)
            ]

        with ProcessCluster(3, timeout=20) as cluster:
            order = cluster.run(program)[0]
        assert order == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]] * 2

    def test_collectives_and_stats(self):
        def program(comm):
            lo = comm.allreduce_min(float(10 - comm.rank))
            comm.barrier()
            parts = comm.gather_arrays(np.array([float(comm.rank)]))
            gathered = (
                [float(p[0]) for p in parts] if comm.rank == 0 else None
            )
            return lo, gathered, comm.stats.sends

        with ProcessCluster(3, timeout=20) as cluster:
            results = cluster.run(program)
            total = cluster.total_stats()
        assert [r[0] for r in results] == [8.0, 8.0, 8.0]
        assert results[0][1] == [0.0, 1.0, 2.0]
        assert all(r[2] > 0 for r in results)
        assert total.sends == total.recvs > 0

    def test_recv_timeout_is_deadlock_error(self):
        def program(comm):
            if comm.rank == 1:
                with pytest.raises(DeadlockError):
                    comm.recv(0, "never", timeout=0.1)
            comm.barrier()
            return comm.rank

        with ProcessCluster(2, timeout=20) as cluster:
            assert cluster.run(program) == [0, 1]

    def test_worker_exception_is_structured(self):
        """A raising rank produces RankFailure; survivors are aborted."""

        def program(comm):
            if comm.rank == 1:
                raise ValueError("injected worker failure")
            # Rank 0 blocks on a message that never comes: the abort
            # broadcast must fail it promptly instead of timing out.
            comm.recv(1, "never")

        with ProcessCluster(2, timeout=60) as cluster:
            with pytest.raises(RankFailure) as exc:
                cluster.run(program)
        failure = exc.value
        assert failure.rank == 1
        assert isinstance(failure.__cause__, ValueError)
        assert any(
            isinstance(e, ClusterAborted) for _, _, e in failure.failures
        ), "the surviving rank should have been aborted"

    def test_run_is_single_shot(self):
        with ProcessCluster(2, timeout=20) as cluster:
            cluster.run(lambda comm: comm.rank)
            with pytest.raises(RuntimeError, match="single-shot"):
                cluster.run(lambda comm: comm.rank)

    def test_backpressure_fills_then_times_out(self):
        """An unconsumed channel applies backpressure, then deadlocks.

        Rank 1 must stay out of every receive: any blocking wait drains
        the control queue into the stash (freeing ring slots), which is
        exactly the backpressure-release path this test must not take.
        """

        def program(comm):
            if comm.rank == 0:
                with pytest.raises(DeadlockError, match="stayed occupied"):
                    for _ in range(100):
                        comm.send(1, "flood", np.zeros(4))
                return True
            time.sleep(1.5)
            return True

        with ProcessCluster(
            2, timeout=0.5, slots_per_channel=2
        ) as cluster:
            assert cluster.run(program) == [True, True]


def test_a_grouped_halo_fits_one_slot():
    """What ``DEFAULT_SLOT_BYTES`` is sized for: one grouped halo message
    of the paper's 250x100 Navier-Stokes grid, ``H`` lines of four float64
    variables.  Either one past the slot size would ride the pickled
    oversize queue on every step."""
    H = halo_depth(jet_scenario(nx=250, nr=100, viscous=True).solver.config)
    axial, radial = (4 * H * line * 8 for line in (100, 250))
    assert (axial, radial) == (25_600, 64_000)
    assert max(axial, radial) <= DEFAULT_SLOT_BYTES  # by 1 536 B


class _PollSpy:
    """Stands in for a rank's end of its pipe and counts the polls that
    may sleep (a non-zero timeout); spinning polls pass ``0``."""

    def __init__(self, rx) -> None:
        self._rx = rx
        self.sleeping = 0

    def poll(self, timeout=0.0):
        if timeout:
            self.sleeping += 1
        return self._rx.poll(timeout)

    def recv(self):
        return self._rx.recv()


class TestSpinThenSleep:
    """A blocked receive polls without sleeping for ``_SPIN`` before it
    sleeps — and every way out of a receive still works while it spins."""

    def test_message_inside_the_spin_window_needs_no_sleeping_poll(self):
        rounds = 20

        def program(comm):
            peer = 1 - comm.rank
            if comm.rank == 0:
                for k in range(rounds):
                    comm.recv(peer, f"{k}:ready", timeout=20)
                    until = time.perf_counter() + _SPIN / 10
                    while time.perf_counter() < until:
                        pass  # the receiver is inside recv by now, waiting
                    comm.send(peer, f"{k}:go", np.zeros(4))
                return None
            spy = comm._rx = _PollSpy(comm._rx)
            waits = []
            for k in range(rounds):
                comm.send(peer, f"{k}:ready", np.zeros(4))
                spy.sleeping = 0
                began = time.perf_counter()
                comm.recv(peer, f"{k}:go", timeout=20)
                waits.append((time.perf_counter() - began, spy.sleeping))
            return waits

        with ProcessCluster(2, timeout=30) as cluster:
            waits = cluster.run(program)[1]
        # Every round waits (the sender dawdles a tenth of the spin bound);
        # a round the host stretched past the bound — both ranks on one
        # CPU, say — may sleep, one that stayed inside it must not have.
        inside = [slept for waited, slept in waits if waited < _SPIN]
        assert inside and not any(inside), waits

    def test_timeout_shorter_than_the_spin_still_bounds_the_call(self):
        limit = _SPIN / 4

        def program(comm):
            if comm.rank == 1:
                began = time.monotonic()
                with pytest.raises(DeadlockError, match="never"):
                    comm.recv(0, "never", timeout=limit)
                waited = time.monotonic() - began
            else:
                waited = None
            comm.barrier()
            return waited

        with ProcessCluster(2, timeout=20) as cluster:
            waited = cluster.run(program)[1]
        assert limit <= waited < limit + _POLL, waited

    @pytest.mark.parametrize("spin", [0.0, 60.0], ids=["sleeping", "spinning"])
    def test_abort_reason_outruns_the_flag(self, monkeypatch, spin):
        """``abort`` raises the flag, then posts the notice naming the reason.
        A receiver that sees the flag in between — asleep, or with the spin
        stretched over the whole wait, so that it is the spin loop's own
        abort check that ends the receive — reports the reason all the same,
        and promptly: a spinner's only poll that may sleep is the bounded
        one for the notice."""
        monkeypatch.setattr(process_module, "_SPIN", spin)  # forked with it

        def program(comm):
            peer = 1 - comm.rank
            if comm.rank == 1:
                comm.recv(peer, "blocking-next", timeout=20)
                time.sleep(0.3)  # let rank 0 block for a while
                flagged = time.monotonic()
                comm.cluster._abort.set()
                time.sleep(_POLL / 5)  # abort(), stretched at its seam
                comm.cluster._post(peer, ("abort", "the late reason"))
                return flagged
            spy = comm._rx = _PollSpy(comm._rx)
            comm.send(peer, "blocking-next", np.zeros(1))
            with pytest.raises(ClusterAborted, match="waiting for message.*late reason"):
                comm.recv(peer, "never")
            return time.monotonic(), spy.sleeping

        with ProcessCluster(2, timeout=10) as cluster:
            (woke, slept), flagged = cluster.run(program)
        assert slept <= 1 or not spin
        assert 0.0 <= woke - flagged < 10 * _POLL, (
            f"woke {woke - flagged:.4f} s after the abort was flagged "
            f"(limit {10 * _POLL:.4f} s)"
        )

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control"
    )
    def test_four_ranks_on_one_cpu_match_serial(self, ns_case):
        """Oversubscription is correct, not just fast: four spinning ranks
        confined to a single CPU make progress only by yielding it."""
        sc, config, ref = ns_case
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})  # inherited by the ranks
        try:
            res = ParallelJetSolver(
                sc.state, config, nranks=4, timeout=60, substrate="process",
            ).run(STEPS)
        finally:
            os.sched_setaffinity(0, allowed)
        assert np.array_equal(res.state.q, ref.q)


class TestRecvView:
    """One receive path on the shared-memory slot ring.

    The contract under test: the receive that reads a slot's descriptor
    copies the payload out and frees the slot, whatever tag it waits for —
    so a receiver inside a receive never wedges its sender, at any ring
    depth — and ``recv_view`` is that same copy behind the
    :class:`~repro.msglib.api.MessageView` release discipline.
    """

    def test_context_manager_scopes_the_borrow(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "zc", np.full(8, 3.0))
                return True
            with comm.recv_view(0, "zc", timeout=20) as view:
                ok = bool(np.array_equal(view.array, np.full(8, 3.0)))
            assert view.released
            return ok

        with ProcessCluster(2, timeout=20) as cluster:
            assert cluster.run(program)[1] is True

    def test_oversized_payload_gives_owned_view(self):
        """Payloads that rode the queue inline honour the view API like
        the ones that crossed a slot."""
        big = np.arange(DEFAULT_SLOT_BYTES // 8 + 50, dtype=np.float64)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "big", big)
                return True
            view = comm.recv_view(0, "big", timeout=20)
            assert not view.array.flags.writeable
            ok = bool(np.array_equal(view.array, big))
            view.release()
            assert view.released
            with pytest.raises(RuntimeError, match="after release"):
                view.array
            with pytest.raises(RuntimeError, match="called twice"):
                view.release()
            return ok

        with ProcessCluster(2, timeout=20) as cluster:
            assert cluster.run(program)[1] is True

    def test_borrowed_slot_survives_sender_flood(self):
        """A receiver parked on another tag never wedges its sender: seven
        messages cross a 2-slot ring while rank 1 waits for the last one,
        each descriptor it reads meanwhile freeing its slot, and all six
        stashed payloads are intact afterwards."""
        msgs = [np.full(16, float(i)) for i in range(6)]

        def program(comm):
            if comm.rank == 0:
                for i, m in enumerate(msgs):
                    comm.send(1, f"m:{i}", m)
                comm.send(1, "go", np.zeros(1))
                return True
            comm.recv(0, "go", timeout=30)
            return all(
                np.array_equal(comm.recv(0, f"m:{i}", timeout=30), msgs[i])
                for i in reversed(range(6))
            )

        with ProcessCluster(2, timeout=30, slots_per_channel=2) as cluster:
            assert cluster.run(program)[1] is True

    def test_borrow_exhausting_the_ring_raises_structured(self):
        """The program that used to dead-lock a rank behind its own
        borrow — hold the view of ``a``, receive ``b``, on a 1-slot ring —
        completes: the slot was free the moment ``a``'s descriptor was
        read.  Promptly, too: well inside the second the deleted protocol
        waited before declaring the deadlock."""

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "a", np.arange(4.0))
                comm.send(1, "b", np.ones(4))  # needs the slot "a" filled
                return True
            with comm.recv_view(0, "a", timeout=20) as view:
                began = time.monotonic()
                got = comm.recv(0, "b", timeout=10)
                assert time.monotonic() - began < 1.0
                ok = bool(np.array_equal(view.array, np.arange(4.0)))
            return ok and bool(np.array_equal(got, np.ones(4)))

        with ProcessCluster(
            2, timeout=30, slots_per_channel=1
        ) as cluster:
            assert cluster.run(program)[1] is True

    def test_eager_recv_unaffected_by_view_api(self):
        """Plain recv owns its payload outright — mutating it never
        touches the ring (the slot was freed when its descriptor was read)."""

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "a", np.full(8, 1.0))
                comm.send(1, "b", np.full(8, 2.0))
                return True
            a = comm.recv(0, "a", timeout=20)
            a[:] = -1.0  # owned: writable, detached from the ring
            b = comm.recv(0, "b", timeout=20)
            return bool(np.array_equal(b, np.full(8, 2.0)))

        with ProcessCluster(2, timeout=20) as cluster:
            assert cluster.run(program)[1] is True


class TestExceptionPortability:
    """Structured fault exceptions must survive the process boundary."""

    @pytest.mark.parametrize("exc", [
        RankCrashed(3, 17),
        MessageTimeout(1, 0, "5:halo", 2.5, 4, step=5),
    ])
    def test_fault_errors_pickle_round_trip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.args == exc.args
        assert vars(clone) == vars(exc)
        assert _portable_exception(exc) is exc

    def test_unpicklable_exception_is_wrapped(self):
        exc = ValueError("boom")
        exc.payload = lambda: None  # closures don't pickle
        exc.step = 9
        wrapped = _portable_exception(exc)
        assert isinstance(wrapped, RemoteRankError)
        assert wrapped.original_type == "ValueError"
        assert wrapped.step == 9
        assert "boom" in str(wrapped)


# -- cross-substrate equivalence ----------------------------------------------


class TestSubstrateEquivalence:
    @pytest.mark.parametrize("case", ["euler_case", "ns_case"])
    def test_process_matches_virtual_and_serial(self, case, request):
        sc, config, ref = request.getfixturevalue(case)
        runs = {}
        for substrate in ("virtual", "process"):
            res = ParallelJetSolver(
                sc.state, config, nranks=2, timeout=60, substrate=substrate,
            ).run(STEPS)
            runs[substrate] = res
        assert np.array_equal(runs["process"].state.q, runs["virtual"].state.q)
        assert np.array_equal(runs["process"].state.q, ref.q)
        # Both substrates speak the same protocol: identical traffic shape.
        assert [s.sends for s in runs["process"].per_rank_stats] == [
            s.sends for s in runs["virtual"].per_rank_stats
        ]

    @pytest.mark.parametrize(
        "nranks,kw",
        [
            (2, dict(decomposition="radial")),
            (4, dict(decomposition="2d", px=2, pr=2)),
        ],
        ids=["radial", "2d"],
    )
    def test_other_decompositions_match_virtual_and_serial(
        self, ns_case, nranks, kw
    ):
        """Full substrate parity: radial and 2-D runs are bitwise-equal
        across OS processes, the virtual cluster and the serial reference,
        with identical per-rank traffic shape."""
        sc, config, ref = ns_case
        runs = {}
        for substrate in ("virtual", "process"):
            runs[substrate] = ParallelJetSolver(
                sc.state, config, nranks=nranks, timeout=60,
                substrate=substrate, **kw,
            ).run(STEPS)
        assert np.array_equal(runs["process"].state.q, runs["virtual"].state.q)
        assert np.array_equal(runs["process"].state.q, ref.q)
        assert [s.sends for s in runs["process"].per_rank_stats] == [
            s.sends for s in runs["virtual"].per_rank_stats
        ]

    @pytest.mark.parametrize(
        "nranks,kw",
        [
            (2, dict(decomposition="radial")),
            (4, dict(decomposition="2d", px=2, pr=2)),
        ],
        ids=["radial", "2d"],
    )
    def test_crash_recovers_on_other_decompositions(
        self, ns_case, chaos_seed, nranks, kw
    ):
        """Worker-process crash on a radial/2-D run: the parent-held
        store resumes from the shipped snapshot, bitwise-exact."""
        sc, config, ref = ns_case
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 4),),
                         recv_timeout=0.2, recv_retries=2)
        res = ParallelJetSolver(
            sc.state, config, nranks=nranks, timeout=60,
            substrate="process", faults=plan, checkpoint_every=2, **kw,
        ).run(STEPS)
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref.q)

    def test_fused_matches_baseline_on_processes(self, euler_case):
        sc, config, _ = euler_case
        states = {}
        for backend in ("baseline", "fused"):
            cfg = dataclasses.replace(config, backend=backend)
            states[backend] = ParallelJetSolver(
                sc.state, cfg, nranks=2, timeout=60, substrate="process",
            ).run(STEPS).state.q
        assert np.array_equal(states["fused"], states["baseline"])

    def test_crash_recovers_via_checkpoint(self, ns_case, chaos_seed):
        """Injected crash on a worker process: the parent-held store
        restarts the run from the shipped snapshot, bitwise-exact."""
        sc, config, ref = ns_case
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 4),),
                         recv_timeout=0.2, recv_retries=2)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, substrate="process",
            faults=plan, checkpoint_every=2,
        ).run(STEPS)
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref.q)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", sorted(CHAOS_KINDS))
    def test_chaos_subset(self, ns_case, kind, chaos_seed):
        """Seeded wire chaos over real processes: recovered bitwise or
        structured failure — same contract as the virtual chaos matrix."""
        sc, config, ref = ns_case
        plan = FaultPlan(
            seed=chaos_seed, name=kind, recv_timeout=0.3, recv_retries=4,
            **CHAOS_KINDS[kind],
        )
        try:
            res = ParallelJetSolver(
                sc.state, config, nranks=2, timeout=60, substrate="process",
                faults=plan, max_restarts=0,
            ).run(STEPS)
        except RankFailure as failure:
            assert failure.ranks
            assert all(0 <= r < 2 for r in failure.ranks)
            return
        assert np.array_equal(res.state.q, ref.q)


# -- facade composition -------------------------------------------------------


class TestApiProcessSubstrate:
    @pytest.fixture(scope="class")
    def process_run(self):
        return run(
            "jet-euler", steps=4, nprocs=2, nx=48, nr=16,
            substrate="process", metrics=True, trace=True,
        )

    def test_routes_and_stamps_substrate(self, process_run):
        res = process_run
        assert res.mode == "parallel"
        assert res.substrate == "process"
        assert res.perf.substrate == "process"

    def test_matches_virtual_route_bitwise(self, process_run):
        ref = run("jet-euler", steps=4, nprocs=2, nx=48, nr=16)
        assert ref.substrate == "virtual"
        assert np.array_equal(process_run.state.q, ref.state.q)

    def test_fingerprint_separates_substrates(self, process_run):
        ref = run("jet-euler", steps=4, nprocs=2, nx=48, nr=16,
                  metrics=True)
        assert ref.perf.substrate == "virtual"
        assert ref.perf.fingerprint != process_run.perf.fingerprint

    def test_observability_covers_every_rank(self, process_run):
        res = process_run
        # run() defaults to Version 7: 4 halos of H = 4 one-line messages and
        # the dt all-reduce each; rank 1 also ships the gather.
        assert [s.sends for s in res.per_rank_stats] == [17, 18]
        span_ranks = {s.rank for s in res.trace.spans}
        assert {0, 1} <= span_ranks
        snap = res.metrics.snapshot()
        bytes_sent = snap["counters"]["comm.bytes_sent"]
        assert set(bytes_sent) == {"0", "1"}
        # Live per-call histograms must carry both workers' samples too
        # (recorded in the forked processes, merged exactly on join).
        send_calls = snap["histograms"]["comm.send_call_seconds"]
        assert set(send_calls) == {"0", "1"}

    def test_rejects_unknown_substrate(self):
        with pytest.raises(ValueError, match="substrate"):
            run("jet-euler", steps=2, nprocs=2, substrate="mpi-someday")

    def test_rejects_platform_combination(self):
        with pytest.raises(ValueError, match="simulated"):
            run("jet-euler", steps=2, nprocs=4, platform="sp2",
                substrate="process")

    def test_nprocs_one_takes_serial_route(self):
        res = run("jet-euler", steps=2, nprocs=1, nx=48, nr=16,
                  substrate="process")
        assert res.mode == "serial"
        assert res.substrate is None
