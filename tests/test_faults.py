"""Chaos suite: seeded fault injection over the virtual cluster.

The invariant under test is the fault layer's contract (ISSUE 3): under
any seeded :class:`~repro.faults.FaultPlan` a distributed run either

* **completes bitwise-equal** to the fault-free baseline (every injected
  wire fault recovered by the sequence-numbered transport), or
* **raises a structured** :class:`~repro.msglib.RankFailure` naming the
  failed ranks and steps —

but never hangs and never silently corrupts the numerics.  Every fault
decision is a pure hash of the seed, so any failure reproduces from the
seed the ``chaos_seed`` fixture prints (``pytest --chaos-seed=<n>``).

This module intentionally does not import ``hypothesis`` — the CI chaos
job runs it in a minimal environment (see
``tests/test_property_invariants.py`` for the property-based half).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import jet_scenario
from repro.faults import (
    PRESETS,
    FaultPlan,
    FaultyComm,
    MessageTimeout,
    RankCrashed,
    fault_plan_by_name,
    resolve_fault_plan,
)
from repro.faults.wire import HEADER_BYTES, pack_frame, truncate_frame, unpack_frame
from repro.msglib import RankFailure
from repro.obs import Tracer
from repro.parallel.runner import ParallelJetSolver, serial_reference

STEPS = 6

#: One plan per fault mechanism, each exercised alone so a regression in
#: any single recovery path has an unambiguous test name.
FAULT_KINDS = {
    "drop": dict(drop=0.15, max_transmits=4),
    "duplicate": dict(duplicate=0.25),
    "reorder": dict(reorder=0.2),
    "delay": dict(delay=0.4, max_delay=0.001),
    "truncate": dict(truncate=0.12, max_transmits=4),
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


def _plan(kind: str, seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed, name=kind, recv_timeout=0.3, recv_retries=4,
        **FAULT_KINDS[kind],
    )


class TestChaosMatrix:
    """drop/dup/reorder/delay/truncate x Euler/NS x nprocs in {2, 4}."""

    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_navier_stokes(self, ns_case, kind, nprocs, chaos_seed):
        self._run(ns_case, kind, nprocs, chaos_seed)

    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_euler(self, euler_case, kind, nprocs, chaos_seed):
        self._run(euler_case, kind, nprocs, chaos_seed)

    @staticmethod
    def _run(case, kind, nprocs, seed, **kw):
        sc, config, ref = case
        plan = _plan(kind, seed)
        solver = ParallelJetSolver(
            sc.state, config, nranks=nprocs, timeout=30, faults=plan,
            max_restarts=0, **kw,
        )
        try:
            res = solver.run(STEPS)
        except RankFailure as failure:
            # The structured-failure arm: the exception names the ranks,
            # steps and last good state — never a hang, never a bare error.
            assert failure.ranks
            assert all(0 <= r < nprocs for r in failure.ranks)
            assert failure.last_good_step == 0
            assert isinstance(
                failure.__cause__, (MessageTimeout, RankCrashed, RuntimeError)
            )
            return
        assert np.array_equal(res.state.q, ref.q), (
            f"faulted run diverged from baseline (kind={kind}, "
            f"nprocs={nprocs}, seed={seed})"
        )
        stats = [s for s in res.fault_stats if s is not None]
        assert stats, "fault plan active but no fault stats collected"

    @pytest.mark.parametrize(
        "kind", ["drop", "truncate", "mixed"]
    )
    @pytest.mark.parametrize(
        "nprocs,kw",
        [
            (2, dict(decomposition="radial")),
            (4, dict(decomposition="2d", px=2, pr=2)),
        ],
        ids=["radial", "2d"],
    )
    def test_other_decompositions(self, ns_case, kind, nprocs, kw, chaos_seed):
        """The fault contract is decomposition-agnostic: the unified
        exchange core gives radial and 2-D runs the identical
        recover-or-structured-failure guarantee."""
        self._run(ns_case, kind, nprocs, chaos_seed, **kw)

    def test_matrix_is_not_vacuous(self, ns_case, chaos_seed):
        """At least one fault actually fires per mechanism at these rates."""
        sc, config, ref = ns_case
        for kind in FAULT_KINDS:
            res = None
            try:
                res = ParallelJetSolver(
                    sc.state, config, nranks=4, timeout=30,
                    faults=_plan(kind, chaos_seed), max_restarts=0,
                ).run(STEPS)
            except RankFailure:
                continue  # faults fired hard enough to kill the run
            total = sum(
                s.total_injected for s in res.fault_stats if s is not None
            )
            assert total > 0, f"plan {kind!r} injected nothing"


class TestReproducibility:
    def test_same_seed_same_faults(self, ns_case, chaos_seed):
        """Two runs under one seed inject the identical fault schedule."""
        sc, config, _ = ns_case

        def injected():
            res = ParallelJetSolver(
                sc.state, config, nranks=4, timeout=30,
                faults=_plan("mixed", chaos_seed), max_restarts=0,
            ).run(STEPS)
            return [
                dict(s.injected) if s is not None else None
                for s in res.fault_stats
            ]

        assert injected() == injected()

    def test_different_seed_different_faults(self, ns_case):
        sc, config, _ = ns_case

        def counts(seed):
            try:
                res = ParallelJetSolver(
                    sc.state, config, nranks=4, timeout=30,
                    faults=_plan("mixed", seed), max_restarts=0,
                ).run(STEPS)
            except RankFailure as failure:
                # A killed run is a legal outcome; its failure signature
                # still distinguishes the schedule.
                return [(r, s) for r, s, _ in failure.failures]
            return [
                dict(s.injected) if s is not None else None
                for s in res.fault_stats
            ]

        assert counts(1) != counts(2)

    def test_fate_is_pure(self):
        plan = fault_plan_by_name("lossy-ethernet", seed=42)
        a = [plan.fate(0, 1, "3:x:pred", s, 0) for s in range(50)]
        b = [plan.fate(0, 1, "3:x:pred", s, 0) for s in range(50)]
        assert a == b
        assert any(f.drop or f.duplicate or f.reorder or f.delay_seconds
                   for f in a)


class TestCrashAndRestart:
    def test_crash_without_checkpoint_is_structured(self, ns_case, chaos_seed):
        sc, config, _ = ns_case
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 3),),
                         recv_timeout=0.2, recv_retries=2)
        with pytest.raises(RankFailure) as exc:
            ParallelJetSolver(
                sc.state, config, nranks=4, timeout=30, faults=plan,
                max_restarts=0,
            ).run(STEPS)
        failure = exc.value
        assert failure.rank == 1
        assert failure.step == 3
        assert failure.last_good_step == 0
        assert "rank 1 failed" in str(failure)

    def test_crash_recovers_via_checkpoint(self, ns_case, chaos_seed):
        """An injected crash resumes from the checkpoint, bitwise-exact."""
        sc, config, ref = ns_case
        plan = FaultPlan(seed=chaos_seed, crashes=((2, 4),),
                         recv_timeout=0.2, recv_retries=2)
        res = ParallelJetSolver(
            sc.state, config, nranks=4, timeout=30, faults=plan,
            checkpoint_every=2,
        ).run(STEPS)
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref.q)

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
        """checkpoint()/restore() are wired through every decomposition:
        an injected crash resumes bitwise-exact on radial and 2-D runs."""
        sc, config, ref = ns_case
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 4),),
                         recv_timeout=0.2, recv_retries=2)
        res = ParallelJetSolver(
            sc.state, config, nranks=nranks, timeout=30, faults=plan,
            checkpoint_every=2, **kw,
        ).run(STEPS)
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref.q)

    def test_lossy_crash_preset_recovers(self, ns_case, chaos_seed):
        """The acceptance scenario: lossy wire + crash, retry + resume."""
        sc, config, ref = ns_case
        plan = fault_plan_by_name("lossy-crash", seed=chaos_seed)
        res = ParallelJetSolver(
            sc.state, config, nranks=4, timeout=30, faults=plan,
            checkpoint_every=2, max_restarts=3,
        ).run(STEPS)
        assert res.restarts >= 1
        assert np.array_equal(res.state.q, ref.q)


class TestFaultFree:
    def test_inert_plan_is_bitwise_clean(self, ns_case):
        """A plan with nothing enabled must not perturb the numerics."""
        sc, config, ref = ns_case
        res = ParallelJetSolver(
            sc.state, config, nranks=4, timeout=30, faults=FaultPlan(),
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)
        assert res.restarts == 0

    def test_transport_envelope_is_transparent(self, ns_case):
        """always_wrap frames every message yet changes no results."""
        sc, config, ref = ns_case
        res = ParallelJetSolver(
            sc.state, config, nranks=4, timeout=30,
            faults=FaultPlan(always_wrap=True),
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)


class TestTracing:
    def test_fault_events_recorded(self, ns_case, chaos_seed):
        sc, config, _ = ns_case
        tracer = Tracer(name="chaos")
        try:
            ParallelJetSolver(
                sc.state, config, nranks=4, timeout=30,
                faults=_plan("mixed", chaos_seed), max_restarts=0,
            ).run(STEPS, tracer=tracer)
        except RankFailure:
            pass
        events = tracer.trace.events_named("fault.")
        assert events
        assert all(e.cat == "fault" for e in events)
        assert {e.rank for e in events} <= set(range(4))

    def test_restart_recorded(self, ns_case, chaos_seed):
        sc, config, _ = ns_case
        tracer = Tracer(name="restart")
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 3),),
                         recv_timeout=0.2, recv_retries=2)
        ParallelJetSolver(
            sc.state, config, nranks=4, timeout=30, faults=plan,
            checkpoint_every=2,
        ).run(STEPS, tracer=tracer)
        restarts = tracer.trace.events_named("recovery.restart")
        assert len(restarts) == 1
        args = dict(restarts[0].args)
        assert args["failed_rank"] == 1


class TestSimulatedSubstrate:
    def test_des_faults_deterministic_and_costly(self):
        from repro.machines.platforms import platform_by_name
        from repro.simulate.machine import SimulatedMachine
        from repro.simulate.workload import NAVIER_STOKES

        plat = platform_by_name("lace/560+ethernet")
        clean = SimulatedMachine(plat, 8).run(NAVIER_STOKES, steps_window=8)
        lossy = lambda: SimulatedMachine(
            plat, 8, faults="lossy-ethernet"
        ).run(NAVIER_STOKES, steps_window=8)
        a, b = lossy(), lossy()
        assert a.execution_time == b.execution_time
        assert a.execution_time > clean.execution_time

    def test_des_slow_ranks_map_to_node_factors(self):
        from repro.machines.platforms import platform_by_name
        from repro.simulate.machine import SimulatedMachine

        plat = platform_by_name("lace/560+ethernet")
        m = SimulatedMachine(plat, 4, faults="jittery-now")
        assert m.node_speed_factors == [1.0, 1.0 / 2.5, 1.0, 1.0]

    def test_des_fault_events_traced(self):
        from repro.machines.platforms import platform_by_name
        from repro.simulate.machine import SimulatedMachine
        from repro.simulate.workload import NAVIER_STOKES

        plat = platform_by_name("lace/560+ethernet")
        tracer = Tracer(name="sim-chaos")
        SimulatedMachine(plat, 4, faults="lossy-ethernet").run(
            NAVIER_STOKES, steps_window=6, tracer=tracer
        )
        assert tracer.trace.events_named("fault.sim_delay")


class TestWireFraming:
    def test_round_trip(self, rng):
        payload = rng.random((4, 3, 7))
        seq, out = unpack_frame(pack_frame(9, payload))
        assert seq == 9
        assert np.array_equal(out, payload)
        assert out.dtype == payload.dtype

    def test_round_trip_preserves_shape_and_dtype(self, rng):
        for arr in (
            np.arange(5, dtype=np.int64),
            rng.random((2, 2)).astype(np.float32),
            np.array(3.5),
        ):
            seq, out = unpack_frame(pack_frame(0, arr))
            assert out.shape == arr.shape and out.dtype == arr.dtype
            assert np.array_equal(out, arr)

    def test_truncated_frame_rejected(self, rng):
        frame = pack_frame(1, rng.random(32))
        assert unpack_frame(truncate_frame(frame, 0.25)) is None
        assert unpack_frame(frame[: HEADER_BYTES - 1]) is None
        assert unpack_frame(np.zeros(4, dtype=np.uint8)) is None


class TestPlanApi:
    def test_presets_resolve(self):
        for name in PRESETS:
            plan = resolve_fault_plan(name, seed=7)
            assert plan.enabled and plan.seed == 7

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="lossy-ethernet"):
            fault_plan_by_name("nope")

    def test_bad_type(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            resolve_fault_plan(3.14)

    def test_api_run_rejects_serial_faults(self):
        from repro.api import run

        with pytest.raises(ValueError, match="nprocs > 1"):
            run("jet", steps=1, nx=32, nr=12, faults="lossy-ethernet")

    def test_describe_names_the_seed(self):
        text = fault_plan_by_name("drop-storm", seed=99).describe()
        assert "seed=99" in text and "drop" in text


class TestFaultyCommPassthrough:
    def test_disabled_plan_delegates(self, monkeypatch):
        """With no plan the decorator adds a branch, not a transport."""

        class Probe:
            rank, size = 0, 2
            stats = None

            def send(self, dest, tag, array):
                self.sent = (dest, tag, array)

            def recv(self, source, tag, timeout=None):
                return np.ones(3)

        probe = Probe()
        fc = FaultyComm(probe, None)
        payload = np.arange(3.0)
        fc.send(1, "t", payload)
        assert probe.sent[2] is payload  # no framing, no copy
        assert np.array_equal(fc.recv(1, "t"), np.ones(3))
        assert fc.fault_stats.total_injected == 0


class TestReceiveResilience:
    """irecv must ride recv's fault-aware timeout plumbing: a lazy irecv
    against a crashed/silent peer raises a structured MessageTimeout
    instead of hanging (ISSUE-5 bugfix)."""

    def test_lazy_irecv_times_out_with_structure(self, chaos_seed):
        import time

        from repro.msglib import VirtualCluster

        plan = FaultPlan(
            seed=chaos_seed, name="irecv-timeout", recv_timeout=0.05,
            recv_retries=2, always_wrap=True,
        )
        cluster = VirtualCluster(2, timeout=60.0)

        def prog(comm):
            fcomm = FaultyComm(comm, plan)
            try:
                if comm.rank == 1:
                    req = fcomm.irecv(0, "never", timeout=0.05)
                    t0 = time.perf_counter()
                    try:
                        req.wait()
                    except MessageTimeout as exc:
                        assert exc.receiver == 1
                        assert exc.source == 0
                        assert exc.tag == "never"
                        return time.perf_counter() - t0
                    return None
                return "sender"
            finally:
                fcomm.drain()

        waited = cluster.run(prog)[1]
        assert waited is not None, "irecv.wait() never raised MessageTimeout"
        assert waited < 10.0


class TestCollectiveChaos:
    """Consecutive same-tag collectives under duplication + reordering
    must stay exact: the per-communicator sequence suffix keeps a
    retransmitted reply from collective N out of collective N+1's receive
    (ISSUE-5 foregrounded bugfix)."""

    ROUNDS = [(3.0, 8.0), (9.0, 4.0), (1.0, 7.0), (6.0, 2.0), (5.0, 5.5)]

    def _collect(self, seed: int) -> list:
        from repro.msglib import VirtualCluster

        plan = FaultPlan(
            seed=seed, name="collective-chaos", duplicate=0.4, reorder=0.4,
            recv_timeout=0.3, recv_retries=4,
        )
        cluster = VirtualCluster(2, timeout=30.0)
        rounds = self.ROUNDS

        def prog(comm):
            fcomm = FaultyComm(comm, plan)
            try:
                out = []
                for vals in rounds:
                    fcomm.barrier()
                    out.append(fcomm.allreduce_min(vals[comm.rank]))
                    fcomm.barrier()
                g = fcomm.gather_arrays(np.array([float(comm.rank)]))
                if g is not None:
                    out.append([float(a[0]) for a in g])
                return out
            finally:
                fcomm.drain()

        return cluster.run(prog)

    def test_consecutive_collectives_bitwise_exact(self, chaos_seed):
        results = self._collect(chaos_seed)
        expected = [min(vals) for vals in self.ROUNDS]
        assert results[0][:-1] == expected
        assert results[1] == expected
        assert results[0][-1] == [0.0, 1.0]

    def test_collective_chaos_reproducible(self, chaos_seed):
        assert self._collect(chaos_seed) == self._collect(chaos_seed)


class TestRecvViewThroughFaults:
    """``recv_view`` composed with the fault layer."""

    def test_enabled_plan_gives_owned_view(self, chaos_seed):
        """Under injection the payload crosses the framed retransmission
        transport and comes back behind the same release discipline."""
        from repro.msglib import VirtualCluster

        plan = FaultPlan(seed=chaos_seed, name="view-owned", drop=0.15,
                         max_transmits=4, recv_timeout=0.3, recv_retries=4)

        def program(comm):
            fc = FaultyComm(comm, plan)
            try:
                if comm.rank == 0:
                    fc.send(1, "zc", np.arange(6.0))
                    return True
                view = fc.recv_view(0, "zc", timeout=5)
                ok = bool(np.array_equal(view.array, np.arange(6.0)))
                view.release()
                with pytest.raises(RuntimeError, match="called twice"):
                    view.release()
                return ok
            finally:
                fc.drain()

        assert VirtualCluster(2, timeout=30).run(program)[1] is True


class TestCompiledBackendChaos:
    """The compiled ("V6") backend behind the chaos wall: preset fault
    storms on the real process substrate still recover to the bitwise
    serial answer (or fall back to fused, which must too)."""

    def test_lossy_ethernet_process_compiled(self, ns_case, chaos_seed):
        sc, config, ref = ns_case
        config = dataclasses.replace(config, backend="compiled")
        plan = fault_plan_by_name("lossy-ethernet", seed=chaos_seed)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, substrate="process",
            faults=plan,
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)

    def test_crash_rank1_process_compiled(self, ns_case, chaos_seed):
        """A mid-run worker crash: resume from checkpoint, bitwise-exact."""
        sc, config, ref = ns_case
        config = dataclasses.replace(config, backend="compiled")
        plan = fault_plan_by_name("crash-rank1", seed=chaos_seed)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, substrate="process",
            faults=plan, checkpoint_every=2, max_restarts=3,
        ).run(STEPS)
        assert res.restarts >= 1
        assert np.array_equal(res.state.q, ref.q)
