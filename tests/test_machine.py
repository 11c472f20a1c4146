"""The simulated distributed machine: limits, scaling, contention."""

import hashlib

import pytest

from repro.machines.platforms import (
    CRAY_T3D,
    CRAY_YMP,
    IBM_SP,
    IBM_SP_PVME,
    LACE_560,
    LACE_560_ETHERNET,
    LACE_560_FDDI,
    LACE_590,
    LACE_590_ATM,
)
from repro.msglib.libmodel import MPL, PVM
from repro.numerics.kernels import _cc
from repro.obs import MetricsRegistry, chrome_trace_json, use
from repro.simulate import native
from repro.simulate.costmodel import CostModel
from repro.simulate.engine import Engine
from repro.simulate.machine import SimulatedMachine
from repro.simulate.sharedmem import IO_TIME, SharedMemoryMachine
from repro.simulate.workload import EULER, NAVIER_STOKES, Workload


class TestSingleProcessor:
    def test_equals_pure_compute(self):
        """One processor: no communication, time = flops / sustained rate."""
        m = SimulatedMachine(LACE_560, 1)
        r = m.run(NAVIER_STOKES, steps_window=10)
        w = Workload.paper(NAVIER_STOKES)
        cost = CostModel.of(LACE_560.cpu, 5)
        expected = cost.compute_time(
            NAVIER_STOKES.total_flops, w.working_set_bytes(1)
        )
        assert r.execution_time == pytest.approx(expected, rel=1e-6)
        assert r.comm_time == pytest.approx(0.0, abs=1e-6)

    def test_paper_single_processor_time(self):
        """145 GFLOP at 16 MFLOPS ~ 9062 s (paper Figure 2's V5 level)."""
        r = SimulatedMachine(LACE_560, 1).run(NAVIER_STOKES, steps_window=5)
        assert r.execution_time == pytest.approx(9062.5, rel=0.01)


class TestWindowScaling:
    def test_window_invariance(self):
        """Scaled results are window-independent (the program is periodic)."""
        a = SimulatedMachine(LACE_560, 8).run(NAVIER_STOKES, steps_window=10)
        b = SimulatedMachine(LACE_560, 8).run(NAVIER_STOKES, steps_window=40)
        assert a.execution_time == pytest.approx(b.execution_time, rel=0.02)
        assert a.busy_time == pytest.approx(b.busy_time, rel=0.02)

    def test_scale_property(self):
        r = SimulatedMachine(LACE_560, 2).run(NAVIER_STOKES, steps_window=25)
        assert r.scale == pytest.approx(5000 / 25)
        assert r.execution_time == pytest.approx(r.makespan_window * r.scale)


class TestAccountingSplit:
    def test_busy_plus_comm_is_execution(self):
        r = SimulatedMachine(LACE_560, 8).run(NAVIER_STOKES, steps_window=20)
        assert r.busy_time + r.comm_time == pytest.approx(
            r.execution_time, rel=1e-9
        )

    def test_busy_contains_compute_and_library(self):
        r = SimulatedMachine(LACE_560, 8).run(NAVIER_STOKES, steps_window=20)
        assert r.busy_time == pytest.approx(
            r.compute_time + r.library_time, rel=1e-9
        )
        assert r.library_time > 0

    def test_per_rank_vectors(self):
        r = SimulatedMachine(LACE_560, 4).run(NAVIER_STOKES, steps_window=10)
        assert len(r.per_rank_busy) == 4
        assert len(r.per_rank_wait) == 4


class TestContention:
    def test_ethernet_saturates(self):
        """Execution time on the shared bus rises again at high p."""
        times = {
            p: SimulatedMachine(LACE_560_ETHERNET, p)
            .run(NAVIER_STOKES, steps_window=20)
            .execution_time
            for p in (2, 8, 16)
        }
        assert times[8] < times[2]
        assert times[16] > times[8]

    def test_switched_network_keeps_scaling(self):
        times = {
            p: SimulatedMachine(CRAY_T3D, p)
            .run(NAVIER_STOKES, steps_window=20)
            .execution_time
            for p in (2, 8, 16)
        }
        assert times[16] < times[8] < times[2]
        # Near-linear: 8 -> 16 gains at least 1.8x.
        assert times[8] / times[16] > 1.8

    def test_blocking_send_charges_wait(self):
        """MPL's blocking sends put wire time in comm, not nothing."""
        r = SimulatedMachine(IBM_SP, 8).run(NAVIER_STOKES, steps_window=20)
        assert sum(t.comm_wait for t in r.timelines) > 0


class TestLibraries:
    def test_pvme_slower_than_mpl(self):
        for app in (NAVIER_STOKES, EULER):
            mpl = SimulatedMachine(IBM_SP, 16).run(app, steps_window=20)
            pvme = SimulatedMachine(IBM_SP_PVME, 16).run(app, steps_window=20)
            assert pvme.execution_time > 1.2 * mpl.execution_time
            # The gap lives in busy time (paper Figures 11-12).
            assert pvme.busy_time > 1.2 * mpl.busy_time

    def test_library_override(self):
        base = SimulatedMachine(IBM_SP, 4)
        assert base.library.name == "MPL"
        over = SimulatedMachine(IBM_SP, 4, library=PVM)
        assert over.library.name == "PVM"

    def test_pvm_scaled_by_node_speed(self):
        """Faster nodes run the PVM software path proportionally faster."""
        from repro.machines.platforms import LACE_590

        slow = SimulatedMachine(LACE_560, 2).library
        fast = SimulatedMachine(LACE_590, 2).library
        assert fast.cpu_send_overhead < slow.cpu_send_overhead
        ratio = slow.cpu_send_overhead / fast.cpu_send_overhead
        assert ratio == pytest.approx(27.5 / 16.0, rel=1e-6)


class TestVersions:
    def test_v7_more_startup_cost_on_switch(self):
        v5 = SimulatedMachine(LACE_560, 8, version=5).run(
            NAVIER_STOKES, steps_window=20
        )
        v7 = SimulatedMachine(LACE_560, 8, version=7).run(
            NAVIER_STOKES, steps_window=20
        )
        assert v7.library_time > v5.library_time

    def test_v6_hides_some_wait_but_pays_busy(self):
        v5 = SimulatedMachine(LACE_560, 8, version=5).run(
            NAVIER_STOKES, steps_window=20
        )
        v6 = SimulatedMachine(LACE_560, 8, version=6).run(
            NAVIER_STOKES, steps_window=20
        )
        assert v6.compute_time > v5.compute_time  # loop/cache penalty
        # Overall within ~10% either way (the paper's 'minimal' effect).
        assert v6.execution_time == pytest.approx(
            v5.execution_time, rel=0.10
        )


class TestValidation:
    def test_rejects_vector_platform(self):
        with pytest.raises(ValueError, match="no scalar CPU"):
            SimulatedMachine(CRAY_YMP, 4)

    def test_rejects_bad_proc_count(self):
        with pytest.raises(ValueError):
            SimulatedMachine(LACE_560, 0)


class TestSharedMemoryYMP:
    def test_scaling_to_eight(self):
        times = [
            SharedMemoryMachine(CRAY_YMP, p).run(NAVIER_STOKES).execution_time
            for p in (1, 2, 4, 8)
        ]
        assert times[0] > times[1] > times[2] > times[3]
        # Good but sub-ideal scaling (I/O constant): 1->8 gains 5-8x.
        assert 5.0 < times[0] / times[3] < 8.0

    def test_io_floor(self):
        r = SharedMemoryMachine(CRAY_YMP, 8).run(EULER)
        assert r.execution_time > IO_TIME

    def test_vastly_faster_than_workstations(self):
        """The paper: 'A traditional vector multiprocessor still
        outperforms multiprocessors of modest to medium size.'"""
        ymp1 = SharedMemoryMachine(CRAY_YMP, 1).run(NAVIER_STOKES)
        lace16 = SimulatedMachine(LACE_560, 16).run(
            NAVIER_STOKES, steps_window=20
        )
        assert ymp1.execution_time < lace16.execution_time

    def test_rejects_too_many_procs(self):
        with pytest.raises(ValueError):
            SharedMemoryMachine(CRAY_YMP, 9)


class TestHeterogeneousNodes:
    def test_mixed_cluster_runs_at_slow_node_speed(self):
        """Balanced decomposition + unequal nodes: every step waits for
        the slow half, so mixed ~= all-slow (the LACE ablation)."""
        from repro.machines.platforms import LACE_560 as plat

        uniform = SimulatedMachine(plat, 8).run(NAVIER_STOKES, steps_window=15)
        mixed = SimulatedMachine(
            plat, 8, node_speed_factors=[1.0] * 4 + [1.7] * 4
        ).run(NAVIER_STOKES, steps_window=15)
        assert mixed.execution_time == pytest.approx(
            uniform.execution_time, rel=0.05
        )

    def test_uniformly_faster_nodes_speed_up(self):
        from repro.machines.platforms import LACE_560 as plat

        base = SimulatedMachine(plat, 4).run(NAVIER_STOKES, steps_window=15)
        fast = SimulatedMachine(
            plat, 4, node_speed_factors=[2.0] * 4
        ).run(NAVIER_STOKES, steps_window=15)
        assert fast.execution_time < 0.6 * base.execution_time

    def test_factor_count_validated(self):
        from repro.machines.platforms import LACE_560 as plat

        with pytest.raises(ValueError, match="one speed factor per rank"):
            SimulatedMachine(plat, 4, node_speed_factors=[1.0, 1.0])

    def test_fast_nodes_idle_in_wait(self):
        from repro.machines.platforms import LACE_560 as plat

        r = SimulatedMachine(
            plat, 8, node_speed_factors=[1.0] * 4 + [2.0] * 4
        ).run(NAVIER_STOKES, steps_window=15)
        slow_wait = sum(t.comm_wait for t in r.timelines[:4])
        fast_wait = sum(t.comm_wait for t in r.timelines[4:])
        assert fast_wait > 2 * slow_wait


class TestGoldenDigest:
    """Every simulated figure is a DES output, so the simulator's results
    are part of the contract bit for bit: an engine or rank-program change
    must replay the identical event sequence (same heap pushes in the same
    order, same float operands in the same association), not merely a
    close one.  The digests below were recorded before the engine's
    single-loop rewrite and must never need re-blessing for a speed-up."""

    #: sha256 over ``repr`` of the scaled totals, the per-rank busy/wait
    #: vectors and the engine's event count of every configuration below.
    RESULTS = (
        "0f6e30a54ef4402a8afe2bf428cb23e8116ed76f06440ee2cc48033fe2144a49"
    )
    #: sha256 of the exported Chrome trace of one traced, faulty run.
    TRACE = (
        "3f7a70f18d580cda1549054fb97b413fdb3982ef73f468fed6362d88e99a0639"
    )
    #: ``RESULTS``' shape at ``run()``'s default window of 30 steps, where
    #: queues on shared links form as they do in a sweep (p = 16 and one
    #: mixed 560/590 cluster); recorded on the generator rank program.
    DEFAULT_WINDOW = (
        "491f06e7b6c3b091e2cec0774160b72b1a0252452c8a7234d321cbbe8b108dd9"
    )

    PLATFORMS = (
        LACE_560, LACE_590, LACE_560_ETHERNET, LACE_560_FDDI, LACE_590_ATM,
        IBM_SP, IBM_SP_PVME, CRAY_T3D,
    )
    FAULTS = ("lossy-ethernet", "jittery-now", "drop-storm")

    @staticmethod
    def _line(machine, app, steps_window=2):
        metrics = MetricsRegistry()
        with use(metrics=metrics):
            r = machine.run(app, steps_window=steps_window)
        return repr((
            r.execution_time, r.comm_time, r.busy_time, r.per_rank_busy,
            r.per_rank_wait, metrics.value("sim.engine_events"),
        ))

    def test_results_digest(self):
        lines = [
            self._line(SimulatedMachine(plat, p, version=v), app)
            for app in (NAVIER_STOKES, EULER)
            for plat in self.PLATFORMS
            for p in (2, 5, 16)
            for v in (5, 6, 7)
        ]
        lines += [
            self._line(SimulatedMachine(LACE_560_ETHERNET, p, faults=f), NAVIER_STOKES)
            for f in self.FAULTS
            for p in (2, 8)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.RESULTS

    def test_default_window_digest(self):
        lines = [
            self._line(SimulatedMachine(plat, 16, version=v), app, steps_window=30)
            for app in (NAVIER_STOKES, EULER)
            for plat in self.PLATFORMS
            for v in (5, 6, 7)
        ]
        mixed = SimulatedMachine(LACE_560, 16, node_speed_factors=[1.0] * 8 + [1.7] * 8)
        lines.append(self._line(mixed, NAVIER_STOKES, steps_window=30))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DEFAULT_WINDOW

    def test_trace_digest(self):
        from repro import run

        res = run(
            "jet", platform="LACE/560+Ethernet", nprocs=4, version=6,
            steps_window=3, faults="lossy-ethernet", trace=True, ledger=False,
        )
        digest = hashlib.sha256(chrome_trace_json(res.trace).encode()).hexdigest()
        assert digest == self.TRACE

    # The same digests on the Python plan engine (``RankProcess`` and
    # ``Transfer`` on ``Engine``): the reference the C unit is held to,
    # and the fallback of a host with no C toolchain.
    @pytest.fixture
    def python_engine(self, monkeypatch):
        monkeypatch.setattr(native, "run", lambda *args: False)

    def test_results_digest_python_engine(self, python_engine):
        self.test_results_digest()

    def test_trace_digest_python_engine(self, python_engine):
        self.test_trace_digest()

    @pytest.mark.slow  # ≈ 1.2 s: a million Python events
    def test_default_window_digest_python_engine(self, python_engine):
        self.test_default_window_digest()

    def test_every_run_simulates(self):
        """Nothing outlives one ``run()``: the same configuration twice
        replays its events twice."""
        machine, events = SimulatedMachine(LACE_560, 4, version=6), []
        for _ in range(2):
            metrics = MetricsRegistry()
            with use(metrics=metrics):
                machine.run(NAVIER_STOKES, steps_window=2)
            events.append(metrics.value("sim.engine_events"))
        assert events[0] == events[1] > 0

    def test_traced_faulty_run_is_native(self, monkeypatch):
        """Tracing and faults do not select the engine: the traced faulty
        run never reaches ``Engine.run``."""
        if _cc.find_compiler() is None:
            pytest.skip("no C compiler")

        def refuse(*args):
            raise AssertionError("the Python engine ran")

        monkeypatch.setattr(Engine, "run", refuse)
        self.test_trace_digest()

    def test_fallback_without_compiler(self, monkeypatch, tmp_path):
        """No compiler and a cold cache: a warning, then the same trace."""
        monkeypatch.setenv("REPRO_CC", "no-such-compiler")
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_LIB", None)
        with pytest.warns(RuntimeWarning, match="native DES engine unavailable"):
            self.test_trace_digest()
        assert native._LIB is None and not list(tmp_path.iterdir())
