"""The distributed solver: bitwise serial equivalence and instrumentation.

This is the package's central parallel-correctness property (mirroring the
paper's: parallelization changes performance, never results).
"""

import numpy as np
import pytest

from repro import jet_scenario
from repro.msglib import VirtualCluster
from repro.parallel.decomposition import CartesianDecomposition
from repro.parallel.runner import ParallelJetSolver, serial_reference
from repro.parallel.spmd import BlockDistributedSolver


@pytest.fixture(scope="module")
def ns_case():
    sc = jet_scenario(nx=60, nr=20, viscous=True)
    ref = serial_reference(sc.state, sc.solver.config, steps=12)
    return sc, ref


@pytest.fixture(scope="module")
def euler_case():
    sc = jet_scenario(nx=60, nr=20, viscous=False)
    ref = serial_reference(sc.state, sc.solver.config, steps=12)
    return sc, ref


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 5])
    def test_navier_stokes_any_proc_count(self, ns_case, nranks):
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=nranks, timeout=60
        ).run(12)
        assert np.array_equal(res.state.q, ref.q)

    @pytest.mark.parametrize("version", [5, 6, 7])
    def test_all_versions_identical(self, ns_case, version):
        """V6/V7 change message grouping only — never the arithmetic."""
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=3, version=version, timeout=60
        ).run(12)
        assert np.array_equal(res.state.q, ref.q)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_euler(self, euler_case, nranks):
        sc, ref = euler_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=nranks, timeout=60
        ).run(12)
        assert np.array_equal(res.state.q, ref.q)

    def test_time_matches_serial(self, ns_case):
        sc, ref = ns_case
        res = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, timeout=60).run(12)
        assert res.nsteps == 12
        assert res.t > 0

    @pytest.mark.parametrize("viscous", [True, False], ids=["ns", "euler"])
    def test_fused_backend_matches_serial_baseline(
        self, ns_case, euler_case, viscous
    ):
        """Kernel backend and rank count are both bitwise-invisible."""
        import dataclasses

        sc, ref = ns_case if viscous else euler_case
        config = dataclasses.replace(sc.solver.config, backend="fused")
        res = ParallelJetSolver(sc.state, config, nranks=4, timeout=60).run(12)
        assert np.array_equal(res.state.q, ref.q)


#: Bytes an interior rank of the 4-rank 60x20 cases sends in the final
#: gather: its owned 15 columns.
GATHER = 4 * 15 * 20 * 8


class TestCommunicationStructure:
    def test_interior_rank_counts(self, ns_case):
        """An interior rank sends one halo message to each of its two
        neighbours per step, plus the periodic dt allreduce."""
        sc, _ = ns_case
        res = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, timeout=60).run(10)
        st = res.interior_rank_stats
        # dt is recomputed on step 0 only; the run ends with one gather.
        assert st.sends == 2 * 10 + 1 + 1
        halo = 4 * 8 * 20 * 8  # 4 variables x H = 8 columns x nr doubles
        assert st.bytes_sent == 2 * 10 * halo + 8 + GATHER

    def test_euler_communicates_less(self, ns_case, euler_case):
        """Euler's stencil has no viscous reach: half the depth (H = 4, not
        8), so half the bytes — in the same startups."""
        sc_ns, _ = ns_case
        sc_eu, _ = euler_case
        r_ns = ParallelJetSolver(sc_ns.state, sc_ns.solver.config, nranks=4, timeout=60).run(8)
        r_eu = ParallelJetSolver(sc_eu.state, sc_eu.solver.config, nranks=4, timeout=60).run(8)
        s_ns, s_eu = r_ns.interior_rank_stats, r_eu.interior_rank_stats
        assert s_eu.sends == s_ns.sends
        fixed = 8 + GATHER  # the dt scalar and the final gather
        assert 2 * (s_eu.bytes_sent - fixed) == s_ns.bytes_sent - fixed

    def test_v7_more_startups_same_volume(self, ns_case):
        """V7 ships the same H lines one per message: H times the halo
        startups, the same total bytes."""
        sc, _ = ns_case
        r5 = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, version=5, timeout=60).run(8)
        r7 = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, version=7, timeout=60).run(8)
        s5, s7 = r5.interior_rank_stats, r7.interior_rank_stats
        assert s7.sends - 2 == 8 * (s5.sends - 2)  # 2: dt allreduce, gather
        assert s7.bytes_sent == s5.bytes_sent

    def test_edge_ranks_communicate_less(self, ns_case):
        sc, _ = ns_case
        res = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, timeout=60).run(8)
        sends = [s.sends for s in res.per_rank_stats]
        assert sends[0] < sends[1]
        assert sends[-1] < sends[-2]

    def test_volume_scales_with_radial_resolution(self):
        """Messages are radial columns: volume/step ~ nr."""
        vols = []
        for nr in (20, 40):
            sc = jet_scenario(nx=60, nr=nr, viscous=True)
            res = ParallelJetSolver(sc.state, sc.solver.config, nranks=3, timeout=60).run(6)
            vols.append(res.interior_rank_stats.bytes_sent)
        assert vols[1] / vols[0] == pytest.approx(2.0, rel=0.1)


class TestGather:
    def test_gathered_shape_and_grid(self, ns_case):
        sc, _ = ns_case
        res = ParallelJetSolver(sc.state, sc.solver.config, nranks=3, timeout=60).run(4)
        assert res.state.q.shape == (4, 60, 20)
        assert res.state.grid.nx == 60


class TestRankCount:
    @pytest.mark.parametrize(
        "name", ["axial", "radial", "2d"]
    )
    def test_decomposition_must_match_communicator(self, name):
        """A 3-block decomposition on a 2-rank communicator is rejected at
        construction, naming both numbers — not later inside an exchange."""
        sc = jet_scenario(nx=60, nr=20)
        comm = VirtualCluster(2).comms[0]
        with pytest.raises(ValueError, match="3 blocks .* 2 ranks"):
            BlockDistributedSolver(
                comm, sc.state.grid, sc.state.q, sc.solver.config,
                CartesianDecomposition.named(name, 60, 20, 3, px=3, pr=1),
            )


def _planar_case(viscous):
    """The advection scenario with both wraps off: planar, non-periodic,
    cubic ghosts on all four sides — nothing like the jet."""
    import dataclasses

    from repro.scenarios import periodic_advection_scenario

    sc = periodic_advection_scenario()
    config = dataclasses.replace(
        sc.solver.config, periodic_x=False, periodic_r=False,
        viscous=viscous, mu=1e-3 if viscous else None,
    )
    return sc.state, config


class TestPlanarWall:
    """Off the jet the contract is the same: with no axis to mirror across
    and no wrap, a block's physical sides must extrapolate exactly as the
    serial solver does.  Radial and 2-D blocks used to mirror their low-r
    side regardless (flux, provisional split-phase and filter ghosts):
    max-abs 0.81 from serial after 6 steps."""

    @pytest.mark.parametrize("version", [5, 6])
    @pytest.mark.parametrize("backend", ["baseline", "fused", "compiled"])
    @pytest.mark.parametrize("px,pr", [(2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("viscous", [False, True], ids=["euler", "ns"])
    def test_planar_non_periodic(self, viscous, px, pr, backend, version):
        import dataclasses

        state, config = _planar_case(viscous)
        ref = serial_reference(state, config, steps=6)
        res = ParallelJetSolver(
            state, dataclasses.replace(config, backend=backend),
            nranks=px * pr, version=version,
            decomposition="2d", px=px, pr=pr, timeout=60,
        ).run(6)
        assert np.array_equal(res.state.q, ref.q)

    def test_unsplit_periodic_axis_still_wraps(self):
        """``sod`` is periodic in r and split in x: bit for bit, as before."""
        from repro.api import run

        serial = run("sod", steps=6)
        split = run("sod", steps=6, nprocs=2)
        assert np.array_equal(split.state.q, serial.state.q)


class TestRejectedInTheCaller:
    """Configurations no rank could run are plain ``ValueError``s raised by
    ``ParallelJetSolver.__init__`` — before a rank thread, a forked child
    or a shared-memory segment exists, and not wrapped in a
    ``RankFailure``."""

    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    @pytest.mark.parametrize(
        "scenario,kw,match",
        [
            ("advection", dict(), "periodic_x .* 2 blocks along x"),
            ("acoustic", dict(decomposition="radial"), "periodic_r .* 2 blocks along r"),
            ("sod", dict(decomposition="radial"), "cannot split 8 points into 2 blocks"),
        ],
        ids=["periodic-x-split", "periodic-r-split", "thin-blocks"],
    )
    def test_no_rank_is_started(self, monkeypatch, scenario, kw, match, substrate):
        from repro.api import run
        from repro.msglib import ProcessCluster

        def never(*a, **k):
            raise AssertionError("a cluster was launched")

        monkeypatch.setattr(VirtualCluster, "__init__", never)
        monkeypatch.setattr(ProcessCluster, "__init__", never)
        with pytest.raises(ValueError, match=match):
            run(scenario, steps=2, nprocs=2, substrate=substrate, **kw)

    def test_mpi_path_shares_the_check(self):
        """``scripts/mpi_runner.py`` builds the per-rank solver directly."""
        from repro.scenarios import periodic_advection_scenario

        sc = periodic_advection_scenario()
        comm = VirtualCluster(2).comms[0]
        with pytest.raises(ValueError, match="periodic_x .*run serially"):
            BlockDistributedSolver(
                comm, sc.state.grid, sc.state.q, sc.solver.config,
                CartesianDecomposition.named("axial", 32, 32, 2),
            )
