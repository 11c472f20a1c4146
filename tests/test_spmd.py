"""The distributed solver: bitwise serial equivalence and instrumentation.

This is the package's central parallel-correctness property (mirroring the
paper's: parallelization changes performance, never results).
"""

import numpy as np
import pytest

from repro import jet_scenario
from repro.msglib import VirtualCluster
from repro.parallel.decomposition import (
    AxialDecomposition,
    CartesianDecomposition,
    RadialDecomposition,
)
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


class TestCommunicationStructure:
    def test_interior_rank_counts(self, ns_case):
        """NS interior rank, Version 5: 6 sends in the x/r sweeps (uvT x4,
        flux x2) plus 2 filter state sends plus 4 more uvT for the radial
        sweep = 12 sends/step, plus the periodic dt allreduce."""
        sc, _ = ns_case
        res = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, timeout=60).run(10)
        st = res.interior_rank_stats
        sends_per_step = st.sends / 10
        assert 12 <= sends_per_step <= 13  # 12 + dt-reduction amortized

    def test_euler_communicates_less(self, ns_case, euler_case):
        sc_ns, _ = ns_case
        sc_eu, _ = euler_case
        r_ns = ParallelJetSolver(sc_ns.state, sc_ns.solver.config, nranks=4, timeout=60).run(8)
        r_eu = ParallelJetSolver(sc_eu.state, sc_eu.solver.config, nranks=4, timeout=60).run(8)
        assert (
            r_eu.interior_rank_stats.bytes_sent
            < 0.7 * r_ns.interior_rank_stats.bytes_sent
        )
        assert r_eu.interior_rank_stats.sends < r_ns.interior_rank_stats.sends

    def test_v7_more_startups_same_volume(self, ns_case):
        sc, _ = ns_case
        r5 = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, version=5, timeout=60).run(8)
        r7 = ParallelJetSolver(sc.state, sc.solver.config, nranks=4, version=7, timeout=60).run(8)
        s5, s7 = r5.interior_rank_stats, r7.interior_rank_stats
        assert s7.sends > s5.sends
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
        "make",
        [
            lambda g: AxialDecomposition(g.nx, 3),
            lambda g: RadialDecomposition(g.nr, 3),
            lambda g: CartesianDecomposition(g.nx, g.nr, 3, 1),
        ],
        ids=["axial", "radial", "2d"],
    )
    def test_decomposition_must_match_communicator(self, make):
        """A 3-block decomposition on a 2-rank communicator is rejected at
        construction, naming both numbers — not later inside an exchange."""
        sc = jet_scenario(nx=60, nr=20)
        comm = VirtualCluster(2).comms[0]
        with pytest.raises(ValueError, match="3 blocks .* 2 ranks"):
            BlockDistributedSolver(
                comm, sc.state.grid, sc.state.q, sc.solver.config,
                make(sc.state.grid),
            )
