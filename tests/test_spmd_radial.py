"""Radial-block distributed solver (the paper's Section-8 variant)."""

import numpy as np
import pytest

from repro import jet_scenario
from repro.parallel.runner import ParallelJetSolver, serial_reference


@pytest.fixture(scope="module")
def ns_case():
    sc = jet_scenario(nx=50, nr=32, viscous=True)  # 4 slabs of H = 8 rows
    ref = serial_reference(sc.state, sc.solver.config, steps=10)
    return sc, ref


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_navier_stokes(self, ns_case, nranks):
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=nranks,
            decomposition="radial", timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)

    @pytest.mark.parametrize("version", [5, 6, 7])
    def test_versions(self, ns_case, version):
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=3, version=version,
            decomposition="radial", timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)

    def test_euler(self):
        sc = jet_scenario(nx=50, nr=24, viscous=False)
        ref = serial_reference(sc.state, sc.solver.config, steps=10)
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=4,
            decomposition="radial", timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)


class TestCommunicationContrast:
    def test_radial_blocks_send_more_on_paper_aspect_ratio(self):
        """On a wide grid (nx >> nr) radial messages are rows of length nx:
        more volume per exchange than axial columns — the quantitative case
        for the paper's Section-5 choice."""
        sc = jet_scenario(nx=80, nr=32, viscous=True)
        ax = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=4, timeout=60
        ).run(6)
        ra = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=4,
            decomposition="radial", timeout=60,
        ).run(6)
        assert (
            ra.interior_rank_stats.bytes_sent
            > 1.5 * ax.interior_rank_stats.bytes_sent
        )

    def test_radial_outflow_needs_no_exchange(self):
        """Every radial rank owns part of the outflow column, and advances
        it from its own pre-step strip: the halo (one message per
        neighbour per step) is all a rank ever sends."""
        sc = jet_scenario(nx=50, nr=24, viscous=True)
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=3,
            decomposition="radial", timeout=60,
        ).run(5)
        # Beside the halo: the one dt allreduce (the root answers both other
        # ranks; they send their value up) and the final gather to the root.
        sends = [st.sends - 2 for st in res.per_rank_stats]
        assert sends == [5 * 1, 5 * 2, 5 * 1]


class TestValidation:
    def test_bad_decomposition_name(self):
        sc = jet_scenario(nx=40, nr=20)
        with pytest.raises(ValueError, match="decomposition"):
            ParallelJetSolver(
                sc.state, sc.solver.config, nranks=2, decomposition="blocks"
            )

    def test_sponge_width_guard(self):
        from repro.numerics.boundary import Sponge

        sc = jet_scenario(nx=40, nr=30, sponge=Sponge(width=12))
        with pytest.raises(RuntimeError, match="sponge width"):
            ParallelJetSolver(
                sc.state, sc.solver.config, nranks=3,
                decomposition="radial", timeout=10,
            ).run(1)
