"""2-D Cartesian block decomposition solver."""

import numpy as np
import pytest

from repro import jet_scenario
from repro.parallel.runner import ParallelJetSolver, serial_reference
from repro.parallel.decomposition import CartesianDecomposition


class TestCartesianDecomposition:
    def test_rank_coordinates_round_trip(self):
        d = CartesianDecomposition(nx=60, nr=24, px=3, pr=2)
        assert d.nparts == 6
        for rank in range(6):
            ix, jr = d.coords(rank)
            assert d.rank_of(ix, jr) == rank

    def test_blocks_tile_the_grid(self):
        d = CartesianDecomposition(nx=47, nr=23, px=3, pr=2)
        cells = 0
        for rank in range(d.nparts):
            (ilo, ihi), (jlo, jhi) = d.block(rank)
            cells += (ihi - ilo) * (jhi - jlo)
        assert cells == 47 * 23

    def test_neighbors(self):
        d = CartesianDecomposition(nx=60, nr=24, px=3, pr=2)
        # rank 0 = (0, 0): corner.
        assert d.neighbors(0) == (None, d.rank_of(1, 0), None, d.rank_of(0, 1))
        # rank (1, 1): fully interior in x, top in r.
        r = d.rank_of(1, 1)
        left, right, lower, upper = d.neighbors(r)
        assert left == d.rank_of(0, 1) and right == d.rank_of(2, 1)
        assert lower == d.rank_of(1, 0) and upper is None

    def test_small_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            CartesianDecomposition(nx=12, nr=24, px=3, pr=2)

    def test_coords_bounds(self):
        d = CartesianDecomposition(nx=60, nr=24, px=2, pr=2)
        with pytest.raises(IndexError):
            d.coords(4)


@pytest.fixture(scope="module")
def ns_case():
    sc = jet_scenario(nx=60, nr=24, viscous=True)
    ref = serial_reference(sc.state, sc.solver.config, steps=10)
    return sc, ref


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("px,pr", [(2, 2), (3, 2), (2, 3)])
    def test_navier_stokes(self, ns_case, px, pr):
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=px * pr,
            decomposition="2d", px=px, pr=pr, timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)

    @pytest.mark.parametrize("version", [6, 7])
    def test_versions(self, ns_case, version):
        sc, ref = ns_case
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=4, version=version,
            decomposition="2d", px=2, pr=2, timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)

    def test_euler(self):
        sc = jet_scenario(nx=60, nr=24, viscous=False)
        ref = serial_reference(sc.state, sc.solver.config, steps=10)
        res = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=4,
            decomposition="2d", px=2, pr=2, timeout=60,
        ).run(10)
        assert np.array_equal(res.state.q, ref.q)

    def test_degenerate_grids_match_1d_solvers(self, ns_case):
        """px x 1 behaves like the axial solver; 1 x pr like the radial."""
        sc, ref = ns_case
        ax = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=3,
            decomposition="2d", px=3, pr=1, timeout=60,
        ).run(10)
        ra = ParallelJetSolver(
            sc.state, sc.solver.config, nranks=3,
            decomposition="2d", px=1, pr=3, timeout=60,
        ).run(10)
        assert np.array_equal(ax.state.q, ref.q)
        assert np.array_equal(ra.state.q, ref.q)


class TestValidation:
    def test_mismatched_grid_of_ranks(self):
        sc = jet_scenario(nx=60, nr=24)
        with pytest.raises(ValueError, match="px"):
            ParallelJetSolver(
                sc.state, sc.solver.config, nranks=4,
                decomposition="2d", px=3, pr=2,
            )

    def test_missing_px_pr(self):
        sc = jet_scenario(nx=60, nr=24)
        with pytest.raises(ValueError, match="px and pr"):
            ParallelJetSolver(
                sc.state, sc.solver.config, nranks=4, decomposition="2d"
            )
