"""Block decomposition properties."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.parallel.decomposition import (
    BlockDecomposition1D,
    CartesianDecomposition,
)


class TestBasics:
    def test_single_part_owns_everything(self):
        d = BlockDecomposition1D(n=30, nparts=1)
        assert d.bounds(0) == (0, 30)
        assert d.neighbors(0) == (None, None)

    def test_even_split(self):
        d = BlockDecomposition1D(n=40, nparts=4)
        assert d.sizes() == [10, 10, 10, 10]

    def test_remainder_goes_to_first_parts(self):
        d = BlockDecomposition1D(n=43, nparts=4)
        assert d.sizes() == [11, 11, 11, 10]

    def test_paper_configuration(self):
        """250 columns over 16 processors: near-perfect balance
        (the mechanism behind the paper's Figure 13)."""
        d = BlockDecomposition1D(n=250, nparts=16)
        sizes = d.sizes()
        assert max(sizes) - min(sizes) == 1
        assert sum(sizes) == 250

    def test_neighbors(self):
        d = BlockDecomposition1D(n=40, nparts=4)
        assert d.neighbors(0) == (None, 1)
        assert d.neighbors(2) == (1, 3)
        assert d.neighbors(3) == (2, None)

    def test_min_block_enforced(self):
        with pytest.raises(ValueError, match="at least"):
            BlockDecomposition1D(n=20, nparts=5)

    def test_invalid_part(self):
        d = BlockDecomposition1D(n=20, nparts=2)
        with pytest.raises(IndexError):
            d.bounds(2)
        with pytest.raises(IndexError):
            d.bounds(-1)

    def test_local_slice(self):
        d = BlockDecomposition1D(n=20, nparts=2)
        assert d.local_slice(1) == slice(10, 20)


class TestProperties:
    @given(n=st.integers(10, 500), nparts=st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_partition_covers_and_is_disjoint(self, n, nparts):
        if n // nparts < 5:
            return  # rejected configurations tested separately
        d = BlockDecomposition1D(n=n, nparts=nparts)
        covered = []
        for k in range(nparts):
            lo, hi = d.bounds(k)
            assert lo < hi
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    @given(n=st.integers(10, 500), nparts=st.integers(1, 16))
    @settings(max_examples=150, deadline=None)
    def test_balance_within_one(self, n, nparts):
        if n // nparts < 5:
            return
        sizes = BlockDecomposition1D(n=n, nparts=nparts).sizes()
        assert max(sizes) - min(sizes) <= 1

    @given(
        n=st.integers(20, 300),
        nparts=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_owner_consistent_with_bounds(self, n, nparts, data):
        if n // nparts < 5:
            return
        d = BlockDecomposition1D(n=n, nparts=nparts)
        i = data.draw(st.integers(0, n - 1))
        k = d.owner(i)
        lo, hi = d.bounds(k)
        assert lo <= i < hi


class TestRadialVariant:
    def test_axis_attribute(self):
        """The names say which array axis is split — and so exchanges."""
        axial = CartesianDecomposition.named("axial", 20, 20, 2)
        radial = CartesianDecomposition.named("radial", 20, 20, 2)
        assert (axial.px, axial.pr) == (2, 1)
        assert (radial.px, radial.pr) == (1, 2)

    def test_radial_partition(self):
        d = CartesianDecomposition.named("radial", 250, 100, 4)
        assert d.radial.sizes() == [25, 25, 25, 25]
        assert d.axial.sizes() == [250]
        assert d.nr == 100


class TestNamedGrids:
    """``decomposition=``/``px=``/``pr=`` -> ``px x pr``, in one place."""

    def test_names(self):
        named = CartesianDecomposition.named
        assert named("axial", 60, 24, 4) == CartesianDecomposition(60, 24, 4, 1)
        assert named("radial", 60, 24, 4) == CartesianDecomposition(60, 24, 1, 4)
        assert named("2d", 60, 24, 6, px=3, pr=2) == CartesianDecomposition(
            60, 24, 3, 2
        )
        # px/pr only matter to "2d".
        assert named("axial", 60, 24, 4, px=2, pr=2).px == 4

    @pytest.mark.parametrize(
        "kw", [dict(px=3, pr=2), dict(px=2), dict(pr=2), dict()],
        ids=["product", "no-pr", "no-px", "neither"],
    )
    def test_2d_needs_a_matching_px_pr(self, kw):
        with pytest.raises(ValueError, match="px and pr with px \\* pr == nranks"):
            CartesianDecomposition.named("2d", 60, 24, 4, **kw)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="'axial', 'radial' or '2d'.*'blocks'"):
            CartesianDecomposition.named("blocks", 60, 24, 4)

    def test_thin_blocks_rejected_by_name_too(self):
        with pytest.raises(ValueError, match="cannot split 8 points into 2 blocks"):
            CartesianDecomposition.named("radial", 64, 8, 2)

    #: ``(px, pr)`` -> each rank's ``(left, right, lower, upper)``.
    NEIGHBOURS = {
        (4, 1): [(None, 1, None, None), (0, 2, None, None),
                 (1, 3, None, None), (2, None, None, None)],
        (1, 4): [(None, None, None, 1), (None, None, 0, 2),
                 (None, None, 1, 3), (None, None, 2, None)],
        (2, 2): [(None, 2, None, 1), (None, 3, 0, None),
                 (0, None, None, 3), (1, None, 2, None)],
        (1, 1): [(None, None, None, None)],
    }

    @pytest.mark.parametrize("px,pr", list(NEIGHBOURS))
    def test_neighbour_map_and_exchanging_axes(self, px, pr):
        d = CartesianDecomposition(40, 40, px, pr)
        for rank, want in enumerate(self.NEIGHBOURS[px, pr]):
            topo = d.topology(rank)
            assert (topo.left, topo.right, topo.lower, topo.upper) == want
            assert topo.neighbours(1) == want[:2]
            assert topo.neighbours(2) == want[2:]
            # Every rank of a split axis has a neighbour across it, and the
            # block it holds grows by the halo depth on exactly those sides.
            assert any(n is not None for n in want[:2]) == (px > 1) and any(n is not None for n in want[2:]) == (pr > 1)
            (ilo, ihi), (jlo, jhi) = d.block(rank)
            grown = d.block(rank, depth=3)
            assert grown == (
                (ilo - 3 * (want[0] is not None), ihi + 3 * (want[1] is not None)),
                (jlo - 3 * (want[2] is not None), jhi + 3 * (want[3] is not None)),
            )

    def test_assemble_inverts_local_block(self, rng):
        d = CartesianDecomposition(23, 17, 3, 2)
        q = rng.random((4, 23, 17))
        parts = [q[(slice(None), *d.local_block(r))] for r in range(d.nparts)]
        assert np.array_equal(d.assemble(parts), q)

    @pytest.mark.parametrize(
        "px,pr,periodic,axis",
        [(2, 1, (True, False), "x"), (1, 2, (False, True), "r"),
         (2, 2, (True, True), "x")],
    )
    def test_split_periodic_axis_is_rejected(self, px, pr, periodic, axis):
        d = CartesianDecomposition(40, 40, px, pr)
        with pytest.raises(ValueError, match=f"periodic_{axis} .*run serially"):
            d.reject_split_periodic(*periodic)

    def test_unsplit_periodic_axis_is_fine(self):
        CartesianDecomposition(40, 40, 2, 1).reject_split_periodic(False, True)
        CartesianDecomposition(40, 40, 1, 2).reject_split_periodic(True, False)
        CartesianDecomposition(40, 40, 1, 1).reject_split_periodic(True, True)


def test_one_topology_one_halo_shape_one_boundary_rule():
    """Structure: the per-decomposition classes, the halo-orientation flag,
    the second gradient routine and every ghost-line argument are gone from
    the source tree, no code dispatches on a halo being a dict, and
    ``parallel/`` does not name the serial solver's boundary rule (axis
    mirror) — it runs the serial solver instead."""
    gone = re.compile(
        r"halo_axis|AxialDecomposition|RadialDecomposition|field_gradients_2d"
        r"|_radial_ghost_callbacks|_radial_post_ghosts"
        # PR 22: ghost lines live in the rank's array, nothing passes them.
        r"|uvT_halo|primitives_ready|post_ghosts|rate_edges|_ghosted_gradient"
        r"|isinstance\([^)]*halo[^)]*dict\)"
    )
    serial_rule = re.compile(r"apply_axis_ghosts|AXIS_STATE_SIGNS")
    src = pathlib.Path(repro.__file__).parent
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert not gone.findall(text), f"{path} names {set(gone.findall(text))}"
        if path.parent.name == "parallel":
            found = set(serial_rule.findall(text))
            assert not found, f"{path} re-implements the boundary rule: {found}"
