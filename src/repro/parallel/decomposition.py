"""The block domain decomposition and its halo topology.

The paper chose, "after some experimentation, to decompose the domain by
blocks along the axial direction only" (Section 5): each processor owns a
contiguous slab of axial columns with full radial extent, so only the
axial sweep needs halo exchange and messages group naturally into long
column vectors.  It leaves radial blocking to future work (Section 8).
Here both are instances of the one :class:`CartesianDecomposition`, a
``px x pr`` grid of blocks: ``"axial"`` is ``nranks x 1``, ``"radial"`` is
``1 x nranks`` (:meth:`CartesianDecomposition.named` is the only place the
public names are mapped).  An axis exchanges halos exactly when it is
split, which every rank reads off its own :class:`HaloTopology`.

The :class:`~repro.parallel.spmd.BlockDistributedSolver` consumes:

* ``topology(rank)`` — the rank's :class:`HaloTopology` (neighbour map);
* ``local_block(rank, depth)`` / ``local_grid(global_grid, rank, depth)`` —
  the slices and subgrid of the rank's block, grown by ``depth`` ghost
  lines on every side that has a neighbour;
* ``assemble(parts)`` — reassemble gathered per-rank blocks into the
  global conservative array (the inverse of ``local_block`` over all
  ranks);
* ``top_radial_size()`` — radial extent of the blocks owning the
  far-field boundary, or ``None`` when every rank owns the full radial
  extent (guards the sponge width).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_BLOCK = 5
"""Smallest slab width the 2-4 stencil machinery supports."""


@dataclass(frozen=True)
class HaloTopology:
    """One rank's neighbour map.

    ``left``/``right`` are the axial (axis-1) neighbours and
    ``lower``/``upper`` the radial (axis-2) neighbours; ``None`` marks a
    physical boundary.  A side with a neighbour carries ghost lines and
    exchanges them; a side without one owns the boundary treatment there.
    """

    rank: int
    left: int | None
    right: int | None
    lower: int | None
    upper: int | None

    def neighbours(self, axis: int) -> tuple[int | None, int | None]:
        """``(low, high)`` neighbours across ``(4, nx, nr)`` array axis
        ``axis`` (1 = axial, 2 = radial)."""
        if axis == 1:
            return self.left, self.right
        return self.lower, self.upper


@dataclass(frozen=True)
class BlockDecomposition1D:
    """Balanced 1-D block partition of ``n`` points into ``nparts`` slabs.

    Slab ``k`` owns ``[bounds(k)[0], bounds(k)[1])``.  The first
    ``n % nparts`` slabs get one extra point, so sizes differ by at most
    one — the (near-perfect) load balance of the paper's Figure 13 follows
    directly from this.
    """

    n: int
    nparts: int

    def __post_init__(self) -> None:
        if self.nparts < 1:
            raise ValueError("nparts must be >= 1")
        if self.n // self.nparts < MIN_BLOCK:
            raise ValueError(
                f"cannot split {self.n} points into {self.nparts} blocks: "
                f"each block needs at least {MIN_BLOCK} points"
            )

    def bounds(self, part: int) -> tuple[int, int]:
        """Half-open global index range owned by ``part``."""
        if not (0 <= part < self.nparts):
            raise IndexError(f"part {part} out of range [0, {self.nparts})")
        base, extra = divmod(self.n, self.nparts)
        lo = part * base + min(part, extra)
        hi = lo + base + (1 if part < extra else 0)
        return lo, hi

    def size(self, part: int) -> int:
        lo, hi = self.bounds(part)
        return hi - lo

    def sizes(self) -> list[int]:
        return [self.size(k) for k in range(self.nparts)]

    def owner(self, index: int) -> int:
        """The part owning global point ``index``."""
        if not (0 <= index < self.n):
            raise IndexError(index)
        base, extra = divmod(self.n, self.nparts)
        # Points below the split carry base+1 each.
        split = extra * (base + 1)
        if index < split:
            return index // (base + 1)
        return extra + (index - split) // base

    def neighbors(self, part: int) -> tuple[int | None, int | None]:
        """``(lower, upper)`` neighbouring parts (``None`` at the ends)."""
        lo = part - 1 if part > 0 else None
        hi = part + 1 if part < self.nparts - 1 else None
        return lo, hi

    def local_slice(self, part: int) -> slice:
        lo, hi = self.bounds(part)
        return slice(lo, hi)


@dataclass(frozen=True)
class CartesianDecomposition:
    """A ``px x pr`` grid of blocks; ``rank = ix * pr + jr``."""

    nx: int
    nr: int
    px: int
    pr: int

    def __post_init__(self) -> None:
        # Constructing the 1-D partitions validates the block sizes.
        self.axial  # noqa: B018
        self.radial  # noqa: B018

    @classmethod
    def named(
        cls,
        name: str,
        nx: int,
        nr: int,
        nranks: int,
        px: int | None = None,
        pr: int | None = None,
    ) -> "CartesianDecomposition":
        """The decomposition behind the public ``decomposition=`` names:
        ``"axial"`` = ``nranks x 1`` (the paper's choice), ``"radial"`` =
        ``1 x nranks`` (its Section-8 variant), ``"2d"`` = ``px x pr``."""
        if name == "axial":
            return cls(nx, nr, nranks, 1)
        if name == "radial":
            return cls(nx, nr, 1, nranks)
        if name != "2d":
            raise ValueError(
                f"decomposition must be 'axial', 'radial' or '2d', got {name!r}"
            )
        if px is None or pr is None or px * pr != nranks:
            raise ValueError(
                "2d decomposition needs px and pr with px * pr == nranks"
            )
        return cls(nx, nr, px, pr)

    def reject_split_periodic(self, periodic_x: bool, periodic_r: bool) -> None:
        """Refuse a configuration whose periodic wrap would cross ranks.

        No exchange carries a wrap from the last block of an axis round to
        the first, so both end blocks would extrapolate instead — a run
        that "succeeds" with a wrong answer.
        """
        for axis, periodic, parts in (
            ("x", periodic_x, self.px), ("r", periodic_r, self.pr)
        ):
            if periodic and parts > 1:
                raise ValueError(
                    f"periodic_{axis} cannot be combined with {parts} blocks "
                    f"along {axis}: the wrap would have to cross ranks.  "
                    "Split only an axis that is not periodic "
                    "(decomposition=), or run serially (nprocs=1)."
                )

    def reject_thin_blocks(self, depth: int, why: str) -> None:
        """Refuse a split axis whose thinnest block is thinner than the
        halo is deep: a neighbour ships ``depth`` of its *own* lines, so a
        thinner block would have to forward lines it does not own.

        ``why`` spells the depth out (``halo.describe_depth``).
        :data:`MIN_BLOCK` stays the partition's own, scheme-independent
        rule.
        """
        for axis, n, parts, part in (
            ("x", self.nx, self.px, self.axial), ("r", self.nr, self.pr, self.radial)
        ):
            if parts > 1 and min(part.sizes()) < depth:
                raise ValueError(
                    f"cannot split {axis} ({n} points) into {parts} blocks: "
                    f"the thinnest block has {min(part.sizes())} lines, but "
                    f"each rank ships a halo of H = {depth} of its own lines "
                    f"per step ({why}).  Use fewer blocks along {axis}, a "
                    "finer grid, or split the other axis (decomposition=)."
                )

    @property
    def nparts(self) -> int:
        return self.px * self.pr

    @property
    def axial(self) -> BlockDecomposition1D:
        return BlockDecomposition1D(self.nx, self.px)

    @property
    def radial(self) -> BlockDecomposition1D:
        return BlockDecomposition1D(self.nr, self.pr)

    def coords(self, rank: int) -> tuple[int, int]:
        """``(ix, jr)`` block coordinates of a rank."""
        if not (0 <= rank < self.nparts):
            raise IndexError(rank)
        return rank // self.pr, rank % self.pr

    def rank_of(self, ix: int, jr: int) -> int:
        return ix * self.pr + jr

    def block(
        self, rank: int, depth: int = 0
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """``((i_lo, i_hi), (j_lo, j_hi))`` global extents of a rank,
        grown by ``depth`` ghost lines on every side that has a neighbour."""
        ix, jr = self.coords(rank)
        (ilo, ihi), (jlo, jhi) = self.axial.bounds(ix), self.radial.bounds(jr)
        left, right, lower, upper = self.neighbors(rank)
        return (
            (ilo - depth * (left is not None), ihi + depth * (right is not None)),
            (jlo - depth * (lower is not None), jhi + depth * (upper is not None)),
        )

    def neighbors(self, rank: int):
        """``(left, right, lower, upper)`` neighbouring ranks or ``None``."""
        ix, jr = self.coords(rank)
        left = self.rank_of(ix - 1, jr) if ix > 0 else None
        right = self.rank_of(ix + 1, jr) if ix < self.px - 1 else None
        lower = self.rank_of(ix, jr - 1) if jr > 0 else None
        upper = self.rank_of(ix, jr + 1) if jr < self.pr - 1 else None
        return left, right, lower, upper

    def topology(self, rank: int) -> HaloTopology:
        return HaloTopology(rank, *self.neighbors(rank))

    def local_block(self, rank: int, depth: int = 0) -> tuple[slice, slice]:
        (ilo, ihi), (jlo, jhi) = self.block(rank, depth)
        return slice(ilo, ihi), slice(jlo, jhi)

    def local_grid(self, global_grid, rank: int, depth: int = 0):
        (ilo, ihi), (jlo, jhi) = self.block(rank, depth)
        return global_grid.subgrid(ilo, ihi).radial_subgrid(jlo, jhi)

    def assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        columns = []
        for ix in range(self.px):
            blocks = [parts[self.rank_of(ix, jr)] for jr in range(self.pr)]
            columns.append(np.concatenate(blocks, axis=2))
        return np.concatenate(columns, axis=1)

    def top_radial_size(self) -> int | None:
        if self.pr == 1:
            return None  # every rank owns the full radial extent
        return self.radial.size(self.pr - 1)
