"""Cray T3D three-dimensional torus with dimension-order routing.

The paper's machine is an 8 x 4 x 2 torus (64 nodes, 16 available in
single-user mode) with 150 MB/s peak per-link transfer rate and "a
relatively small setup cost" (Sections 4.3, 7.2).  Messages hold every
directed link along their X-then-Y-then-Z route; with the solver's
nearest-neighbour ring traffic most routes are a single hop, which is why
the T3D's communication time is negligible and its speedup nearly linear
in the paper's Figures 9-10.
"""

from __future__ import annotations

from .base import Network


class Torus3DNetwork(Network):
    """Dimension-order-routed 3-D torus."""

    def __init__(
        self,
        dims: tuple[int, int, int] = (8, 4, 2),
        link_bytes_per_s: float = 150e6,
        latency: float = 10e-6,
        per_hop_latency: float = 2e-6,
    ) -> None:
        self.name = "T3D-torus"
        self.dims = dims
        self.nnodes = dims[0] * dims[1] * dims[2]
        self.link_bytes_per_s = link_bytes_per_s
        self.latency = latency
        self.per_hop_latency = per_hop_latency

    # -- coordinates ---------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int, int]:
        """Linear rank -> (x, y, z), x fastest (the natural ring embedding)."""
        dx, dy, _dz = self.dims
        return node % dx, (node // dx) % dy, node // (dx * dy)

    def _hops(self, src: int, dst: int) -> list[str]:
        """Directed links of the X->Y->Z dimension-order route."""
        links: list[str] = []
        cur = list(self.coords(src))
        target = self.coords(dst)
        for axis, label in enumerate("xyz"):
            size = self.dims[axis]
            delta = (target[axis] - cur[axis]) % size
            # Shorter way around the ring.
            step = 1 if delta <= size - delta else -1
            nsteps = delta if step == 1 else size - delta
            for _ in range(nsteps):
                here = tuple(cur)
                cur[axis] = (cur[axis] + step) % size
                links.append(f"{label}{'+' if step == 1 else '-'}:{here}")
        return links

    def route_length(self, src: int, dst: int) -> int:
        """Hop count of the dimension-order route."""
        return len(self._hops(src, dst))

    def link_ids(self, src: int, dst: int) -> list[str]:
        return sorted(set(self._hops(src, dst)))

    def capacities(self) -> dict[str, int]:
        return {f"{label}{way}:{self.coords(node)}": 1 for node in range(self.nnodes)
                for label in "xyz" for way in "+-"}

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.link_bytes_per_s

    def uncontended_message_time(self, nbytes: int) -> float:
        # Cut-through routing: per-hop latency, single occupancy charge.
        return self.latency + self.transfer_time(nbytes)

    def saturation_bandwidth(self) -> float:
        return self.nnodes * self.link_bytes_per_s
