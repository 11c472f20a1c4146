"""IBM ALLNODE switch (Omega-network variant, LACE).

Two generations in the paper: ALLNODE-F at 64 Mbps/link (lower half, with
the RS6000/590s) and the ALLNODE-S prototype at 32 Mbps/link (upper half,
RS6000/560s).  The switch "is capable of providing multiple contentionless
paths between the nodes of the cluster (a maximum of 8 paths can be
configured between source and destination processors)" — so for the
solver's neighbour traffic the links behave point-to-point, with a finite
pool of concurrently-routable paths through the multistage fabric.  The
paper observes speedup flattening "beyond 12 processors" on ALLNODE; the
``concurrent_paths`` pool (default 12) models the stage-conflict onset that
causes it.
"""

from __future__ import annotations

from .base import Network, per_node_links


class AllnodeNetwork(Network):
    """Multistage Omega switch with a concurrent-path pool."""

    def __init__(
        self,
        nnodes: int,
        link_bps: float,
        fast: bool = True,
        concurrent_paths: int = 12,
        latency: float = 80e-6,
    ) -> None:
        self.name = "ALLNODE-F" if fast else "ALLNODE-S"
        self.nnodes = nnodes
        self.link_bps = link_bps
        self.concurrent_paths = concurrent_paths
        #: Hardware path-setup latency (the big latency is PVM's, not the
        #: switch's).
        self.latency = latency

    @classmethod
    def fast(cls, nnodes: int) -> "AllnodeNetwork":
        """ALLNODE-F: 64 Mbps per link (paper Section 4.1)."""
        return cls(nnodes, link_bps=64e6, fast=True)

    @classmethod
    def slow(cls, nnodes: int) -> "AllnodeNetwork":
        """ALLNODE-S prototype: 32 Mbps per link (paper Section 4.1)."""
        return cls(nnodes, link_bps=32e6, fast=False)

    def link_ids(self, src: int, dst: int) -> list[str]:
        return sorted(per_node_links(src, dst) + ["paths"])

    def capacities(self) -> dict[str, int]:
        links = [f"{end}:{n}" for n in range(self.nnodes) for end in ("in", "out")]
        return {k: self.capacity(k) for k in ["paths"] + links}

    def capacity(self, link: str) -> int:
        return self.concurrent_paths if link == "paths" else 1

    def transfer_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.link_bps

    def saturation_bandwidth(self) -> float:
        return min(self.nnodes, self.concurrent_paths) * self.link_bps / 8.0
