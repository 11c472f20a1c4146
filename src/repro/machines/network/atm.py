"""ATM switch (155 Mbps OC-3, LACE lower half).

Point-to-point links into a switch: each node's injection/ejection link is
private, but — as the paper notes — ATM "with their faster links do not
permit multiple physical paths in the network", so a node pair is limited
to its single 155 Mbps path (with the 48/53 cell-payload tax).  The paper
measured ATM "almost identical" to ALLNODE-F.
"""

from __future__ import annotations

from .base import Network, per_node_links


class AtmNetwork(Network):
    """Single-path switched point-to-point links."""

    def __init__(
        self,
        nnodes: int,
        bandwidth_bps: float = 155e6,
        latency: float = 0.25e-3,
    ) -> None:
        self.name = "ATM"
        self.nnodes = nnodes
        self.bandwidth_bps = bandwidth_bps
        #: AAL5 over 53-byte cells with 48-byte payloads.
        self.efficiency = 48.0 / 53.0
        self.latency = latency

    def link_ids(self, src: int, dst: int) -> list[str]:
        return sorted(per_node_links(src, dst))

    def capacities(self) -> dict[str, int]:
        return {f"{end}:{n}": 1 for n in range(self.nnodes) for end in ("in", "out")}

    def transfer_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / (self.bandwidth_bps * self.efficiency)

    def saturation_bandwidth(self) -> float:
        # Every node can inject concurrently.
        return self.nnodes * self.bandwidth_bps * self.efficiency / 8.0
