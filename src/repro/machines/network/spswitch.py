"""IBM SP high-performance switch (Omega-network variant, Stunkel et al.).

"This network, similar in topology to ALLNODE, permits multiple
contentionless paths between nodes" (paper Section 4.3).  The SP1 switch
carries ~40 MB/s per port with microsecond-class hardware latency; the
software stack (MPL or PVMe) contributes the dominant per-message cost,
which lives in the library model, not here.  With this fabric the paper
sees "very good speedup characteristics, with an almost linear drop in
execution time".
"""

from __future__ import annotations

from .base import Network, per_node_links


class SPSwitchNetwork(Network):
    """Per-port switched fabric with ample internal capacity."""

    def __init__(
        self,
        nnodes: int,
        port_bytes_per_s: float = 40e6,
        latency: float = 40e-6,
    ) -> None:
        self.name = "SP-switch"
        self.nnodes = nnodes
        self.port_bytes_per_s = port_bytes_per_s
        self.latency = latency

    def link_ids(self, src: int, dst: int) -> list[str]:
        return sorted(per_node_links(src, dst))

    def capacities(self) -> dict[str, int]:
        return {f"{end}:{n}": 1 for n in range(self.nnodes) for end in ("in", "out")}

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.port_bytes_per_s

    def saturation_bandwidth(self) -> float:
        return self.nnodes * self.port_bytes_per_s
