"""Network description interface."""

from __future__ import annotations

import abc


class Network(abc.ABC):
    """Contention-resource description of an interconnect.

    A message from ``src`` to ``dst`` holds every resource named by
    :meth:`link_ids` for ``latency + transfer_time(nbytes)`` seconds.
    Capacities > 1 model switches that carry several concurrent transfers.
    """

    name: str = "network"

    @abc.abstractmethod
    def link_ids(self, src: int, dst: int) -> list[str]:
        """Resource keys a transfer must hold, in canonical order."""

    @abc.abstractmethod
    def capacities(self) -> dict[str, int]:
        """Capacity of every resource key this network can name."""

    def capacity(self, link: str) -> int:
        """Capacity of one resource key, without enumerating the others:
        one transfer at a time unless a subclass says otherwise."""
        return 1

    @abc.abstractmethod
    def transfer_time(self, nbytes: int) -> float:
        """Wire occupancy seconds for a payload of ``nbytes``."""

    #: Per-message wire latency (protocol framing, path setup), seconds.
    latency: float = 0.0

    def describe(self) -> str:
        return f"{self.name}"

    # -- convenience -------------------------------------------------------------
    def uncontended_message_time(self, nbytes: int) -> float:
        """Latency + occupancy with no competing traffic."""
        return self.latency + self.transfer_time(nbytes)

    def saturation_bandwidth(self) -> float:
        """Aggregate deliverable bytes/second when fully loaded.

        Default: the bottleneck is one unit of the scarcest shared
        resource; subclasses with parallel paths override.
        """
        return 1.0 / self.transfer_time(1) if self.transfer_time(1) > 0 else float("inf")


def per_node_links(src: int, dst: int) -> list[str]:
    """Injection/ejection link pair — the common switch-fabric pattern."""
    return [f"in:{dst}", f"out:{src}"]
