"""Interconnect models: routes, capacities, transfer times."""

import pytest

from repro.machines.network import (
    AllnodeNetwork,
    AtmNetwork,
    CrossbarNetwork,
    EthernetNetwork,
    FddiNetwork,
    SPSwitchNetwork,
    Torus3DNetwork,
)


class TestEthernet:
    def test_single_shared_bus(self):
        net = EthernetNetwork(8)
        assert net.link_ids(0, 5) == ["bus"]
        assert net.link_ids(3, 1) == ["bus"]
        assert net.capacities() == {"bus": 1}

    def test_bandwidth(self):
        net = EthernetNetwork(8, bandwidth_bps=10e6, efficiency=1.0,
                              frame_overhead_bytes=0)
        # 1250 bytes at 10 Mbps = 1 ms.
        assert net.transfer_time(1250) == pytest.approx(1e-3)

    def test_frame_overhead_dominates_small_messages(self):
        net = EthernetNetwork(8)
        assert net.transfer_time(1) > 0.5 * net.transfer_time(90)

    def test_saturation_is_medium_rate(self):
        net = EthernetNetwork(16)
        assert net.saturation_bandwidth() == pytest.approx(10e6 * 0.85 / 8)


class TestFddi:
    def test_shared_ring(self):
        net = FddiNetwork(16)
        assert net.link_ids(2, 9) == ["ring"]
        assert net.capacities()["ring"] == 1

    def test_ten_times_ethernet(self):
        eth = EthernetNetwork(8, frame_overhead_bytes=0, efficiency=1.0)
        fddi = FddiNetwork(8, frame_overhead_bytes=0, efficiency=1.0)
        assert eth.transfer_time(10_000) == pytest.approx(
            10 * fddi.transfer_time(10_000)
        )


class TestAtm:
    def test_per_node_links(self):
        net = AtmNetwork(4)
        ids = net.link_ids(1, 3)
        assert set(ids) == {"out:1", "in:3"}
        caps = net.capacities()
        assert caps["out:0"] == 1 and caps["in:3"] == 1
        assert len(caps) == 8

    def test_cell_tax(self):
        net = AtmNetwork(4)
        raw = 1000 * 8 / 155e6
        assert net.transfer_time(1000) == pytest.approx(raw * 53 / 48)

    def test_aggregate_scales_with_nodes(self):
        assert AtmNetwork(8).saturation_bandwidth() == pytest.approx(
            2 * AtmNetwork(4).saturation_bandwidth()
        )


class TestAllnode:
    def test_fast_and_slow_link_rates(self):
        """Paper: 64 Mbps (F) vs 32 Mbps (S) per link."""
        f, s = AllnodeNetwork.fast(16), AllnodeNetwork.slow(16)
        assert f.link_bps == 64e6 and s.link_bps == 32e6
        assert s.transfer_time(4000) == pytest.approx(2 * f.transfer_time(4000))
        assert f.name == "ALLNODE-F" and s.name == "ALLNODE-S"

    def test_route_includes_path_pool(self):
        net = AllnodeNetwork.fast(16)
        ids = net.link_ids(0, 7)
        assert "paths" in ids
        assert "out:0" in ids and "in:7" in ids

    def test_concurrent_path_pool_capacity(self):
        net = AllnodeNetwork(16, link_bps=64e6, concurrent_paths=12)
        assert net.capacities()["paths"] == 12


class TestSPSwitch:
    def test_port_rate(self):
        net = SPSwitchNetwork(16)
        assert net.transfer_time(40_000_000) == pytest.approx(1.0)

    def test_hardware_latency_microseconds(self):
        assert SPSwitchNetwork(16).latency < 1e-4


class TestTorus:
    def test_paper_dimensions(self):
        net = Torus3DNetwork()
        assert net.dims == (8, 4, 2)
        assert net.nnodes == 64

    def test_coords_linear_embedding(self):
        net = Torus3DNetwork()
        assert net.coords(0) == (0, 0, 0)
        assert net.coords(1) == (1, 0, 0)
        assert net.coords(8) == (0, 1, 0)
        assert net.coords(32) == (0, 0, 1)

    def test_neighbour_is_single_hop(self):
        net = Torus3DNetwork()
        assert net.route_length(3, 4) == 1

    def test_wraparound_shortcut(self):
        """7 -> 0 in the x ring is one wrap hop, not seven."""
        net = Torus3DNetwork()
        assert net.route_length(7, 0) == 1

    def test_dimension_order_route(self):
        net = Torus3DNetwork()
        # (1,0,0) -> (3,2,1): 2 x-hops + 2 y-hops + 1 z-hop.
        src = 1
        dst = 3 + 2 * 8 + 1 * 32
        assert net.route_length(src, dst) == 5

    def test_directed_links_disjoint_for_opposite_traffic(self):
        net = Torus3DNetwork()
        fwd = set(net.link_ids(0, 1))
        bwd = set(net.link_ids(1, 0))
        assert fwd.isdisjoint(bwd)

    def test_high_bandwidth_low_latency(self):
        """150 MB/s peak per link, microsecond setup (paper Section 4.3)."""
        net = Torus3DNetwork()
        assert net.transfer_time(150_000_000) == pytest.approx(1.0)
        assert net.uncontended_message_time(0) < 1e-4


class TestCrossbar:
    def test_dedicated_pairs(self):
        net = CrossbarNetwork(4)
        assert net.link_ids(0, 3) == ["pair:0->3"]
        assert len(net.capacities()) == 12

    def test_no_self_pairs(self):
        assert "pair:1->1" not in CrossbarNetwork(4).capacities()


class TestCapacity:
    @pytest.mark.parametrize("net", [
        EthernetNetwork(8), FddiNetwork(8), AllnodeNetwork.fast(8),
        AllnodeNetwork.slow(16), AtmNetwork(8), SPSwitchNetwork(8),
        CrossbarNetwork(4), Torus3DNetwork(),
    ], ids=lambda net: net.name)
    def test_one_link_as_in_the_table(self, net):
        """``capacity(link)`` reads one entry of ``capacities()``, and every
        route names only links the table has."""
        caps, n = net.capacities(), min(net.nnodes, 8)
        assert all(net.capacity(k) == c for k, c in caps.items())
        assert all(k in caps for s in range(n) for d in range(n) if s != d
                   for k in net.link_ids(s, d))


class TestUncontendedTimes:
    def test_message_time_ordering_across_networks(self):
        """For the solver's ~3 KB messages: torus fastest wire, Ethernet
        slowest — the hardware half of the paper's platform ordering."""
        n = 3125
        times = {
            "torus": Torus3DNetwork().uncontended_message_time(n),
            "sp": SPSwitchNetwork(16).uncontended_message_time(n),
            "atm": AtmNetwork(16).uncontended_message_time(n),
            "allnode_f": AllnodeNetwork.fast(16).uncontended_message_time(n),
            "allnode_s": AllnodeNetwork.slow(16).uncontended_message_time(n),
            "ethernet": EthernetNetwork(16).uncontended_message_time(n),
        }
        assert times["torus"] < times["sp"] < times["allnode_s"]
        assert times["allnode_f"] < times["allnode_s"] < times["ethernet"]
