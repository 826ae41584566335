"""Network topology model."""

import pytest

from repro.cluster.nodes import emr_cluster
from repro.cluster.topology import Topology


class TestStructure:
    def test_rack_count(self):
        topo = Topology(emr_cluster(45), nodes_per_rack=20)
        assert topo.n_racks == 3

    def test_rack_of(self):
        topo = Topology(emr_cluster(45), nodes_per_rack=20)
        assert topo.rack_of(0) == 0
        assert topo.rack_of(19) == 0
        assert topo.rack_of(20) == 1

    def test_host_and_rack_counts(self):
        topo = Topology(emr_cluster(6), nodes_per_rack=4)
        assert topo.cluster.n_nodes == 6
        assert topo.n_racks == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(emr_cluster(2), nodes_per_rack=0)
        with pytest.raises(ValueError):
            Topology(emr_cluster(2), uplink_oversubscription=0.5)


class TestBandwidth:
    def test_same_node_infinite(self):
        topo = Topology(emr_cluster(4))
        assert topo.path_bandwidth_gbps(1, 1) == float("inf")

    def test_same_rack_nic_bound(self):
        topo = Topology(emr_cluster(4), nodes_per_rack=4)
        assert topo.path_bandwidth_gbps(0, 1) == pytest.approx(1.0)

    def test_cross_rack_may_be_uplink_bound(self):
        topo = Topology(emr_cluster(40), nodes_per_rack=20, uplink_oversubscription=40.0)
        # uplink = 1 * 20/40 = 0.5 Gbps < NIC
        assert topo.path_bandwidth_gbps(0, 25) == pytest.approx(0.5)

    def test_cross_rack_nic_bound_when_uplink_is_wider(self):
        topo = Topology(emr_cluster(40), nodes_per_rack=20, uplink_oversubscription=4.0)
        assert topo.path_bandwidth_gbps(0, 25) == pytest.approx(1.0)

    def test_unknown_host_rejected(self):
        topo = Topology(emr_cluster(4))
        with pytest.raises(ValueError, match="no host 4"):
            topo.path_bandwidth_gbps(0, 4)


class TestTransferTimes:
    def test_broadcast_zero_payload(self):
        assert Topology(emr_cluster(8)).broadcast_seconds(0) == 0.0

    def test_broadcast_single_node(self):
        assert Topology(emr_cluster(1)).broadcast_seconds(10**9) == 0.0

    def test_broadcast_log_rounds(self):
        topo = Topology(emr_cluster(8))
        one_gb = 10**9
        t = topo.broadcast_seconds(one_gb)
        per_round = one_gb * 8 / 1e9
        assert t == pytest.approx(4 * per_round)  # ceil(log2(9)) = 4

    def test_shuffle_scales_down_with_nodes(self):
        small = Topology(emr_cluster(4)).shuffle_seconds(10**9)
        large = Topology(emr_cluster(16)).shuffle_seconds(10**9)
        assert large < small

    def test_shuffle_zero_cases(self):
        assert Topology(emr_cluster(1)).shuffle_seconds(10**9) == 0.0
        assert Topology(emr_cluster(4)).shuffle_seconds(0) == 0.0
