"""Cluster network topology for transfer-cost estimation.

A simple two-level model: nodes hang off rack switches, racks hang off a
core switch.  Transfers within a node are free, within a rack pay the NIC
bandwidth, across racks pay the min of NIC and (oversubscribed) uplink.
The cost model uses :meth:`Topology.broadcast_seconds` and
:meth:`Topology.shuffle_seconds` as its network terms.
"""

from __future__ import annotations

from repro.cluster.nodes import ClusterSpec


class Topology:
    """A rack-aware star-of-stars network."""

    def __init__(
        self,
        cluster: ClusterSpec,
        nodes_per_rack: int = 20,
        uplink_oversubscription: float = 4.0,
    ) -> None:
        if nodes_per_rack < 1:
            raise ValueError("nodes_per_rack must be >= 1")
        if uplink_oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        self.cluster = cluster
        self.nodes_per_rack = nodes_per_rack
        self.nic_gbps = cluster.instance.network_gbps
        self.uplink_gbps = self.nic_gbps * nodes_per_rack / uplink_oversubscription

    @property
    def n_racks(self) -> int:
        return -(-self.cluster.n_nodes // self.nodes_per_rack)

    def rack_of(self, node_index: int) -> int:
        return node_index // self.nodes_per_rack

    def path_bandwidth_gbps(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth between two hosts."""
        for host in (src, dst):
            if not 0 <= host < self.cluster.n_nodes:
                raise ValueError(f"no host {host} in a {self.cluster.n_nodes}-node cluster")
        if src == dst:
            return float("inf")
        if self.rack_of(src) == self.rack_of(dst):
            return self.nic_gbps
        return min(self.nic_gbps, self.uplink_gbps)

    def broadcast_seconds(self, payload_bytes: int) -> float:
        """Time to fan a driver payload out to every node (BitTorrent-ish:
        log2 rounds of NIC-limited transfers, as in Spark's TorrentBroadcast)."""
        import math

        n = self.cluster.n_nodes
        if n <= 1 or payload_bytes <= 0:
            return 0.0
        rounds = math.ceil(math.log2(n + 1))
        per_round = payload_bytes * 8 / (self.nic_gbps * 1e9)
        return rounds * per_round

    def shuffle_seconds(self, total_bytes: int) -> float:
        """All-to-all shuffle time, NIC-bound per node (uniform traffic)."""
        n = self.cluster.n_nodes
        if n <= 1 or total_bytes <= 0:
            return 0.0
        per_node = total_bytes / n
        # a fraction (n-1)/n of each node's data crosses its NIC
        cross = per_node * (n - 1) / n
        return cross * 8 / (self.nic_gbps * 1e9)
