"""The 802.11 wireless mesh backbone of WMGs and WMRs (Section 3.1/3.2).

Mesh routers "with powerful capacities and lower mobility automatically
set up and maintain wireless connection, forming the backbone of WMNs".
We model the backbone as its own :class:`~repro.sim.network.Network` +
:class:`~repro.sim.radio.Channel` (802.11 parameters, mains power) on the
same simulator as the sensor tier, with link-state routing: every mesh
node knows the backbone topology (the standard assumption for
proactively-routed mesh networks) and packets are source-routed along
current shortest paths.  The self-healing property the paper advertises —
"if one node drops out of the network ... its neighbors simply find
another route" — falls out of recomputing the path on the live topology
at every forwarding decision point.
"""

from __future__ import annotations

from typing import Callable, Optional

import networkx as nx
import numpy as np

from repro.exceptions import ConfigurationError, TopologyError
from repro.sim.engine import Simulator
from repro.sim.node import NodeKind
from repro.sim.packet import Packet, PacketKind
from repro.sim.radio import IEEE80211, RadioConfig
from repro.sim.trace import MetricsCollector
from repro.world import WorldBuilder

__all__ = ["MeshBackbone"]


class MeshBackbone:
    """The WMG/WMR/base-station mesh with link-state routing.

    Parameters
    ----------
    sim:
        Shared simulator (same clock as the sensor tier).
    gateway_positions / router_positions / base_station_positions:
        Coordinates of WMGs, pure WMRs and base stations.  Node ids in the
        mesh tier are local to the backbone: gateways first, then routers,
        then base stations (query them via :attr:`gateway_mesh_ids` etc.).
    radio:
        802.11 parameter set by default.
    """

    def __init__(
        self,
        sim: Simulator,
        gateway_positions: np.ndarray,
        router_positions: np.ndarray,
        base_station_positions: np.ndarray,
        radio: RadioConfig = IEEE80211,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        gpos = np.asarray(gateway_positions, dtype=float).reshape(-1, 2)
        rpos = np.asarray(router_positions, dtype=float).reshape(-1, 2) if len(router_positions) else np.empty((0, 2))
        bpos = np.asarray(base_station_positions, dtype=float).reshape(-1, 2)
        if len(bpos) == 0:
            raise ConfigurationError("the mesh needs at least one base station")
        positions = np.vstack([gpos, rpos, bpos])
        kinds = (
            [NodeKind.GATEWAY] * len(gpos)
            + [NodeKind.MESH_ROUTER] * len(rpos)
            + [NodeKind.BASE_STATION] * len(bpos)
        )
        world = (
            WorldBuilder()
            .simulator(sim)
            .nodes(positions, kinds, comm_range=radio.comm_range)
            .radio(radio)
            .metrics(metrics or MetricsCollector())
            .build()
        )
        self.world = world
        self.sim = sim
        self.network = world.network
        self.metrics = world.metrics
        self.channel = world.channel
        self.gateway_mesh_ids = list(range(len(gpos)))
        self.router_mesh_ids = list(range(len(gpos), len(gpos) + len(rpos)))
        self.base_station_mesh_ids = list(
            range(len(gpos) + len(rpos), len(gpos) + len(rpos) + len(bpos))
        )
        #: invoked as ``(packet, mesh_node_id)`` when a frame reaches its
        #: mesh destination (a base station, usually).
        self.delivery_callback: Optional[Callable[[Packet, int], None]] = None
        for node in self.network.nodes:
            node.handler = self._make_handler(node.node_id)

    # ------------------------------------------------------------------
    # topology / routing
    # ------------------------------------------------------------------
    def graph(self) -> nx.Graph:
        """Live backbone topology (dead routers excluded)."""
        return self.network.graph(alive_only=True)

    def shortest_path(self, src: int, dst: int) -> list[int]:
        """Current least-hop mesh path; raises TopologyError if none."""
        try:
            return nx.shortest_path(self.graph(), src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise TopologyError(f"no mesh path {src} -> {dst}") from None

    def nearest_base_station(self, src: int) -> int:
        """The base station with the shortest mesh path from ``src``."""
        g = self.graph()
        lengths = nx.single_source_shortest_path_length(g, src)
        candidates = [(lengths[b], b) for b in self.base_station_mesh_ids if b in lengths]
        if not candidates:
            raise TopologyError(f"no base station reachable from mesh node {src}")
        return min(candidates)[1]

    def is_connected_to_base(self) -> bool:
        """Every gateway can reach a base station over the live mesh."""
        g = self.graph()
        for gw in self.gateway_mesh_ids:
            if gw not in g.nodes:
                return False
            lengths = nx.single_source_shortest_path_length(g, gw)
            if not any(b in lengths for b in self.base_station_mesh_ids):
                return False
        return True

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def transmit(self, src: int, dst: Optional[int], payload: dict, payload_bytes: int) -> bool:
        """Send a payload from ``src`` to ``dst`` (None = nearest base station).

        Returns False if no route exists right now (caller may retry after
        the topology changes).
        """
        did = payload.get("data_id")
        if did is not None:
            # Identified payloads (the three-tier stack's uplinks) enter
            # mesh-tier conservation; anonymous payloads stay untracked.
            self.metrics.on_data_generated(origin=src, data_id=did, now=self.sim.now)
        if dst is None:
            try:
                dst = self.nearest_base_station(src)
            except TopologyError:
                self.metrics.on_terminal_drop(
                    "no_route",
                    key=(src, did) if did is not None else None,
                    node=src,
                    now=self.sim.now,
                )
                return False
        try:
            path = self.shortest_path(src, dst)
        except TopologyError:
            self.metrics.on_terminal_drop(
                "no_route",
                key=(src, did) if did is not None else None,
                node=src,
                now=self.sim.now,
            )
            return False
        pkt = Packet(
            kind=PacketKind.DATA,
            origin=src,
            target=dst,
            path=tuple(path),
            payload=dict(payload),
            payload_bytes=payload_bytes,
            created_at=self.sim.now,
        )
        self._forward(src, pkt)
        return True

    def _forward(self, node_id: int, pkt: Packet) -> None:
        if node_id == pkt.target:
            self.metrics.on_data_delivered(pkt, node_id, self.sim.now)
            if self.delivery_callback is not None:
                self.delivery_callback(pkt, node_id)
            return
        try:
            i = pkt.path.index(node_id)
        except ValueError:
            self.metrics.on_terminal_drop("misrouted", pkt, node=node_id, now=self.sim.now)
            return
        next_hop = pkt.path[i + 1]
        if not self.network.nodes[next_hop].alive:
            # Self-healing: recompute on the live topology.
            try:
                new_path = self.shortest_path(node_id, pkt.target)
            except TopologyError:
                self.metrics.on_terminal_drop("no_route", pkt, node=node_id, now=self.sim.now)
                return
            pkt = pkt.fork(path=tuple(pkt.path[: i] if i else ()) + tuple(new_path))
            next_hop = new_path[1]
        self.channel.send(node_id, pkt.with_hop(node_id, next_hop))

    def _make_handler(self, node_id: int):
        def handler(pkt: Packet) -> None:
            if pkt.kind is PacketKind.DATA:
                self._forward(node_id, pkt)

        return handler

    # ------------------------------------------------------------------
    def fail_router(self, mesh_id: int) -> None:
        """Kill a mesh node (robustness experiments)."""
        self.network.nodes[mesh_id].fail()
