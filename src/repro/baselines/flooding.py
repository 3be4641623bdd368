"""Flooding and gossiping (Section 2.2.1).

Flooding
    "each node receiving a data or management packet broadcasts the packet
    to all of its neighbors, unless a maximum number of hops for the
    packet is reached or the destination of the packet is the node
    itself."  No topology maintenance, no routing state — and the
    implosion/overlap/resource-blindness costs the paper quotes from [3].

Gossiping
    "sends data to one randomly selected neighbor", trading implosion for
    propagation delay (and, on an unlucky walk, non-delivery within TTL).
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from repro.exceptions import RoutingError
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeKind
from repro.sim.packet import DATA_PAYLOAD_BYTES, Packet, PacketKind
from repro.sim.radio import Channel

__all__ = ["Flooding", "Gossiping"]


class Flooding:
    """Classic data flooding toward any gateway."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        channel: Channel,
        max_hops: int = 32,
        payload_bytes: int = DATA_PAYLOAD_BYTES,
    ) -> None:
        if not network.gateway_ids:
            raise RoutingError("flooding needs at least one gateway to deliver to")
        self.sim = sim
        self.network = network
        self.channel = channel
        self.metrics = channel.metrics
        self.max_hops = max_hops
        self.payload_bytes = payload_bytes
        self._data_ids = itertools.count(1)
        self._seen: dict[int, set[int]] = {n.node_id: set() for n in network.nodes}
        self._delivered: dict[int, set[int]] = {g: set() for g in network.gateway_ids}
        for node in network.nodes:
            node.handler = self._make_handler(node.node_id)

    def send_data(
        self,
        source: int,
        payload_bytes: Optional[int] = None,
        data_id: Optional[int] = None,
    ) -> int:
        """Originate one datum at ``source``; returns its ``data_id``.

        ``data_id`` defaults to the protocol's running counter; sharded
        execution passes it explicitly so every worker labels the datum
        with the same *global* identity regardless of which subset of
        the traffic schedule it owns.
        """
        if data_id is None:
            data_id = next(self._data_ids)
        self.metrics.on_data_generated(origin=source, data_id=data_id, now=self.sim.now)
        node = self.network.nodes[source]
        if not node.alive:
            self.metrics.on_terminal_drop(
                "dead_source", key=(source, data_id), node=source, now=self.sim.now
            )
            return data_id
        pkt = Packet(
            kind=PacketKind.DATA,
            origin=source,
            target=None,  # any gateway
            payload={"data_id": data_id},
            payload_bytes=payload_bytes if payload_bytes is not None else self.payload_bytes,
            ttl=self.max_hops,
            hop_count=1,  # a frame carries the hops travelled once received
            created_at=self.sim.now,
        )
        self._seen[source].add(data_id)
        self.channel.send(source, pkt)
        return data_id

    def _make_handler(self, node_id: int):
        # functools.partial instead of a closure (same shape as
        # repro.core.base): the bound call skips a Python frame.
        return functools.partial(self._on_packet, node_id)

    def _on_packet(self, node_id: int, pkt: Packet) -> None:
        if pkt.kind is not PacketKind.DATA:
            return
        data_id = pkt.payload["data_id"]
        node = self.network.nodes[node_id]
        if node.kind is NodeKind.GATEWAY:
            # Implosion: the same datum arrives many times; deliver once.
            if data_id not in self._delivered[node_id]:
                self._delivered[node_id].add(data_id)
                self.metrics.on_data_delivered(pkt, node_id, self.sim.now)
            return
        if data_id in self._seen[node_id]:
            return
        self._seen[node_id].add(data_id)
        if pkt.ttl <= 1:
            # One flood copy expired; siblings may still deliver, so the
            # drop stays frame-level (the datum's broadcast exemption
            # covers it if every copy dies this way).
            self.metrics.on_drop("ttl")
            return
        self.channel.send(
            node_id, pkt.fork(src=node_id, dst=None, ttl=pkt.ttl - 1, hop_count=pkt.hop_count + 1)
        )


class Gossiping(Flooding):
    """Flooding's random-walk variant: forward to one random neighbor."""

    def send_data(
        self,
        source: int,
        payload_bytes: Optional[int] = None,
        data_id: Optional[int] = None,
    ) -> int:
        if data_id is None:
            data_id = next(self._data_ids)
        self.metrics.on_data_generated(origin=source, data_id=data_id, now=self.sim.now)
        node = self.network.nodes[source]
        if not node.alive:
            self.metrics.on_terminal_drop(
                "dead_source", key=(source, data_id), node=source, now=self.sim.now
            )
            return data_id
        pkt = Packet(
            kind=PacketKind.DATA,
            origin=source,
            target=None,
            payload={"data_id": data_id},
            payload_bytes=payload_bytes if payload_bytes is not None else self.payload_bytes,
            ttl=self.max_hops,
            created_at=self.sim.now,
        )
        self._gossip_forward(source, pkt)
        return data_id

    def _gossip_forward(self, node_id: int, pkt: Packet) -> None:
        # Prefer handing to an adjacent gateway; otherwise a random
        # neighbor (the datum walks until TTL or luck).
        alive = self.network.alive_neighbors(node_id)
        if len(alive) == 0:
            # The walk carries the only copy: a stranded walker is terminal.
            self.metrics.on_terminal_drop("isolated", pkt, node=node_id, now=self.sim.now)
            return
        gws = [int(n) for n in alive if self.network.nodes[n].kind is NodeKind.GATEWAY]
        if gws:
            nxt = gws[int(self.sim.rng.integers(len(gws)))]
        else:
            nxt = int(alive[int(self.sim.rng.integers(len(alive)))])
        self.channel.send(
            node_id, pkt.fork(src=node_id, dst=nxt, ttl=pkt.ttl - 1, hop_count=pkt.hop_count + 1)
        )

    def _on_packet(self, node_id: int, pkt: Packet) -> None:
        if pkt.kind is not PacketKind.DATA:
            return
        data_id = pkt.payload["data_id"]
        node = self.network.nodes[node_id]
        if node.kind is NodeKind.GATEWAY:
            if data_id not in self._delivered[node_id]:
                self._delivered[node_id].add(data_id)
                self.metrics.on_data_delivered(pkt, node_id, self.sim.now)
            return
        if pkt.ttl <= 1:
            self.metrics.on_terminal_drop("ttl", pkt, node=node_id, now=self.sim.now)
            return
        self._gossip_forward(node_id, pkt)
