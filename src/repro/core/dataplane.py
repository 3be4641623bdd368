"""Data-plane forwarder: Steps 1 and 5 plus RERR route repair.

The bottom layer of the protocol stack.  It moves application payloads
once the :class:`~repro.core.discovery.FloodDiscoveryEngine` has installed
routes:

Step 1
    :meth:`DataPlaneForwarder.send_data` checks the local routing table;
    with a usable entry the DATA goes straight out, otherwise the payload
    is queued and a discovery starts.
Step 5
    The first DATA packet on a route carries the source route; every node
    it traverses installs its path suffix (Property 1 again), and
    subsequent packets are forwarded from tables only.

Fault handling: forwarders check next-hop liveness (the abstraction of a
HELLO/link-layer beacon) and return a RERR carrying the stranded payload
back to the source, which removes the broken entry and redirects via
another gateway — the paper's fault-tolerance behaviour ("sensor nodes may
redirect data transmission using other routes", Section 8).  Redirects
are bounded by ``max_repairs_per_packet`` and gated on ``repair_routes``.

Liveness checks about *another* node go through :meth:`_believed_alive`:
knowledge of a battery death travels no faster than a frame, so a
neighbour's exhaustion becomes visible one MAC-header airtime after it
happens.  Injected fail-stop crashes stay instantly visible (the HELLO
abstraction the recovery experiments rely on); a node reading its *own*
state always sees the truth.

Like the discovery engine, this is a mixin operating through ``self``:
MLR overrides :meth:`_dispatch_or_queue` (round gating), SecMLR overrides
:meth:`_transmit_data` / :meth:`_on_data` (authentication); the policy
hooks (``gateway_for_key``, ``decorate_data``, ``gateway_accepts_data``)
come from :class:`repro.core.policy.ProtocolPolicy`.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.exceptions import RoutingError
from repro.core.routing_table import RouteEntry
from repro.sim.node import NodeKind
from repro.sim.packet import MAC_HEADER_BYTES, Packet, PacketKind

__all__ = ["DataPlaneForwarder"]


class DataPlaneForwarder:
    """Table-driven DATA forwarding with RERR repair (Steps 1 and 5)."""

    # ------------------------------------------------------------------
    # routing-layer liveness belief
    # ------------------------------------------------------------------
    @property
    def _death_latency(self) -> float:
        """How long a battery death stays invisible to other nodes.

        A model of death-detection latency: a neighbour learns of a
        death only from its radio (a missed ACK or beacon), and no
        evidence crosses a link faster than the smallest frame, one
        MAC-header airtime.  Until then the routing layer still picks
        the dead node as a next hop, and those frames drop at the dead
        receiver.  The ``lifetime`` golden output depends on this
        latency: making deaths visible at once moves MLR's mean hop
        count there.
        """
        latency = getattr(self, "_death_latency_cache", None)
        if latency is None:
            latency = self.channel.config.airtime(8 * MAC_HEADER_BYTES)
            self._death_latency_cache = latency
        return latency

    def _believed_alive(self, node_id: int) -> bool:
        """What the routing layer believes about ANOTHER node's liveness.

        Battery deaths propagate with :attr:`_death_latency`; injected
        fail-stop crashes (fault experiments) remain instantly visible —
        recovery probing depends on the failed flag's HELLO abstraction.
        Never use this for a node's reads of its own state.
        """
        node = self.network.nodes[node_id]
        if node.alive:
            return True
        died = node.died_at
        if died is None:
            return False  # crash or sleep: instant visibility
        return self.sim.now < died + self._death_latency

    # ------------------------------------------------------------------
    # public API (Step 1)
    # ------------------------------------------------------------------
    def send_data(
        self,
        source: int,
        payload_bytes: int | None = None,
        data_id: int | None = None,
    ) -> int:
        """Application call: sensor ``source`` has one sensed datum to report.

        Returns the data id used in delivery records.  Implements Step 1:
        route from table when possible, otherwise queue + discover.
        ``data_id`` defaults to a process-local counter; sharded execution
        passes it explicitly so every worker labels the datum with the
        same *global* identity.
        """
        node = self.network.nodes[source]
        if node.kind is not NodeKind.SENSOR:
            raise RoutingError(f"only sensors generate data (node {source} is {node.kind})")
        if data_id is None:
            data_id = next(self._data_ids)
        self.metrics.on_data_generated(origin=source, data_id=data_id, now=self.sim.now)
        if not node.alive:
            self.metrics.on_terminal_drop(
                "dead_source", key=(source, data_id), node=source, now=self.sim.now
            )
            return data_id
        payload = {
            "data_id": data_id,
            "bytes": payload_bytes if payload_bytes is not None else self.config.data_payload_bytes,
        }
        self._dispatch_or_queue(source, payload)
        return data_id

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _dispatch_or_queue(self, source: int, payload: dict[str, Any]) -> None:
        entry = self.tables[source].best(self.active_keys(source))
        if entry is not None:
            self._transmit_data(source, entry, payload)
            return
        self._queue_pending(source, payload)
        self.metrics.on_data_queued(source, payload["data_id"])
        if source not in self._discovery:
            self._start_discovery(source)

    def _transmit_data(self, source: int, entry: RouteEntry, payload: dict[str, Any]) -> None:
        gateway = self.gateway_for_key(source, entry.key, entry.gateway)
        path = entry.path[:-1] + (gateway,)
        # Source-route the first packet over this entry so intermediate
        # nodes install their suffixes (Step 5.1/5.2); afterwards the path
        # field stays empty (Step 5.3).
        announce_key = (source, entry.key, path)
        source_routed = announce_key not in self._announced
        pkt = Packet(
            kind=PacketKind.DATA,
            origin=source,
            target=gateway,
            path=path if source_routed else (),
            payload={
                **payload,
                "key": entry.key,
                "traversed": [source],
            },
            payload_bytes=payload["bytes"],
            created_at=self.sim.now,
        )
        pkt = self.decorate_data(source, pkt, entry)
        if source_routed:
            self._announced.add(announce_key)
        next_hop = path[1] if len(path) > 1 else gateway
        self._forward_data(source, pkt, next_hop)

    def _valid_node(self, node_id) -> bool:
        """Packet fields are attacker-controlled; validate before indexing."""
        return isinstance(node_id, int) and 0 <= node_id < len(self.network.nodes)

    def _forward_data(self, node_id: int, pkt: Packet, next_hop: int) -> None:
        behavior = self.behaviors.get(node_id)
        if behavior is not None and behavior.drop_outgoing_data(pkt):
            self.metrics.on_terminal_drop("blackhole", pkt, node=node_id, now=self.sim.now)
            return
        if not self._valid_node(next_hop):
            self.metrics.on_terminal_drop("misrouted", pkt, node=node_id, now=self.sim.now)
            return
        if not self._believed_alive(next_hop):
            if self.config.repair_routes:
                # Non-terminal: the RERR below carries the stranded datum
                # back toward its source (the ledger follows it there).
                self.metrics.on_drop("dead_next_hop")
                self._report_route_error(node_id, pkt)
            else:
                self.metrics.on_terminal_drop(
                    "dead_next_hop", pkt, node=node_id, now=self.sim.now
                )
            return
        self.channel.send(node_id, pkt.with_hop(node_id, next_hop))

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def _purge_routes_through(self, node_id: int) -> int:
        """Drop every table entry and announcement routed through ``node_id``.

        While a node is down, RERR repair purges the entries that actual
        traffic trips over — but unused entries through the node survive
        in other nodes' tables, and the node's own suffix entries are
        gone, so a post-recovery DATA forwarded on such a stale entry
        dead-ends at the recovered node with ``no_route``.  The rejoin
        path (:meth:`~repro.core.discovery.FloodDiscoveryEngine.
        on_node_recovered`) calls this to force fresh source-routed
        announcements and re-discovery instead.
        """
        purged = 0
        for table in self.tables.values():
            purged += table.purge_through(node_id)
        self._announced = {a for a in self._announced if node_id not in a[2]}
        return purged

    # ------------------------------------------------------------------
    # route repair (RERR)
    # ------------------------------------------------------------------
    def _report_route_error(self, detector: int, pkt: Packet) -> None:
        """Send the stranded payload back to the source along ``traversed``."""
        traversed = list(pkt.payload.get("traversed", ()))
        key = pkt.payload.get("key")
        if pkt.origin == detector:
            self._handle_route_error_at_source(detector, key, pkt.payload)
            return
        if not traversed or detector not in traversed:
            self.metrics.on_terminal_drop("unrepairable", pkt, node=detector, now=self.sim.now)
            return
        idx = traversed.index(detector)
        if idx == 0:
            # The detector heads the traversed list but is not the origin
            # (pos == 0 with no upstream hop): nowhere to send the RERR.
            self.metrics.on_terminal_drop("unrepairable", pkt, node=detector, now=self.sim.now)
            return
        back = traversed[: idx + 1]
        rerr = Packet(
            kind=PacketKind.RERR,
            origin=detector,
            target=pkt.origin,
            dst=back[idx - 1],
            payload={
                "key": key,
                "back_path": back,
                # "pos" is always the index of the node currently holding
                # the RERR; the receiver's index is idx - 1.
                "pos": idx - 1,
                "data": {
                    k: v for k, v in pkt.payload.items()
                    if k in ("data_id", "bytes", "repairs")
                },
            },
            payload_bytes=self.config.control_payload_bytes + pkt.payload.get("bytes", 0),
            created_at=pkt.created_at,
        )
        self.channel.send(detector, rerr)

    def _handle_route_error_at_source(self, source: int, key: Hashable, data_payload: dict) -> None:
        self.tables[source].remove(key)
        # Force the next packet on a re-discovered route to carry the
        # source route again (downstream entries may be missing).
        self._announced = {
            a for a in self._announced if not (a[0] == source and a[1] == key)
        }
        repairs = data_payload.get("repairs", 0) + 1
        if repairs > self.config.max_repairs_per_packet:
            self.metrics.on_terminal_drop(
                "unrepairable",
                key=(source, data_payload["data_id"]),
                node=source,
                now=self.sim.now,
            )
            return
        payload = {
            "data_id": data_payload["data_id"],
            "bytes": data_payload["bytes"],
            "repairs": repairs,
        }
        self._dispatch_or_queue(source, payload)

    # ------------------------------------------------------------------
    # DATA reception / forwarding (Step 5)
    # ------------------------------------------------------------------
    def _on_data(self, node_id: int, pkt: Packet) -> None:
        node = self.network.nodes[node_id]
        if node.kind is NodeKind.GATEWAY:
            if not self.gateway_accepts_data(node_id, pkt):
                return
            self.metrics.on_data_delivered(pkt, node_id, self.sim.now)
            if self.delivery_callback is not None:
                self.delivery_callback(pkt, node_id)
            return

        traversed = list(pkt.payload.get("traversed", ()))
        if node_id in traversed or pkt.ttl <= 0:
            # Routing loop (stale entries can point at each other after
            # repairs) or hop budget exhausted: drop and purge the local
            # entry so the loop cannot re-form from this node's table.
            self.metrics.on_terminal_drop(
                "loop" if node_id in traversed else "ttl", pkt, node=node_id, now=self.sim.now
            )
            self.tables[node_id].remove(pkt.payload.get("key"))
            return
        traversed.append(node_id)
        fwd = pkt.fork()
        fwd.payload["traversed"] = traversed

        if pkt.path:
            # First packet on this route: install the suffix (Step 5.2).
            try:
                i = pkt.path.index(node_id)
            except ValueError:
                self.metrics.on_terminal_drop("misrouted", pkt, node=node_id, now=self.sim.now)
                return
            suffix = RouteEntry(key=pkt.payload["key"], gateway=pkt.path[-1], path=pkt.path[i:])
            self.tables[node_id].install(suffix, replace_worse_only=True)
            if i + 1 >= len(pkt.path):
                self.metrics.on_terminal_drop("misrouted", pkt, node=node_id, now=self.sim.now)
                return
            self._forward_data(node_id, fwd, pkt.path[i + 1])
            return

        entry = self.tables[node_id].get(pkt.payload.get("key"))
        if entry is None:
            # The source-routed announcement for this flow never reached us
            # (lost or swallowed en route): bounce the payload back so the
            # source re-announces / re-routes.
            if self.config.repair_routes:
                self.metrics.on_drop("no_route")
                self._report_route_error(node_id, fwd)
            else:
                self.metrics.on_terminal_drop("no_route", pkt, node=node_id, now=self.sim.now)
            return
        next_hop = entry.next_hop if entry.hops > 0 else entry.gateway
        next_hop = self.gateway_for_key(node_id, entry.key, next_hop) if entry.hops <= 1 else next_hop
        self._forward_data(node_id, fwd, next_hop)

    # ------------------------------------------------------------------
    # RERR reception
    # ------------------------------------------------------------------
    def _on_rerr(self, node_id: int, pkt: Packet) -> None:
        pos = pkt.payload["pos"]
        back = pkt.payload["back_path"]
        if node_id == pkt.target:
            self._handle_route_error_at_source(node_id, pkt.payload["key"], pkt.payload["data"])
            return
        if pos >= len(back) or back[pos] != node_id or pos == 0:
            # The RERR is off its back path (corrupted pos, or a detector
            # at pos 0 with no upstream hop): the stranded datum it
            # carries dies with it.
            self.metrics.on_terminal_drop("misrouted", pkt, node=node_id, now=self.sim.now)
            return
        # The downstream segment of this route is broken: purge the local
        # entry so Property-1 table answering stops advertising it.
        self.tables[node_id].remove(pkt.payload["key"])
        prev = back[pos - 1]
        if not self._valid_node(prev) or not self._believed_alive(prev):
            self.metrics.on_terminal_drop("unrepairable", pkt, node=node_id, now=self.sim.now)
            return
        nxt = pkt.fork(src=node_id, dst=prev, hop_count=pkt.hop_count + 1)
        nxt.payload["pos"] = pos - 1
        self.channel.send(node_id, nxt)
