"""Flood/discovery engine: Steps 2-4 of the Section 5.2 skeleton.

The middle layer of the protocol stack.  It owns everything between "a
source has no route" and "a route entry is installed":

Step 2
    :meth:`FloodDiscoveryEngine._start_discovery` floods an RREQ naming
    its target gateways; duplicate suppression is per ``(origin, seq)``,
    re-broadcasts are jittered on contention radios.
Step 3
    Intermediate nodes holding a matching route answer from their tables
    instead of re-flooding (Property 1 — the ``table_answering`` switch
    exists so the ablation benchmark can turn it off); gateways answer
    with the accumulated path, either immediately or after the SecMLR
    collect window.  Responses travel hop-by-hop back along the reverse
    of the recorded path.
Step 4
    After ``discovery_timeout`` the source picks the least-hop response
    (ties break on gateway id) and installs the entry; empty rounds back
    off linearly and retry up to ``max_discovery_attempts``.

The engine is a mixin: it calls the policy hooks of
:class:`repro.core.policy.ProtocolPolicy` (``decorate_rreq``,
``gateway_accepts_rreq``, ``gateway_answer_key``, ...) and hands installed
routes to :class:`repro.core.dataplane.DataPlaneForwarder` for the queued
payloads — all through ``self``, so MLR/SecMLR can override any stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.core.routing_table import RouteEntry
from repro.sim.node import NodeKind
from repro.sim.packet import Packet, PacketKind

__all__ = ["_DiscoveryState", "FloodDiscoveryEngine"]


@dataclass
class _DiscoveryState:
    seq: int
    targets: dict[int, Hashable]  # gateway id -> table key
    responses: list[RouteEntry] = field(default_factory=list)
    attempts: int = 1


class FloodDiscoveryEngine:
    """RREQ flood out, RRES hop-back, least-hop selection (Steps 2-4)."""

    # ------------------------------------------------------------------
    # discovery lifecycle
    # ------------------------------------------------------------------
    def _start_discovery(self, source: int, attempts: int = 1) -> None:
        targets = self.discovery_targets(source)
        if not targets:
            self._fail_discovery(source)
            return
        seq = next(self._seq)
        self._discovery[source] = _DiscoveryState(seq=seq, targets=targets, attempts=attempts)
        pkt = Packet(
            kind=PacketKind.RREQ,
            origin=source,
            target=None,
            path=(source,),
            payload={"seq": seq, "targets": dict(targets)},
            payload_bytes=self.config.control_payload_bytes,
            ttl=self.config.ttl,
            created_at=self.sim.now,
        )
        pkt = self.decorate_rreq(source, pkt, targets)
        self._seen_floods[source].add((source, seq))
        self.channel.send(source, pkt.fork(src=source, dst=None))
        self.sim.schedule(self.config.discovery_timeout, self._finish_discovery, source, seq)

    def _finish_discovery(self, source: int, seq: int) -> None:
        state = self._discovery.get(source)
        if state is None or state.seq != seq:
            return  # superseded
        if not state.responses:
            del self._discovery[source]
            if state.attempts < self.config.max_discovery_attempts:
                self._schedule_retry(source, state.attempts)
            else:
                self._fail_discovery(source)
            return
        best = min(state.responses, key=lambda e: (e.hops, e.gateway))
        self.tables[source].install(best, replace_worse_only=True)
        del self._discovery[source]
        for payload in self._take_pending(source):
            self._dispatch_or_queue(source, payload)

    def _schedule_retry(self, source: int, attempts: int) -> None:
        """Back off linearly between discovery attempts.

        Immediate re-flooding after a timeout amplifies exactly the
        congestion that caused the timeout; spreading retries lets the
        channel drain (only matters on contention radios, but is harmless
        on the ideal one).
        """
        delay = 0.0
        if self.channel.config.csma:
            delay = attempts * self.config.discovery_timeout
            delay += float(
                self.sim.node_rng(source).uniform(0.0, self.config.discovery_timeout)
            )
        self.sim.schedule(delay, self._retry_discovery, source, attempts)

    def _retry_discovery(self, source: int, attempts: int) -> None:
        if source in self._discovery:
            return
        if not self.network.nodes[source].alive:
            # A dead source can never finish discovery: drain its queued
            # data to a terminal state instead of stranding it forever.
            for payload in self._take_pending(source):
                self.metrics.on_terminal_drop(
                    "dead_source",
                    key=(source, payload["data_id"]),
                    node=source,
                    now=self.sim.now,
                )
            return
        self._start_discovery(source, attempts=attempts + 1)

    def _fail_discovery(self, source: int) -> None:
        for payload in self._take_pending(source):
            self.metrics.on_terminal_drop(
                "no_route", key=(source, payload["data_id"]), node=source, now=self.sim.now
            )

    # ------------------------------------------------------------------
    # recovery rejoin
    # ------------------------------------------------------------------
    def on_node_recovered(self, node_id: int) -> None:
        """Rejoin a node that just recovered from an injected failure.

        A recovered node cannot trust its pre-crash routing state, and
        the rest of the network cannot trust entries routed through it
        (the node's own suffix entries are gone, so those paths now
        dead-end).  The clean rejoin therefore:

        1. wipes the recovered node's own routes, forwarding entries
           and flood-suppression memory;
        2. purges every other node's entries through the node, plus the
           source-route announcements over those paths, so the next DATA
           on an affected flow re-discovers and re-announces;
        3. restarts discovery for data still queued at the node (its
           in-progress discovery died with it — queued datums would
           otherwise sit stuck until the strict audit flags them).

        Called by the fault injector after
        :meth:`~repro.sim.state.NodeView.recover` reports the node
        actually came back alive; never for
        battery-dead nodes.
        """
        self.tables[node_id].clear()
        self._seen_floods[node_id].clear()
        self._purge_routes_through(node_id)
        self._discovery.pop(node_id, None)
        if self._pending_data.get(node_id):
            self._start_discovery(node_id)

    # ------------------------------------------------------------------
    # RREQ flood (Step 2/3)
    # ------------------------------------------------------------------
    def _on_rreq(self, node_id: int, pkt: Packet) -> None:
        key = (pkt.origin, pkt.payload["seq"])
        node = self.network.nodes[node_id]
        targets: dict[int, Hashable] = pkt.payload["targets"]

        if node.kind is NodeKind.GATEWAY:
            if node_id not in targets:
                return
            if not self.gateway_accepts_rreq(node_id, pkt):
                return
            self._gateway_handle_rreq(node_id, pkt)
            return

        if key in self._seen_floods[node_id] or node_id in pkt.path:
            return
        self._seen_floods[node_id].add(key)

        if self.config.table_answering:
            answer = self._table_answer(node_id, targets)
            if answer is not None:
                full_path = pkt.path + answer.path
                self._send_rres(node_id, pkt.origin, full_path, answer.key, answer.gateway, pkt)
                return

        if pkt.ttl <= 1:
            self.metrics.on_drop("ttl")
            return
        fwd = pkt.fork(path=pkt.path + (node_id,), src=node_id, dst=None, ttl=pkt.ttl - 1,
                       hop_count=pkt.hop_count + 1)
        self._flood_send(node_id, fwd)

    def _flood_send(self, node_id: int, pkt: Packet) -> None:
        """Re-broadcast a flood frame, jittered on contention radios."""
        if self.channel.config.csma and self.config.flood_jitter > 0:
            delay = float(
                self.sim.node_rng(node_id).uniform(0.0, self.config.flood_jitter)
            )
            self.sim.schedule(delay, self.channel.send, node_id, pkt)
        else:
            self.channel.send(node_id, pkt)

    def _table_answer(self, node_id: int, targets: dict[int, Hashable]) -> Optional[RouteEntry]:
        """Least-hop local entry matching any requested key (Property 1)."""
        wanted = set(targets.values())
        table = self.tables[node_id]
        candidates = [e for e in table.entries() if e.key in wanted]
        return min(candidates, key=lambda e: (e.hops, e.gateway), default=None)

    def _gateway_handle_rreq(self, gateway: int, pkt: Packet) -> None:
        path = pkt.path + (gateway,)
        key = self.gateway_answer_key(gateway, pkt.payload["targets"][gateway])
        if self.config.gateway_collect_timeout <= 0:
            flood = (pkt.origin, pkt.payload["seq"])
            if flood in self._seen_floods[gateway]:
                return
            self._seen_floods[gateway].add(flood)
            self._send_rres(gateway, pkt.origin, path, key, gateway, pkt)
            return
        # SecMLR-style collection: buffer paths, answer once with the best.
        bucket_key = (gateway, pkt.origin, pkt.payload["seq"])
        bucket = self._collect_buckets.setdefault(bucket_key, [])
        bucket.append(path)
        if len(bucket) == 1:
            self.sim.schedule(
                self.config.gateway_collect_timeout,
                self._gateway_answer_collected,
                bucket_key,
                key,
                pkt,
            )

    def _gateway_answer_collected(self, bucket_key, key: Hashable, pkt: Packet) -> None:
        gateway, origin, _seq = bucket_key
        paths = self._collect_buckets.pop(bucket_key, [])
        if not paths or not self.network.nodes[gateway].alive:
            return
        best = min(paths, key=len)  # path_ij = Min(|path_ij(k)|), Section 6.2.2
        self._send_rres(gateway, origin, best, key, gateway, pkt)

    # ------------------------------------------------------------------
    # RRES hop-back (Step 3/4)
    # ------------------------------------------------------------------
    def _send_rres(
        self,
        responder: int,
        origin: int,
        full_path: tuple[int, ...],
        key: Hashable,
        gateway: int,
        request: Packet,
    ) -> None:
        """Unicast a routing response back along ``full_path`` toward origin."""
        pos = full_path.index(responder)
        pkt = Packet(
            kind=PacketKind.RRES,
            origin=responder,
            target=origin,
            path=full_path,
            payload={
                "key": key,
                "gw": gateway,
                "pos": pos,
                "seq": request.payload["seq"],
            },
            payload_bytes=self.config.control_payload_bytes,
            created_at=self.sim.now,
        )
        pkt = self.decorate_rres(responder, pkt, origin)
        if pos == 0:
            # responder is the origin's neighbor table case — degenerate
            self._accept_rres(origin, pkt)
            return
        self._forward_rres(responder, pkt, pos)

    def _forward_rres(self, node_id: int, pkt: Packet, pos: int) -> None:
        prev = pkt.path[pos - 1]
        if not self._valid_node(prev):
            self.metrics.on_drop("misrouted")
            return
        if not self._believed_alive(prev):
            # Belief, not ground truth: a battery death within one header
            # airtime is still invisible here (see DataPlaneForwarder).
            self.metrics.on_drop("dead_next_hop")
            return
        nxt = pkt.fork(src=node_id, dst=prev, hop_count=pkt.hop_count + 1)
        nxt.payload["pos"] = pos - 1
        self.channel.send(node_id, nxt)

    def _on_rres(self, node_id: int, pkt: Packet) -> None:
        pos = pkt.payload["pos"]
        if pos >= len(pkt.path) or pkt.path[pos] != node_id:
            self.metrics.on_drop("misrouted")
            return
        if node_id == pkt.target and pos == 0:
            # The source verifies BEFORE installing anything: a forged or
            # altered response must not leave state behind.
            self._accept_rres(node_id, pkt)
            return
        self.on_rres_hop(node_id, pkt)
        self._forward_rres(node_id, pkt, pos)

    def _accept_rres(self, source: int, pkt: Packet) -> None:
        if not self.source_accepts_rres(source, pkt):
            return
        self.on_rres_hop(source, pkt)
        state = self._discovery.get(source)
        entry = RouteEntry(key=pkt.payload["key"], gateway=pkt.payload["gw"], path=tuple(pkt.path))
        if state is not None and state.seq == pkt.payload.get("seq"):
            state.responses.append(entry)
        else:
            # Late response: still useful, install if better.
            self.tables[source].install(entry, replace_worse_only=True)
