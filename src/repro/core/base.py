"""Composition of the three protocol layers into one node stack.

The five-step machinery of Section 5.2 is implemented once across three
layer modules, and :class:`DiscoveryProtocol` stacks them:

* :class:`repro.core.policy.ProtocolPolicy` — what a protocol *decides*:
  table keys, discovery targets, frame decoration/validation, NOTIFY
  semantics.  SPR/MLR/SecMLR specialise this layer.
* :class:`repro.core.discovery.FloodDiscoveryEngine` — Steps 2-4: RREQ
  flood with duplicate suppression, Property-1 table answering, RRES
  hop-back, least-hop selection with retry/backoff.
* :class:`repro.core.dataplane.DataPlaneForwarder` — Steps 1 and 5:
  table-driven DATA forwarding, source-routed announcements, RERR route
  repair.

The layers are mixins rather than delegate objects on purpose: the
concrete protocols override internals across all three (MLR retargets
``_finish_discovery`` and ``_dispatch_or_queue``; SecMLR wraps
``_table_answer``, ``_transmit_data``, ``_on_data``), and a single class
per protocol keeps every such override resolvable on ``self`` with no
forwarding shims.

This module keeps what is genuinely shared plumbing: per-node state,
handler wiring onto the network's nodes, the packet-kind dispatcher and
the attack-behaviour interception point (a compromised node's behaviour
object — see :mod:`repro.security.attacks` — is consulted before normal
processing and may suppress, mutate or fabricate traffic).

:class:`ProtocolConfig` is re-exported here for compatibility; it lives
in :mod:`repro.core.policy`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Hashable, Optional

from repro.core.dataplane import DataPlaneForwarder
from repro.core.discovery import FloodDiscoveryEngine, _DiscoveryState  # noqa: F401 (re-export)
from repro.core.policy import ProtocolConfig, ProtocolPolicy
from repro.core.routing_table import RoutingTable
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import Packet, PacketKind
from repro.sim.radio import Channel

__all__ = ["ProtocolConfig", "DiscoveryProtocol"]


class DiscoveryProtocol(ProtocolPolicy, FloodDiscoveryEngine, DataPlaneForwarder):
    """Base class wiring protocol handlers onto every node of a network.

    Subclasses implement the key policy methods (:meth:`entry_key_for`,
    :meth:`discovery_targets`, :meth:`active_keys`) and may override the
    packet hooks for security processing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        channel: Channel,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.channel = channel
        self.config = config or ProtocolConfig()
        self.metrics = channel.metrics

        self.tables: dict[int, RoutingTable] = {
            n.node_id: RoutingTable(n.node_id) for n in network.nodes
        }
        self._seen_floods: dict[int, set[tuple[int, int]]] = {n.node_id: set() for n in network.nodes}
        self._pending_data: dict[int, list[dict[str, Any]]] = {}
        self._discovery: dict[int, _DiscoveryState] = {}
        self._seq = itertools.count(1)
        self._data_ids = itertools.count(1)
        self._collect_buckets: dict = {}
        #: optional hook invoked as ``(packet, gateway_id)`` when a DATA
        #: frame terminates at a gateway — the three-tier stack chains the
        #: mesh uplink from here.
        self.delivery_callback = None
        # (source, key, path) triples whose source route has been announced:
        # the first DATA on a route carries the path, later ones do not
        # (Step 5.3).  Keyed on the path so a repaired route re-announces.
        self._announced: set[tuple[int, Hashable, tuple[int, ...]]] = set()
        #: node id -> attack behaviour (see repro.security.attacks)
        self.behaviors: dict[int, Any] = {}

        for node in network.nodes:
            node.handler = self._make_handler(node.node_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def routing_table(self, node_id: int) -> RoutingTable:
        """The routing table of ``node_id`` (introspection/testing)."""
        return self.tables[node_id]

    # ------------------------------------------------------------------
    # parked data
    # ------------------------------------------------------------------
    def _queue_pending(self, node_id: int, payload: dict) -> None:
        """Park a datum awaiting a route."""
        self._pending_data.setdefault(node_id, []).append(payload)

    def _take_pending(self, node_id: int) -> list:
        """Drain and return ``node_id``'s parked data (possibly empty)."""
        return self._pending_data.pop(node_id, [])

    # ------------------------------------------------------------------
    # packet dispatch
    # ------------------------------------------------------------------
    def _make_handler(self, node_id: int):
        # functools.partial instead of a closure: the bound call skips a
        # Python frame, and this runs once per reception — the single
        # hottest callback in the simulator.
        return functools.partial(self._on_packet, node_id)

    def _on_packet(self, node_id: int, pkt: Packet) -> None:
        behavior = self.behaviors.get(node_id)
        if behavior is not None and behavior.intercept(node_id, pkt, self):
            return
        if pkt.kind is PacketKind.RREQ:
            self._on_rreq(node_id, pkt)
        elif pkt.kind is PacketKind.RRES:
            self._on_rres(node_id, pkt)
        elif pkt.kind is PacketKind.DATA:
            self._on_data(node_id, pkt)
        elif pkt.kind is PacketKind.RERR:
            self._on_rerr(node_id, pkt)
        elif pkt.kind is PacketKind.NOTIFY:
            self._on_notify(node_id, pkt)
        elif pkt.kind is PacketKind.HELLO:
            self._on_hello(node_id, pkt)
