"""The packet-lifecycle ledger.

One :class:`LedgerEntry` per application *datum* — the unit the paper's
delivery ratio counts, identified by ``(origin, data_id)`` — advanced
through a small state machine:

.. code-block:: text

    GENERATED ──► QUEUED ──► IN_FLIGHT ──► DELIVERED   (terminal)
        │            │           │
        └────────────┴───────────┴───────► DROPPED(reason)  (terminal)

``GENERATED``
    :meth:`~repro.sim.trace.MetricsCollector.on_data_generated` ran but
    no frame carrying the datum has been sent yet (e.g. LEACH data
    buffered at a cluster head between uplinks).
``QUEUED``
    The datum sits in a protocol queue awaiting a route (``_pending_data``
    during discovery).
``IN_FLIGHT``
    At least one frame carrying the datum is on the air or queued at a
    forwarder.  Broadcast-routed data (flooding, MCFA) is flagged
    ``broadcast=True``: surplus copies die by duplicate suppression with
    no terminal event, so a strict audit exempts them from the
    no-in-flight-at-quiescence check.
``DELIVERED`` / ``DROPPED``
    Terminal.  ``DELIVERED`` wins conflicts: protocols under attack
    (wormhole tunnels, replay) can fork a datum into several copies, one
    of which terminally drops while another delivers — the entry is
    upgraded and the earlier drop is remembered in :attr:`late_drops`
    rather than double-counted.

The ledger never *invents* entries: frames whose datum key was never
generated (forged injections) are tallied in :attr:`unknown_delivered`
instead of polluting conservation.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.sim.packet import Packet, PacketKind

__all__ = ["DatumState", "LedgerEntry", "PacketLedger", "datum_key"]

DatumKey = tuple[int, int]


class DatumState(enum.Enum):
    """Lifecycle states of one application datum."""

    GENERATED = "generated"
    QUEUED = "queued"
    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    DROPPED = "dropped"


#: States from which a datum can still make progress.
_OPEN_STATES = (DatumState.GENERATED, DatumState.QUEUED, DatumState.IN_FLIGHT)


def datum_key(packet: Packet) -> Optional[DatumKey]:
    """The ``(origin, data_id)`` identity of the datum a frame carries.

    DATA frames carry ``payload["data_id"]`` with ``packet.origin`` as the
    datum source.  RERR frames carry the *stranded* datum back toward its
    source in ``payload["data"]`` — there the datum's origin is the RERR's
    ``target`` (the RERR originates at the detector, not the source).
    Control frames carry no datum and key to ``None``.
    """
    if packet.kind is PacketKind.DATA:
        did = packet.payload.get("data_id")
        if did is None:
            return None
        return (packet.origin, did)
    if packet.kind is PacketKind.RERR:
        data = packet.payload.get("data")
        if isinstance(data, dict) and packet.target is not None:
            did = data.get("data_id")
            if did is not None:
                return (packet.target, did)
    return None


@dataclass
class LedgerEntry:
    """Lifecycle record of one application datum."""

    origin: int
    data_id: int
    state: DatumState = DatumState.GENERATED
    generated_at: float = 0.0
    terminal_at: Optional[float] = None
    #: Terminal drop reason (``None`` unless state is DROPPED).
    reason: Optional[str] = None
    #: Node where the terminal drop happened, when the caller knows it.
    node: Optional[int] = None
    #: The datum travelled (also) as a local broadcast; surplus copies
    #: die silently by duplicate suppression, so strict audits exempt
    #: broadcast entries from the in-flight-at-quiescence check.
    broadcast: bool = False
    #: Deliveries after the first (multi-gateway duplicates).
    duplicates: int = 0
    #: A copy terminally dropped for this reason before another delivered.
    superseded_drop: Optional[str] = None

    @property
    def key(self) -> DatumKey:
        return (self.origin, self.data_id)

    @property
    def open(self) -> bool:
        """Whether the datum has not yet reached a terminal state."""
        return self.state in _OPEN_STATES


class PacketLedger:
    """Tracks every generated application datum to a terminal state.

    Fed exclusively by :class:`~repro.sim.trace.MetricsCollector` hooks;
    protocol code never touches the ledger directly.
    """

    def __init__(self) -> None:
        self.entries: dict[DatumKey, LedgerEntry] = {}
        #: Deliveries of datum keys never generated (forged/injected).
        self.unknown_delivered: Counter = Counter()
        #: Terminal drops reported after the datum already delivered
        #: (a surplus forked copy dying late) — informational only.
        self.late_drops: Counter = Counter()
        #: Terminal drops reported after the datum already terminally
        #: dropped (two copies both hitting dead ends).
        self.extra_drops: Counter = Counter()
        #: Terminal events on datum keys this ledger never generated —
        #: in a sharded run a datum generated in shard A can deliver or
        #: drop in shard B, whose ledger has no entry for it.  Each item
        #: is ``(key, kind, time, reason, node)`` with ``kind`` one of
        #: ``"delivered"``/``"dropped"``; :func:`repro.obs.merge.merge_ledgers`
        #: reunites them with their generating shard's entries.
        self.foreign: list[tuple[DatumKey, str, Optional[float], Optional[str], Optional[int]]] = []

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_generated(self, origin: int, data_id: int, now: float = 0.0) -> None:
        key = (origin, data_id)
        if key not in self.entries:
            self.entries[key] = LedgerEntry(origin=origin, data_id=data_id, generated_at=now)

    def on_queued(self, origin: int, data_id: int) -> None:
        """The datum entered a protocol queue (e.g. awaiting discovery)."""
        entry = self.entries.get((origin, data_id))
        if entry is not None and entry.open:
            entry.state = DatumState.QUEUED

    def on_frame_sent(self, packet: Packet) -> None:
        key = datum_key(packet)
        if key is None:
            return
        entry = self.entries.get(key)
        if entry is None:
            return
        if packet.kind is PacketKind.DATA and packet.dst is None:
            entry.broadcast = True
        if entry.open:
            entry.state = DatumState.IN_FLIGHT

    def on_delivered(self, packet: Packet, now: float) -> None:
        key = datum_key(packet)
        if key is None:
            # Deliveries constructed without a data_id (mesh-tier probe
            # frames) identify by uid; treat as unknown rather than lose.
            self.unknown_delivered[(packet.origin, packet.uid)] += 1
            return
        entry = self.entries.get(key)
        if entry is None:
            self.unknown_delivered[key] += 1
            self.foreign.append((key, "delivered", now, None, None))
            return
        if entry.state is DatumState.DELIVERED:
            entry.duplicates += 1
            return
        if entry.state is DatumState.DROPPED:
            # A forked copy delivered after another copy terminally
            # dropped: delivery wins, the drop is remembered aside.
            self.late_drops[entry.reason or "unknown"] += 1
            entry.superseded_drop = entry.reason
            entry.reason = None
            entry.node = None
        entry.state = DatumState.DELIVERED
        entry.terminal_at = now

    def on_dropped(
        self,
        reason: str,
        packet: Optional[Packet] = None,
        *,
        key: Optional[DatumKey] = None,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Record a *terminal* drop of a datum.

        Returns ``True`` when the drop closed an open entry; ``False``
        when it applied to an unknown, already-delivered or
        already-dropped datum (still tallied, never double-counted).
        """
        if key is None and packet is not None:
            key = datum_key(packet)
        if key is None:
            return False
        entry = self.entries.get(key)
        if entry is None:
            self.foreign.append((key, "dropped", now, reason, node))
            return False
        if entry.state is DatumState.DELIVERED:
            self.late_drops[reason] += 1
            return False
        if entry.state is DatumState.DROPPED:
            self.extra_drops[reason] += 1
            return False
        entry.state = DatumState.DROPPED
        entry.reason = reason
        entry.node = node
        entry.terminal_at = now
        return True

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _count(self, state: DatumState) -> int:
        return sum(1 for e in self.entries.values() if e.state is state)

    @property
    def generated(self) -> int:
        return len(self.entries)

    @property
    def delivered(self) -> int:
        return self._count(DatumState.DELIVERED)

    @property
    def dropped(self) -> int:
        return self._count(DatumState.DROPPED)

    @property
    def pending(self) -> int:
        """Open entries: generated-only, queued or in flight."""
        return sum(1 for e in self.entries.values() if e.open)

    def pending_entries(self) -> list[LedgerEntry]:
        return [e for e in self.entries.values() if e.open]

    def stuck_entries(self) -> list[LedgerEntry]:
        """Open entries that can no longer make progress at quiescence:
        queued, or in flight without the broadcast exemption."""
        return [
            e
            for e in self.entries.values()
            if e.state is DatumState.QUEUED
            or (e.state is DatumState.IN_FLIGHT and not e.broadcast)
        ]

    def drops_by_reason(self) -> Counter:
        """Terminal drops, keyed by reason."""
        out: Counter = Counter()
        for e in self.entries.values():
            if e.state is DatumState.DROPPED:
                out[e.reason or "unknown"] += 1
        return out

    @property
    def duplicate_deliveries(self) -> int:
        return sum(e.duplicates for e in self.entries.values())
