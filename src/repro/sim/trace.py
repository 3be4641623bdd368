"""Metrics collection.

A single :class:`MetricsCollector` instance is threaded through the channel
and the protocols.  It records the raw material every experiment in
``EXPERIMENTS.md`` is computed from: per-kind packet counters, bytes on the
air, end-to-end delivery records with latency and hop counts, drop reasons,
and the network-lifetime event (first sensor death, the paper's lifetime
definition in Section 5.3).

Packet conservation
-------------------
Under audit mode the collector additionally feeds a
:class:`repro.obs.ledger.PacketLedger` that tracks every application datum
``(origin, data_id)`` to a terminal state, enforcing::

    data_generated == unique_delivered + terminal_drops + pending

Drops come in two flavours.  :meth:`on_drop` counts a *frame-level* event
(a collision that will be retried, an RRES copy suppressed) — it feeds
the per-reason counters only.  :meth:`on_terminal_drop` declares a datum
*dead*: it feeds the same counters **and** closes the ledger entry, so
the datum can never be reported as still pending.  Audit mode is enabled
per collector (``audit=True``), per world (``WorldBuilder().audit()``)
or process-wide (``REPRO_AUDIT=1``).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sim.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> packet only)
    from repro.obs.ledger import PacketLedger

__all__ = ["DeliveryRecord", "MetricsCollector", "audit_default"]


def audit_default() -> bool:
    """Whether new collectors audit by default (``REPRO_AUDIT`` env).

    Read on every call, so the setting reaches every process that
    inherits the environment, however it was started.
    """
    return os.environ.get("REPRO_AUDIT", "") not in ("", "0")


@dataclass(frozen=True)
class DeliveryRecord:
    """One application packet that reached its destination."""

    origin: int
    destination: int
    hops: int
    latency: float
    created_at: float
    delivered_at: float
    uid: int


@dataclass
class MetricsCollector:
    """Accumulates simulation statistics.

    Counters are keyed so experiments can slice by packet kind; the
    security experiments additionally use :attr:`drops` keyed by reason
    (``"bad_mac"``, ``"replay"``, ``"no_route"``, ``"collision"``,
    ``"loss"``, ``"dead_node"``, ``"ttl"``, ``"blackhole"`` ...).
    """

    sent: Counter = field(default_factory=Counter)  # kind -> frames put on air
    received: Counter = field(default_factory=Counter)  # kind -> frames delivered
    drops: Counter = field(default_factory=Counter)  # reason -> count
    bytes_sent: int = 0
    data_generated: int = 0
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    first_death: Optional[tuple[int, float]] = None  # (node_id, time)
    #: Enforce conservation: attach a ledger and make overcounting raise.
    audit: bool = field(default_factory=audit_default)
    ledger: Optional["PacketLedger"] = None

    def __post_init__(self) -> None:
        if self.ledger is None and self.audit:
            from repro.obs.ledger import PacketLedger

            self.ledger = PacketLedger()

    def enable_audit(self) -> None:
        """Turn audit mode on, attaching a ledger if none exists yet."""
        self.audit = True
        if self.ledger is None:
            from repro.obs.ledger import PacketLedger

            self.ledger = PacketLedger()

    @property
    def data_frames(self) -> int:
        """DATA frames put on air."""
        return self.sent[PacketKind.DATA]

    @property
    def control_frames(self) -> int:
        """Frames of every other kind put on air."""
        return sum(self.sent.values()) - self.sent[PacketKind.DATA]

    # ------------------------------------------------------------------
    # channel-side hooks
    # ------------------------------------------------------------------
    def on_send(self, packet: Packet) -> None:
        self.sent[packet.kind] += 1
        self.bytes_sent += packet.size_bytes()
        if self.ledger is not None:
            self.ledger.on_frame_sent(packet)

    def on_receive(self, packet: Packet) -> None:
        self.received[packet.kind] += 1

    def on_drop(self, reason: str) -> None:
        """A frame-level drop that does *not* kill a datum (a retried
        collision, a suppressed flood copy, a lost control frame)."""
        self.drops[reason] += 1

    def on_terminal_drop(
        self,
        reason: str,
        packet: Optional[Packet] = None,
        *,
        key: Optional[tuple[int, int]] = None,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> None:
        """A drop after which the datum can never be delivered.

        Counts into :attr:`drops` exactly like :meth:`on_drop` (so every
        pre-existing drop slice keeps its meaning) and additionally closes
        the ledger entry identified by ``packet`` (via
        :func:`repro.obs.ledger.datum_key`) or an explicit ``key``.
        """
        self.drops[reason] += 1
        if self.ledger is not None:
            self.ledger.on_dropped(reason, packet, key=key, node=node, now=now)

    def on_node_death(self, node_id: int, now: float) -> None:
        if self.first_death is None:
            self.first_death = (node_id, now)

    # ------------------------------------------------------------------
    # application-side hooks
    # ------------------------------------------------------------------
    def on_data_generated(
        self,
        count: int = 1,
        *,
        origin: Optional[int] = None,
        data_id: Optional[int] = None,
        now: float = 0.0,
    ) -> None:
        """Count ``count`` new application datums.

        Callers that know the datum identity pass ``origin``/``data_id``
        (with ``count == 1``) so the ledger can open an entry; counting
        without identity under audit mode is flagged by the auditor.
        """
        self.data_generated += count
        if self.ledger is not None and origin is not None and data_id is not None:
            self.ledger.on_generated(origin, data_id, now=now)

    def on_data_queued(self, origin: int, data_id: int) -> None:
        """The datum entered a protocol queue (e.g. awaiting discovery)."""
        if self.ledger is not None:
            self.ledger.on_queued(origin, data_id)

    def on_data_delivered(self, packet: Packet, destination: int, now: float) -> None:
        self.deliveries.append(
            DeliveryRecord(
                origin=packet.origin,
                destination=destination,
                hops=packet.hop_count,
                latency=now - packet.created_at,
                created_at=packet.created_at,
                delivered_at=now,
                uid=packet.payload.get("data_id", packet.uid),
            )
        )
        if self.ledger is not None:
            self.ledger.on_delivered(packet, now)

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    def unique_deliveries(self) -> list[DeliveryRecord]:
        """First delivery of each unique ``(origin, uid)`` datum, in order.

        Multi-gateway routing (MLR sends toward *m* gateways) can deliver
        the same datum several times; every per-datum statistic —
        delivery ratio, latency, hops — is computed over first deliveries
        so duplicates affect none of them.
        """
        seen: set[tuple[int, int]] = set()
        firsts: list[DeliveryRecord] = []
        for r in self.deliveries:
            key = (r.origin, r.uid)
            if key not in seen:
                seen.add(key)
                firsts.append(r)
        return firsts

    @property
    def delivery_ratio(self) -> float:
        """Unique application packets delivered / generated (0 if none sent).

        A ratio above 1 means deliveries were double-counted or forged
        data was accepted; under audit mode that raises
        :class:`~repro.exceptions.ConservationError` instead of being
        silently clamped.
        """
        if self.data_generated == 0:
            return 0.0
        ratio = len(self.unique_deliveries()) / self.data_generated
        if ratio > 1.0 and self.audit:
            from repro.exceptions import ConservationError

            raise ConservationError(
                f"delivery ratio {ratio:.4f} > 1: "
                f"{len(self.unique_deliveries())} unique deliveries for "
                f"{self.data_generated} generated data packets"
            )
        return ratio

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over unique first deliveries (0 if none)."""
        firsts = self.unique_deliveries()
        if not firsts:
            return 0.0
        return sum(r.latency for r in firsts) / len(firsts)

    @property
    def mean_hops(self) -> float:
        """Mean end-to-end hop count over unique first deliveries (0 if none)."""
        firsts = self.unique_deliveries()
        if not firsts:
            return 0.0
        return sum(r.hops for r in firsts) / len(firsts)

    @property
    def lifetime(self) -> Optional[float]:
        """Time of first sensor death, or None if all survived."""
        return None if self.first_death is None else self.first_death[1]

    # ------------------------------------------------------------------
    # conservation
    # ------------------------------------------------------------------
    def conservation_report(self, strict: bool = False):
        """Audit the ledger (see :func:`repro.obs.audit.audit_collector`)."""
        from repro.obs.audit import audit_collector

        return audit_collector(self, strict=strict)

    def assert_conserved(self, strict: bool = False):
        """Raise :class:`~repro.exceptions.ConservationError` on violation."""
        from repro.obs.audit import assert_conserved

        return assert_conserved(self, strict=strict)

    def _audit_idle_hook(self) -> None:
        """Simulator idle hook: strict conservation at quiescence."""
        self.assert_conserved(strict=True)

    def summary(self) -> dict[str, float]:
        """Flat dict of headline numbers, convenient for table rows."""
        return {
            "data_generated": float(self.data_generated),
            "data_delivered": float(len(self.unique_deliveries())),
            "delivery_ratio": self.delivery_ratio,
            "mean_latency": self.mean_latency,
            "mean_hops": self.mean_hops,
            "bytes_sent": float(self.bytes_sent),
            "control_frames": float(self.control_frames),
            "data_frames": float(self.data_frames),
            "lifetime": float("nan") if self.lifetime is None else self.lifetime,
        }
