"""Merging per-shard observability into one whole-run view.

A sharded run (:mod:`repro.shard`) gives every worker its own
:class:`~repro.sim.trace.MetricsCollector` and, under audit mode, its own
:class:`~repro.obs.ledger.PacketLedger`.  Each ledger alone is *not*
conserving: a datum generated in shard A routinely reaches its terminal
state in shard B, where the ledger has no entry for it and records the
event on its :attr:`~repro.obs.ledger.PacketLedger.foreign` list instead.
:func:`merge_ledgers` reunites those foreign terminals with the entries
of the shard that generated them, producing a single ledger that obeys
the conservation law exactly as the single-process run's does — the
cross-shard oracle the digest-equality tests lean on.

Merging is order-independent: the merged terminal state of a datum is
decided by the *earliest* event of the winning kind (delivery beats
drop, matching the single-process ledger's conflict rule), never by the
order shards happened to report in.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.obs.ledger import DatumState, LedgerEntry, PacketLedger
from repro.sim.trace import MetricsCollector

__all__ = ["merge_collectors", "merge_ledgers"]

#: Priority of non-terminal states when no shard saw a terminal event —
#: the furthest-progressed view wins (only the generating shard holds
#: the entry, but keep the merge total even if that ever changes).
_OPEN_RANK = {
    DatumState.GENERATED: 0,
    DatumState.QUEUED: 1,
    DatumState.IN_FLIGHT: 2,
}


def merge_ledgers(parts: Sequence[PacketLedger]) -> PacketLedger:
    """Combine per-shard ledgers into one conserving whole-run ledger.

    Generation happens only in the shard that owns the datum's origin,
    so entry keys are disjoint across ``parts``; foreign terminal events
    recorded by the other shards are folded back onto those entries:

    * any delivery anywhere → ``DELIVERED`` at the earliest delivery
      time; surplus deliveries count as :attr:`duplicates`, and drops on
      the key (wherever they happened) land in :attr:`late_drops` — the
      same "delivery wins" rule the single ledger applies in-order;
    * otherwise any drop anywhere → ``DROPPED`` with the earliest drop's
      reason/node/time; further drops land in :attr:`extra_drops`;
    * otherwise the entry stays open in its furthest-progressed state.

    Foreign deliveries whose key no shard ever generated remain
    :attr:`unknown_delivered` (forged data stays forged after merging).
    """
    merged = PacketLedger()
    deliveries: dict[tuple, list] = {}  # key -> [time, ...]
    drops: dict[tuple, list] = {}  # key -> [(time, reason, node), ...]

    for part in parts:
        for key, entry in part.entries.items():
            if key in merged.entries:
                raise ConfigurationError(
                    f"datum {key} generated in more than one shard — "
                    "ownership partition is broken"
                )
            clone = LedgerEntry(
                origin=entry.origin,
                data_id=entry.data_id,
                state=entry.state,
                generated_at=entry.generated_at,
                terminal_at=entry.terminal_at,
                reason=entry.reason,
                node=entry.node,
                broadcast=entry.broadcast,
                duplicates=entry.duplicates,
                superseded_drop=entry.superseded_drop,
            )
            merged.entries[key] = clone
            if entry.state is DatumState.DELIVERED:
                deliveries.setdefault(key, []).append(entry.terminal_at)
            elif entry.state is DatumState.DROPPED:
                drops.setdefault(key, []).append(
                    (entry.terminal_at, entry.reason, entry.node)
                )
        merged.late_drops.update(part.late_drops)
        merged.extra_drops.update(part.extra_drops)

    # Foreign terminal events, plus the uid-keyed unknowns each part
    # tallied (part.unknown_delivered counts the datum-keyed foreign
    # deliveries too — subtract them so nothing is double-booked).
    for part in parts:
        foreign_delivered: Counter = Counter()
        for key, kind, when, reason, node in part.foreign:
            if kind == "delivered":
                foreign_delivered[key] += 1
                if key in merged.entries:
                    deliveries.setdefault(key, []).append(when)
                else:
                    merged.unknown_delivered[key] += 1
            else:
                if key in merged.entries:
                    drops.setdefault(key, []).append((when, reason, node))
                # A drop on a never-generated key was silent in the part
                # (on_dropped returned False) and stays silent merged.
        leftover = part.unknown_delivered - foreign_delivered
        merged.unknown_delivered.update(leftover)

    def _time(value: Optional[float]) -> float:
        return float("inf") if value is None else value

    for key, times in deliveries.items():
        entry = merged.entries[key]
        entry.state = DatumState.DELIVERED
        entry.terminal_at = min(times, key=_time)
        entry.duplicates += len(times) - 1
        key_drops = drops.pop(key, [])
        if key_drops:
            # Full (time, reason, node) key: a terminal drop that ties a
            # cross-shard delivery to the exact same timestamp must pick
            # the same superseded reason however many shards reported,
            # and in whatever order — time alone leaves the tie to
            # report order.
            first = min(
                key_drops,
                key=lambda d: (_time(d[0]), str(d[1]), -1 if d[2] is None else d[2]),
            )
            entry.superseded_drop = entry.superseded_drop or first[1] or "unknown"
            for _, reason, _node in key_drops:
                merged.late_drops[reason or "unknown"] += 1
        entry.reason = None
        entry.node = None

    for key, key_drops in drops.items():
        entry = merged.entries[key]
        key_drops.sort(key=lambda d: (_time(d[0]), str(d[1]), -1 if d[2] is None else d[2]))
        when, reason, node = key_drops[0]
        entry.state = DatumState.DROPPED
        entry.terminal_at = when
        entry.reason = reason
        entry.node = node
        for _, extra_reason, _node in key_drops[1:]:
            merged.extra_drops[extra_reason or "unknown"] += 1

    return merged


def merge_collectors(parts: Iterable[MetricsCollector]) -> MetricsCollector:
    """Combine per-shard collectors into one whole-run collector.

    Counters and totals sum; deliveries concatenate in the canonical
    ``(delivered_at, origin, uid, destination)`` order (so first-per-key
    statistics match the single-process run, whose simultaneous
    multi-gateway deliveries also resolve by ascending destination);
    ``first_death`` takes the earliest death across shards.  Ledgers, if
    every part carries one, merge via :func:`merge_ledgers`.
    """
    parts = list(parts)
    if not parts:
        raise ConfigurationError("merge_collectors needs at least one collector")
    merged = MetricsCollector(audit=False)
    for part in parts:
        merged.sent.update(part.sent)
        merged.received.update(part.received)
        merged.drops.update(part.drops)
        merged.bytes_sent += part.bytes_sent
        merged.data_generated += part.data_generated
        merged.deliveries.extend(part.deliveries)
        if part.first_death is not None and (
            merged.first_death is None or part.first_death[1] < merged.first_death[1]
        ):
            merged.first_death = part.first_death
    merged.deliveries.sort(
        key=lambda r: (r.delivered_at, r.origin, r.uid, r.destination)
    )
    if all(p.ledger is not None for p in parts):
        merged.ledger = merge_ledgers([p.ledger for p in parts])
        merged.audit = any(p.audit for p in parts)
    return merged
