"""Conservation auditor.

Evaluates the conservation law over a :class:`~repro.sim.trace.
MetricsCollector` with an attached :class:`~repro.obs.ledger.PacketLedger`::

    data_generated == unique_delivered + terminal_drops + pending

``pending`` covers data legitimately still moving (generated-only, queued
awaiting a route, or in flight).  A *strict* audit — run automatically at
simulator quiescence when audit mode is on — additionally requires that
nothing is stuck: no datum may still be QUEUED, and no unicast-routed
datum may still be IN_FLIGHT, because with an empty event heap neither
can ever make progress.  (Broadcast-routed data is exempt: surplus flood
copies die by duplicate suppression with no terminal event.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConservationError

__all__ = ["ConservationReport", "audit_collector", "assert_conserved"]


@dataclass
class ConservationReport:
    """Result of one conservation audit (see :func:`audit_collector`)."""

    generated: int
    delivered: int
    dropped: int
    pending: int
    queued: int
    in_flight: int
    duplicates: int
    unknown_delivered: int
    late_drops: int
    drops_by_reason: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    strict: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> dict:
        """Flat JSON-able form (runner traces; node keys stringified)."""
        return {
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "pending": self.pending,
            "duplicates": self.duplicates,
            "unknown_delivered": self.unknown_delivered,
            "late_drops": self.late_drops,
            "drops_by_reason": dict(sorted(self.drops_by_reason.items())),
            "violations": list(self.violations),
        }

    def format_table(self) -> str:
        """Human-readable audit summary with the per-reason breakdown."""
        lines = [
            f"{'generated':>18} {self.generated}",
            f"{'delivered':>18} {self.delivered}"
            + (f" (+{self.duplicates} duplicate)" if self.duplicates else ""),
            f"{'dropped':>18} {self.dropped}",
            f"{'pending':>18} {self.pending}"
            + (f" ({self.queued} queued, {self.in_flight} in flight)" if self.pending else ""),
        ]
        if self.unknown_delivered:
            lines.append(f"{'forged/unknown':>18} {self.unknown_delivered}")
        if self.drops_by_reason:
            lines.append("  drop reasons:")
            for reason, count in sorted(self.drops_by_reason.items(), key=lambda kv: -kv[1]):
                lines.append(f"{reason:>18} {count}")
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            label = "strict" if self.strict else "lenient"
            lines.append(f"  conservation holds ({label}): "
                         f"{self.generated} == {self.delivered} + {self.dropped} + {self.pending}")
        return "\n".join(lines)


def audit_collector(metrics, strict: bool = False) -> ConservationReport:
    """Audit a collector's ledger against the conservation law.

    ``metrics`` is duck-typed (a :class:`~repro.sim.trace.MetricsCollector`)
    to keep this module import-light; it must carry a non-``None``
    ``ledger``.  ``strict`` additionally flags stuck data — use it only at
    simulator quiescence, when stuck means *permanently* stuck.
    """
    ledger = getattr(metrics, "ledger", None)
    if ledger is None:
        raise ConservationError(
            "collector has no ledger attached — enable audit mode "
            "(MetricsCollector(audit=True), WorldBuilder().audit() or REPRO_AUDIT=1)"
        )
    from repro.obs.ledger import DatumState

    queued = sum(1 for e in ledger.entries.values() if e.state is DatumState.QUEUED)
    in_flight = sum(1 for e in ledger.entries.values() if e.state is DatumState.IN_FLIGHT)
    report = ConservationReport(
        generated=ledger.generated,
        delivered=ledger.delivered,
        dropped=ledger.dropped,
        pending=ledger.pending,
        queued=queued,
        in_flight=in_flight,
        duplicates=ledger.duplicate_deliveries,
        unknown_delivered=sum(ledger.unknown_delivered.values()),
        late_drops=sum(ledger.late_drops.values()),
        drops_by_reason=dict(ledger.drops_by_reason()),
        strict=strict,
    )

    # 1. Every counted generation must be in the ledger: a protocol that
    #    calls on_data_generated without datum identity leaks accounting.
    counted = getattr(metrics, "data_generated", report.generated)
    if counted != report.generated:
        report.violations.append(
            f"data_generated counter ({counted}) != ledger entries "
            f"({report.generated}) — generation without datum identity"
        )

    # 2. The conservation law itself.  By construction of the state
    #    machine this cannot fail, so a failure means the ledger was
    #    mutated outside its hooks.
    if report.generated != report.delivered + report.dropped + report.pending:
        report.violations.append(
            f"conservation broken: {report.generated} generated != "
            f"{report.delivered} delivered + {report.dropped} dropped + "
            f"{report.pending} pending"
        )

    # 3. Unique known deliveries can never exceed generation.
    if report.delivered > report.generated:
        report.violations.append(
            f"delivered ({report.delivered}) > generated ({report.generated})"
        )

    # 4. Strict (quiescence) checks: nothing may be stuck.
    if strict:
        stuck = ledger.stuck_entries()
        if stuck:
            sample = ", ".join(
                f"{e.key} {e.state.value}" for e in stuck[:5]
            )
            more = f" (+{len(stuck) - 5} more)" if len(stuck) > 5 else ""
            report.violations.append(
                f"{len(stuck)} datum(s) stuck at quiescence with no terminal "
                f"state: {sample}{more}"
            )
    return report


def assert_conserved(metrics, strict: bool = False) -> ConservationReport:
    """Audit and raise :class:`ConservationError` on any violation."""
    report = audit_collector(metrics, strict=strict)
    if not report.ok:
        raise ConservationError(
            "packet conservation violated:\n" + report.format_table()
        )
    return report
