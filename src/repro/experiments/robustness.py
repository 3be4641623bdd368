"""E9 — robustness: node/gateway failure, churn, and self-healing.

Quantifies three architecture claims:

* *no single point of failure* (Section 1/3): kill one sink under the
  flat architecture and the network is dead; kill one WMG under the
  multi-gateway architecture and traffic re-routes to the survivors;
* *self-healing* (Section 7.1): "as a node leaves the network, the
  remaining nodes automatically re-route their data around the
  out-of-network node" — measured by delivery ratio before and after a
  progressive random sensor die-off, with the RERR-based repair of
  :mod:`repro.core.base` doing the re-routing;
* *recovery* (Section 8): gateways that crash *and return* — a
  round-robin :class:`~repro.faults.plan.GatewayChurn` storm where every
  gateway takes a turn being down while traffic keeps flowing, reported
  with MTTR and availability from the fault injector's timeline.

All failures are expressed as declarative
:class:`~repro.faults.plan.FaultPlan` events armed at world-build time,
so every case replays bit-identically and carries the realized outage
timeline (:mod:`repro.obs.recovery`) alongside the delivery numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines.flat import FlatSinkRouting
from repro.core.spr import SPR
from repro.experiments.common import corner_places, make_uniform_scenario
from repro.faults.plan import Crash, FaultPlan, GatewayChurn
from repro.obs.ledger import DatumState
from repro.sim.trace import MetricsCollector
from repro.sim.serialize import serializable
from repro.world import WorldConfig

__all__ = ["RobustnessResult", "run_robustness"]

#: when the failure plans strike (phase 1 of every case ends here)
FAIL_AT = 5.0


@serializable
@dataclass(frozen=True)
class RobustnessRow:
    scenario: str
    protocol: str
    delivery_before: float
    delivery_after: float
    #: Terminal drop reasons of the after-failure phase (from the ledger):
    #: what actually happened to the datums that did not make it.
    drop_reasons: dict = field(default_factory=dict)
    #: Mean time-to-restore over the case's fault windows (seconds from
    #: outage onset to the next delivered datum); ``None`` when service
    #: never resumed after some fault.
    mttr: Optional[float] = None
    #: ``1 - node_downtime / (n_nodes * horizon)`` over the run.
    availability: Optional[float] = None

    @property
    def retained(self) -> float:
        if self.delivery_before == 0:
            return 0.0
        return self.delivery_after / self.delivery_before


@serializable
@dataclass(frozen=True)
class RobustnessResult:
    rows: list

    def row_for(self, scenario: str, protocol: str) -> RobustnessRow:
        for r in self.rows:
            if r.scenario == scenario and r.protocol == protocol:
                return r
        raise KeyError((scenario, protocol))

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        flat_gw = self.row_for("gateway", "flat-1-sink")
        multi_gw = self.row_for("gateway", "SPR-3-gw")
        flat_s = self.row_for("sensors", "flat-1-sink")
        multi_s = self.row_for("sensors", "SPR-3-gw")
        return {
            "the flat architecture dies with its sink: 0.9+ before, < 0.05 after": (
                flat_gw.delivery_before > 0.9 and flat_gw.delivery_after < 0.05
            ),
            "three gateways survive losing one: 0.9+ before, > 0.7 after": (
                multi_gw.delivery_before > 0.9 and multi_gw.delivery_after > 0.7
            ),
            # Self-healing via re-routing.
            "under sensor die-off three gateways keep > 0.6 and retain no less "
            "than the single sink - 0.1": (
                multi_s.delivery_after > 0.6
                and multi_s.retained >= flat_s.retained - 0.1
            ),
        }

    def format_table(self) -> str:
        return format_table(
            ["failure scenario", "protocol", "delivery before", "after",
             "retained", "MTTR_s", "avail"],
            [
                [r.scenario, r.protocol, round(r.delivery_before, 3),
                 round(r.delivery_after, 3), round(r.retained, 3),
                 "-" if r.mttr is None else round(r.mttr, 2),
                 "-" if r.availability is None else round(r.availability, 4)]
                for r in self.rows
            ],
            title="E9 — delivery under failures (single sink vs multi-gateway)",
        )


def _phase_delivery(
    metrics: MetricsCollector,
    generated_before: int,
    sent_before: int,
    sent_after: int,
) -> tuple[float, float, dict]:
    """Split delivery into before/after-failure phases via the ledger.

    Every datum has exactly one terminal state in the ledger, so the
    phase slices are exact — no duplicate deliveries to dedup, no clamp
    to hide overcounting.  Also returns the after-phase terminal drop
    reasons (what the failure actually did to the traffic).
    """
    entries = metrics.ledger.entries.values()
    before = sum(
        1 for e in entries
        if e.state is DatumState.DELIVERED and e.data_id <= generated_before
    )
    after = sum(
        1 for e in entries
        if e.state is DatumState.DELIVERED and e.data_id > generated_before
    )
    drop_reasons: dict[str, int] = {}
    for e in entries:
        if e.state is DatumState.DROPPED and e.data_id > generated_before:
            reason = e.reason or "unknown"
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
    db = before / sent_before if sent_before else 0.0
    da = after / sent_after if sent_after else 0.0
    return db, da, dict(sorted(drop_reasons.items()))


def _failure_plan(
    failure: str, n_sensors: int, sensor_kill_fraction: float, seed: int
) -> tuple[FaultPlan, list[int]]:
    """The declarative failure for one case plus the victim list.

    Node ids are knowable before the world exists: sensors occupy
    ``0..n_sensors-1`` and gateways follow, so the first gateway is
    ``n_sensors`` regardless of how many there are.
    """
    if failure == "gateway":
        return FaultPlan((Crash(node=n_sensors, t=FAIL_AT),)), [n_sensors]
    if failure == "sensors":
        rng = np.random.default_rng(seed + 23)
        sensors = list(range(n_sensors))
        k = max(1, int(sensor_kill_fraction * len(sensors)))
        killed = [int(v) for v in rng.choice(sensors, size=k, replace=False)]
        return FaultPlan(tuple(Crash(node=v, t=FAIL_AT) for v in killed)), killed
    raise ValueError(failure)


def _run_case(
    protocol_name: str,
    failure: str,
    n_sensors: int,
    field_size: float,
    comm_range: float,
    sensor_kill_fraction: float,
    seed: int,
) -> RobustnessRow:
    places = corner_places(field_size)
    if protocol_name == "flat-1-sink":
        gw_positions = [[field_size / 2, field_size / 2]]
    else:
        gw_positions = [list(places.position(p)) for p in ("A", "B", "C")]
    plan, killed = _failure_plan(failure, n_sensors, sensor_kill_fraction, seed)
    scenario = make_uniform_scenario(
        n_sensors, field_size, gw_positions,
        comm_range=comm_range, topology_seed=seed, protocol_seed=seed + 17,
        world=WorldConfig(audit=True, faults=plan),
    )
    sim, net, ch = scenario.sim, scenario.network, scenario.channel
    protocol = (FlatSinkRouting if protocol_name == "flat-1-sink" else SPR)(sim, net, ch)

    sensors = net.sensor_ids
    # phase 1: healthy network
    for i, s in enumerate(sensors):
        sim.schedule(0.5 + (i % 53) * 1e-3, protocol.send_data, s)
    sim.run(until=FAIL_AT)
    generated_before = ch.metrics.data_generated

    # phase 2: degraded network (survivors keep reporting).  The crash
    # events sit on the queue at FAIL_AT, strictly before this traffic.
    dead = set(killed)
    survivors = [s for s in sensors if s not in dead]
    for i, s in enumerate(survivors):
        sim.schedule(0.5 + (i % 53) * 1e-3, protocol.send_data, s)
    sim.run()

    scenario.assert_conserved()
    before, after, drop_reasons = _phase_delivery(
        ch.metrics, generated_before, len(sensors), len(sensors)
    )
    # Normalise the after-phase to the survivors that actually sent.
    after = after * len(sensors) / max(1, len(survivors))
    report = scenario.faults.recovery_report()
    return RobustnessRow(
        scenario=failure,
        protocol=protocol_name,
        delivery_before=before,
        delivery_after=after,
        drop_reasons=drop_reasons,
        mttr=report.mttr,
        availability=report.availability,
    )


def _run_churn_case(
    n_sensors: float,
    field_size: float,
    comm_range: float,
    seed: int,
) -> RobustnessRow:
    """Round-robin gateway churn under SPR: every gateway takes a turn down.

    Gateways go down one at a time on ``[5, 8)``, ``[11, 14)`` and
    ``[17, 20)``; a traffic round launches into each outage window, so
    the after-phase delivery measures re-routing *and* rejoin (recovered
    gateways serve again, with their stale routes purged).
    """
    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in ("A", "B", "C")]
    plan = FaultPlan((GatewayChurn(period=6.0, downtime=3.0, start=FAIL_AT, cycles=1),))
    scenario = make_uniform_scenario(
        n_sensors, field_size, gw_positions,
        comm_range=comm_range, topology_seed=seed, protocol_seed=seed + 17,
        world=WorldConfig(audit=True, faults=plan),
    )
    sim, net, ch = scenario.sim, scenario.network, scenario.channel
    protocol = SPR(sim, net, ch)

    sensors = net.sensor_ids
    for i, s in enumerate(sensors):
        sim.schedule(0.5 + (i % 53) * 1e-3, protocol.send_data, s)
    sim.run(until=FAIL_AT)
    generated_before = ch.metrics.data_generated

    churn_rounds = 3
    for r in range(churn_rounds):
        for i, s in enumerate(sensors):
            sim.schedule_at(
                FAIL_AT + 0.5 + r * 6.0 + (i % 53) * 1e-3, protocol.send_data, s
            )
    sim.run()

    scenario.assert_conserved()
    before, after, drop_reasons = _phase_delivery(
        ch.metrics, generated_before, len(sensors), churn_rounds * len(sensors)
    )
    report = scenario.faults.recovery_report()
    return RobustnessRow(
        scenario="gateway_churn",
        protocol="SPR-3-gw",
        delivery_before=before,
        delivery_after=after,
        drop_reasons=drop_reasons,
        mttr=report.mttr,
        availability=report.availability,
    )


def run_robustness(
    n_sensors: int = 50,
    field_size: float = 200.0,
    comm_range: float = 55.0,
    sensor_kill_fraction: float = 0.15,
    seed: int = 5,
) -> RobustnessResult:
    """Gateway-loss, sensor-die-off and gateway-churn cases."""
    rows = []
    for failure in ("gateway", "sensors"):
        for protocol_name in ("flat-1-sink", "SPR-3-gw"):
            rows.append(
                _run_case(
                    protocol_name, failure, n_sensors, field_size,
                    comm_range, sensor_kill_fraction, seed,
                )
            )
    rows.append(_run_churn_case(n_sensors, field_size, comm_range, seed))
    return RobustnessResult(rows=rows)
