"""Chaos campaigns: randomized, seeded fault storms under full audit.

``run_chaos`` is the registry's ``"chaos"`` experiment (E14): build a
uniform SPR deployment, arm a :class:`~repro.faults.plan.FaultPlan` (an
explicit one from params, or a randomized plan derived deterministically
from the seed), drive periodic collection traffic through the storm, and
report three things side by side:

* **conservation** — the run always executes with the packet ledger
  attached and strict auditing at quiescence, so every generated datum
  is provably delivered, dropped-with-reason, or the run raises;
* **recovery** — MTTR / availability / downtime from the injector's
  realized fault timeline (:mod:`repro.obs.recovery`);
* **delivery** — the headline ratio plus the terminal drop breakdown.

The randomized plan is a pure function of the campaign parameters and
the seed, so chaos cells cache and replay bit-identically like every
other experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import format_table
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.experiments.common import corner_places, make_uniform_scenario
from repro.faults.plan import (
    BatteryDrain,
    Crash,
    FaultPlan,
    LinkDegrade,
    Recover,
    RegionOutage,
)
from repro.obs.recovery import RecoveryReport
from repro.sim.radio import GilbertElliott
from repro.sim.serialize import serializable

__all__ = ["ChaosResult", "random_plan", "run_chaos"]

#: gateway labels available from :func:`corner_places`
_PLACE_LABELS = ("A", "B", "C", "D", "E")


def random_plan(
    n_sensors: int,
    n_gateways: int,
    horizon: float,
    field_size: float,
    intensity: float = 0.3,
    burst: bool = True,
    seed: int = 0,
) -> FaultPlan:
    """A randomized but fully seed-determined fault storm.

    All faults land in ``[0.15, 0.6] * horizon`` and every crash
    recovers by ``0.8 * horizon``, so traffic scheduled in the final
    fifth of the run exercises the recovered network — keeping restore
    latencies finite when the topology permits delivery at all.
    ``intensity`` scales how many sensors are hit; past ``0.5`` the
    storm adds a region outage.  The plan is a pure function of the
    arguments: same seed, same storm.
    """
    import numpy as np

    if not 0.0 <= intensity <= 1.0:
        raise ConfigurationError(f"intensity must be in [0, 1], got {intensity}")
    rng = np.random.default_rng(seed)
    events: list = []

    # sensor crashes + recoveries
    n_crash = max(1, int(round(intensity * n_sensors * 0.2)))
    victims = rng.choice(n_sensors, size=min(n_crash, n_sensors), replace=False)
    for v in victims:
        down = float(rng.uniform(0.15, 0.55)) * horizon
        up = down + float(rng.uniform(0.08, 0.2)) * horizon
        events.append(Crash(node=int(v), t=round(down, 6)))
        events.append(Recover(node=int(v), t=round(min(up, 0.8 * horizon), 6)))

    # one gateway outage (only when survivors remain to reroute to)
    if n_gateways >= 2:
        gw = n_sensors + int(rng.integers(n_gateways))
        down = float(rng.uniform(0.2, 0.4)) * horizon
        events.append(Crash(node=gw, t=round(down, 6)))
        events.append(Recover(node=gw, t=round(down + 0.15 * horizon, 6)))

    # battery drains: harassment, never instant death (fraction < 1)
    n_drain = max(1, int(round(intensity * n_sensors * 0.1)))
    drained = rng.choice(n_sensors, size=min(n_drain, n_sensors), replace=False)
    for v in drained:
        events.append(
            BatteryDrain(
                node=int(v),
                t=round(float(rng.uniform(0.15, 0.6)) * horizon, 6),
                fraction=round(float(rng.uniform(0.1, 0.4)), 6),
            )
        )

    # a bursty-loss window over the middle of the run
    if burst:
        t0 = float(rng.uniform(0.3, 0.4)) * horizon
        events.append(
            LinkDegrade(
                t0=round(t0, 6),
                t1=round(t0 + 0.15 * horizon, 6),
                burst=GilbertElliott(p_gb=0.12, p_bg=0.45, loss_good=0.02, loss_bad=0.7),
            )
        )

    # a localized environmental outage for intense storms
    if intensity > 0.5:
        center = (
            round(float(rng.uniform(0.25, 0.75)) * field_size, 6),
            round(float(rng.uniform(0.25, 0.75)) * field_size, 6),
        )
        t0 = float(rng.uniform(0.3, 0.45)) * horizon
        events.append(
            RegionOutage(
                center=center,
                radius=round(0.2 * field_size, 6),
                t0=round(t0, 6),
                t1=round(t0 + 0.15 * horizon, 6),
            )
        )

    return FaultPlan(tuple(events))


@serializable
@dataclass
class ChaosResult:
    """One chaos cell: conservation + recovery + delivery, side by side."""

    n_sensors: int
    n_gateways: int
    rounds: int
    seed: int
    n_fault_events: int
    generated: int
    delivered: int
    dropped: int
    pending: int
    delivery_ratio: float
    drop_reasons: dict = field(default_factory=dict)
    recovery: Optional[RecoveryReport] = None
    # flat copies of the headline recovery numbers so sweep aggregation
    # (which summarizes numeric top-level fields) picks them up
    mttr: Optional[float] = None
    availability: float = 1.0
    n_windows: int = 0

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        return {
            # §8: a reliable architecture loses no datum unaccounted for.
            "every datum ends: none pending, generated == delivered + dropped": (
                self.pending == 0
                and self.generated == self.delivered + self.dropped
            ),
            # §7.1 self-healing: service resumes after every fault window.
            "a datum is delivered after every fault window": (
                self.recovery is not None and self.recovery.unrestored == 0
            ),
        }

    def format_table(self) -> str:
        rows = [
            ["generated", self.generated],
            ["delivered", self.delivered],
            ["dropped", self.dropped],
            ["pending", self.pending],
            ["delivery ratio", round(self.delivery_ratio, 3)],
        ]
        for reason, count in sorted(self.drop_reasons.items()):
            rows.append([f"  drop: {reason}", count])
        table = format_table(
            ["conservation", "count"],
            rows,
            title=(
                f"E14 — chaos campaign (seed {self.seed}, "
                f"{self.n_fault_events} fault events)"
            ),
        )
        if self.recovery is not None:
            table += "\n" + self.recovery.format_table()
        return table


def run_chaos(
    n_sensors: int = 50,
    field_size: float = 200.0,
    comm_range: float = 55.0,
    n_gateways: int = 3,
    rounds: int = 6,
    round_period: float = 6.0,
    sensor_battery: float = math.inf,
    fault_plan=None,
    intensity: float = 0.3,
    burst: bool = True,
    seed: int = 0,
) -> ChaosResult:
    """Run one seeded chaos cell (always audited, regardless of env).

    ``fault_plan`` takes an explicit plan (object or jsonable form, as a
    sweep params dict carries it); when ``None`` a randomized plan is
    derived deterministically from the other arguments and the seed.
    """
    if not 1 <= n_gateways <= len(_PLACE_LABELS):
        raise ConfigurationError(
            f"n_gateways must be in [1, {len(_PLACE_LABELS)}], got {n_gateways}"
        )
    horizon = rounds * round_period
    if fault_plan is not None:
        plan = FaultPlan.from_param(fault_plan)
    else:
        plan = random_plan(
            n_sensors=n_sensors,
            n_gateways=n_gateways,
            horizon=horizon,
            field_size=field_size,
            intensity=intensity,
            burst=burst,
            seed=seed,
        )

    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in _PLACE_LABELS[:n_gateways]]
    scenario = make_uniform_scenario(
        n_sensors,
        field_size,
        gw_positions,
        comm_range=comm_range,
        sensor_battery=sensor_battery,
        topology_seed=seed,
        protocol_seed=seed + 17,
        audit=True,
        faults=plan,
    )
    sim, net, ch = scenario.sim, scenario.network, scenario.channel
    protocol = SPR(sim, net, ch)

    for r in range(rounds):
        for i, s in enumerate(net.sensor_ids):
            # deterministic stagger (same shape as run_collection_rounds)
            sim.schedule_at(r * round_period + 0.5 + (i % 97) * 1e-3,
                            protocol.send_data, s)
    sim.run()

    report = scenario.faults.recovery_report()
    cons = scenario.conservation_report(strict=True)
    return ChaosResult(
        n_sensors=n_sensors,
        n_gateways=n_gateways,
        rounds=rounds,
        seed=seed,
        n_fault_events=len(plan),
        generated=cons.generated,
        delivered=cons.delivered,
        dropped=cons.dropped,
        pending=cons.pending,
        delivery_ratio=ch.metrics.delivery_ratio,
        drop_reasons=dict(sorted(cons.drops_by_reason.items())),
        recovery=report,
        mttr=report.mttr,
        availability=report.availability,
        n_windows=report.n_faults,
    )
