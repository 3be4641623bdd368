"""Compile a :class:`~repro.faults.plan.FaultPlan` onto the event queue.

The injector is armed once, at world-build time, before any protocol
traffic is scheduled.  Every fault event becomes one or more absolute-
time simulator events (:meth:`~repro.sim.engine.Simulator.schedule_at`),
so fault timing is part of the deterministic event order: the same plan
on the same seed replays bit-identically, interleaved with traffic the
same way every run.

While the run executes, the injector keeps the *realized* fault
timeline — a list of :class:`~repro.obs.recovery.FaultWindow` rows
recording when each node actually went down and came back.  The plan
says what was *asked*; the timeline says what *happened* (a Recover on
a battery-dead node leaves its window open forever, a RegionOutage's
victim set depends on who stood in the disc at ``t0``).

Recovery protocol contract: after :meth:`~repro.sim.state.NodeView.recover`
returns True the injector calls ``protocol.on_node_recovered(node_id)``
if the attached protocol exposes it (the layered stack does; baselines
may not — they simply rejoin with stale state, which is itself a
measurable behaviour).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.faults.plan import (
    BatteryDrain,
    Crash,
    FaultPlan,
    GatewayChurn,
    LinkDegrade,
    Recover,
    RegionOutage,
)
from repro.obs.recovery import FaultWindow, RecoveryReport, recovery_report
from repro.sim.node import NodeKind

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms a fault plan on a world and records the realized timeline."""

    def __init__(self, world, plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        #: realized outage windows, in the order they opened
        self.windows: list[FaultWindow] = []
        self._open: dict[int, int] = {}  # node id -> index into windows
        self._armed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every plan event; idempotence guard (arm exactly once)."""
        if self._armed:
            raise ConfigurationError("fault injector is already armed")
        self._armed = True
        for ev in self.plan.events:
            self._arm_event(ev)
        return self

    def _arm_event(self, ev) -> None:
        sim = self.world.sim
        if isinstance(ev, Crash):
            sim.schedule_at(ev.t, self._crash, ev.node, "crash")
        elif isinstance(ev, Recover):
            sim.schedule_at(ev.t, self._recover, ev.node)
        elif isinstance(ev, RegionOutage):
            sim.schedule_at(ev.t0, self._region_down, ev)
        elif isinstance(ev, GatewayChurn):
            self._arm_churn(ev)
        elif isinstance(ev, BatteryDrain):
            sim.schedule_at(ev.t, self._drain, ev.node, ev.fraction)
        elif isinstance(ev, LinkDegrade):
            sim.schedule_at(ev.t0, self._degrade_begin, ev)
        else:  # pragma: no cover - FaultPlan already validates
            raise ConfigurationError(f"unknown fault event {ev!r}")

    def _arm_churn(self, ev: GatewayChurn) -> None:
        """Unroll the churn schedule over the world's actual gateways."""
        gateways = [
            n.node_id for n in self.world.network.nodes if n.kind is NodeKind.GATEWAY
        ]
        if not gateways:
            raise ConfigurationError("gateway_churn on a world with no gateways")
        sim = self.world.sim
        slot = 0
        for _cycle in range(ev.cycles):
            for gw in gateways:
                down_at = ev.start + slot * ev.period
                sim.schedule_at(down_at, self._crash, gw, "churn")
                sim.schedule_at(down_at + ev.downtime, self._recover, gw)
                slot += 1

    # ------------------------------------------------------------------
    # event handlers (run on the simulator clock)
    # ------------------------------------------------------------------
    def _crash(self, node_id: int, cause: str) -> None:
        node = self.world.network.nodes[node_id]
        if node.failed or not node.energy.alive:
            return  # already down: overlapping faults do not stack windows
        node.fail()
        self._open[node_id] = len(self.windows)
        self.windows.append(
            FaultWindow(node=node_id, down_at=self.world.sim.now, cause=cause)
        )

    def _recover(self, node_id: int) -> None:
        node = self.world.network.nodes[node_id]
        was_failed = node.failed
        alive = node.recover()
        if not alive:
            # Battery died while (or before) the node was down: permanent.
            # The window stays open — downtime runs to the horizon.
            return
        idx = self._open.pop(node_id, None)
        if idx is not None:
            self.windows[idx].up_at = self.world.sim.now
        if was_failed:
            hook = getattr(self.world.protocol, "on_node_recovered", None)
            if hook is not None:
                hook(node_id)

    def _region_down(self, ev: RegionOutage) -> None:
        victims = self.world.network.nodes_in_region(ev.center, ev.radius)
        crashed = []
        for node_id in victims:
            node = self.world.network.nodes[node_id]
            if node.failed or not node.energy.alive:
                continue
            self._crash(node_id, "region")
            crashed.append(node_id)
        if crashed:
            self.world.sim.schedule_at(ev.t1, self._region_up, crashed)

    def _region_up(self, crashed: list) -> None:
        for node_id in crashed:
            self._recover(node_id)

    def _drain(self, node_id: int, fraction: float) -> None:
        node = self.world.network.nodes[node_id]
        acct = node.energy
        if math.isinf(acct.capacity) or not acct.alive:
            return  # mains-powered or already dead: nothing to drain
        was_alive = acct.alive
        acct.charge_idle(acct.remaining * fraction, self.world.sim.now)
        if was_alive and not acct.alive:
            now = self.world.sim.now
            self.world.metrics.on_node_death(node_id, now)
            # Battery death is an outage that never closes.
            self._open[node_id] = len(self.windows)
            self.windows.append(FaultWindow(node=node_id, down_at=now, cause="battery"))

    def _degrade_begin(self, ev: LinkDegrade) -> None:
        channel = self.world.channel
        saved = channel.config
        channel.config = replace(
            saved,
            loss_rate=ev.loss_rate if ev.loss_rate is not None else saved.loss_rate,
            burst=ev.burst if ev.burst is not None else saved.burst,
        )
        self.world.sim.schedule_at(ev.t1, self._degrade_end, saved)

    def _degrade_end(self, saved) -> None:
        self.world.channel.config = saved

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def recovery_report(self, horizon: Optional[float] = None) -> RecoveryReport:
        """MTTR/availability over the realized timeline.

        ``horizon`` defaults to the simulator's current clock — call
        after :meth:`~repro.sim.engine.Simulator.run` for a full-run
        report.
        """
        if horizon is None:
            horizon = self.world.sim.now
        return recovery_report(
            self.world.metrics.ledger,
            self.windows,
            horizon=horizon,
            n_nodes=len(self.world.network.nodes),
        )
