"""Fault injection: plans, the injector, bursty loss, recovery semantics.

Covers the :mod:`repro.faults` subsystem end to end — serializable
:class:`FaultPlan` round-trips, injector event semantics on a live
world, the Gilbert–Elliott bursty-loss chain (including production vs
oracle fan-out equivalence), zero-window backoff determinism, the
alive-listener edge detector, clean recovery rejoin, and a hypothesis
property showing randomized chaos campaigns conserve every datum while
recovered routes resume delivering.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.routing_table import RouteEntry
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError, TopologyError
from repro.experiments.registry import REGISTRY
from repro.faults import (
    BatteryDrain,
    Crash,
    FaultPlan,
    GatewayChurn,
    LinkDegrade,
    Recover,
    RegionOutage,
)
from repro.faults.campaign import random_plan, run_chaos
from repro.faults.cli import CAMPAIGNS, main as faults_main
from repro.obs.recovery import FaultWindow, recovery_report
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec, cache_key
from repro.runner.sweep import SweepRunner
from repro.sim.node import NodeKind
from repro.sim.radio import IEEE802154, GilbertElliott
from repro.sim.serialize import dumps, loads
from repro.sim.state import NodeStateStore
from repro.world import WorldBuilder
from tests.oracle import oracle_world


def _full_plan() -> FaultPlan:
    return FaultPlan(
        (
            Crash(node=3, t=1.0),
            Recover(node=3, t=2.5),
            RegionOutage(center=(50.0, 50.0), radius=30.0, t0=1.0, t1=4.0),
            GatewayChurn(period=5.0, downtime=2.0, start=1.0, cycles=2),
            BatteryDrain(node=1, t=3.0, fraction=0.5),
            LinkDegrade(t0=2.0, t1=6.0, loss_rate=0.3,
                        burst=GilbertElliott(p_gb=0.1, p_bg=0.4)),
        )
    )


def _grid_world(rows=3, cols=3, spacing=30.0, plan=None, seed=0, battery=math.inf):
    builder = (
        WorldBuilder()
        .seed(seed)
        .grid_sensors(rows, cols, spacing)
        # within comm range (1.05 * spacing) of the far-corner sensor
        .gateways([[(cols - 1) * spacing + 15.0, (rows - 1) * spacing + 15.0]])
        .sensor_battery(battery)
        .ideal_radio()
    )
    if plan is not None:
        builder.faults(plan)
    return builder.build()


# ----------------------------------------------------------------------
# plans: validation and serialization
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = _full_plan()
        assert loads(dumps(plan)) == plan

    def test_from_param_accepts_plan_jsonable_and_none(self):
        plan = _full_plan()
        assert FaultPlan.from_param(plan) is plan
        assert FaultPlan.from_param(plan.to_param()) == plan
        assert FaultPlan.from_param(None) == FaultPlan()
        with pytest.raises(ConfigurationError):
            FaultPlan.from_param({"not": "a plan"})

    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            Crash(node=0, t=-1.0)
        with pytest.raises(ConfigurationError):
            RegionOutage(center=(0.0, 0.0), radius=10.0, t0=3.0, t1=2.0)
        with pytest.raises(ConfigurationError):
            BatteryDrain(node=0, t=0.0, fraction=1.5)
        with pytest.raises(ConfigurationError):
            GatewayChurn(period=0.0, downtime=1.0)
        with pytest.raises(ConfigurationError):
            LinkDegrade(t0=0.0, t1=1.0)  # neither loss_rate nor burst
        with pytest.raises(ConfigurationError):
            FaultPlan(("not an event",))

    def test_event_order_is_part_of_identity(self):
        a = FaultPlan((Crash(node=0, t=1.0), Crash(node=1, t=1.0)))
        b = FaultPlan((Crash(node=1, t=1.0), Crash(node=0, t=1.0)))
        assert a != b
        assert dumps(a) != dumps(b)
        assert (cache_key("chaos", {"fault_plan": a.to_param()}, 0)
                != cache_key("chaos", {"fault_plan": b.to_param()}, 0))

    def test_last_event_time(self):
        assert FaultPlan().last_event_time == 0.0
        assert _full_plan().last_event_time == pytest.approx(13.0)  # churn


# ----------------------------------------------------------------------
# injector semantics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_crash_and_recover_window(self):
        world = _grid_world(plan=FaultPlan((Crash(node=4, t=1.0),
                                            Recover(node=4, t=3.0))))
        world.sim.run()
        assert world.network.nodes[4].alive
        (w,) = world.faults.windows
        assert (w.node, w.down_at, w.up_at, w.cause) == (4, 1.0, 3.0, "crash")

    def test_recover_on_battery_dead_node_stays_dead(self):
        plan = FaultPlan(
            (Crash(node=0, t=1.0), BatteryDrain(node=0, t=2.0, fraction=1.0),
             Recover(node=0, t=3.0))
        )
        world = _grid_world(plan=plan, battery=1.0)
        world.sim.run()
        node = world.network.nodes[0]
        assert not node.failed  # the flag is cleared...
        assert not node.alive  # ...but battery death is permanent
        assert not world.network.alive_mask[0]
        # the crash window never closes: downtime runs to the horizon
        assert world.faults.windows[0].up_at is None

    def test_battery_drain_kills_and_mains_is_immune(self):
        plan = FaultPlan((BatteryDrain(node=0, t=1.0, fraction=1.0),
                          BatteryDrain(node=9, t=1.0, fraction=1.0)))
        world = _grid_world(plan=plan, battery=2.0)  # node 9 is the gateway
        world.sim.run()
        assert not world.network.nodes[0].alive
        assert world.network.nodes[9].alive  # mains-powered: no-op
        (w,) = world.faults.windows
        assert (w.node, w.cause, w.up_at) == (0, "battery", None)

    def test_partial_drain_leaves_node_alive(self):
        world = _grid_world(
            plan=FaultPlan((BatteryDrain(node=2, t=1.0, fraction=0.5),)),
            battery=2.0,
        )
        world.sim.run()
        node = world.network.nodes[2]
        assert node.alive
        assert node.energy.remaining == pytest.approx(1.0)
        assert world.faults.windows == []

    def test_region_outage_resolves_victims_by_position(self):
        # 3x3 grid at 30m spacing: a 35m disc at the origin covers exactly
        # (0,0), (30,0) and (0,30) -> nodes 0, 1, 3.
        plan = FaultPlan((RegionOutage(center=(0.0, 0.0), radius=35.0,
                                       t0=1.0, t1=2.0),))
        world = _grid_world(plan=plan)
        world.sim.run(until=1.5)
        down = {n.node_id for n in world.network.nodes if not n.alive}
        assert down == {0, 1, 3}
        world.sim.run()
        assert all(n.alive for n in world.network.nodes)
        assert sorted(w.node for w in world.faults.windows) == [0, 1, 3]
        assert all(w.up_at == 2.0 and w.cause == "region" for w in world.faults.windows)

    def test_overlapping_faults_do_not_stack_windows(self):
        plan = FaultPlan((Crash(node=0, t=1.0), Crash(node=0, t=1.5),
                          Recover(node=0, t=3.0)))
        world = _grid_world(plan=plan)
        world.sim.run()
        assert len(world.faults.windows) == 1

    def test_link_degrade_swaps_and_restores_config(self):
        ge = GilbertElliott(p_gb=0.2, p_bg=0.5)
        plan = FaultPlan((LinkDegrade(t0=1.0, t1=2.0, loss_rate=0.4, burst=ge),))
        world = _grid_world(plan=plan)
        baseline = world.channel.config
        world.sim.run(until=1.5)
        assert world.channel.config.loss_rate == 0.4
        assert world.channel.config.burst == ge
        world.sim.run()
        assert world.channel.config == baseline

    def test_double_arm_raises(self):
        world = _grid_world(plan=FaultPlan((Crash(node=0, t=1.0),)))
        with pytest.raises(ConfigurationError):
            world.faults.arm()

    def test_churn_needs_gateways(self):
        sim_world = (
            WorldBuilder()
            .seed(0)
            .nodes(np.array([[0.0, 0.0], [10.0, 0.0]]),
                   [NodeKind.SENSOR, NodeKind.SENSOR], comm_range=20.0)
            .ideal_radio()
        )
        with pytest.raises(ConfigurationError):
            sim_world.faults(FaultPlan((GatewayChurn(period=1.0, downtime=0.5),))).build()


# ----------------------------------------------------------------------
# Gilbert-Elliott bursty loss
# ----------------------------------------------------------------------
class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliott(p_gb=1.5, p_bg=0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliott(p_gb=0.5, p_bg=0.5, loss_bad=-0.1)

    def test_stationary_bad(self):
        ge = GilbertElliott(p_gb=0.1, p_bg=0.3)
        assert ge.stationary_bad == pytest.approx(0.25)

    def test_degenerate_chains(self):
        # p_gb=1 enters the bad state before the first loss draw; with
        # loss_bad=1 every frame dies.  p_gb=0 never leaves good state.
        def run(ge):
            world = _grid_world(plan=None)
            world.channel.config = dataclasses.replace(world.channel.config, burst=ge)
            spr = SPR(world.sim, world.network, world.channel)
            for s in world.network.sensor_ids:
                world.sim.schedule(0.1, spr.send_data, s)
            world.sim.run()
            return world.metrics.delivery_ratio

        assert run(GilbertElliott(p_gb=1.0, p_bg=0.0, loss_bad=1.0)) == 0.0
        assert run(GilbertElliott(p_gb=0.0, p_bg=0.0, loss_bad=1.0)) == 1.0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_scalar_and_vectorized_fanout_identical(self, seed):
        ge = GilbertElliott(p_gb=0.15, p_bg=0.4, loss_good=0.05, loss_bad=0.8)
        radio = dataclasses.replace(IEEE802154.ideal(), burst=ge, arq_retries=2)

        def run(oracle):
            builder = (
                WorldBuilder()
                .seed(seed)
                .uniform_sensors(30, 150.0, topology_seed=3)
                .gateways([[20.0, 20.0], [130.0, 130.0]])
                .comm_range(55.0)
                .radio(radio)
                .audit(True)
            )
            world = oracle_world(builder) if oracle else builder.build()
            spr = SPR(world.sim, world.network, world.channel)
            for r in range(3):
                for i, s in enumerate(world.network.sensor_ids):
                    world.sim.schedule_at(r * 4.0 + 0.3 + i * 1e-3, spr.send_data, s)
            world.sim.run()
            m = world.metrics
            return (m.delivery_ratio, dict(m.drops), m.bytes_sent,
                    world.sim.rng.bit_generator.state["state"]["state"])

        assert run(False) == run(True)

    def test_burst_state_survives_config_swap(self):
        # A link mid-burst when a degrade window closes resumes the chain
        # if a later window re-enables bursts: state lives on the channel.
        world = _grid_world(plan=None)
        world.channel._link_bad[(0, 1)] = True
        cfg = world.channel.config
        world.channel.config = dataclasses.replace(cfg, burst=None)
        world.channel.config = cfg
        assert world.channel._link_bad[(0, 1)] is True


# ----------------------------------------------------------------------
# zero backoff window (satellite: no jitter, no RNG draw)
# ----------------------------------------------------------------------
class TestZeroBackoffWindow:
    def test_zero_window_means_zero_jitter_and_no_draw(self):
        radio = dataclasses.replace(IEEE802154, backoff_window=0.0, collisions=False)
        world = (
            WorldBuilder()
            .seed(1)
            .grid_sensors(2, 2, 25.0)
            .gateways([[50.0, 50.0]])
            .radio(radio)
            .build()
        )
        assert world.channel._jitter(0) == 0.0
        # No draw means no substream was even created for the node.
        assert world.sim.node_rng_states() == {}

    def test_positive_window_draws(self):
        radio = dataclasses.replace(IEEE802154, backoff_window=2e-3)
        world = (
            WorldBuilder()
            .seed(1)
            .grid_sensors(2, 2, 25.0)
            .gateways([[50.0, 50.0]])
            .radio(radio)
            .build()
        )
        jitter = world.channel._jitter(0)
        assert 0.0 <= jitter < 2e-3
        # The draw came from node 0's partitioned substream, not the
        # shared sim.rng (whose sequence must stay untouched).
        assert list(world.sim.node_rng_states()) == [0]


# ----------------------------------------------------------------------
# alive-listener state machine (satellite)
# ----------------------------------------------------------------------
class TestAliveListener:
    def _tracked_node(self, capacity=math.inf):
        node = NodeStateStore([NodeKind.SENSOR], [capacity]).node_view(0)
        flips = []
        node.bind_alive_listener(lambda nid, alive: flips.append((nid, alive)))
        return node, flips

    def test_fail_while_sleeping_is_one_transition(self):
        node, flips = self._tracked_node()
        node.sleeping = True
        node.failed = True  # already down: no second notification
        assert flips == [(0, False)]
        node.sleeping = False  # still failed: no flip
        assert flips == [(0, False)]
        assert node.recover()
        assert flips == [(0, False), (0, True)]

    def test_sleep_fail_wake_sequence(self):
        node, flips = self._tracked_node()
        node.sleeping = True
        node.failed = True
        node.sleeping = False
        node.failed = False
        assert flips == [(0, False), (0, True)]

    def test_recover_then_battery_death_is_permanent(self):
        node, flips = self._tracked_node(capacity=1.0)
        node.failed = True
        assert flips == [(0, False)]
        # battery dies while the node is already down: no duplicate event
        node.energy.charge_idle(2.0, now=1.0)
        assert flips == [(0, False)]
        assert node.recover() is False
        assert flips == [(0, False)]  # recover() must not signal alive
        assert not node.alive

    def test_battery_death_on_healthy_node_fires_once(self):
        node, flips = self._tracked_node(capacity=1.0)
        node.energy.charge_idle(2.0, now=1.0)
        assert flips == [(0, False)]

    def test_network_alive_mask_stays_consistent(self):
        world = _grid_world(
            plan=FaultPlan((Crash(node=0, t=1.0), Recover(node=0, t=2.0),
                            BatteryDrain(node=1, t=1.5, fraction=1.0))),
            battery=2.0,
        )
        sim, net = world.sim, world.network
        for t in (1.2, 1.7, 2.5):
            sim.run(until=t)
            for node in net.nodes:
                assert bool(net.alive_mask[node.node_id]) == node.alive


# ----------------------------------------------------------------------
# recovery rejoin: stale state purged, pending data re-discovered
# ----------------------------------------------------------------------
class TestRecoveryRejoin:
    def test_on_node_recovered_purges_stale_routes(self):
        world = _grid_world(plan=None)
        spr = SPR(world.sim, world.network, world.channel)
        gw = world.network.gateway_ids[0]
        spr.tables[0].install(RouteEntry(key=gw, gateway=gw, path=(0, 4, 8, gw)))
        spr.tables[2].install(RouteEntry(key=gw, gateway=gw, path=(2, 5, 8, gw)))
        spr.tables[4].install(RouteEntry(key=gw, gateway=gw, path=(4, 8, gw)))
        spr._announced.add((0, gw, (0, 4, 8, gw)))
        spr._announced.add((2, gw, (2, 5, 8, gw)))
        spr._seen_floods[4].add((0, 99))

        spr.on_node_recovered(4)
        # entries through (or at) node 4 are gone everywhere...
        assert spr.tables[0].get(gw) is None
        assert spr.tables[4].get(gw) is None
        # ...including the source-route announcement memory...
        assert spr._announced == {(2, gw, (2, 5, 8, gw))}
        # ...and untouched flows keep their state.
        assert spr.tables[2].get(gw) is not None
        assert spr._seen_floods[4] == set()

    def test_recovered_node_delivers_again(self):
        plan = FaultPlan((Crash(node=0, t=2.0), Recover(node=0, t=4.0)))
        world = _grid_world(plan=plan)
        world.channel.metrics.enable_audit()
        spr = SPR(world.sim, world.network, world.channel)
        sim = world.sim
        sim.schedule_at(0.5, spr.send_data, 0)  # healthy
        sim.schedule_at(3.0, spr.send_data, 0)  # while down -> dead_source
        sim.schedule_at(5.0, spr.send_data, 0)  # after recovery
        sim.run()
        report = world.conservation_report(strict=True)
        assert report.ok
        assert report.generated == 3
        assert report.delivered == 2
        assert report.drops_by_reason == {"dead_source": 1}
        # service resumed after the outage: restore latency is finite
        rec = world.faults.recovery_report()
        assert rec.n_faults == 1 and rec.n_recovered == 1
        assert rec.mttr is not None and 0 < rec.mttr <= 3.5


# ----------------------------------------------------------------------
# recovery report arithmetic
# ----------------------------------------------------------------------
class TestRecoveryReport:
    def test_open_windows_run_to_horizon(self):
        windows = [FaultWindow(node=0, down_at=2.0, up_at=4.0),
                   FaultWindow(node=1, down_at=6.0)]
        rep = recovery_report(None, windows, horizon=10.0, n_nodes=5)
        assert rep.total_downtime == pytest.approx(6.0)
        assert rep.availability == pytest.approx(1.0 - 6.0 / 50.0)
        assert rep.n_recovered == 1
        assert rep.mttr is None  # no ledger -> no restore latencies
        assert "availability" in rep.format_table()

    def test_round_trips(self):
        rep = recovery_report(None, [FaultWindow(node=0, down_at=1.0)],
                              horizon=2.0, n_nodes=3)
        assert loads(dumps(rep)) == rep


# ----------------------------------------------------------------------
# chaos campaigns: conservation + recovery under randomized storms
# ----------------------------------------------------------------------
class TestChaos:
    def test_replays_bit_identically_through_the_cache(self, tmp_path):
        spec = ExperimentSpec(
            experiment="chaos",
            params={"n_sensors": 25, "field_size": 140.0, "rounds": 3,
                    "intensity": 0.3},
            seeds=(0, 1),
        )
        cache = ResultCache(str(tmp_path / "cache"))
        first = SweepRunner(workers=1, cache=cache).run(spec)
        second = SweepRunner(workers=2, cache=ResultCache(str(tmp_path / "cache"))).run(spec)
        assert first.stats.as_dict()["cache_hits"] == 0
        assert second.stats.as_dict()["cache_hits"] == 2
        assert dumps(first.results()) == dumps(second.results())

    def test_random_plan_is_seed_determined(self):
        kw = dict(n_sensors=30, n_gateways=3, horizon=30.0, field_size=160.0)
        assert random_plan(seed=5, **kw) == random_plan(seed=5, **kw)
        assert random_plan(seed=5, **kw) != random_plan(seed=6, **kw)

    def test_cli_smoke(self, capsys):
        assert faults_main(["--campaign", "smoke", "--seeds", "0",
                            "--workers", "1", "-q"]) == 0
        out = capsys.readouterr().out
        assert "all conserved" in out and "MTTR_s" in out

    def test_cli_fails_when_service_is_not_restored(self, monkeypatch, capsys):
        def unrestored(**kwargs):
            result = run_chaos(**kwargs)
            recovery = dataclasses.replace(result.recovery, unrestored=1)
            return dataclasses.replace(result, recovery=recovery)

        adapter = dataclasses.replace(REGISTRY["chaos"], fn=unrestored)
        monkeypatch.setitem(REGISTRY, "chaos", adapter)
        assert faults_main(["--seeds", "0", "--workers", "1", "-q"]) == 1
        captured = capsys.readouterr()
        assert "1 failed claims" in captured.out
        assert "seed 0: claim fails: a datum is delivered after every fault window" in captured.err

    def test_campaign_plans_are_jsonable(self):
        for name, params in CAMPAIGNS.items():
            # every campaign must produce a stable cache key
            assert cache_key("chaos", params, 0) == cache_key("chaos", dict(params), 0)

    @given(seed=st.integers(0, 30), intensity=st.floats(0.1, 0.45))
    @settings(max_examples=5, deadline=None)
    def test_chaos_conserves_and_recovers(self, seed, intensity):
        """Randomized crash/recover/burst storms conserve every datum and
        recovered routes resume delivering (finite MTTR)."""
        try:
            r = run_chaos(n_sensors=30, field_size=150.0, comm_range=55.0,
                          rounds=5, round_period=6.0, intensity=intensity,
                          seed=seed)
        except TopologyError:
            assume(False)
        # conservation: the run executes under strict audit (a violation
        # raises), and the terminal states add up exactly.
        assert r.pending == 0
        assert r.generated == r.delivered + r.dropped
        assert r.generated == 30 * 5
        # recovery: every crash in these storms recovers (fractions < 1,
        # region outages only above intensity 0.5), and traffic scheduled
        # after the last repair delivers -> restore latencies all finite.
        assert r.recovery.n_recovered == r.recovery.n_faults
        assert r.recovery.unrestored == 0
        assert r.mttr is not None and 0 < r.mttr < 30.0
        assert 0.0 < r.availability <= 1.0
        assert r.delivery_ratio > 0.5
