"""Tests for sleep-scheduling topology control (Section 4.4)."""

import math

import numpy as np
import pytest

from repro.core.spr import SPR
from repro.core.topology_control import SleepScheduler
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.network import build_sensor_network, grid_deployment
from repro.sim.radio import IEEE802154, Channel
from repro.sim.trace import MetricsCollector


def _dense_world():
    """A dense field: 4 sensors per GAF cell, one gateway."""
    rng = np.random.default_rng(3)
    sensors = rng.uniform(0, 60, size=(120, 2))
    net = build_sensor_network(sensors, np.array([[30.0, 70.0]]), comm_range=30.0)
    sim = Simulator(seed=4)
    ch = Channel(sim, net, IEEE802154.ideal(), metrics=MetricsCollector())
    return sim, net, ch


@pytest.fixture
def dense_world():
    return _dense_world()


class TestCells:
    def test_cell_side_default_is_gaf_bound(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        assert sched.cell_side == pytest.approx(net.comm_range / math.sqrt(5))

    def test_every_sensor_in_exactly_one_cell(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        counted = sum(len(sched.cell_members(c)) for c in list(sched._cells))
        assert counted == len(net.sensor_ids)

    def test_adjacent_cell_nodes_within_range(self, dense_world):
        # the GAF property: any node can reach any node in a 4-adjacent cell
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        side = sched.cell_side
        # worst case distance between 4-adjacent cells: sqrt((2s)^2 + s^2)
        worst = math.sqrt((2 * side) ** 2 + side ** 2)
        assert worst <= net.comm_range + 1e-9

    def test_invalid_cell_side(self, dense_world):
        _, net, _ = dense_world
        with pytest.raises(ConfigurationError):
            SleepScheduler(net, cell_side=0.0)


class TestEpochs:
    def test_one_coordinator_per_cell_rest_asleep(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        coords = sched.apply_epoch()
        for cell, coordinator in coords.items():
            members = sched.cell_members(cell)
            assert coordinator in members
            for m in members:
                assert net.nodes[m].sleeping == (m != coordinator)

    def test_duty_cycle_reduced(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        sched.apply_epoch()
        assert sched.duty_cycle() < 0.6  # dense field: most nodes sleep

    def test_rotation_by_residual_energy(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        coords1 = sched.apply_epoch()
        # drain every current coordinator, re-elect
        for c in coords1.values():
            net.nodes[c].energy.remaining = 0.5 * net.nodes[c].energy.remaining \
                if not math.isinf(net.nodes[c].energy.capacity) else net.nodes[c].energy.remaining
        # with infinite batteries rotation needs explicit drain: use spent
        for c in coords1.values():
            net.nodes[c].energy.charge_tx(0.0, 0.0)
        # instead verify determinism: same energies -> same coordinators
        coords2 = sched.apply_epoch()
        assert coords2 == coords1

    def test_rotation_with_finite_batteries(self):
        sensors = grid_deployment(2, 2, spacing=1.0)  # all in one cell
        net = build_sensor_network(sensors, np.array([[0.0, 20.0]]),
                                   comm_range=30.0, sensor_battery=1.0)
        sched = SleepScheduler(net)
        first = sched.apply_epoch()
        (cell, coordinator), = first.items()
        net.nodes[coordinator].energy.charge_tx(0.5, 1.0)  # served, drained
        second = sched.apply_epoch()
        assert second[cell] != coordinator  # someone fresher takes over

    def test_wake_all_and_wake_to_send(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        sched.apply_epoch()
        victim = sched.sleeping_sensors()[0]
        sched.wake_to_send(victim)
        assert net.nodes[victim].alive
        sched.wake_all()
        assert not sched.sleeping_sensors()


class TestRoutingOverBackbone:
    def test_coordinators_still_reach_gateway(self, dense_world):
        _, net, _ = dense_world
        sched = SleepScheduler(net)
        sched.apply_epoch()
        assert sched.coordinator_backbone_connected()

    def test_data_flows_while_most_sleep(self, dense_world):
        sim, net, ch = dense_world
        spr = SPR(sim, net, ch)
        sched = SleepScheduler(net)
        sched.apply_epoch()
        senders = list(sched.coordinators.values())[:10]
        for i, s in enumerate(senders):
            sim.schedule(0.1 + i * 1e-2, spr.send_data, s)
        sim.run()
        assert ch.metrics.delivery_ratio == 1.0

    def test_energy_saved_by_sleepers(self, dense_world):
        sim, net, ch = dense_world
        spr = SPR(sim, net, ch)
        sched = SleepScheduler(net)
        sched.apply_epoch()
        sleepers = set(sched.sleeping_sensors())
        for i, s in enumerate(list(sched.coordinators.values())[:10]):
            sim.schedule(0.1 + i * 1e-2, spr.send_data, s)
        sim.run()
        # sleeping nodes received nothing -> spent nothing
        assert all(net.nodes[s].energy.spent == 0.0 for s in sleepers)

    def test_duty_cycling_cuts_network_energy(self):
        """20 reports over the coordinator backbone vs the same from an
        always-on field: every report arrives, for < 0.6x the energy."""

        def run(duty_cycled: bool) -> tuple[float, float]:
            sim, net, ch = _dense_world()
            spr = SPR(sim, net, ch)
            senders = net.sensor_ids
            if duty_cycled:
                sched = SleepScheduler(net)
                sched.apply_epoch()
                assert sched.coordinator_backbone_connected()
                senders = sorted(sched.coordinators.values())
            for i, s in enumerate(senders[:20]):
                sim.schedule(0.1 + i * 0.01, spr.send_data, s)
            sim.run()
            spent = sum(net.nodes[s].energy.spent for s in net.sensor_ids)
            return spent, ch.metrics.delivery_ratio

        always_on, _ = run(duty_cycled=False)
        duty, delivery = run(duty_cycled=True)
        assert delivery == 1.0
        # Sleepers receive nothing, so flood and overhearing energy collapse.
        assert duty < 0.6 * always_on
