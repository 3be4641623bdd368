"""World composition root: builder wiring, event accounting, fan-out equivalence."""

import numpy as np
import pytest

from repro.core.spr import SPR
from repro.exceptions import ConfigurationError, TopologyError
from repro.sim.engine import Simulator
from repro.sim.network import build_sensor_network
from repro.sim.radio import IEEE802154, RadioConfig
from repro.world import WorldBuilder, record_world_events
from tests.oracle import oracle_world


class TestWorldBuilder:
    def test_builds_the_full_stack(self):
        world = (
            WorldBuilder()
            .seed(3)
            .uniform_sensors(30, field_size=100.0, topology_seed=1)
            .gateways([[50.0, 50.0]])
            .comm_range(30.0)
            .ideal_radio()
            .build()
        )
        assert len(world.network) == 31
        assert world.channel.sim is world.sim
        assert world.channel.network is world.network
        assert world.metrics is world.channel.metrics
        assert world.events_processed == 0

    def test_attach_wires_protocol(self):
        sensors = np.array([[0.0, 0.0], [10.0, 0.0]])
        world = (
            WorldBuilder().sensors(sensors).gateways([[20.0, 0.0]])
            .comm_range(12.0).ideal_radio().build()
        )
        spr = world.attach(SPR)
        assert world.protocol is spr
        spr.send_data(0)
        world.sim.run()
        assert world.metrics.deliveries

    def test_existing_network_and_shared_simulator(self):
        sim = Simulator(seed=9)
        net = build_sensor_network(
            np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]]), comm_range=10.0
        )
        world = WorldBuilder().simulator(sim).network(net).ideal_radio().build()
        assert world.sim is sim
        assert world.network is net

    def test_no_topology_raises(self):
        with pytest.raises(ConfigurationError):
            WorldBuilder().ideal_radio().build()

    def test_sensors_without_gateways_raises(self):
        with pytest.raises(ConfigurationError):
            WorldBuilder().sensors(np.zeros((3, 2))).comm_range(10.0).build()

    def test_network_and_positions_conflict_raises(self):
        net = build_sensor_network(
            np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]]), comm_range=10.0
        )
        with pytest.raises(ConfigurationError):
            (WorldBuilder().network(net).sensors(np.zeros((2, 2)))
             .comm_range(10.0).build())

    def test_require_connected_raises_on_partition(self):
        sensors = np.array([[0.0, 0.0], [500.0, 500.0]])
        with pytest.raises(TopologyError):
            (WorldBuilder().sensors(sensors).gateways([[10.0, 0.0]])
             .comm_range(12.0).require_connected().build())

    def test_comm_range_falls_back_to_radio(self):
        sensors = np.array([[0.0, 0.0], [30.0, 0.0]])
        world = (
            WorldBuilder().sensors(sensors).gateways([[60.0, 0.0]])
            .radio(IEEE802154.ideal()).build()
        )
        assert world.network.comm_range == IEEE802154.comm_range


class TestEventRecorder:
    def test_records_events_of_worlds_built_inside(self):
        with record_world_events() as rec:
            world = (
                WorldBuilder().seed(1)
                .sensors(np.array([[0.0, 0.0], [10.0, 0.0]]))
                .gateways([[20.0, 0.0]]).comm_range(12.0).ideal_radio().build()
            )
            spr = world.attach(SPR)
            spr.send_data(0)
            world.sim.run()
        assert rec.events_processed == world.events_processed
        assert rec.events_processed > 0

    def test_shared_simulator_counted_once(self):
        sim = Simulator(seed=2)
        net = build_sensor_network(
            np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]]), comm_range=10.0
        )
        with record_world_events() as rec:
            WorldBuilder().simulator(sim).network(net).ideal_radio().build()
            WorldBuilder().simulator(sim).network(net).ideal_radio().build()
            assert rec.worlds_tracked == 1
            for _ in range(3):
                sim.schedule(0.1, lambda: None)
            sim.run()
        assert rec.events_processed == 3

    def test_prior_events_not_attributed(self):
        sim = Simulator(seed=4)
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        net = build_sensor_network(
            np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]]), comm_range=10.0
        )
        with record_world_events() as rec:
            WorldBuilder().simulator(sim).network(net).ideal_radio().build()
            sim.schedule(0.1, lambda: None)
            sim.run()
        assert rec.events_processed == 1

    def test_outside_worlds_not_recorded(self):
        with record_world_events() as rec:
            pass
        world = (
            WorldBuilder().sensors(np.array([[0.0, 0.0]]))
            .gateways([[5.0, 0.0]]).comm_range(10.0).ideal_radio().build()
        )
        world.sim.schedule(0.1, lambda: None)
        world.sim.run()
        assert rec.events_processed == 0


def _run_grid(oracle: bool, radio: RadioConfig, seed: int = 7):
    """A 4x4 grid world on exact (axis-aligned) distances, several flows."""
    builder = (
        WorldBuilder()
        .seed(seed)
        .grid_sensors(4, 4, spacing=10.0)
        .gateways([[40.0, 30.0]])
        .comm_range(10.5)  # axis-aligned links only: distances are exact floats
        .radio(radio)
    )
    world = oracle_world(builder) if oracle else builder.build()
    spr = world.attach(SPR)
    for s in (0, 5, 10, 15):
        world.sim.schedule(0.01 * s, spr.send_data, s)
    world.sim.run()
    m = world.metrics
    deliveries = [(r.origin, r.uid, r.hops, r.latency, r.destination) for r in m.deliveries]
    return deliveries, dict(m.drops), world.sim.now, world.events_processed


class TestFanoutEquivalence:
    """The production fan-out must be bit-identical to the oracle's scalar loop."""

    def test_ideal_radio_identical(self):
        radio = IEEE802154.ideal()
        assert _run_grid(False, radio) == _run_grid(True, radio)

    def test_lossy_radio_identical_rng_stream(self):
        lossy = RadioConfig(
            name="lossy", bitrate=250_000.0, comm_range=40.0,
            loss_rate=0.3, collisions=False, csma=False,
            backoff_window=0.0, arq_retries=2,
        )
        a = _run_grid(False, lossy)
        b = _run_grid(True, lossy)
        assert a == b
        assert a[1].get("loss", 0) > 0  # the loss draws actually fired

    def test_contention_radio_identical(self):
        assert _run_grid(False, IEEE802154) == _run_grid(True, IEEE802154)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
