"""Tests for load-balanced routing (Section 4.3)."""

import numpy as np
import pytest

from repro.core.qos import LoadBalancedMLR
from repro.core.mlr import MLR
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.network import build_sensor_network, grid_deployment
from repro.sim.radio import IEEE802154, Channel
from repro.sim.trace import MetricsCollector


def _world(cls, rounds=3, seed=9, **kw):
    """A 6x6 grid with two gateways on opposite sides.

    The middle columns are roughly equidistant from both gateways, so a
    load-aware protocol has real freedom to rebalance.
    """
    sensors = grid_deployment(6, 6, spacing=10.0)
    places = FeasiblePlaces.from_mapping({
        "L": (-10.0, 25.0),
        "R": (60.0, 25.0),
    })
    net = build_sensor_network(
        sensors, np.array([places.position("L"), places.position("R")]),
        comm_range=14.5,
    )
    g0, g1 = net.gateway_ids
    schedule = GatewaySchedule(
        places=places, rounds=[{g0: "L", g1: "R"}] * rounds
    )
    sim = Simulator(seed=seed)
    ch = Channel(sim, net, IEEE802154.ideal(), metrics=MetricsCollector())
    proto = cls(sim, net, ch, schedule, **kw)
    return sim, net, ch, proto


def _run_rounds(sim, net, proto, rounds, per_round=1):
    loads = []
    for r in range(rounds):
        sim.run(until=r * 8.0)
        proto.start_round(r)
        for k in range(per_round):
            for i, s in enumerate(net.sensor_ids):
                sim.schedule(1.0 + k + i * 1e-3, proto.send_data, s)
        sim.run(until=(r + 1) * 8.0 - 1e-9)
        if hasattr(proto, "gateway_loads"):
            loads.append(proto.gateway_loads())
    sim.run()
    return loads


class TestLoadAccounting:
    def test_gateways_count_frames(self):
        sim, net, ch, proto = _world(LoadBalancedMLR)
        loads = _run_rounds(sim, net, proto, rounds=1)
        assert sum(loads[0].values()) == len(net.sensor_ids)

    def test_load_disseminated_to_sensors(self):
        sim, net, ch, proto = _world(LoadBalancedMLR, rounds=2)
        _run_rounds(sim, net, proto, rounds=2)
        # after round 1's beacons, sensors know both gateways' loads
        sensor = net.sensor_ids[0]
        assert len(proto.known_load[sensor]) == 2

    def test_invalid_weight(self):
        with pytest.raises(ConfigurationError):
            _world(LoadBalancedMLR, load_weight=-1.0)


class TestRebalancing:
    def test_zero_weight_reduces_to_mlr(self):
        results = {}
        for name, cls, kw in (
            ("mlr", MLR, {}),
            ("lb0", LoadBalancedMLR, {"load_weight": 0.0}),
        ):
            sim, net, ch, proto = _world(cls, rounds=2, **kw)
            _run_rounds(sim, net, proto, rounds=2)
            results[name] = sorted(
                (r.origin, r.destination) for r in ch.metrics.deliveries
            )
        assert results["mlr"] == results["lb0"]

    def test_hot_zone_traffic_rebalances(self):
        """Sensors near gateway L report 5x (the forest fire of §4.3)."""

        def run(cls, **kw):
            sim, net, ch, proto = _world(cls, rounds=3, **kw)
            hot = [s for s in net.sensor_ids if net.positions[s][0] <= 20.0]
            per_round_loads = []
            for r in range(3):
                sim.run(until=r * 10.0)
                proto.start_round(r)
                for i, s in enumerate(net.sensor_ids):
                    reps = 5 if s in hot else 1
                    for k in range(reps):
                        sim.schedule(1.0 + 0.5 * k + i * 1e-3, proto.send_data, s)
                sim.run(until=(r + 1) * 10.0 - 1e-9)
                if hasattr(proto, "gateway_loads"):
                    per_round_loads.append(proto.gateway_loads())
            sim.run()
            by_gw = {}
            for rec in ch.metrics.deliveries:
                by_gw[rec.destination] = by_gw.get(rec.destination, 0) + 1
            return by_gw, ch.metrics.delivery_ratio

        plain, dr_plain = run(MLR)
        balanced, dr_lb = run(LoadBalancedMLR, load_weight=3.0)
        def imbalance(d):
            return max(d.values()) - min(d.values())
        assert imbalance(balanced) < imbalance(plain)
        # Rebalancing must not break delivery, and the surge alone must
        # not either.
        assert dr_lb > 0.95 and dr_plain > 0.95

    def test_delivery_preserved(self):
        sim, net, ch, proto = _world(LoadBalancedMLR, rounds=3)
        _run_rounds(sim, net, proto, rounds=3, per_round=2)
        assert ch.metrics.delivery_ratio == 1.0
