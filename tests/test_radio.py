"""Unit tests for the channel: delivery, energy charging, loss, collisions."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.network import build_sensor_network
from repro.sim.packet import Packet, PacketKind
from repro.sim.radio import IEEE802154, IEEE80211, Channel, RadioConfig
from repro.sim.trace import MetricsCollector
from tests.oracle import ScalarChannel


def _setup(loss=0.0, collisions=False, csma=False, comm_range=12.0, seed=1, arq=0,
           backoff=2e-3, channel_cls=Channel):
    sensors = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    gateway = np.array([[30.0, 0.0]])
    net = build_sensor_network(sensors, gateway, comm_range=comm_range)
    sim = Simulator(seed=seed)
    cfg = RadioConfig(
        name="test", bitrate=250_000, comm_range=comm_range,
        loss_rate=loss, collisions=collisions, csma=csma, arq_retries=arq,
        backoff_window=backoff,
    )
    ch = channel_cls(sim, net, cfg, metrics=MetricsCollector())
    return sim, net, ch


def _data(origin, dst=None, payload_bytes=24):
    return Packet(kind=PacketKind.DATA, origin=origin, target=dst, dst=dst,
                  payload_bytes=payload_bytes)


class TestDelivery:
    def test_unicast_reaches_only_destination(self):
        sim, net, ch = _setup()
        got = {i: [] for i in range(4)}
        for n in net.nodes:
            n.handler = (lambda i: (lambda p: got[i].append(p)))(n.node_id)
        ch.send(1, _data(1, dst=2))
        sim.run()
        assert len(got[2]) == 1
        assert not got[0] and not got[3]

    def test_broadcast_reaches_all_neighbors(self):
        sim, net, ch = _setup()
        got = {i: [] for i in range(4)}
        for n in net.nodes:
            n.handler = (lambda i: (lambda p: got[i].append(p)))(n.node_id)
        ch.send(1, _data(1, dst=None))
        sim.run()
        assert len(got[0]) == 1 and len(got[2]) == 1
        assert not got[3]  # out of range

    def test_latency_is_airtime_plus_propagation(self):
        sim, net, ch = _setup()
        arrived = []
        net.nodes[2].handler = lambda p: arrived.append(sim.now)
        pkt = _data(1, dst=2)
        airtime = pkt.size_bits() / 250_000
        ch.send(1, pkt)
        sim.run()
        assert arrived[0] == pytest.approx(airtime, rel=1e-3)

    def test_dead_sender_drops(self):
        sim, net, ch = _setup()
        net.nodes[1].fail()
        assert ch.send(1, _data(1, dst=2)) is False
        assert ch.metrics.drops["dead_node"] == 1

    def test_dead_receiver_drops(self):
        sim, net, ch = _setup()
        net.nodes[2].fail()
        ch.send(1, _data(1, dst=2))
        sim.run()
        assert ch.metrics.drops["dead_node"] == 1

    def test_unicast_out_of_range_counts_no_link(self):
        sim, net, ch = _setup()
        ch.send(0, _data(0, dst=3))  # node 3 is 30m away, range 12
        sim.run()
        assert ch.metrics.drops["no_link"] == 1

    def test_scalar_fanout_counts_no_link(self):
        # The oracle's scalar loop flags the destination during the loop
        # instead of rescanning the neighbor array; accounting must match
        # the production fan-out.
        sim, net, ch = _setup(channel_cls=ScalarChannel)
        ch.send(0, _data(0, dst=3))
        sim.run()
        assert ch.metrics.drops["no_link"] == 1

    def test_scalar_fanout_in_range_no_drop(self):
        sim, net, ch = _setup(channel_cls=ScalarChannel)
        got = []
        net.nodes[1].handler = got.append
        ch.send(0, _data(0, dst=1))
        sim.run()
        assert len(got) == 1
        assert ch.metrics.drops.get("no_link", 0) == 0


class TestEnergy:
    def test_tx_and_rx_charged(self):
        sim, net, ch = _setup()
        net.nodes[2].handler = lambda p: None
        pkt = _data(1, dst=2)
        bits = pkt.size_bits()
        ch.send(1, pkt)
        sim.run()
        assert net.nodes[1].energy.spent_tx == pytest.approx(
            ch.energy_model.tx_cost(bits, ch.config.comm_range)
        )
        assert net.nodes[2].energy.spent_rx == pytest.approx(
            ch.energy_model.rx_cost(bits)
        )

    def test_broadcast_charges_all_receivers(self):
        sim, net, ch = _setup()
        ch.send(1, _data(1, dst=None))
        sim.run()
        assert net.nodes[0].energy.spent_rx > 0
        assert net.nodes[2].energy.spent_rx > 0

    def test_death_by_energy_recorded(self):
        sensors = np.array([[0.0, 0.0], [10.0, 0.0]])
        net = build_sensor_network(sensors, np.array([[20.0, 0.0]]),
                                   comm_range=12.0, sensor_battery=1e-9)
        sim = Simulator(seed=1)
        ch = Channel(sim, net, IEEE802154.ideal(), metrics=MetricsCollector())
        ch.send(0, _data(0, dst=1))
        sim.run()
        assert ch.metrics.first_death is not None
        assert ch.metrics.first_death[0] == 0


class TestLossAndCollisions:
    def test_loss_rate_drops_packets(self):
        sim, net, ch = _setup(loss=1.0)
        got = []
        net.nodes[2].handler = got.append
        ch.send(1, _data(1, dst=2))
        sim.run()
        assert not got
        assert ch.metrics.drops["loss"] == 1

    def test_statistical_loss(self):
        # With 30% loss, out of 200 frames roughly 140 arrive.
        sim, net, ch = _setup(loss=0.3, seed=7)
        got = []
        net.nodes[2].handler = lambda p: got.append(p)
        for k in range(200):
            sim.schedule(k * 0.01, ch.send, 1, _data(1, dst=2))
        sim.run()
        assert 110 < len(got) < 170

    def test_simultaneous_frames_collide(self):
        # 0 and 2 both transmit to 1 at the same instant without CSMA.
        sim, net, ch = _setup(collisions=True, csma=False)
        got = []
        net.nodes[1].handler = got.append
        ch.send(0, _data(0, dst=1))
        ch.send(2, _data(2, dst=1))
        sim.run()
        assert got == []
        assert ch.metrics.drops["collision"] == 2

    def test_csma_defers_and_avoids_collision(self):
        sim, net, ch = _setup(collisions=True, csma=True)
        got = []
        net.nodes[1].handler = got.append
        ch.send(0, _data(0, dst=1))
        ch.send(2, _data(2, dst=1))
        sim.run()
        # carrier sensing serialises the two frames; hidden-terminal only
        # when senders cannot hear each other (here 0 and 2 are 20m apart,
        # range 12 -> hidden!), so allow either outcome but no crash.
        assert len(got) + ch.metrics.drops["collision"] == 2

    def test_csma_serialises_same_sender(self):
        sim, net, ch = _setup(collisions=True, csma=True)
        got = []
        net.nodes[2].handler = got.append
        ch.send(1, _data(1, dst=2))
        ch.send(1, _data(1, dst=2))
        sim.run()
        assert len(got) == 2  # own frames never overlap


class TestArq:
    def test_retries_recover_losses(self):
        # 50% loss, 3 retries: per-frame success 1 - 0.5^4 = 93.75%.
        sim, net, ch = _setup(loss=0.5, seed=11, arq=3)
        got = []
        net.nodes[2].handler = lambda p: got.append(p)
        for k in range(100):
            sim.schedule(k * 0.05, ch.send, 1, _data(1, dst=2))
        sim.run()
        assert len(got) > 80
        assert ch.metrics.drops["loss"] > 0  # retries happened

    def test_exhausted_retries_counted(self):
        sim, net, ch = _setup(loss=1.0, seed=2, arq=2)
        got = []
        net.nodes[2].handler = lambda p: got.append(p)
        ch.send(1, _data(1, dst=2))
        sim.run()
        assert not got
        assert ch.metrics.drops["arq_exhausted"] == 1
        assert ch.metrics.drops["loss"] == 3  # initial + 2 retries

    def test_broadcast_never_retried(self):
        sim, net, ch = _setup(loss=1.0, seed=3, arq=3)
        ch.send(1, _data(1, dst=None))
        sim.run()
        assert ch.metrics.drops.get("arq_exhausted", 0) == 0
        # one loss draw per intended receiver, no retransmissions
        assert ch.metrics.drops["loss"] == 2

    def test_collision_triggers_retry(self):
        # 0 and 2 are hidden terminals; the wide backoff window makes the
        # retransmissions (airtime ~1.1 ms inside a 50 ms window) almost
        # surely disjoint.
        sim, net, ch = _setup(collisions=True, csma=False, arq=3, seed=5, backoff=50e-3)
        got = []
        net.nodes[1].handler = lambda p: got.append(p)
        ch.send(0, _data(0, dst=1))
        ch.send(2, _data(2, dst=1))
        sim.run()
        assert len(got) == 2
        assert ch.metrics.drops["collision"] >= 2


class TestRadioConfig:
    def test_presets(self):
        assert IEEE80211.bitrate > IEEE802154.bitrate
        assert IEEE80211.comm_range > IEEE802154.comm_range

    def test_ideal_strips_imperfections(self):
        ideal = IEEE802154.ideal()
        assert ideal.loss_rate == 0.0
        assert not ideal.collisions and not ideal.csma

    def test_airtime(self):
        assert IEEE802154.airtime(250_000) == pytest.approx(1.0)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            RadioConfig(name="x", bitrate=0, comm_range=10)
        with pytest.raises(ConfigurationError):
            RadioConfig(name="x", bitrate=1, comm_range=10, loss_rate=1.5)
