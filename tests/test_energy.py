"""Unit tests for the first-order radio energy model and battery accounting."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.energy import EnergyModel
from repro.sim.node import NodeKind
from repro.sim.state import NodeStateStore


def _account(capacity):
    """One sensor row's battery account in a fresh store."""
    return NodeStateStore([NodeKind.SENSOR], [capacity]).energy_view(0)


class TestEnergyModel:
    def test_crossover_distance(self):
        m = EnergyModel()
        d0 = m.crossover_distance
        assert d0 == pytest.approx(math.sqrt(10e-12 / 0.0013e-12))
        # cost is continuous at the crossover
        below = m.tx_cost(1000, d0 - 1e-9)
        above = m.tx_cost(1000, d0 + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)

    def test_free_space_quadratic(self):
        m = EnergyModel()
        base = m.tx_cost(1000, 10) - m.rx_cost(1000)
        quad = m.tx_cost(1000, 20) - m.rx_cost(1000)
        assert quad == pytest.approx(4 * base, rel=1e-9)

    def test_multipath_quartic(self):
        m = EnergyModel()
        e100 = m.tx_cost(1000, 100) - 1000 * m.e_elec
        e200 = m.tx_cost(1000, 200) - 1000 * m.e_elec
        assert e200 == pytest.approx(16 * e100, rel=1e-9)

    def test_rx_cost_linear_in_bits(self):
        m = EnergyModel()
        assert m.rx_cost(2000) == pytest.approx(2 * m.rx_cost(1000))

    def test_tx_cost_zero_bits(self):
        assert EnergyModel().tx_cost(0, 100) == 0.0

    def test_negative_inputs_rejected(self):
        m = EnergyModel()
        with pytest.raises(ConfigurationError):
            m.tx_cost(-1, 10)
        with pytest.raises(ConfigurationError):
            m.tx_cost(10, -1)
        with pytest.raises(ConfigurationError):
            m.rx_cost(-5)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(e_elec=-1e-9)


class TestEnergyAccount:
    def test_initial_state(self):
        acc = _account(1.0)
        assert acc.alive and acc.remaining == 1.0 and acc.spent == 0.0

    def test_charging_accumulates_by_category(self):
        acc = _account(1.0)
        acc.charge_tx(0.1, now=1.0)
        acc.charge_rx(0.2, now=2.0)
        acc.charge_idle(0.05, now=3.0)
        assert acc.spent_tx == pytest.approx(0.1)
        assert acc.spent_rx == pytest.approx(0.2)
        assert acc.spent_idle == pytest.approx(0.05)
        assert acc.spent == pytest.approx(0.35)
        assert acc.remaining == pytest.approx(0.65)

    def test_death_records_time(self):
        acc = _account(0.1)
        acc.charge_tx(0.05, now=1.0)
        assert acc.alive
        acc.charge_tx(0.06, now=2.5)
        assert not acc.alive
        assert acc.died_at == 2.5
        assert acc.remaining == 0.0

    def test_dead_node_rejects_charges(self):
        acc = _account(0.01)
        acc.charge_tx(0.02, now=1.0)
        assert acc.charge_rx(0.01, now=2.0) is False
        assert acc.spent_rx == 0.0

    def test_infinite_capacity_never_dies(self):
        acc = _account(math.inf)
        acc.charge_tx(1e9, now=1.0)
        assert acc.alive
        assert acc.spent_tx == 1e9

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            _account(-1.0)
