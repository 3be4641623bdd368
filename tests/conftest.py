"""Shared fixtures: small deterministic topologies used across the suite."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.network import build_sensor_network, grid_deployment
from repro.world import WorldBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ pins from the current tree",
    )


@pytest.fixture
def sim():
    return Simulator(seed=123)


@pytest.fixture
def line_network():
    """Five sensors in a line, gateway at the far end.

    Topology:  s0 - s1 - s2 - s3 - s4 - G   (spacing 10, range 12)
    so the only route from s0 is the 5-hop chain.
    """
    sensors = np.array([[float(10 * i), 0.0] for i in range(5)])
    gateway = np.array([[50.0, 0.0]])
    return build_sensor_network(sensors, gateway, comm_range=12.0)


@pytest.fixture
def line_setup(sim, line_network):
    world = WorldBuilder().simulator(sim).network(line_network).ideal_radio().build()
    return sim, line_network, world.channel


@pytest.fixture
def grid_network():
    """A 5x5 sensor grid with gateways at two opposite corners."""
    sensors = grid_deployment(5, 5, spacing=10.0)
    gateways = np.array([[-10.0, 0.0], [50.0, 40.0]])
    return build_sensor_network(sensors, gateways, comm_range=14.5)


@pytest.fixture
def grid_setup(sim, grid_network):
    world = WorldBuilder().simulator(sim).network(grid_network).ideal_radio().build()
    return sim, grid_network, world.channel
