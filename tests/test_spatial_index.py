"""Equivalence suite: incremental grid spatial index vs the dense oracle.

The grid index in :class:`~repro.sim.network.Network` must be
*indistinguishable* from a dense rebuild (``tests/oracle.py``) on every
observable: neighbor arrays (values, order, dtype-insensitive), link
graphs after moves/deaths/recoveries, CSR multi-source-BFS hop counts vs
networkx, and — because neighbor iteration order feeds the channel's RNG
draws — whole simulations must be bit-identical on either row source.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.sim.network import Network, build_sensor_network, uniform_deployment
from repro.sim.node import NodeKind
from repro.sim.spatial import CellGrid
from repro.world import WorldBuilder
from tests.oracle import (
    DenseNetwork,
    dense_graph,
    dense_neighbor_rows,
    nx_hops,
    oracle_world,
)

COMM_RANGE = 30.0
FIELD = 100.0


def _kinds(n):
    return [NodeKind.SENSOR] * (n - 1) + [NodeKind.GATEWAY]


def _grid(pos, comm_range=COMM_RANGE):
    return Network(pos, _kinds(len(pos)), comm_range=comm_range)


def _positions(n, seed, field=FIELD):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, field, size=(n, 2))


def assert_same_neighbors(grid_net, positions=None):
    """Grid rows equal the dense rows of ``positions`` (default: its own)."""
    pos = grid_net.positions if positions is None else positions
    dense = dense_neighbor_rows(pos, grid_net.comm_range)
    assert len(grid_net) == len(dense)
    for i, want in enumerate(dense):
        got = grid_net.neighbors(i)
        assert np.array_equal(got, want), f"node {i}: grid {got} != dense {want}"


def _alive(net):
    return [node.alive for node in net.nodes]


def _dense_graph(pos, alive=None):
    return dense_graph(dense_neighbor_rows(pos, COMM_RANGE), alive)


# ----------------------------------------------------------------------
# neighbor-set equivalence
# ----------------------------------------------------------------------
class TestNeighborEquivalence:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_match_bruteforce(self, n, seed):
        assert_same_neighbors(_grid(_positions(n, seed)))

    def test_exact_comm_range_is_a_link(self):
        # d == comm_range must be an edge under both row sources (closed ball).
        pos = np.array([[0.0, 0.0], [COMM_RANGE, 0.0], [2 * COMM_RANGE + 0.001, 0.0]])
        grid_net = _grid(pos)
        assert list(grid_net.neighbors(0)) == [1]
        assert_same_neighbors(grid_net)

    def test_nodes_on_cell_boundaries(self):
        # Coordinates at exact multiples of the cell side (== comm_range)
        # land on bucket boundaries; negative coordinates exercise floor
        # semantics below zero.
        r = COMM_RANGE
        pos = np.array([
            [0.0, 0.0], [r, 0.0], [2 * r, 0.0], [0.0, r], [r, r],
            [-r, 0.0], [-r, -r], [0.0, -r], [r / 2, r / 2],
        ])
        assert_same_neighbors(_grid(pos))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_quantized_positions(self, seed):
        # Positions snapped to multiples of comm_range/2 pile nodes onto
        # cell borders and at distances exactly equal to the range.
        rng = np.random.default_rng(seed)
        pos = rng.integers(-3, 4, size=(25, 2)).astype(float) * (COMM_RANGE / 2)
        assert_same_neighbors(_grid(pos))

    def test_grid_rejects_radius_beyond_cell(self):
        grid = CellGrid(np.zeros((2, 2)), cell_size=10.0)
        with pytest.raises(ConfigurationError):
            grid.neighbors_within(0, 10.5)


# ----------------------------------------------------------------------
# incremental moves
# ----------------------------------------------------------------------
class TestIncrementalMoves:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_move_sequence_matches_fresh_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(30, seed)
        grid_net = _grid(pos)
        grid_net.neighbors(0)  # force the incremental path, not a rebuild
        for _ in range(8):
            mover = int(rng.integers(len(pos)))
            target = rng.uniform(-20, FIELD + 20, size=2)
            grid_net.move_node(mover, target)
            pos[mover] = target
            assert_same_neighbors(grid_net, pos)

    def test_move_round_trip_restores_rows(self):
        pos = _positions(25, seed=3)
        grid_net = _grid(pos)
        before = [grid_net.neighbors(i).copy() for i in range(len(grid_net))]
        home = pos[24].copy()
        for step in ([5.0, 5.0], [95.0, 95.0], [-10.0, 50.0], home):
            grid_net.move_node(24, step)
        for i, row in enumerate(before):
            assert np.array_equal(grid_net.neighbors(i), row)

    def test_noop_move_keeps_edge_epoch(self):
        grid_net = _grid(_positions(20, seed=1))
        grid_net.neighbors(0)
        epoch = grid_net.topology_epoch
        # A tiny jiggle that changes no neighbor set must not invalidate
        # CSR/graph caches (the epoch is the validity stamp).
        grid_net.move_node(0, grid_net.positions[0] + 1e-9)
        assert grid_net.topology_epoch == epoch

    def test_move_before_first_query_builds_lazily(self):
        pos = _positions(15, seed=2)
        grid_net = _grid(pos)
        grid_net.move_node(3, [0.0, 0.0])  # no cache yet: nothing to patch
        pos[3] = [0.0, 0.0]
        assert_same_neighbors(grid_net, pos)

    def test_invalidate_escape_hatch(self):
        grid_net = _grid(_positions(15, seed=4))
        grid_net.neighbors(0)
        grid_net.positions[:] = _positions(15, seed=5)  # wholesale rewrite
        grid_net.invalidate()
        assert_same_neighbors(grid_net, _positions(15, seed=5))


# ----------------------------------------------------------------------
# the link graph under moves and deaths
# ----------------------------------------------------------------------
def _graph_signature(g):
    return (set(g.nodes), {frozenset(e) for e in g.edges})


class TestGraphPatching:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_patched_graph_equals_rebuilt(self, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(30, seed)
        grid_net = _grid(pos)
        for _ in range(6):
            action = rng.integers(3)
            node = int(rng.integers(len(pos)))
            if action == 0:
                target = rng.uniform(0, FIELD, size=2)
                grid_net.move_node(node, target)
                pos[node] = target
            elif action == 1:
                grid_net.nodes[node].fail()
            else:
                grid_net.nodes[node].recover()
            assert _graph_signature(grid_net.graph()) == _graph_signature(
                _dense_graph(pos, _alive(grid_net))
            )
            assert _graph_signature(grid_net.graph(alive_only=False)) == _graph_signature(
                _dense_graph(pos)
            )

    def test_patched_graph_is_same_object(self, line_network):
        line_network.graph()
        gw = line_network.gateway_ids[0]
        line_network.move_node(gw, (0.0, 10.0))
        g2 = line_network.graph()
        assert g2.has_edge(0, gw) and not g2.has_edge(4, gw)

    def test_death_patches_alive_graph(self, line_network):
        line_network.graph()
        line_network.nodes[2].fail()
        assert 2 not in line_network.graph()
        line_network.nodes[2].recover()
        assert sorted(line_network.graph()[2]) == [1, 3]

    def test_sleep_counts_as_not_alive(self, line_network):
        line_network.graph()
        line_network.nodes[1].sleeping = True
        assert 1 not in line_network.graph()
        line_network.nodes[1].sleeping = False
        assert 1 in line_network.graph()

    def test_battery_death_updates_mask(self):
        net = build_sensor_network(
            np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([[20.0, 0.0]]),
            comm_range=12.0, sensor_battery=1.0,
        )
        net.graph()
        assert bool(net.alive_mask[0])
        net.nodes[0].energy.charge_tx(2.0, now=1.0)
        assert not bool(net.alive_mask[0])
        assert 0 not in net.graph()


# ----------------------------------------------------------------------
# hops_to: CSR BFS vs networkx
# ----------------------------------------------------------------------
class TestHopsEquivalence:
    @given(st.integers(min_value=5, max_value=50), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_hops_match_networkx(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(n, seed)
        grid_net = _grid(pos)
        kills = rng.choice(n, size=min(3, n - 1), replace=False)
        for k in kills:
            grid_net.nodes[int(k)].fail()
        targets = grid_net.gateway_ids + [int(kills[0])]
        alive_graph = _dense_graph(pos, _alive(grid_net))
        assert grid_net.hops_to(targets) == nx_hops(alive_graph, targets)
        assert grid_net.hops_to(targets, alive_only=False) == nx_hops(
            _dense_graph(pos), targets
        )

    def test_hops_after_moves(self, line_network):
        gw = line_network.gateway_ids[0]
        line_network.hops_to([gw])
        for target in ([0.0, 10.0], [25.0, 5.0], [50.0, 0.0]):
            line_network.move_node(gw, target)
            rows = dense_neighbor_rows(line_network.positions, line_network.comm_range)
            assert line_network.hops_to([gw]) == nx_hops(dense_graph(rows), [gw])

    def test_empty_and_invalid_targets(self, line_network):
        assert line_network.hops_to([]) == {}
        assert line_network.hops_to([99, -1]) == {}
        line_network.nodes[5].fail()
        assert line_network.hops_to([5]) == {}  # dead target filtered
        assert 5 in line_network.hops_to([5], alive_only=False)

    def test_collection_connectivity_matches(self):
        pos = _positions(40, seed=11)
        grid_net = _grid(pos)
        hops = nx_hops(_dense_graph(pos), grid_net.gateway_ids)
        assert grid_net.is_collection_connected() == all(
            s in hops for s in grid_net.sensor_ids
        )


# ----------------------------------------------------------------------
# alive_neighbors vectorisation
# ----------------------------------------------------------------------
class TestAliveNeighbors:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_python_filter(self, seed):
        rng = np.random.default_rng(seed)
        net = _grid(_positions(30, seed))
        for k in rng.choice(30, size=5, replace=False):
            net.nodes[int(k)].fail()
        for i in range(30):
            expected = [int(j) for j in net.neighbors(i) if net.nodes[int(j)].alive]
            assert list(net.alive_neighbors(i)) == expected


# ----------------------------------------------------------------------
# whole-simulation determinism across indexes
# ----------------------------------------------------------------------
class TestSimulationEquivalence:
    @pytest.mark.parametrize("scalar_channel", [True, False])
    def test_flood_bit_identical_across_indexes(self, scalar_channel):
        """Grid rows vs dense rows under a flood; ``scalar_channel`` also
        runs the dense world on the oracle's per-receiver fan-out."""
        pos = np.vstack([uniform_deployment(80, 150.0, seed=13), [[75.0, 75.0]]])

        def run(dense):
            network_cls = DenseNetwork if dense else Network
            net = network_cls(pos, _kinds(len(pos)), comm_range=COMM_RANGE)
            builder = WorldBuilder().seed(7).network(net).ideal_radio()
            world = oracle_world(builder) if dense and scalar_channel else builder.build()
            spr = world.attach(SPR, ProtocolConfig(table_answering=False))
            for k in range(4):
                world.sim.schedule(0.5 * k, spr.send_data, k)
            world.sim.run()
            m = world.metrics
            return (
                world.events_processed,
                int(sum(m.sent.values())),
                int(sum(m.received.values())),
                dict(m.drops),
            )

        assert run(dense=False) == run(dense=True)
