"""Topology control by sleep scheduling (Section 4.4).

The paper names two topology-control families — power control and sleep
scheduling — and defers both to future work.  This module implements the
sleep-scheduling half in the GAF style the paper cites ([26], Section
2.2.3): the field is partitioned into *virtual grid cells* small enough
that any node in one cell can talk to any node in every 4-adjacent cell;
then one *coordinator* per cell suffices for routing, and everyone else
can sleep with the radio off.

Cell side: nodes at opposite far corners of 4-adjacent cells are at most
``sqrt(r^2) = r`` apart when the side is ``r / sqrt(5)`` (GAF's bound),
so connectivity of the coordinator subgraph mirrors connectivity of the
full graph.

Coordinators rotate by **residual energy** each epoch — the node with the
most battery left serves, which is the balanced-energy-use principle of
eq. (1) applied to duty cycling.

Usage::

    scheduler = SleepScheduler(network)
    scheduler.apply_epoch()     # picks coordinators, sleeps the rest
    ...run a round of traffic (senders are woken automatically by wake())
    scheduler.apply_epoch()     # rotate

Sleeping nodes neither transmit nor receive (``NodeView.alive`` is False); a
node with data of its own is woken by :meth:`SleepScheduler.wake_to_send`
and resumes sleeping at the next epoch boundary.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.network import Network

__all__ = ["SleepScheduler"]


class SleepScheduler:
    """GAF-style virtual-grid duty cycling over a sensor network."""

    def __init__(self, network: Network, cell_side: Optional[float] = None) -> None:
        self.network = network
        side = cell_side if cell_side is not None else network.comm_range / math.sqrt(5.0)
        if side <= 0:
            raise ConfigurationError("cell side must be positive")
        self.cell_side = side
        self._cells: dict[tuple[int, int], list[int]] = defaultdict(list)
        sensor_ids = network.sensor_ids
        if sensor_ids:
            # One vectorised floor-divide instead of a per-node cell_of()
            # round trip through the position array.
            cells = np.floor(network.positions[sensor_ids] / side).astype(np.int64)
            for s, key in zip(sensor_ids, map(tuple, cells.tolist())):
                self._cells[key].append(s)
        self.epoch = -1
        self.coordinators: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def cell_of(self, node_id: int) -> tuple[int, int]:
        """Virtual grid cell coordinates of a node."""
        x, y = self.network.positions[node_id]
        return (int(math.floor(x / self.cell_side)), int(math.floor(y / self.cell_side)))

    def cell_members(self, cell: tuple[int, int]) -> list[int]:
        """Sensors deployed in ``cell`` (dead ones included)."""
        return list(self._cells.get(cell, []))

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    # ------------------------------------------------------------------
    def apply_epoch(self) -> dict[tuple[int, int], int]:
        """Start a new epoch: elect coordinators, sleep everyone else.

        The member with the largest residual energy coordinates (ties
        break on node id for determinism); nodes that died stay dead.
        Returns the coordinator map.
        """
        self.epoch += 1
        self.coordinators = {}
        for cell, members in self._cells.items():
            candidates = [
                s for s in members
                if self.network.nodes[s].energy.alive and not self.network.nodes[s].failed
            ]
            if not candidates:
                continue
            coordinator = max(
                candidates,
                key=lambda s: (self.network.nodes[s].energy.remaining, -s),
            )
            self.coordinators[cell] = coordinator
            for s in candidates:
                self.network.nodes[s].sleeping = s != coordinator
        return dict(self.coordinators)

    def wake_all(self) -> None:
        """End duty cycling: wake every sleeping sensor."""
        for members in self._cells.values():
            for s in members:
                self.network.nodes[s].sleeping = False

    def wake_to_send(self, node_id: int) -> None:
        """Wake a sleeping node that has its own datum to report.

        The node stays awake until the next :meth:`apply_epoch` (it needs
        to hear the route response and any link-layer traffic).
        """
        self.network.nodes[node_id].sleeping = False

    # ------------------------------------------------------------------
    def awake_sensors(self) -> list[int]:
        return [s for s in self.network.sensor_ids if self.network.nodes[s].alive]

    def sleeping_sensors(self) -> list[int]:
        return [s for s in self.network.sensor_ids if self.network.nodes[s].sleeping]

    def duty_cycle(self) -> float:
        """Fraction of living sensors currently awake."""
        living = [
            s for s in self.network.sensor_ids
            if self.network.nodes[s].energy.alive and not self.network.nodes[s].failed
        ]
        if not living:
            return 0.0
        awake = sum(1 for s in living if not self.network.nodes[s].sleeping)
        return awake / len(living)

    def coordinator_backbone_connected(self) -> bool:
        """Whether every coordinator can reach a gateway through awake nodes."""
        hops = self.network.hops_to(self.network.gateway_ids)
        return all(c in hops for c in self.coordinators.values())
