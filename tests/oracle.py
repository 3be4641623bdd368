"""Reference semantics the production fast paths are tested against.

``src/`` runs one execution path: the struct-of-arrays node store, the
incremental cell-grid index, batched broadcast draining and NumPy-batched
per-event fan-out.  This module keeps the simple versions of the same
physics, for the equivalence suites and the benchmark digest gates only:

* :class:`ScalarChannel` — a :class:`~repro.sim.radio.Channel` whose every
  fan-out is a per-receiver Python loop with one engine event per
  reception (no batched draining, no NumPy fan-out math);
* :func:`dense_neighbor_rows` — neighbor rows from the full ``n × n``
  distance matrix;
* :func:`dense_graph` / :func:`nx_hops` — a networkx graph built from
  scratch out of those rows, and networkx multi-source hop counts on it;
* :class:`DenseNetwork` — a :class:`~repro.sim.network.Network` whose
  rows come from :func:`dense_neighbor_rows`, for whole simulations on
  a static field.

Production must be bit-identical to these: same neighbor arrays, same
RNG streams, same schedules, same metrics.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import networkx as nx
import numpy as np

from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.radio import _SPEED_OF_LIGHT, Channel
from repro.world import World, WorldBuilder


class ScalarChannel(Channel):
    """The per-receiver scalar fan-out with per-event delivery.

    Both production fan-outs route here, so every reception is its own
    engine event delivered through :meth:`Channel._deliver`; the loop
    consumes the sender's RNG stream in neighbor order, one draw (or one
    burst-chain pair) per intended receiver.
    """

    def _fanout_batched(
        self, sender: int, packet: Packet,
        neighbors: np.ndarray, start: float, end: float,
    ) -> None:
        self._fanout_scalar(sender, packet, 0, neighbors, start, end)

    def _fanout_vectorized(
        self, sender: int, packet: Packet, attempt: int,
        neighbors: np.ndarray, start: float, end: float,
    ) -> None:
        self._fanout_scalar(sender, packet, attempt, neighbors, start, end)

    def _fanout_scalar(
        self, sender: int, packet: Packet, attempt: int,
        neighbors: np.ndarray, start: float, end: float,
    ) -> None:
        rng = None
        found_dst = packet.dst is None
        burst_lost = None
        if self.config.burst is not None:
            # Nothing else draws from the sender's stream inside the loop,
            # so pre-drawing the chain for the intended receivers equals
            # interleaved per-receiver draws.
            intended_ids = [
                int(nb) for nb in neighbors if packet.dst is None or packet.dst == nb
            ]
            burst_lost = iter(self._burst_losses(sender, intended_ids))
        elif self.config.loss_rate > 0.0:
            rng = self.sim.node_rng(sender)
        for nb in neighbors:
            intended = packet.dst is None or packet.dst == nb
            if intended:
                found_dst = True
            prop = self.network.distance(sender, nb) / _SPEED_OF_LIGHT
            arrive = end + prop
            if burst_lost is not None:
                lost = intended and next(burst_lost)
            else:
                lost = intended and rng is not None and rng.random() < self.config.loss_rate
            if lost:
                self.metrics.on_drop("loss")
                if self._medium_observed:
                    self.medium.register_reception(
                        nb, start + prop, arrive, packet, sender, False, self.config.collisions
                    )
                if packet.dst is not None:
                    self.sim.schedule(
                        arrive - self.sim.now, self._maybe_retry, sender, packet, attempt
                    )
                continue
            rec = self.medium.register_reception(
                nb, start + prop, arrive, packet, sender, intended, self.config.collisions
            )
            if intended:
                self.sim.schedule(arrive - self.sim.now, self._deliver, nb, rec, sender, attempt)
        if not found_dst:
            self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)


def oracle_world(builder: WorldBuilder) -> World:
    """``builder.build()`` with its channel running :class:`ScalarChannel`.

    The swap happens before any traffic is scheduled; the subclass adds no
    state, so the built channel simply changes behaviour.
    """
    world = builder.build()
    world.channel.__class__ = ScalarChannel
    return world


def dense_neighbor_rows(positions: np.ndarray, comm_range: float) -> list[np.ndarray]:
    """Sorted neighbor ids per node from the full pairwise distance matrix."""
    pos = np.asarray(positions, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    within = d2 <= comm_range * comm_range
    np.fill_diagonal(within, False)
    return [np.nonzero(row)[0] for row in within]


def dense_graph(
    rows: Sequence[np.ndarray], alive: Optional[Sequence[bool]] = None
) -> nx.Graph:
    """The one-hop link graph of ``rows``; nodes not ``alive`` are left out."""
    keep = [i for i in range(len(rows)) if alive is None or alive[i]]
    members = set(keep)
    g = nx.Graph()
    g.add_nodes_from(keep)
    g.add_edges_from((i, int(j)) for i in keep for j in rows[i] if int(j) in members)
    return g


def nx_hops(graph: nx.Graph, targets: Iterable[int]) -> dict[int, int]:
    """Hop count from every node of ``graph`` that reaches a target in it."""
    valid = {int(t) for t in targets if int(t) in graph}
    if not valid:
        return {}
    return dict(nx.multi_source_dijkstra_path_length(graph, valid, weight=None))


class DenseNetwork(Network):
    """A :class:`Network` on dense neighbor rows (static fields: no moves)."""

    def _build_neighbor_cache(self) -> list[np.ndarray]:
        return dense_neighbor_rows(self.positions, self.comm_range)
