"""Topology container and deployment generators.

A :class:`Network` owns node positions (NumPy arrays, so neighbor sets are
computed with vectorised distance math — the one genuinely hot path in the
substrate), the per-node state store (``nodes`` are
:class:`~repro.sim.state.NodeView` rows over a
:class:`~repro.sim.state.NodeStateStore`), and the symmetric one-hop link
relation of the paper's network model (Section 5.1):

    ``G(V, E)`` with ``V = V_S ∪ V_G`` and an edge wherever two nodes can
    immediately communicate — here, wherever their distance is at most the
    communication range.

Gateways may move between rounds (Section 5.1: sensors static, gateways
discretely mobile).  A :class:`~repro.sim.spatial.CellGrid` with
``comm_range``-sized cells maintains the neighbor relation under such
moves.  ``move_node`` is *incremental*: only the moved node's row and the
affected reverse rows are touched, the cached ``networkx`` graph is
edge-patched in place, and a topology epoch is bumped — O(k) per move
instead of an O(n²) rebuild.  ``hops_to`` runs multi-source BFS over a
cached CSR adjacency (:mod:`scipy.sparse.csgraph`), revalidated by
(epoch, alive-version) instead of rebuilt per query.  The dense-matrix
and networkx reference these are tested against lives in
``tests/oracle.py``.

Node liveness (battery death, injected failures, sleep scheduling) is the
store's maintained ``alive`` column; per-node listeners bump the alive
version and patch the cached graphs on every flip — no per-query Python
scan over ``self.nodes``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.exceptions import ConfigurationError, TopologyError
from repro.sim.node import NodeKind
from repro.sim.spatial import CellGrid
from repro.sim.state import NodeStateStore

__all__ = [
    "Network",
    "uniform_deployment",
    "grid_deployment",
    "build_sensor_network",
]


class Network:
    """Positions, nodes and the one-hop neighbor relation.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates in meters.
    kinds:
        Node kind per row of ``positions``.
    comm_range:
        Symmetric communication range defining one-hop links.
    sensor_battery:
        Initial battery (J) of each SENSOR node; ``math.inf`` gives the
        idealised unlimited-energy setting used by the worked examples.
        Non-sensor kinds are always mains powered.
    """

    def __init__(
        self,
        positions: np.ndarray,
        kinds: Sequence[NodeKind],
        comm_range: float = 40.0,
        sensor_battery: float = math.inf,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (n, 2) array")
        if len(kinds) != len(positions):
            raise ConfigurationError("kinds and positions must have equal length")
        if comm_range <= 0:
            raise ConfigurationError("comm_range must be positive")

        self.positions = positions.copy()
        self.comm_range = float(comm_range)
        capacities = [
            sensor_battery if kind is NodeKind.SENSOR else math.inf for kind in kinds
        ]
        #: the struct-of-arrays state core behind ``nodes``
        self.store = NodeStateStore(kinds, capacities)
        self.nodes = [self.store.node_view(i) for i in range(len(kinds))]

        self._neighbor_cache: Optional[list[np.ndarray]] = None
        self._grid: Optional[CellGrid] = None
        # graph() cache: alive_only -> (alive version at build, graph),
        # patched in place on moves/deaths.
        self._graph_cache: dict[bool, tuple[int, nx.Graph]] = {}
        # hops_to() cache: alive_only -> (edge epoch, alive version, CSR).
        self._csr_cache: dict[bool, tuple[int, int, csr_matrix]] = {}
        # alive_neighbors() cache: node -> filtered ndarray, stamped by
        # the (edge epoch, alive version) pair it was computed under.
        self._alive_nbr_cache: dict[int, np.ndarray] = {}
        self._alive_nbr_stamp: tuple[int, int] = (-1, -1)

        #: bumped whenever the edge set may have changed (moves, full
        #: invalidation); alive transitions bump ``_alive_version`` instead.
        self._edge_epoch = 0
        self._alive_version = 0
        # The store notifies the network on every alive-flag transition
        # (battery death, fail/recover, sleep/wake), so liveness-derived
        # caches are patched or dropped exactly when they go stale.
        for i in range(len(self.nodes)):
            self.store.bind_alive_listener(i, self._on_alive_change)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def sensor_ids(self) -> list[int]:
        """Ids of all SENSOR nodes."""
        return [n.node_id for n in self.nodes if n.kind is NodeKind.SENSOR]

    @property
    def gateway_ids(self) -> list[int]:
        """Ids of all GATEWAY (WMG) nodes."""
        return [n.node_id for n in self.nodes if n.kind is NodeKind.GATEWAY]

    @property
    def topology_epoch(self) -> tuple[int, int]:
        """(edge epoch, alive version) — changes iff the link graph may have."""
        return (self._edge_epoch, self._alive_version)

    @property
    def alive_mask(self) -> np.ndarray:
        """The store's maintained per-node liveness column.  Treat as read-only."""
        return self.store.alive

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between nodes ``i`` and ``j`` in meters."""
        d = self.positions[i] - self.positions[j]
        return float(math.hypot(d[0], d[1]))

    def nodes_in_region(self, center: Sequence[float], radius: float) -> list[int]:
        """Ids of all nodes within ``radius`` meters of ``center``.

        One vectorised distance pass over the position array — used by
        region-outage fault events, which must resolve their victim set
        at outage time (gateways may have moved since the plan was
        written).
        """
        if radius < 0:
            raise ConfigurationError("radius must be non-negative")
        c = np.asarray(center, dtype=float)
        diff = self.positions - c
        within = np.hypot(diff[:, 0], diff[:, 1]) <= radius
        return [int(i) for i in np.nonzero(within)[0]]

    def distances_from(self, i: int, ids: np.ndarray) -> np.ndarray:
        """Distances from node ``i`` to every node in ``ids``, vectorised.

        The radio fan-out hot path computes one propagation delay per
        neighbor per frame; batching the distance math here keeps that a
        single NumPy pass instead of ``len(ids)`` Python-level calls.
        """
        diff = self.positions[ids] - self.positions[i]
        return np.hypot(diff[:, 0], diff[:, 1])

    # ------------------------------------------------------------------
    # neighbor sets (vectorised, cached)
    # ------------------------------------------------------------------
    def _build_neighbor_cache(self) -> list[np.ndarray]:
        self._grid = CellGrid(self.positions, self.comm_range)
        return self._grid.neighbor_rows(self.comm_range)

    def neighbors(self, i: int) -> np.ndarray:
        """Ids within communication range of node ``i`` (excluding ``i``)."""
        if self._neighbor_cache is None:
            self._neighbor_cache = self._build_neighbor_cache()
        return self._neighbor_cache[i]

    def alive_neighbors(self, i: int) -> np.ndarray:
        """Neighbor ids that are currently alive, as a cached ndarray.

        Vectorised mask lookup over the maintained alive array; entries
        are cached per node and stamped with the topology epoch, so
        repeated queries between topology changes are dictionary hits.
        """
        stamp = (self._edge_epoch, self._alive_version)
        if stamp != self._alive_nbr_stamp:
            self._alive_nbr_cache.clear()
            self._alive_nbr_stamp = stamp
        out = self._alive_nbr_cache.get(i)
        if out is None:
            nbrs = self.neighbors(i)
            out = nbrs[self.store.alive[nbrs]]
            self._alive_nbr_cache[i] = out
        return out

    def invalidate(self) -> None:
        """Drop every topology cache after a wholesale change.

        Single-node moves never need this (``move_node`` patches in
        place); it remains the escape hatch for callers that rewrite
        ``positions`` directly.
        """
        self._neighbor_cache = None
        self._grid = None
        self._graph_cache.clear()
        self._csr_cache.clear()
        self._alive_nbr_cache.clear()
        self._edge_epoch += 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def move_node(self, node_id: int, pos: Iterable[float]) -> None:
        """Relocate a node (gateway mobility).

        Incremental: only node ``node_id``'s neighbor row and the affected
        reverse rows (old minus new, new minus old) are updated, cached
        graphs are edge-patched around the node, and the epoch is bumped
        only when the edge set actually changed.
        """
        if not 0 <= node_id < len(self.nodes):
            raise TopologyError(f"no such node: {node_id}")
        new_pos = np.asarray(list(pos), dtype=float)
        self.positions[node_id] = new_pos
        if self._neighbor_cache is None:
            # No cache built yet: nothing to patch, the next query builds
            # from the already-updated positions.
            return

        self._grid.move(node_id)
        new_row = self._grid.neighbors_within(node_id, self.comm_range)
        old_row = self._neighbor_cache[node_id]
        if np.array_equal(new_row, old_row):
            return  # position changed, edge set did not
        removed = np.setdiff1d(old_row, new_row, assume_unique=True)
        added = np.setdiff1d(new_row, old_row, assume_unique=True)
        self._neighbor_cache[node_id] = new_row
        cache = self._neighbor_cache
        for j in removed:
            row = cache[j]
            cache[j] = row[row != node_id]
        for j in added:
            row = cache[j]
            cache[j] = np.insert(row, int(np.searchsorted(row, node_id)), node_id)
        self._edge_epoch += 1
        self._csr_cache.clear()
        self._alive_nbr_cache.clear()
        self._patch_graphs_after_move(node_id, removed, added)

    def _patch_graphs_after_move(
        self, node_id: int, removed: np.ndarray, added: np.ndarray
    ) -> None:
        """Edge-patch cached nx graphs in place around a moved node."""
        for alive_only, (_, g) in self._graph_cache.items():
            if node_id not in g:
                continue  # dead/sleeping node in the alive view: no edges
            for j in removed:
                jj = int(j)
                if g.has_edge(node_id, jj):
                    g.remove_edge(node_id, jj)
            for j in added:
                jj = int(j)
                if jj in g:
                    g.add_edge(node_id, jj, weight=1.0)

    # ------------------------------------------------------------------
    # liveness maintenance (store listener target, fired once per flip)
    # ------------------------------------------------------------------
    def _on_alive_change(self, node_id: int, alive: bool) -> None:
        self._alive_version += 1
        self._csr_cache.pop(True, None)
        self._alive_nbr_cache.clear()
        cached = self._graph_cache.get(True)
        if cached is None:
            return
        _, g = cached
        if alive:
            g.add_node(node_id, kind=self.nodes[node_id].kind)
            alive_mask = self.store.alive
            for j in self.neighbors(node_id):
                jj = int(j)
                if alive_mask[jj]:
                    g.add_edge(node_id, jj, weight=1.0)
        elif node_id in g:
            g.remove_node(node_id)
        self._graph_cache[True] = (self._alive_version, g)

    # ------------------------------------------------------------------
    # graph views
    # ------------------------------------------------------------------
    def graph(self, alive_only: bool = True) -> nx.Graph:
        """The one-hop link graph as a :class:`networkx.Graph`.

        The graph is cached and *patched* in place as nodes move, die or
        recover, so repeated queries (the mesh backbone recomputes routes
        on every forwarding decision; E9 recomputes reachability per
        failure step) almost never rebuild.
        Treat the returned graph as read-only.
        """
        cached = self._graph_cache.get(alive_only)
        if cached is not None:
            version, g = cached
            if not alive_only or version == self._alive_version:
                return g
        g = nx.Graph()
        alive = self.store.alive
        for node in self.nodes:
            if alive_only and not alive[node.node_id]:
                continue
            g.add_node(node.node_id, kind=node.kind)
        for i in g.nodes:
            for j in self.neighbors(i):
                j = int(j)
                if j > i and j in g.nodes:
                    g.add_edge(i, j, weight=1.0)
        self._graph_cache[alive_only] = (self._alive_version if alive_only else -1, g)
        return g

    # ------------------------------------------------------------------
    # hop counts (CSR multi-source BFS)
    # ------------------------------------------------------------------
    def _csr_adjacency(self, alive_only: bool) -> csr_matrix:
        """Cached CSR adjacency, rebuilt only when epoch/alive change."""
        version = self._alive_version if alive_only else -1
        cached = self._csr_cache.get(alive_only)
        if cached is not None and cached[0] == self._edge_epoch and cached[1] == version:
            return cached[2]
        if self._neighbor_cache is None:
            self._neighbor_cache = self._build_neighbor_cache()
        rows = self._neighbor_cache
        n = len(self.nodes)
        lens = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
        flat = np.concatenate(rows) if lens.sum() else np.empty(0, dtype=np.intp)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        if alive_only:
            # Keep an entry iff both endpoints are alive; the segmented
            # cumulative-sum trick rebuilds indptr without a Python loop.
            alive = self.store.alive
            keep = alive[flat] & np.repeat(alive, lens)
            kept = np.zeros(len(flat) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            indices = flat[keep]
            indptr = kept[indptr]
        else:
            indices = flat
        mat = csr_matrix(
            (np.ones(len(indices), dtype=np.int8), indices.astype(np.int64), indptr),
            shape=(n, n),
        )
        self._csr_cache[alive_only] = (self._edge_epoch, version, mat)
        return mat

    def hops_to(self, targets: Sequence[int], alive_only: bool = True) -> dict[int, int]:
        """Minimum hop count from every reachable node to the nearest target.

        Multi-source BFS; the ground truth that SPR's discovered routes
        are tested against.  Runs as one unweighted Dijkstra sweep over
        the cached CSR adjacency.
        """
        n = len(self.nodes)
        alive = self.store.alive
        if alive_only:
            valid = sorted({int(t) for t in targets if 0 <= int(t) < n and alive[int(t)]})
        else:
            valid = sorted({int(t) for t in targets if 0 <= int(t) < n})
        if not valid:
            return {}
        mat = self._csr_adjacency(alive_only)
        dist = _csgraph_dijkstra(
            mat, directed=True, unweighted=True, indices=valid, min_only=True
        )
        reachable = np.isfinite(dist)
        return {int(i): int(dist[i]) for i in np.nonzero(reachable)[0]}

    def is_collection_connected(self) -> bool:
        """True when every alive sensor can reach at least one gateway."""
        hops = self.hops_to(self.gateway_ids)
        return all(s in hops for s in self.sensor_ids if self.nodes[s].alive)


# ----------------------------------------------------------------------
# deployment generators
# ----------------------------------------------------------------------
def uniform_deployment(
    n: int, field_size: float, seed: int | None = 0, margin: float = 0.0
) -> np.ndarray:
    """``n`` i.i.d.-uniform positions on a ``field_size`` × ``field_size`` field."""
    if n <= 0:
        raise ConfigurationError("n must be positive")
    if field_size <= 0 or margin < 0 or 2 * margin >= field_size:
        raise ConfigurationError("invalid field_size/margin")
    rng = np.random.default_rng(seed)
    return rng.uniform(margin, field_size - margin, size=(n, 2))


def grid_deployment(
    rows: int, cols: int, spacing: float, jitter: float = 0.0, seed: int | None = 0
) -> np.ndarray:
    """A ``rows`` × ``cols`` grid with optional positional jitter."""
    if rows <= 0 or cols <= 0 or spacing <= 0 or jitter < 0:
        raise ConfigurationError("rows, cols, spacing must be positive; jitter >= 0")
    xs, ys = np.meshgrid(np.arange(cols) * spacing, np.arange(rows) * spacing)
    pos = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    if jitter > 0:
        rng = np.random.default_rng(seed)
        pos += rng.uniform(-jitter, jitter, size=pos.shape)
    return pos


def build_sensor_network(
    sensor_positions: np.ndarray,
    gateway_positions: np.ndarray,
    comm_range: float = 40.0,
    sensor_battery: float = math.inf,
) -> Network:
    """Assemble a sensor-tier :class:`Network`: sensors first, then gateways.

    Gateway ids therefore start at ``len(sensor_positions)``, which every
    protocol in :mod:`repro.core` relies on being stable across rounds.
    """
    sensor_positions = np.asarray(sensor_positions, dtype=float)
    gateway_positions = np.asarray(gateway_positions, dtype=float)
    if gateway_positions.ndim == 1:
        gateway_positions = gateway_positions.reshape(1, 2)
    positions = np.vstack([sensor_positions, gateway_positions])
    kinds = [NodeKind.SENSOR] * len(sensor_positions) + [NodeKind.GATEWAY] * len(gateway_positions)
    return Network(positions, kinds, comm_range=comm_range, sensor_battery=sensor_battery)
