"""Uniform-cell spatial index for O(n·k) neighbor maintenance.

A brute-force neighbor computation builds the full ``n × n``
pairwise-distance matrix — fine for a static field, quadratic waste
when one gateway moves between rounds (MLR moves
gateways every round, Section 5.3).  :class:`CellGrid` buckets nodes into
square cells whose side equals the query radius, so the nodes within
``r`` of any point all sit in the 3 × 3 cell block around it.  That makes

* a full neighbor-table build O(n·k) (k = mean neighborhood size), and
* the update for a single moved node O(k): rebucket the node, re-scan its
  3 × 3 block, done.

This is the same virtual-grid decomposition GAF uses for coordinator
election (Section 4.4 cites it) — here applied to the simulation
substrate instead of the protocol.

Float semantics match a dense rebuild bit-for-bit: candidate distances
are computed with the same subtract/multiply/sum element operations on
the same float64 positions, and rows are returned sorted ascending
exactly like ``np.nonzero`` on the dense mask, so the grid produces
*identical* neighbor arrays to the dense oracle in ``tests/oracle.py``
(``tests/test_spatial_index.py`` holds it to that).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["CellGrid"]

#: Offsets of the 3 × 3 cell block that covers every point within one
#: cell side of a cell's interior.
_BLOCK = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


class CellGrid:
    """Square-cell bucketing of 2-D points supporting incremental moves.

    Parameters
    ----------
    positions:
        ``(n, 2)`` float array.  The grid keeps a *reference*: callers
        (the :class:`~repro.sim.network.Network`) update rows in place and
        then call :meth:`move` so the bucketing follows.
    cell_size:
        Cell side in meters.  Must be at least the query radius used with
        :meth:`neighbors_within` — the 3 × 3 block scan is only exhaustive
        under that invariant, which :meth:`neighbors_within` asserts.
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0 or not math.isfinite(cell_size):
            raise ConfigurationError("cell_size must be positive and finite")
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (n, 2) array")
        self.positions = positions
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], list[int]] = {}
        keys = np.floor(positions / self.cell_size).astype(np.int64)
        self._cell_of: list[tuple[int, int]] = [tuple(k) for k in keys.tolist()]
        for i, key in enumerate(self._cell_of):
            self._cells.setdefault(key, []).append(i)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cell_of)

    @property
    def num_occupied_cells(self) -> int:
        return len(self._cells)

    def cell_of(self, i: int) -> tuple[int, int]:
        """Current cell coordinates of node ``i``."""
        return self._cell_of[i]

    # ------------------------------------------------------------------
    def _block_members(self, cell: tuple[int, int]) -> np.ndarray:
        """Ids of every node in the 3 × 3 block centered on ``cell``."""
        cx, cy = cell
        cells = self._cells
        chunks = []
        for dx, dy in _BLOCK:
            members = cells.get((cx + dx, cy + dy))
            if members:
                chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        if len(chunks) == 1:
            return np.asarray(chunks[0], dtype=np.intp)
        return np.concatenate([np.asarray(c, dtype=np.intp) for c in chunks])

    def neighbors_within(self, i: int, radius: float) -> np.ndarray:
        """Ids within ``radius`` of node ``i`` (excluding ``i``), sorted.

        The closed ball ``d <= radius`` is used, matching the network
        model's "can immediately communicate" edge predicate.
        """
        if radius > self.cell_size:
            raise ConfigurationError(
                f"query radius {radius} exceeds cell size {self.cell_size}"
            )
        cand = self._block_members(self._cell_of[i])
        cand = cand[cand != i]
        if len(cand) == 0:
            return cand
        diff = self.positions[cand] - self.positions[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        out = cand[d2 <= radius * radius]
        out.sort()
        return out

    def neighbor_rows(self, radius: float) -> list[np.ndarray]:
        """Per-node neighbor arrays for the whole field, O(n·k).

        Batched per occupied cell: one vectorised distance pass from each
        cell's members to its 3 × 3 block, instead of the dense n × n
        matrix of the brute-force path.
        """
        if radius > self.cell_size:
            raise ConfigurationError(
                f"query radius {radius} exceeds cell size {self.cell_size}"
            )
        n = len(self._cell_of)
        rows: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * n
        r2 = radius * radius
        pos = self.positions
        for cell, members in self._cells.items():
            cand = self._block_members(cell)
            mem = np.asarray(members, dtype=np.intp)
            diff = pos[mem, None, :] - pos[cand][None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            within = d2 <= r2
            for k, i in enumerate(members):
                row = cand[within[k]]
                row = row[row != i]
                row.sort()
                rows[i] = row
        return rows

    # ------------------------------------------------------------------
    def cells_in_band(
        self, region: tuple[float, float, float, float], width: float
    ) -> np.ndarray:
        """Node ids in the cells straddling ``region``'s boundary band.

        ``region`` is an axis-aligned rectangle ``(x0, y0, x1, y1)``; the
        *band* is the set of points within ``width`` of its boundary, on
        either side.  The query is cell-granular: a cell contributes all
        its members iff it intersects the region grown by ``width`` and
        is not strictly contained in the region shrunk by ``width``.
        That gives two guarantees the shard runner (and the hypothesis
        suite) relies on:

        * **superset** — every node whose distance to the boundary is at
          most ``width`` is returned;
        * **bounded slack** — every returned node is within
          ``√2·(width + cell_size)`` of the boundary: the rectangle
          tests are per-axis, so a grown-rectangle corner point can sit
          ``√2·width`` from the region, and a contributing cell can
          overhang by its own diagonal.

        Returned ids are sorted ascending.  Degenerate regions (shrunk
        rectangle empty) simply return everything inside the grown one.
        """
        x0, y0, x1, y1 = (float(v) for v in region)
        if not (x1 >= x0 and y1 >= y0):
            raise ConfigurationError(f"region must be a non-empty rectangle, got {region!r}")
        if width < 0 or not math.isfinite(width):
            raise ConfigurationError(f"band width must be non-negative and finite, got {width!r}")
        s = self.cell_size
        gx0, gy0, gx1, gy1 = x0 - width, y0 - width, x1 + width, y1 + width
        sx0, sy0, sx1, sy1 = x0 + width, y0 + width, x1 - width, y1 - width
        chunks: list[list[int]] = []
        for (cx, cy), members in self._cells.items():
            lo_x, lo_y = cx * s, cy * s
            hi_x, hi_y = lo_x + s, lo_y + s
            # Intersects the grown rectangle?
            if hi_x <= gx0 or lo_x >= gx1 or hi_y <= gy0 or lo_y >= gy1:
                continue
            # Strictly inside the shrunk rectangle (open containment, so
            # a node exactly ``width`` from the boundary is never lost)?
            if lo_x > sx0 and hi_x < sx1 and lo_y > sy0 and hi_y < sy1:
                continue
            chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        out = np.concatenate([np.asarray(c, dtype=np.intp) for c in chunks])
        out.sort()
        return out

    # ------------------------------------------------------------------
    def move(self, i: int) -> None:
        """Rebucket node ``i`` after its position row changed in place."""
        x, y = self.positions[i]
        new_key = (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))
        old_key = self._cell_of[i]
        if new_key == old_key:
            return
        old_members = self._cells[old_key]
        old_members.remove(i)
        if not old_members:
            del self._cells[old_key]
        self._cells.setdefault(new_key, []).append(i)
        self._cell_of[i] = new_key
