"""Spatial domain decomposition: column strips and conservative lookahead.

The field is cut along ``x`` into ``shards`` contiguous strips balanced
by node count (quantile cuts over the sorted ``x`` coordinates).  A node
belongs to the strip whose half-open interval ``[lo, hi)`` contains its
``x`` — ties on a cut go right, so ownership is a total function of
position.  Strips may be narrower than ``comm_range``: correctness never
depends on strip width, because cross-shard receptions are routed by the
*receiver's* owner, not passed neighbor-to-neighbor.

The lookahead is the classic conservative bound: any frame sent at time
``t`` is received no earlier than ``t`` plus the airtime of the smallest
possible frame (a bare MAC header), so granting every worker
``horizon + lookahead`` guarantees no message from the window can arrive
inside it — deliveries shipped at the barrier are never in a worker's
past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.packet import MAC_HEADER_BYTES
from repro.sim.radio import RadioConfig

__all__ = ["ShardPlan", "conservative_lookahead"]


def conservative_lookahead(radio: RadioConfig) -> float:
    """Minimum latency between a send and any reception on ``radio``.

    The smallest frame the simulator can put on the air is a bare MAC
    header; propagation only adds to the bound, so the header airtime is
    a safe (and tight, for zero-distance links) lookahead.
    """
    return radio.airtime(8 * MAC_HEADER_BYTES)


@dataclass(frozen=True)
class ShardPlan:
    """A fixed column-strip partition of a deployed field.

    ``cuts`` are the ``shards - 1`` strictly-increasing interior strip
    boundaries; ``bounds`` is the field's bounding box ``(x0, y0, x1,
    y1)`` (used to phrase strips as finite rectangles for
    :meth:`~repro.sim.spatial.CellGrid.cells_in_band` queries).
    """

    shards: int
    comm_range: float
    cuts: tuple[float, ...]
    bounds: tuple[float, float, float, float]

    @classmethod
    def build(
        cls, positions: np.ndarray, comm_range: float, shards: int
    ) -> "ShardPlan":
        """Balanced strips over ``positions`` (quantiles of sorted x).

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        field cannot support ``shards`` non-empty strips (fewer nodes
        than shards, or x-coordinates so clustered that quantile cuts
        collide).
        """
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (n, 2) array")
        n = len(positions)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if n < shards:
            raise ConfigurationError(
                f"cannot cut {n} nodes into {shards} non-empty strips"
            )
        if comm_range <= 0 or not math.isfinite(comm_range):
            raise ConfigurationError("comm_range must be positive and finite")
        xs = np.sort(positions[:, 0])
        cuts = tuple(float(xs[(k * n) // shards]) for k in range(1, shards))
        if len(set(cuts)) != len(cuts):
            raise ConfigurationError(
                f"field too clustered along x for {shards} balanced strips "
                f"(duplicate quantile cuts {cuts}); use fewer shards"
            )
        bounds = (
            float(positions[:, 0].min()),
            float(positions[:, 1].min()),
            float(positions[:, 0].max()),
            float(positions[:, 1].max()),
        )
        plan = cls(shards=shards, comm_range=float(comm_range), cuts=cuts, bounds=bounds)
        counts = np.bincount(plan.owner_of(positions), minlength=shards)
        if (counts == 0).any():
            empty = [int(s) for s in np.nonzero(counts == 0)[0]]
            raise ConfigurationError(
                f"strip partition leaves shard(s) {empty} empty; use fewer shards"
            )
        return plan

    # ------------------------------------------------------------------
    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Shard id owning each position (vectorized; ties on a cut go right)."""
        x = np.asarray(positions, dtype=float)[:, 0]
        return np.searchsorted(np.asarray(self.cuts), x, side="right")

    def strip_bounds(self, shard: int) -> tuple[float, float]:
        """The ``[lo, hi)`` x-interval of ``shard`` (±inf at the ends)."""
        if not 0 <= shard < self.shards:
            raise ConfigurationError(f"no shard {shard} in a {self.shards}-way plan")
        lo = -math.inf if shard == 0 else self.cuts[shard - 1]
        hi = math.inf if shard == self.shards - 1 else self.cuts[shard]
        return lo, hi

    def strip_rect(self, shard: int) -> tuple[float, float, float, float]:
        """The strip as a finite rectangle (clipped to the field bounds),
        the region form :meth:`~repro.sim.spatial.CellGrid.cells_in_band`
        takes."""
        lo, hi = self.strip_bounds(shard)
        x0, y0, x1, y1 = self.bounds
        return (max(lo, x0), y0, min(hi, x1), y1)

    def halo_shards(self, x: float) -> list[int]:
        """Shards whose strip the closed ball of radius ``comm_range``
        around x-coordinate ``x`` can reach (including the owner's)."""
        out = []
        r = self.comm_range
        for s in range(self.shards):
            lo, hi = self.strip_bounds(s)
            if lo <= x + r and hi > x - r:
                out.append(s)
        return out
