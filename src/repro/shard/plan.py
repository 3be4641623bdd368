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
    boundaries.
    """

    shards: int
    cuts: tuple[float, ...]

    @classmethod
    def build(cls, positions: np.ndarray, shards: int) -> "ShardPlan":
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
        xs = np.sort(positions[:, 0])
        cuts = tuple(float(xs[(k * n) // shards]) for k in range(1, shards))
        if len(set(cuts)) != len(cuts):
            raise ConfigurationError(
                f"field too clustered along x for {shards} balanced strips "
                f"(duplicate quantile cuts {cuts}); use fewer shards"
            )
        plan = cls(shards=shards, cuts=cuts)
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
