"""First-order radio energy model.

This is the model used throughout the paper's reference set (LEACH [17],
multi-base-station placement [34]): transmitting ``k`` bits over distance
``d`` costs

.. math::

    E_{tx}(k, d) = E_{elec} k + \\epsilon_{amp} k d^{\\alpha}

with free-space (:math:`\\alpha = 2`) amplification below the crossover
distance :math:`d_0 = \\sqrt{\\epsilon_{fs} / \\epsilon_{mp}}` and multipath
(:math:`\\alpha = 4`) above it, and receiving ``k`` bits costs
:math:`E_{rx}(k) = E_{elec} k`.

The paper's SPR analysis assumes "all sensor nodes transmit data in
identical power so that transmitting 1 bit data consumes the same energy to
all of them" (Section 5.2); set ``fixed_tx_distance`` to model that
assumption while still letting baselines such as LEACH pay true
distance-dependent cost for their long-range hops.

Per-node batteries are columns of :class:`~repro.sim.state.NodeStateStore`
(``Network.nodes[i].energy`` is one row's view).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["EnergyModel"]


@dataclass(frozen=True)
class EnergyModel:
    """First-order radio model parameters (Heinzelman et al. defaults).

    Attributes
    ----------
    e_elec:
        Electronics energy per bit, J/bit (TX and RX circuitry).
    eps_fs:
        Free-space amplifier energy, J/bit/m^2.
    eps_mp:
        Multipath amplifier energy, J/bit/m^4.
    idle_power:
        Idle listening power in watts; charged per second by the
        simulation driver when enabled (0 disables idle accounting).
    fixed_tx_distance:
        If not ``None``, every transmission is charged as if sent over
        exactly this distance — the paper's identical-power assumption.
    """

    e_elec: float = 50e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12
    idle_power: float = 0.0
    fixed_tx_distance: float | None = None

    def __post_init__(self) -> None:
        if min(self.e_elec, self.eps_fs, self.eps_mp) < 0 or self.idle_power < 0:
            raise ConfigurationError("energy parameters must be non-negative")

    @property
    def crossover_distance(self) -> float:
        """Distance :math:`d_0` where free-space and multipath costs meet."""
        return math.sqrt(self.eps_fs / self.eps_mp)

    def tx_cost(self, bits: int, distance: float) -> float:
        """Energy in joules to transmit ``bits`` over ``distance`` meters."""
        if bits < 0 or distance < 0:
            raise ConfigurationError("bits and distance must be non-negative")
        d = self.fixed_tx_distance if self.fixed_tx_distance is not None else distance
        if d < self.crossover_distance:
            amp = self.eps_fs * d * d
        else:
            amp = self.eps_mp * d ** 4
        return bits * (self.e_elec + amp)

    def rx_cost(self, bits: int) -> float:
        """Energy in joules to receive ``bits``."""
        if bits < 0:
            raise ConfigurationError("bits must be non-negative")
        return bits * self.e_elec

