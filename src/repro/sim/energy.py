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
identical power" (Section 5.2); the channel models that by charging
every frame at its radio's ``comm_range``, while baselines that compute
their own transmissions (LEACH, direct) pass the true distance.

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
    """

    e_elec: float = 50e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12

    def __post_init__(self) -> None:
        if min(self.e_elec, self.eps_fs, self.eps_mp) < 0:
            raise ConfigurationError("energy parameters must be non-negative")

    @property
    def crossover_distance(self) -> float:
        """Distance :math:`d_0` where free-space and multipath costs meet."""
        return math.sqrt(self.eps_fs / self.eps_mp)

    def tx_cost(self, bits: int, distance: float) -> float:
        """Energy in joules to transmit ``bits`` over ``distance`` meters."""
        if bits < 0 or distance < 0:
            raise ConfigurationError("bits and distance must be non-negative")
        if distance < self.crossover_distance:
            amp = self.eps_fs * distance * distance
        else:
            amp = self.eps_mp * distance ** 4
        return bits * (self.e_elec + amp)

    def rx_cost(self, bits: int) -> float:
        """Energy in joules to receive ``bits``."""
        if bits < 0:
            raise ConfigurationError("bits must be non-negative")
        return bits * self.e_elec

