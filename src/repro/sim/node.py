"""Node roles of the three-tier WMSN architecture.

The architecture (Section 3.2, Fig. 1) distinguishes four node kinds:

``SENSOR``
    Battery-powered 802.15.4 node; senses, forwards for neighbors.
``GATEWAY`` (WMG)
    Mesh gateway: sink of the low-tier sensor network *and* router of the
    middle-tier mesh.  Speaks both 802.15.4 and 802.11.  Mains-powered
    ("let gateways have unrestricted energy", Section 5.3) unless an
    experiment says otherwise (the paper notes forest deployments where
    gateways are also energy-restricted, Section 4.1).
``MESH_ROUTER`` (WMR)
    Pure middle-tier router; 802.11 only.
``BASE_STATION``
    Bridges the wireless mesh to the Internet; supports WMG/WMR mobility.

Per-node state (battery, liveness, handler) lives in the network's
:class:`~repro.sim.state.NodeStateStore`; ``Network.nodes`` presents each
row as a :class:`~repro.sim.state.NodeView`.
"""

from __future__ import annotations

import enum

__all__ = ["NodeKind"]


class NodeKind(enum.Enum):
    """Role of a node in the three-tier architecture."""

    SENSOR = "sensor"
    GATEWAY = "gateway"
    MESH_ROUTER = "mesh_router"
    BASE_STATION = "base_station"
