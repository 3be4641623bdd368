"""repro — reproduction of the WMSN architecture and routing paper.

Tang, Guo, Li, Wang, Dong: *"Wireless Mesh Sensor Networks in Pervasive
Environment: a Reliable Architecture and Routing Protocol"* (ICPP 2007) /
*"Secure Routing for Wireless Mesh Sensor Networks in Pervasive
Environments"* (IJICS 12(4), 2007).

Public API re-exports the pieces a downstream user composes:

>>> from repro import WorldBuilder, SPR
>>> # see README.md for the full quickstart

Subpackages: :mod:`repro.sim` (substrate), :mod:`repro.core` (protocols),
:mod:`repro.security`, :mod:`repro.mesh`, :mod:`repro.baselines`,
:mod:`repro.analysis`, :mod:`repro.experiments`.
"""

from repro.exceptions import (
    ConfigurationError,
    ReproError,
    RoutingError,
    SecurityError,
    SimulationError,
    TopologyError,
)
from repro.sim import (
    Channel,
    FeasiblePlaces,
    GatewaySchedule,
    IEEE80211,
    IEEE802154,
    MetricsCollector,
    Network,
    Simulator,
    build_sensor_network,
    grid_deployment,
    uniform_deployment,
)
from repro.world import World, WorldBuilder, record_world_events
from repro.core import (
    MLR,
    SPR,
    LifetimeLP,
    LoadBalancedMLR,
    ProtocolConfig,
    SecMLR,
    SleepScheduler,
)
from repro.mesh import ThreeTierWMSN

__version__ = "1.5.0"

# The registry and runner import experiment drivers which import the
# substrate above, and the runner reads ``__version__`` for cache keys,
# so these re-exports must stay below both.
from repro.experiments.registry import (
    REGISTRY,
    ExperimentResult,
    run_experiment,
)
from repro.runner import ExperimentSpec, ResultCache, SweepResult, SweepRunner

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "TopologyError",
    "RoutingError",
    "SecurityError",
    "ConfigurationError",
    # substrate
    "Simulator",
    "Channel",
    "Network",
    "MetricsCollector",
    "IEEE802154",
    "IEEE80211",
    "build_sensor_network",
    "uniform_deployment",
    "grid_deployment",
    "FeasiblePlaces",
    "GatewaySchedule",
    # composition root
    "World",
    "WorldBuilder",
    "record_world_events",
    # protocols
    "SPR",
    "MLR",
    "SecMLR",
    "LoadBalancedMLR",
    "ProtocolConfig",
    "LifetimeLP",
    "SleepScheduler",
    # architecture
    "ThreeTierWMSN",
    # experiment registry + sweep runner
    "REGISTRY",
    "ExperimentResult",
    "run_experiment",
    "ExperimentSpec",
    "SweepRunner",
    "SweepResult",
    "ResultCache",
]
