"""World composition root: one place that wires a simulation together.

Every runnable scenario in this repository is the same five-piece stack —
an event engine, a topology, a radio channel (with its energy model and
metrics collector), optionally a protocol, optionally the feasible places
gateways rotate among.  :class:`WorldBuilder` is the single composition
root for that wiring; :class:`World` is the result.  Experiments, the
mesh tiers, baselines, examples and tests all build through here, so no
module outside :mod:`repro.sim` / :mod:`repro.world` constructs a
:class:`~repro.sim.radio.Channel` by hand.

Layer diagram (see DESIGN.md, "Layered stack & World composition")::

    experiments / runner          (sweeps, registry, aggregation)
        └── World / WorldBuilder  (this module: composition + accounting)
              ├── protocol        (repro.core: policy over discovery+data)
              ├── Channel         (repro.sim.radio: medium arbitration)
              ├── Network         (repro.sim.network: topology, neighbors)
              └── Simulator       (repro.sim.engine: event heap, RNG)

Worlds also carry the per-world counters that replaced the old
process-global event tally: :attr:`World.events_processed` reads its own
simulator, and :func:`record_world_events` aggregates across every world
built while a recording is open (two worlds sharing one simulator — the
three-tier stack — are counted once).  The sweep runner wraps each cell
in a recording to attribute simulation work without any global state.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace as dc_replace
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TopologyError
from repro.sim.energy import EnergyModel
from repro.sim.engine import Simulator
from repro.sim.mobility import FeasiblePlaces
from repro.sim.network import (
    Network,
    build_sensor_network,
    grid_deployment,
    uniform_deployment,
)
from repro.sim.node import NodeKind
from repro.sim.radio import IEEE802154, Channel, RadioConfig
from repro.sim.serialize import from_jsonable, serializable
from repro.sim.trace import MetricsCollector

__all__ = [
    "World",
    "WorldBuilder",
    "WorldConfig",
    "WorldEventRecorder",
    "record_world_events",
]


# ----------------------------------------------------------------------
# execution configuration
# ----------------------------------------------------------------------
@serializable
@dataclass(frozen=True)
class WorldConfig:
    """Execution configuration of a world, as one serializable value.

    Every world runs one physics: node state in a
    :class:`~repro.sim.state.NodeStateStore`, the cell-grid spatial index,
    and the channel's fan-out (see :class:`~repro.sim.radio.Channel`).
    These fields add auditing and fault injection on top.  Experiments
    thread a single ``world`` value into their
    :class:`~repro.runner.spec.ExperimentSpec` params, so both fields
    reach the cache key.  How many processes run a world is not part of
    it: :func:`repro.shard.run_sharded` takes the shard count as an
    argument.  Unknown field names fail in
    :meth:`from_param` and in the constructor alike, and experiment entry
    points reject bare ``audit`` or ``spatial_index`` keyword arguments
    with ``TypeError``.

    Attributes
    ----------
    audit:
        ``True`` forces the packet-conservation ledger on, ``False``
        forces it off, ``None`` defers to the ``REPRO_AUDIT`` default.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or its jsonable
        form) armed on the built world.
    """

    audit: Optional[bool] = None
    faults: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.faults is not None:
            from repro.faults.plan import FaultPlan  # deferred: faults builds worlds

            if not isinstance(self.faults, FaultPlan):
                object.__setattr__(self, "faults", FaultPlan.from_param(self.faults))

    def replace(self, **changes) -> "WorldConfig":
        """A copy with ``changes`` applied (fluent-builder backend)."""
        return dc_replace(self, **changes)

    @classmethod
    def from_param(cls, value: "WorldConfig | dict | None") -> Optional["WorldConfig"]:
        """Coerce an experiment parameter into a :class:`WorldConfig`.

        Accepts a config instance (returned as-is), its tagged jsonable
        form as produced by :func:`~repro.sim.serialize.to_jsonable`
        (the shape a config takes after a trip through the runner's
        JSONL cache), or ``None``.  Anything else — in particular a
        hand-rolled bare dict — is rejected, and so is a tagged form
        naming a field the config does not have, so a typo'd (or
        removed) field name fails loudly instead of silently running
        the default config.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict) and value.get("__dataclass__") == cls.__name__:
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(value.get("fields", {})) - known)
            if unknown:
                raise ConfigurationError(
                    f"unknown WorldConfig field(s) {unknown}; "
                    f"known fields are {sorted(known)}"
                )
            cfg = from_jsonable(value)
            if isinstance(cfg, cls):
                return cfg
        raise ConfigurationError(
            f"cannot interpret {value!r} as a WorldConfig; pass a WorldConfig "
            "instance, its to_jsonable() form, or None"
        )


# ----------------------------------------------------------------------
# per-world event accounting
# ----------------------------------------------------------------------
class WorldEventRecorder:
    """Aggregates events processed by every world built while open.

    Simulators are tracked by identity with a baseline snapshot, so a
    shared simulator (multiple tiers on one clock) is counted once, and
    only events executed *after* the world was built are attributed.
    """

    def __init__(self) -> None:
        self._tracked: list[tuple[Simulator, int]] = []
        self._collectors: list[MetricsCollector] = []

    def track(self, sim: Simulator, metrics: Optional[MetricsCollector] = None) -> None:
        if not any(s is sim for s, _ in self._tracked):
            self._tracked.append((sim, sim.events_processed))
        if metrics is not None and not any(m is metrics for m in self._collectors):
            self._collectors.append(metrics)

    @property
    def events_processed(self) -> int:
        return sum(s.events_processed - base for s, base in self._tracked)

    @property
    def worlds_tracked(self) -> int:
        return len(self._tracked)

    # -- observability aggregation (runner trace food) -----------------
    def drops_by_reason(self) -> dict[str, int]:
        """Terminal+frame drop counters summed over tracked collectors."""
        total: Counter = Counter()
        for m in self._collectors:
            total.update(m.drops)
        return dict(sorted(total.items()))

    def conservation_summary(self) -> Optional[dict]:
        """Summed conservation report over every audited collector.

        ``None`` when no tracked collector carries a ledger (audit off) —
        the runner trace then omits the block rather than writing zeros.
        ``drops_by_reason`` counts datums by the reason they ended in a
        drop, so it sums to ``dropped``; :meth:`drops_by_reason` counts
        drop events, frame-level ones included.
        """
        audited = [m for m in self._collectors if m.ledger is not None]
        if not audited:
            return None
        totals = Counter()
        terminal_drops = Counter()
        violations: list[str] = []
        for m in audited:
            report = m.conservation_report(strict=True)
            for key in ("generated", "delivered", "dropped", "pending",
                        "duplicates", "unknown_delivered", "late_drops"):
                totals[key] += getattr(report, key)
            terminal_drops.update(report.drops_by_reason)
            violations.extend(report.violations)
        return {
            **{k: int(totals[k]) for k in (
                "generated", "delivered", "dropped", "pending",
                "duplicates", "unknown_delivered", "late_drops")},
            "drops_by_reason": dict(sorted(terminal_drops.items())),
            "audited_collectors": len(audited),
            "violations": violations,
        }


_recorders: list[WorldEventRecorder] = []


@contextmanager
def record_world_events() -> Iterator[WorldEventRecorder]:
    """Record events of every world built inside the ``with`` block."""
    recorder = WorldEventRecorder()
    _recorders.append(recorder)
    try:
        yield recorder
    finally:
        _recorders.remove(recorder)


# ----------------------------------------------------------------------
# the composed world
# ----------------------------------------------------------------------
@dataclass
class World:
    """A ready-to-run composed simulation: engine + topology + radio.

    ``protocol`` is filled by :meth:`attach` (or left ``None`` when the
    caller wires protocols itself, e.g. to run several protocols against
    structurally identical worlds).
    """

    sim: Simulator
    network: Network
    channel: Channel
    places: Optional[FeasiblePlaces] = None
    protocol: Any = None
    #: armed :class:`~repro.faults.injector.FaultInjector` (None without a plan)
    faults: Any = None
    #: the :class:`WorldConfig` this world was built with (None for hand wiring)
    config: Optional[WorldConfig] = None
    extras: dict = field(default_factory=dict)

    @property
    def metrics(self) -> MetricsCollector:
        return self.channel.metrics

    @property
    def events_processed(self) -> int:
        """Events executed by this world's simulator (per-world counter)."""
        return self.sim.events_processed

    def attach(self, protocol_factory: Callable[..., Any], *args, **kwargs) -> Any:
        """Instantiate ``protocol_factory(sim, network, channel, ...)`` and keep it."""
        self.protocol = protocol_factory(self.sim, self.network, self.channel, *args, **kwargs)
        return self.protocol

    # -- conservation audit --------------------------------------------
    def conservation_report(self, strict: Optional[bool] = None):
        """Audit packet conservation on demand (needs audit mode).

        ``strict`` defaults to whether the simulator is quiescent — only
        then does "still in flight" mean "permanently stuck".
        """
        if strict is None:
            strict = self.sim.pending == 0
        return self.metrics.conservation_report(strict=strict)

    def assert_conserved(self, strict: Optional[bool] = None):
        """Raise :class:`~repro.exceptions.ConservationError` on violation."""
        if strict is None:
            strict = self.sim.pending == 0
        return self.metrics.assert_conserved(strict=strict)


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
class WorldBuilder:
    """Fluent construction of a :class:`World`.

    Exactly one topology source must be configured: an existing network
    (:meth:`network` / :meth:`nodes`), an explicit sensor field
    (:meth:`sensors` + :meth:`gateways`), or a generated deployment
    (:meth:`uniform_sensors` / :meth:`grid_sensors` + :meth:`gateways`).

    Examples
    --------
    A uniform field with three gateways on an ideal radio::

        world = (
            WorldBuilder()
            .seed(7)
            .uniform_sensors(120, field_size=300.0, topology_seed=42)
            .gateways([[60.0, 60.0], [240.0, 240.0], [60.0, 240.0]])
            .comm_range(60.0)
            .ideal_radio()
            .build()
        )
        spr = world.attach(SPR)
    """

    def __init__(self) -> None:
        self._sim: Optional[Simulator] = None
        self._seed: int | None = 0
        self._network: Optional[Network] = None
        self._sensor_positions: Optional[np.ndarray] = None
        self._gateway_positions: Optional[np.ndarray] = None
        self._comm_range: Optional[float] = None
        self._sensor_battery: float = math.inf
        self._radio: Optional[RadioConfig] = None
        self._ideal: bool = False
        self._energy_model: Optional[EnergyModel] = None
        self._metrics: Optional[MetricsCollector] = None
        self._places: Optional[FeasiblePlaces] = None
        self._require_connected: bool = False
        self._node_spec: Optional[tuple[np.ndarray, Sequence[NodeKind], Optional[float]]] = None
        self._config = WorldConfig()

    # -- engine ---------------------------------------------------------
    def seed(self, protocol_seed: int | None) -> "WorldBuilder":
        """Seed for a fresh :class:`Simulator` (default 0)."""
        self._seed = protocol_seed
        return self

    def simulator(self, sim: Simulator) -> "WorldBuilder":
        """Attach to an existing engine (tiers sharing one clock)."""
        self._sim = sim
        return self

    # -- topology -------------------------------------------------------
    def network(self, network: Network) -> "WorldBuilder":
        """Use an already-built topology."""
        self._network = network
        return self

    def nodes(
        self,
        positions: np.ndarray,
        kinds: Sequence[NodeKind],
        comm_range: Optional[float] = None,
    ) -> "WorldBuilder":
        """Arbitrary node mix (mesh tiers: gateways/routers/base stations).

        Construction is deferred to :meth:`build` so a later
        :meth:`comm_range` call still applies.
        """
        self._node_spec = (np.asarray(positions, dtype=float), list(kinds), comm_range)
        return self

    def sensors(self, positions: np.ndarray) -> "WorldBuilder":
        """Explicit sensor coordinates (paired with :meth:`gateways`)."""
        self._sensor_positions = np.asarray(positions, dtype=float)
        return self

    def uniform_sensors(
        self, n: int, field_size: float, topology_seed: int | None = 0, margin: float = 0.0
    ) -> "WorldBuilder":
        """``n`` i.i.d.-uniform sensors on a square field."""
        self._sensor_positions = uniform_deployment(n, field_size, seed=topology_seed, margin=margin)
        return self

    def grid_sensors(
        self, rows: int, cols: int, spacing: float, jitter: float = 0.0,
        topology_seed: int | None = 0,
    ) -> "WorldBuilder":
        """A regular sensor grid (deterministic topologies)."""
        self._sensor_positions = grid_deployment(rows, cols, spacing, jitter=jitter, seed=topology_seed)
        if self._comm_range is None:
            self._comm_range = spacing * 1.05
        return self

    def gateways(self, positions: Sequence[Sequence[float]]) -> "WorldBuilder":
        """Gateway coordinates appended after the sensors."""
        self._gateway_positions = np.asarray(positions, dtype=float)
        return self

    def comm_range(self, meters: float) -> "WorldBuilder":
        self._comm_range = float(meters)
        return self

    def sensor_battery(self, joules: float) -> "WorldBuilder":
        """Initial sensor battery (default: unlimited)."""
        self._sensor_battery = float(joules)
        return self

    def require_connected(self, required: bool = True) -> "WorldBuilder":
        """Fail :meth:`build` if any alive sensor cannot reach a gateway."""
        self._require_connected = required
        return self

    # -- radio / energy / metrics --------------------------------------
    def radio(self, config: RadioConfig) -> "WorldBuilder":
        self._radio = config
        return self

    def ideal_radio(self, config: Optional[RadioConfig] = None) -> "WorldBuilder":
        """Lossless, collision-free variant of ``config`` (default 802.15.4)."""
        self._radio = (config or IEEE802154).ideal()
        return self

    def energy(self, model: EnergyModel) -> "WorldBuilder":
        self._energy_model = model
        return self

    def metrics(self, collector: MetricsCollector) -> "WorldBuilder":
        self._metrics = collector
        return self

    # -- execution configuration ---------------------------------------
    # One WorldConfig value; audit()/faults() are thin wrappers over it,
    # and configure() swaps the whole value at once (experiments thread
    # exactly that value into their ExperimentSpec params / cache keys).
    @property
    def config(self) -> WorldConfig:
        """The execution configuration this builder will apply."""
        return self._config

    def configure(self, config: WorldConfig) -> "WorldBuilder":
        """Replace the whole execution configuration in one call."""
        if not isinstance(config, WorldConfig):
            raise ConfigurationError(
                f"configure() expects a WorldConfig, got {type(config).__name__}"
            )
        self._config = config
        return self

    def audit(self, enabled: bool = True) -> "WorldBuilder":
        """Enforce packet conservation on this world.

        Attaches a :class:`repro.obs.ledger.PacketLedger` to the metrics
        collector and registers a simulator idle hook that runs a strict
        conservation audit at every quiescence — any datum left without a
        terminal state raises :class:`~repro.exceptions.ConservationError`.
        ``audit(False)`` opts a world out even under ``REPRO_AUDIT=1``.
        """
        self._config = self._config.replace(audit=enabled)
        return self

    # -- extras ---------------------------------------------------------
    def places(self, places: FeasiblePlaces) -> "WorldBuilder":
        """Feasible gateway places carried on the world (MLR rounds)."""
        self._places = places
        return self

    def faults(self, plan) -> "WorldBuilder":
        """Arm a :class:`~repro.faults.plan.FaultPlan` on the built world.

        Accepts a plan object or its jsonable/params form (``None`` clears).
        :meth:`build` compiles the plan onto the simulator event queue via
        a :class:`~repro.faults.injector.FaultInjector` before any traffic
        is scheduled, so fault timing is part of the deterministic event
        order; the armed injector is exposed as ``World.faults``.
        """
        # WorldConfig.__post_init__ normalizes jsonable/params forms.
        self._config = self._config.replace(faults=plan)
        return self

    # -- build ----------------------------------------------------------
    def _resolve_network(self) -> Network:
        given = [
            self._network is not None,
            self._node_spec is not None,
            self._sensor_positions is not None or self._gateway_positions is not None,
        ]
        if sum(given) > 1:
            raise ConfigurationError(
                "give either network()/nodes() or sensor/gateway positions, not both"
            )
        if self._network is not None:
            return self._network
        if self._node_spec is not None:
            positions, kinds, spec_range = self._node_spec
            rng = spec_range if spec_range is not None else self._comm_range
            if rng is None:
                raise ConfigurationError("nodes() needs a comm_range (argument or comm_range())")
            return Network(positions, kinds, comm_range=rng)
        if self._sensor_positions is None:
            raise ConfigurationError("no topology: call network(), nodes(), sensors() or a deployment method")
        if self._gateway_positions is None:
            raise ConfigurationError("sensor deployments need gateways(...)")
        comm_range = self._comm_range
        if comm_range is None and self._radio is not None:
            comm_range = self._radio.comm_range
        if comm_range is None:
            raise ConfigurationError("no communication range: call comm_range() or radio()")
        return build_sensor_network(
            self._sensor_positions,
            self._gateway_positions,
            comm_range=comm_range,
            sensor_battery=self._sensor_battery,
        )

    def build(self) -> World:
        """Compose and return the :class:`World` (registers it for accounting)."""
        network = self._resolve_network()
        if self._require_connected and not network.is_collection_connected():
            raise TopologyError(
                f"deployment of {len(network)} nodes leaves sensors unreachable; "
                "densify, enlarge the range or move gateways"
            )
        cfg = self._config
        sim = self._sim if self._sim is not None else Simulator(seed=self._seed)
        metrics = self._metrics or MetricsCollector()
        if cfg.audit is True:
            metrics.enable_audit()
        elif cfg.audit is False:
            metrics.audit = False
        if metrics.audit and metrics.ledger is not None:
            # Strict conservation at every quiescence: with an empty heap
            # a queued or unicast-in-flight datum can never progress, so
            # it must already be delivered or terminally dropped.
            sim.add_idle_hook(metrics._audit_idle_hook)
        channel = Channel(sim, network, self._radio or IEEE802154, self._energy_model, metrics)
        for recorder in _recorders:
            recorder.track(sim, metrics)
        world = World(
            sim=sim, network=network, channel=channel,
            places=self._places, config=cfg,
        )
        if cfg.faults is not None:
            from repro.faults.injector import FaultInjector  # deferred: cycle guard

            world.faults = FaultInjector(world, cfg.faults).arm()
        return world
