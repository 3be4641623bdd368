"""Shared scenario construction and round-driving for the experiments.

A *scenario* is a composed :class:`repro.world.World` — simulator,
network, channel, optional feasible places — built through
:class:`repro.world.WorldBuilder`; a *collection round* is the paper's
unit of time: gateways hold still, every sensor reports
``packets_per_round`` data packets, then the next round may move
gateways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.stats import energy_stats
from repro.exceptions import ConfigurationError
from repro.sim.energy import EnergyModel
from repro.sim.mobility import FeasiblePlaces
from repro.sim.radio import IEEE802154, RadioConfig
from repro.sim.serialize import serializable
from repro.world import World, WorldBuilder

__all__ = [
    "Scenario",
    "ScenarioResult",
    "default_energy_model",
    "make_uniform_scenario",
    "make_grid_scenario",
    "corner_places",
    "run_collection_rounds",
]


def default_energy_model() -> EnergyModel:
    """The first-order radio model with Heinzelman constants."""
    return EnergyModel()


#: A ready-to-run sensor-tier deployment.  Historically its own dataclass;
#: now the composed world itself, so experiment code and world-level code
#: speak the same type.
Scenario = World


#: (dict field, table header, cell formatter) — ``row()`` and ``HEADERS``
#: are both views over the ``to_dict()`` form, so tables, the runner's
#: cache, and JSONL traces share one serialization path.  ``extras`` is
#: deliberately absent: it round-trips through the dict form but has no
#: table column.
_SCENARIO_ROW_SPEC = [
    ("name", "protocol", lambda v: v),
    ("delivery_ratio", "delivery", lambda v: round(v, 3)),
    ("mean_hops", "hops", lambda v: round(v, 2)),
    ("mean_latency", "latency_ms", lambda v: round(v * 1e3, 2)),  # ms
    ("total_energy", "energy_J", lambda v: v),
    ("energy_variance", "variance", lambda v: v),
    ("lifetime", "lifetime_s", lambda v: "-" if v is None else round(v, 1)),
    ("control_frames", "ctrl_frames", lambda v: v),
    ("data_frames", "data_frames", lambda v: v),
    ("bytes_sent", "bytes", lambda v: v),
]


@serializable
@dataclass
class ScenarioResult:
    """Headline numbers of one protocol run (rows of most tables).

    ``to_dict()``/``from_dict()`` (injected by :func:`serializable`) are
    exact inverses; ``row()`` formats the dict form for tables.
    """

    name: str
    delivery_ratio: float
    mean_hops: float
    mean_latency: float
    total_energy: float
    energy_variance: float
    lifetime: Optional[float]
    control_frames: int
    data_frames: int
    bytes_sent: int
    extras: dict = field(default_factory=dict)

    def row(self) -> list:
        d = self.to_dict()
        return [fmt(d[name]) for name, _, fmt in _SCENARIO_ROW_SPEC]

    HEADERS = [header for _, header, _ in _SCENARIO_ROW_SPEC]


def corner_places(field_size: float, inset: float = 0.15) -> FeasiblePlaces:
    """Five feasible places: four insets from the corners plus the center."""
    lo, hi = inset * field_size, (1 - inset) * field_size
    mid = field_size / 2
    return FeasiblePlaces.from_mapping(
        {
            "A": (lo, lo),
            "B": (hi, hi),
            "C": (mid, mid),
            "D": (lo, hi),
            "E": (hi, lo),
        }
    )


def make_uniform_scenario(
    n_sensors: int,
    field_size: float,
    gateway_positions: Sequence[Sequence[float]],
    comm_range: float = 50.0,
    sensor_battery: float = float("inf"),
    topology_seed: int = 1,
    protocol_seed: int = 2,
    radio: Optional[RadioConfig] = None,
    energy_model: Optional[EnergyModel] = None,
    require_connected: bool = True,
    audit: Optional[bool] = None,
    faults=None,
) -> Scenario:
    """Uniform random deployment with explicit gateway positions.

    ``audit`` and ``faults`` go straight to :meth:`WorldBuilder.audit`
    and :meth:`WorldBuilder.faults`: ``audit=None`` takes the
    ``REPRO_AUDIT`` default, and ``faults`` is a
    :class:`~repro.faults.plan.FaultPlan`, its jsonable form or ``None``.
    """
    builder = (
        WorldBuilder()
        .seed(protocol_seed)
        .uniform_sensors(n_sensors, field_size, topology_seed=topology_seed)
        .gateways(gateway_positions)
        .comm_range(comm_range)
        .sensor_battery(sensor_battery)
        .radio(radio or IEEE802154.ideal())
        .require_connected(require_connected)
        .audit(audit)
        .faults(faults)
    )
    if energy_model is not None:
        builder.energy(energy_model)
    return builder.build()


def make_grid_scenario(
    rows: int,
    cols: int,
    spacing: float,
    gateway_positions: Sequence[Sequence[float]],
    comm_range: Optional[float] = None,
    sensor_battery: float = float("inf"),
    protocol_seed: int = 2,
    radio: Optional[RadioConfig] = None,
    energy_model: Optional[EnergyModel] = None,
) -> Scenario:
    """Regular grid deployment (deterministic topologies for tests)."""
    builder = (
        WorldBuilder()
        .seed(protocol_seed)
        .grid_sensors(rows, cols, spacing)
        .gateways(gateway_positions)
        .sensor_battery(sensor_battery)
        .radio(radio or IEEE802154.ideal())
    )
    if comm_range is not None:
        builder.comm_range(comm_range)
    if energy_model is not None:
        builder.energy(energy_model)
    return builder.build()


def run_collection_rounds(
    scenario: Scenario,
    protocol,
    num_rounds: int,
    round_duration: float = 5.0,
    packets_per_round: int = 1,
    traffic_offset: float = 2.0,
    sources: Optional[Sequence[int]] = None,
    on_round_start: Optional[Callable[[int], None]] = None,
    stop_on_first_death: bool = False,
    name: str = "protocol",
) -> ScenarioResult:
    """Drive ``num_rounds`` of periodic data collection.

    ``on_round_start(r)`` is where MLR-style protocols move gateways (the
    default calls ``protocol.start_round(r)`` when the protocol has one).
    ``traffic_offset`` delays traffic into the round so that round-start
    control traffic (NOTIFY floods, μTESLA disclosures) settles first.
    """
    if num_rounds <= 0 or round_duration <= 0:
        raise ConfigurationError("num_rounds and round_duration must be positive")
    sim = scenario.sim
    network = scenario.network
    senders = list(sources) if sources is not None else network.sensor_ids
    starter = on_round_start
    if starter is None and hasattr(protocol, "start_round"):
        starter = protocol.start_round

    for r in range(num_rounds):
        sim.run(until=r * round_duration)
        if scenario.metrics.first_death is not None and stop_on_first_death:
            break
        if starter is not None:
            starter(r)
        for k in range(packets_per_round):
            for i, s in enumerate(senders):
                # Small deterministic stagger avoids a thundering herd.
                delay = traffic_offset + k * 1.0 + (i % 97) * 1e-3
                sim.schedule(delay, protocol.send_data, s)
        if hasattr(protocol, "flush_round"):
            sim.schedule(round_duration * 0.9, protocol.flush_round)
    sim.run()

    m = scenario.metrics
    e = energy_stats(network)
    return ScenarioResult(
        name=name,
        delivery_ratio=m.delivery_ratio,
        mean_hops=m.mean_hops,
        mean_latency=m.mean_latency,
        total_energy=e["total"],
        energy_variance=e["variance"],
        lifetime=m.lifetime,
        control_frames=m.control_frames,
        data_frames=m.data_frames,
        bytes_sent=m.bytes_sent,
    )
