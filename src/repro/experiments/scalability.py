"""E4/E6b — scalability: protocol curves vs size, and sharded execution.

E4 quantifies the Section 1/3 claim that the flat single-sink
architecture scales poorly: "With the expansion of sensor networks, the
average number of hops between a source sensor node to the single sink
become more and more, resulting in more energy consumption and
transmission delay."  Node density is held constant while the field
grows, with one sink at the field center vs ``m`` gateways spread over
the field.  Expected shape: single-sink mean hops grow ~ sqrt(area)
while the multi-gateway curve grows ~ sqrt(area)/sqrt(m).

E6b (:func:`run_scalability_xl`) pushes the same constant-density
construction to 20k-100k sensors, where a single process becomes the
bottleneck: each size runs TTL-bounded flooding through
:func:`repro.shard.run_sharded` at increasing worker counts, asserting
the order-canonical digest is identical across worker counts (the
sharded executor is an execution strategy, not a model change) and
reporting per-leg wall clock.

E6c (:func:`run_scalability_xl_mlr`) repeats the sweep with MLR —
unicast routing, discovery floods, a mid-run gateway relocation round —
exercising the cross-shard route state and per-node RNG partitioning
that broadcast flooding never touches.  The gateway schedule moves
every other gateway a quarter grid cell along y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines.flat import FlatSinkRouting
from repro.core.policy import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import SimulationError
from repro.experiments.common import (
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.shard import ShardWorkload, run_sharded
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.network import uniform_deployment
from repro.sim.serialize import serializable
from repro.world import WorldConfig

__all__ = [
    "ScalabilityResult",
    "run_scalability",
    "ScalabilityXLResult",
    "make_xl_workload",
    "make_xl_mlr_workload",
    "run_scalability_xl",
    "run_scalability_xl_mlr",
]


@serializable
@dataclass(frozen=True)
class ScalabilityRow:
    n_sensors: int
    field_size: float
    single_hops: float
    multi_hops: float
    single_latency: float
    multi_latency: float
    single_energy: float
    multi_energy: float

    @property
    def hop_ratio(self) -> float:
        return self.single_hops / self.multi_hops if self.multi_hops else float("inf")


@serializable
@dataclass(frozen=True)
class ScalabilityResult:
    rows: list
    gateways: int

    def format_table(self) -> str:
        return format_table(
            ["n", "field_m", "hops 1-sink", f"hops {self.gateways}-gw", "ratio",
             "lat 1-sink ms", f"lat {self.gateways}-gw ms",
             "E 1-sink J", f"E {self.gateways}-gw J"],
            [
                [r.n_sensors, r.field_size, round(r.single_hops, 2), round(r.multi_hops, 2),
                 round(r.hop_ratio, 2),
                 round(r.single_latency * 1e3, 2), round(r.multi_latency * 1e3, 2),
                 r.single_energy, r.multi_energy]
                for r in self.rows
            ],
            title="E4 — scalability: single sink vs multiple gateways",
        )

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        rows = sorted(self.rows, key=lambda r: r.n_sensors)
        single = [r.single_hops for r in rows]
        smallest, largest = rows[0], rows[-1]
        return {
            "multi-gateway hops are below single-sink hops at every size": all(
                r.multi_hops < r.single_hops for r in rows
            ),
            "single-sink hops grow with the field": single == sorted(single),
            "the hop gap is wider at the largest size than at the smallest": (
                largest.single_hops - largest.multi_hops
                > smallest.single_hops - smallest.multi_hops
            ),
        }


def _gateway_grid(field_size: float, m: int) -> list[list[float]]:
    """Spread m gateways evenly (center for m=1; inset grid otherwise)."""
    if m == 1:
        return [[field_size / 2, field_size / 2]]
    side = int(np.ceil(np.sqrt(m)))
    coords = []
    for i in range(side):
        for j in range(side):
            if len(coords) >= m:
                break
            coords.append(
                [field_size * (i + 0.5) / side, field_size * (j + 0.5) / side]
            )
    return coords


def run_scalability(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    density: float = 1 / 900.0,  # sensors per m^2 (one per 30x30 m cell)
    gateways: int = 4,
    comm_range: float = 55.0,
    rounds: int = 2,
    seed: int = 1,
    world=None,
) -> ScalabilityResult:
    """Sweep network size at constant density.

    ``world`` (a :class:`~repro.world.WorldConfig` or its jsonable form)
    selects the execution configuration (audit ledger, fault plan).
    """
    cfg = WorldConfig.from_param(world) or WorldConfig()
    rows = []
    for n in sizes:
        field = float(np.sqrt(n / density))
        results = {}
        for label, gw_count, cls in (
            ("single", 1, FlatSinkRouting),
            ("multi", gateways, SPR),
        ):
            scenario = make_uniform_scenario(
                n,
                field,
                _gateway_grid(field, gw_count),
                comm_range=comm_range,
                topology_seed=seed,
                protocol_seed=seed + 1,
                world=cfg,
            )
            protocol = cls(scenario.sim, scenario.network, scenario.channel)
            # Several packets per round amortise the one-time discovery
            # floods so the energy column reflects steady-state forwarding.
            results[label] = run_collection_rounds(
                scenario, protocol, num_rounds=rounds, round_duration=8.0,
                packets_per_round=5, name=label,
            )
        rows.append(
            ScalabilityRow(
                n_sensors=n,
                field_size=round(field, 1),
                single_hops=results["single"].mean_hops,
                multi_hops=results["multi"].mean_hops,
                single_latency=results["single"].mean_latency,
                multi_latency=results["multi"].mean_latency,
                single_energy=results["single"].total_energy,
                multi_energy=results["multi"].total_energy,
            )
        )
    return ScalabilityResult(rows=rows, gateways=gateways)


# ----------------------------------------------------------------------
# E6b — sharded execution scaling
# ----------------------------------------------------------------------
@serializable
@dataclass(frozen=True)
class ScalabilityXLRow:
    """One (network size, worker count) leg of the sharded sweep."""

    n_sensors: int
    shards: int
    wall_clock_s: float
    events_processed: int
    windows: int
    digest: str
    data_generated: int
    delivered: int
    conserved: bool


@serializable
@dataclass(frozen=True)
class ScalabilityXLResult:
    rows: list
    title: str = "E6b — sharded execution scaling (digests equal per size)"

    def format_table(self) -> str:
        return format_table(
            ["n", "workers", "wall_s", "events", "ev/s", "windows",
             "delivered", "digest"],
            [
                [r.n_sensors, r.shards, round(r.wall_clock_s, 3),
                 r.events_processed,
                 int(r.events_processed / r.wall_clock_s) if r.wall_clock_s else 0,
                 r.windows, f"{r.delivered}/{r.data_generated}",
                 r.digest[:12]]
                for r in self.rows
            ],
            title=self.title,
        )

    def speedup(self, n_sensors: int) -> float:
        """wall(min workers) / wall(max workers) at one network size."""
        legs = {r.shards: r.wall_clock_s for r in self.rows if r.n_sensors == n_sensors}
        return legs[min(legs)] / legs[max(legs)]


def make_xl_workload(
    sensors: int,
    floods: int,
    ttl: int,
    density: float = 1 / 900.0,
    comm_range: float = 55.0,
    seed: int = 0,
    audit: Optional[bool] = None,
) -> ShardWorkload:
    """The E6b deployment: constant density, gateway grid, spread floods.

    The gateway grid scales with the field (one per ~5000 sensors,
    minimum 2x2) so delivery stays local at 100k sensors; ``ttl`` bounds
    each flood's reach, which is what makes six-figure fields tractable
    — an unbounded flood touches every node per datum.
    """
    field = math.sqrt(sensors / density)
    positions = uniform_deployment(sensors, field, seed=seed)
    g = max(2, round(math.sqrt(sensors / 5000.0)))
    frac = [(k + 1) / (g + 1) for k in range(g)]
    gateways = np.asarray([[fx * field, fy * field] for fx in frac for fy in frac])
    sources = [int(k * sensors / floods) for k in range(floods)]
    traffic = tuple((1.0 + 0.25 * k, s) for k, s in enumerate(sources))
    return ShardWorkload(
        sensor_positions=positions,
        gateway_positions=gateways,
        comm_range=comm_range,
        traffic=traffic,
        world=WorldConfig(audit=audit),
        protocol="flooding",
        protocol_params={"max_hops": ttl},
        seed=seed,
    )


def _shard_legs(workload: ShardWorkload, n: int, shards: tuple) -> list:
    """Run one workload at every worker count, asserting digest equality."""
    rows = []
    want = None
    for w in shards:
        result = run_sharded(workload, shards=int(w))
        if want is None:
            want = result.digest
        elif result.digest != want:
            raise SimulationError(
                f"sharded run diverged at n={n}: {w} workers produced "
                f"digest {result.digest}, expected {want}"
            )
        rows.append(
            ScalabilityXLRow(
                n_sensors=int(n),
                shards=int(w),
                wall_clock_s=result.wall_clock_s,
                events_processed=result.events_processed,
                windows=result.windows,
                digest=result.digest,
                data_generated=result.metrics.data_generated,
                delivered=len(
                    {(r.origin, r.uid) for r in result.metrics.deliveries}
                ),
                conserved=(
                    result.conservation is None or result.conservation.ok
                ),
            )
        )
    return rows


def run_scalability_xl(
    sizes: tuple[int, ...] = (5000,),
    shards: tuple[int, ...] = (1, 2),
    floods: int = 16,
    ttl: int = 10,
    density: float = 1 / 900.0,
    comm_range: float = 55.0,
    seed: int = 0,
    world=None,
) -> ScalabilityXLResult:
    """Sweep network size × worker count through the sharded executor.

    Every size is replayed at each worker count in ``shards``; the legs
    of one size must agree on the run digest (raises
    :class:`~repro.exceptions.SimulationError` otherwise) and, under
    audit mode, each sharded leg passes the merged conservation audit.
    ``world`` only contributes its audit flag here — sharded execution
    constrains the rest of the configuration itself.
    """
    cfg = WorldConfig.from_param(world) or WorldConfig()
    rows = []
    for n in sizes:
        workload = make_xl_workload(
            n, floods, ttl, density=density, comm_range=comm_range,
            seed=seed, audit=cfg.audit,
        )
        rows.extend(_shard_legs(workload, n, shards))
    return ScalabilityXLResult(rows=rows)


# ----------------------------------------------------------------------
# E6c — sharded execution scaling, MLR
# ----------------------------------------------------------------------
def make_xl_mlr_workload(
    sensors: int,
    datums: int,
    ttl: int,
    density: float = 1 / 900.0,
    comm_range: float = 55.0,
    seed: int = 0,
    audit: Optional[bool] = None,
) -> ShardWorkload:
    """The E6c deployment: MLR with a mid-run gateway relocation round.

    The field and gateway grid match :func:`make_xl_workload`.  Each
    gateway gets two feasible places (same x, y shifted by a quarter
    grid cell).  Round 1 fires after the first half of
    the traffic and moves every other gateway to its alternate place,
    so the second half exercises NOTIFY floods, re-discovery and the
    accumulated place-keyed tables across shard boundaries.
    """
    field = math.sqrt(sensors / density)
    positions = uniform_deployment(sensors, field, seed=seed)
    g = max(2, round(math.sqrt(sensors / 5000.0)))
    frac = [(k + 1) / (g + 1) for k in range(g)]
    spots = [(fx * field, fy * field) for fx in frac for fy in frac]
    gateway_ids = [sensors + k for k in range(len(spots))]
    shift = field / (4.0 * (g + 1))
    labels: list[str] = []
    coords: list[tuple[float, float]] = []
    for k, (x, y) in enumerate(spots):
        labels += [f"p{k}a", f"p{k}b"]
        coords += [(x, y), (x, y + shift)]
    places = FeasiblePlaces(labels=tuple(labels), coordinates=tuple(coords))
    schedule = GatewaySchedule(
        places=places,
        rounds=[
            {gid: f"p{k}a" for k, gid in enumerate(gateway_ids)},
            {
                gid: f"p{k}b" if k % 2 == 0 else f"p{k}a"
                for k, gid in enumerate(gateway_ids)
            },
        ],
    )
    half = (datums + 1) // 2
    move_at = 1.0 + 0.25 * half + 30.0
    sources = [int(k * sensors / datums) for k in range(datums)]
    traffic = tuple(
        (
            1.0 + 0.25 * k if k < half else move_at + 1.0 + 0.25 * (k - half),
            s,
        )
        for k, s in enumerate(sources)
    )
    return ShardWorkload(
        sensor_positions=positions,
        gateway_positions=np.asarray(spots, dtype=float),
        comm_range=comm_range,
        traffic=traffic,
        world=WorldConfig(audit=audit),
        protocol="mlr",
        protocol_params={
            "schedule": schedule,
            "config": ProtocolConfig(ttl=ttl),
        },
        seed=seed,
        rounds=(0.0, move_at),
    )


def run_scalability_xl_mlr(
    sizes: tuple[int, ...] = (2000,),
    shards: tuple[int, ...] = (1, 2),
    datums: int = 16,
    ttl: int = 12,
    density: float = 1 / 900.0,
    comm_range: float = 55.0,
    seed: int = 0,
    world=None,
) -> ScalabilityXLResult:
    """E6c: the sharded sweep with MLR instead of flooding.

    Same digest-equality contract as :func:`run_scalability_xl`, but the
    workload routes unicast DATA over discovered paths, relocates
    gateways mid-run and (under audit mode) passes the merged
    conservation audit whole-network — the end-to-end check that route
    announcements, RERR repair and routing-table state survive shard
    boundaries bit-for-bit.
    """
    cfg = WorldConfig.from_param(world) or WorldConfig()
    rows = []
    for n in sizes:
        workload = make_xl_mlr_workload(
            n, datums, ttl, density=density, comm_range=comm_range,
            seed=seed, audit=cfg.audit,
        )
        rows.extend(_shard_legs(workload, n, shards))
    return ScalabilityXLResult(
        rows=rows,
        title="E6c — sharded MLR scaling (digests equal per size)",
    )
