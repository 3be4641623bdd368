"""The sharded executor: workers, window protocol, merge, digest.

One coordinator (the calling process) and ``shards`` workers.  Every
worker builds the *identical* deterministic world — full field, same
seed — then restricts itself to the nodes of its strip: only owned
sources' traffic is scheduled, and the channel's ownership mask
(:meth:`~repro.sim.radio.Channel.configure_sharding`) delivers fan-outs
locally to owned receivers while exporting the rest as exact timestamped
messages.  Replicating the world costs memory but buys bit-identity for
free: positions, neighbor tables and float expressions are byte-for-byte
the ones the single-process run uses.

Window protocol (conservative, BSP)::

    worker  -> ('ready', next_event_time)
    coord   -> ('advance', grant, deliveries, alive_updates,
                route_updates)                                 # repeated
    worker  -> ('window', next_event_time, exports, alive_flips,
                route_flips)
    coord   -> ('finish',)
    worker  -> ('done', metrics, (tx, rx), events_processed, wall_s,
                rng_states)

``grant = horizon + lookahead`` where ``horizon`` is the minimum of all
workers' next event times and all not-yet-injected message arrivals, and
the lookahead is :func:`~repro.shard.plan.conservative_lookahead`.  A
frame sent at ``t >= horizon`` arrives at ``t + lookahead >= grant``, so
exports collected at a barrier are never in any worker's past: workers
run ``sim.run(until=grant, inclusive=False)`` (events strictly before
the grant) and the coordinator injects each export exactly once, in the
first window after it surfaced.

Unicast protocols (SPR, MLR) ride the same machinery: every packet —
broadcast flood or routed unicast — crosses a strip boundary as an
exported reception, and every RNG draw (loss, burst, ARQ backoff,
discovery jitter) comes from the *acting node's* substream
(:meth:`~repro.sim.engine.Simulator.node_rng`), which is derived from
the seed alone and therefore identical on every worker.  Route and
liveness state is owner-authoritative; the halo rows of the
struct-of-arrays store mirror the owner's ``alive``/``died_at`` and
``next_hop``/``route_seq`` columns at window barriers.

Barrier-refreshed halo mirrors lag the owner by less than one lookahead
window.  For liveness this lag is *exactly compensated* by the routing
layer's delayed death belief
(:meth:`~repro.core.dataplane.DataPlaneForwarder._believed_alive`): a
battery death at ``t`` becomes visible to other nodes only at ``t +
lookahead``, and since every window spans at most ``lookahead`` of sim
time, the flip always crosses the barrier before any worker may observe
it — death-bearing unicast workloads are therefore bit-identical, which
the digest suite pins at 1/2/3 workers.  One caveat remains,
measure-zero for uniform random deployments: events that tie to the
exact same float timestamp execute in sequence order, and sequence
numbers are per-worker, so cross-shard same-timestamp ties may order
differently than the single-process run.

Fault tolerance.  Every pipe interaction runs through a supervised
:class:`~repro.shard.supervise.WorkerGang` — a worker that dies, hangs
past the per-window deadline, or raises remotely surfaces as a
structured :class:`~repro.exceptions.ShardWorkerError` within a bounded
time, and the gang is torn down on every exit path (no orphans, no
leaked pipes).  With a checkpoint store configured
(:mod:`repro.shard.checkpoint`) the coordinator snapshots the whole
gang at barrier every ``checkpoint_every`` windows and, on a retryable
failure, respawns the gang from the last committed checkpoint — up to
``max_restarts`` times with exponential backoff.  Because snapshots are
side-effect-free and taken at global quiescence, a crashed-and-resumed
run is *bit-identical* (digest and per-node RNG states) to an
uninterrupted one; ``resume_from=`` cold-restarts a brand-new
invocation the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.baselines.flooding import Flooding
from repro.core.mlr import MLR
from repro.core.spr import SPR
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardWorkerError,
    SimulationError,
)
from repro.obs.audit import ConservationReport, assert_conserved, audit_collector
from repro.obs.merge import merge_collectors
from repro.shard.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    _atomic_write_bytes,
    base_dir_for,
    restore_world,
    snapshot_world,
    workload_key,
)
from repro.shard.plan import ShardPlan, conservative_lookahead
from repro.shard.supervise import HarnessChaos, SupervisionConfig, WorkerGang
from repro.sim.mobility import GatewaySchedule
from repro.sim.radio import IEEE802154, RadioConfig
from repro.sim.spatial import CellGrid
from repro.sim.trace import MetricsCollector, audit_default
from repro.world import WorldBuilder, WorldConfig

__all__ = ["ShardRunResult", "ShardWorkload", "run_digest", "run_sharded"]

#: Protocols whose sharded execution is bit-identical.  Flooding is
#: broadcast-only; SPR and MLR route unicast over owner-authoritative
#: state with every RNG draw taken from the acting node's substream, so
#: their frames and draws shard cleanly too.  Gossiping/LEACH still draw
#: from the *shared* ``sim.rng`` in global event order — per-worker
#: streams would diverge — and stay unsupported.
_SHARD_SAFE_PROTOCOLS = {"flooding": Flooding, "spr": SPR, "mlr": MLR}


@dataclass
class ShardWorkload:
    """A deployment plus its full traffic schedule, executor-agnostic.

    ``traffic`` is the *global* list of ``(time, source)`` datum
    originations; each worker schedules only the sources it owns, the
    single-process leg schedules all of them — both label datum ``i``
    with ``data_id == i + 1``, so ``(origin, data_id)`` identities match
    across legs bit-for-bit.

    ``rounds`` (MLR only) is the tuple of round start times: round ``r``
    of the schedule is applied at ``rounds[r]`` on *every* leg — gateway
    moves are replicated world state, the NOTIFY flood airs once on the
    moving gateway's owner.  Empty means one round at t=0.

    Construction validates the protocol/radio/world composition
    immediately (the same :func:`_validate` pass ``run_sharded`` applies
    to its final shard count), so an unsupported combination fails where
    the workload is written, not windows-deep inside a worker.
    """

    sensor_positions: np.ndarray
    gateway_positions: np.ndarray
    comm_range: float
    traffic: tuple
    world: WorldConfig = field(default_factory=WorldConfig)
    radio: RadioConfig = field(default_factory=IEEE802154.ideal)
    protocol: str = "flooding"
    protocol_params: dict = field(default_factory=dict)
    sensor_battery: float = math.inf
    seed: int = 0
    rounds: tuple = ()

    def __post_init__(self) -> None:
        _validate(self, self.world.shards)

    @property
    def positions(self) -> np.ndarray:
        """All node positions, sensors first then gateways — the id
        order :func:`~repro.sim.network.build_sensor_network` uses."""
        return np.vstack(
            [
                np.asarray(self.sensor_positions, dtype=float),
                np.asarray(self.gateway_positions, dtype=float),
            ]
        )


@dataclass
class ShardRunResult:
    """Merged outcome of one (sharded or single-process) execution."""

    shards: int
    metrics: MetricsCollector
    events_processed: int
    wall_clock_s: float
    windows: int
    digest: str
    conservation: Optional[ConservationReport] = None
    #: per-shard ``{"shard", "events_processed", "wall_clock_s"}`` rows
    parts: list = field(default_factory=list)
    #: final per-node RNG substream states, ``{node_id: bit_generator
    #: state dict}`` for every node that drew — sharded runs merge the
    #: owners' states, so equality with the single-process leg proves
    #: the partitioned streams were consumed identically.
    rng_states: dict = field(default_factory=dict)
    #: gang respawns the supervision loop performed (0 = clean run)
    restarts: int = 0
    #: barrier checkpoints committed across all gang generations
    checkpoints: int = 0
    #: window the (last) resume restarted from; ``None`` = from scratch
    resumed_window: Optional[int] = None


# ----------------------------------------------------------------------
# the order-canonical digest
# ----------------------------------------------------------------------
def run_digest(metrics: MetricsCollector, node_counts: tuple) -> str:
    """SHA-256 over the run's observable outcome, canonicalized.

    Covers per-kind frame counters, drop reasons, byte/datum totals, the
    first delivery of every datum (chosen by ``(delivered_at,
    destination)`` so list order is irrelevant), first death, and
    per-node tx/rx counts.  Floats are hex-formatted — bit-identical or
    nothing.  Deliberately excludes ``events_processed`` (batching and
    window re-parking repackage the same work into different event
    counts) and float energy sums (addition order across same-time
    receptions is unobservable).
    """
    tx, rx = node_counts
    firsts: dict[tuple, tuple] = {}
    for r in metrics.deliveries:
        key = (r.origin, r.uid)
        cand = (r.delivered_at, r.destination, r.hops, r.latency, r.created_at)
        prev = firsts.get(key)
        if prev is None or (cand[0], cand[1]) < (prev[0], prev[1]):
            firsts[key] = cand
    first_death = metrics.first_death
    obj = {
        "sent": {k.name: v for k, v in sorted(metrics.sent.items(), key=lambda kv: kv[0].name)},
        "received": {
            k.name: v for k, v in sorted(metrics.received.items(), key=lambda kv: kv[0].name)
        },
        "drops": dict(sorted(metrics.drops.items())),
        "bytes_sent": metrics.bytes_sent,
        "data_generated": metrics.data_generated,
        "control_frames": metrics.control_frames,
        "data_frames": metrics.data_frames,
        "deliveries": [
            [o, u, float(t).hex(), d, h, float(lat).hex(), float(c).hex()]
            for (o, u), (t, d, h, lat, c) in sorted(firsts.items())
        ],
        "first_death": (
            None if first_death is None else [int(first_death[0]), float(first_death[1]).hex()]
        ),
        "tx": [int(v) for v in tx],
        "rx": [int(v) for v in rx],
    }
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# validation and world construction
# ----------------------------------------------------------------------
def _want_audit(cfg: WorldConfig) -> bool:
    return cfg.audit if cfg.audit is not None else audit_default()


def _validate(workload: ShardWorkload, shards: int) -> None:
    """Reject unsupported workload/shard compositions, loudly and early.

    Called from :meth:`ShardWorkload.__post_init__` (against the world's
    default shard count) and again from :func:`run_sharded` (against the
    actual count), so both the construction site and the execution site
    fail with the supported list in the message.
    """
    if not isinstance(shards, int) or shards < 1:
        raise ConfigurationError(f"shards must be a positive integer, got {shards!r}")
    if workload.protocol not in _SHARD_SAFE_PROTOCOLS:
        raise ConfigurationError(
            f"protocol {workload.protocol!r} is not shard-safe; supported: "
            f"{sorted(_SHARD_SAFE_PROTOCOLS)} (gossiping/LEACH draw from the "
            "shared RNG in global event order)"
        )
    if workload.protocol == "mlr":
        schedule = workload.protocol_params.get("schedule")
        if not isinstance(schedule, GatewaySchedule):
            raise ConfigurationError(
                "mlr workloads need a GatewaySchedule under "
                "protocol_params['schedule']"
            )
        n_rounds = len(workload.rounds) or 1
        if n_rounds > schedule.num_rounds:
            raise ConfigurationError(
                f"workload schedules {n_rounds} rounds but the gateway "
                f"schedule only has {schedule.num_rounds}"
            )
        times = [float(t) for t in workload.rounds]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"round start times must be strictly increasing, got {times}"
            )
    elif workload.rounds:
        raise ConfigurationError(
            f"rounds only apply to mlr, not {workload.protocol!r}"
        )
    if shards == 1:
        return
    if workload.world.faults is not None:
        raise ConfigurationError(
            "sharded execution cannot arm a fault plan: the injector would "
            "fire on every shard's replicated copy of a node"
        )
    radio = workload.radio
    if radio.csma or radio.collisions:
        raise ConfigurationError(
            "sharded execution requires csma=False and collisions=False (the "
            "medium is global state); loss, burst, ARQ and backoff shard "
            "fine — their draws come from per-node RNG substreams"
        )
    if workload.protocol == "mlr":
        _validate_mlr_mobility(workload, shards)


def _validate_mlr_mobility(workload: ShardWorkload, shards: int) -> None:
    """Every place a gateway ever occupies must stay in its home strip.

    Node ownership is fixed at round 0 (the plan is built from initial
    positions), so a gateway that crossed a cut would be simulated by a
    worker that no longer matches its position — and interior sensors of
    the strip it entered would deliver to it locally instead of
    exporting.  Strip-stable schedules keep both invariants: a non-owned
    node is always beyond the cut, hence > comm_range from every
    interior sensor.
    """
    schedule: GatewaySchedule = workload.protocol_params["schedule"]
    positions = workload.positions
    plan = ShardPlan.build(positions, workload.comm_range, shards)
    home = plan.owner_of(positions)
    n_rounds = len(workload.rounds) or 1
    for r in range(n_rounds):
        for g, place in sorted(schedule.assignment(r).items()):
            pos = np.asarray(schedule.places.position(place), dtype=float)
            owner = int(plan.owner_of(pos[None, :])[0])
            if owner != int(home[g]):
                raise ConfigurationError(
                    f"gateway {g} moves to place {place!r} in round {r}, "
                    f"crossing from strip {int(home[g])} to {owner}; sharded "
                    "MLR needs strip-stable gateway schedules (ownership is "
                    "fixed at round 0)"
                )


def _schedule_rounds(sim, proto, workload: ShardWorkload) -> None:
    """Arm MLR round starts at identical sim times on every leg.

    Scheduled *before* the traffic so same-timestamp ties resolve the
    same way on workers and the single-process leg.  Gateway moves are
    replicated world state (every worker applies them); the NOTIFY
    flood airs only on the moving gateway's owner.
    """
    if workload.protocol != "mlr":
        return
    for r, when in enumerate(workload.rounds or (0.0,)):
        sim.schedule_at(float(when), proto.start_round, r)


def _build_worker_world(workload: ShardWorkload, defer_audit: bool):
    """Build the full deterministic world one worker (or the single leg) runs.

    ``defer_audit`` builds with auditing disabled and re-enables the
    ledger afterwards *without* the strict idle hook: a worker's local
    quiescence mid-window says nothing about cross-shard in-flight data,
    so only the merged ledger is audited (once, at the coordinator).
    """
    cfg = workload.world.replace(shards=1)
    want_audit = _want_audit(cfg)
    if defer_audit:
        cfg = cfg.replace(audit=False)
    world = (
        WorldBuilder()
        .seed(workload.seed)
        .sensors(np.asarray(workload.sensor_positions, dtype=float))
        .gateways(np.asarray(workload.gateway_positions, dtype=float))
        .comm_range(workload.comm_range)
        .sensor_battery(workload.sensor_battery)
        .radio(workload.radio)
        .configure(cfg)
        .build()
    )
    if defer_audit and want_audit:
        world.metrics.enable_audit()
    proto = world.attach(_SHARD_SAFE_PROTOCOLS[workload.protocol], **workload.protocol_params)
    return world, proto


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    workload: ShardWorkload,
    shard_id: int,
    plan: ShardPlan,
    chaos: Optional[HarnessChaos] = None,
    resume_path: Optional[str] = None,
) -> None:
    try:
        _worker_loop(conn, workload, shard_id, plan, chaos, resume_path)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _worker_loop(
    conn,
    workload: ShardWorkload,
    shard_id: int,
    plan: ShardPlan,
    chaos: Optional[HarnessChaos],
    resume_path: Optional[str],
) -> None:
    t0 = time.perf_counter()
    if resume_path is not None:
        # Thaw the barrier snapshot: the whole world object graph plus
        # the uid watermark, exactly as the dead worker last held it.
        # Channel sharding masks, scheduled traffic and round starts are
        # all part of the frozen state — nothing is re-applied.
        world, proto, extra = restore_world(Path(resume_path).read_bytes())
        sim, channel, network = world.sim, world.channel, world.network
        positions = workload.positions
        owned = plan.owner_of(positions) == shard_id
        watch = extra["watch"]
        alive_now = extra["alive_now"]
        route_now = extra["route_now"]
        window_no = int(extra["window"])
        wall_base = float(extra["wall_s"])
        nodes = network.nodes
        store = network.store
    else:
        positions = workload.positions
        owned = plan.owner_of(positions) == shard_id
        interior = plan.interior_mask(positions, shard_id)
        world, proto = _build_worker_world(workload, defer_audit=True)
        sim, channel, network = world.sim, world.channel, world.network
        if workload.protocol == "mlr":
            # Gateways relocate between rounds: their round-0 interior
            # status goes stale the moment they move, so they always take
            # the split path (mobility is validated strip-stable, keeping
            # the static ownership mask correct).
            interior[list(network.gateway_ids)] = False
        channel.configure_sharding(owned, interior)
        _schedule_rounds(sim, proto, workload)
        for i, (when, src) in enumerate(workload.traffic):
            if owned[src]:
                sim.schedule_at(float(when), proto.send_data, int(src), None, i + 1)

        # Watch set: owned nodes whose aliveness and route columns other
        # shards can observe — everything in the comm_range band around
        # this strip's boundary.
        grid = CellGrid(positions, workload.comm_range)
        band = grid.cells_in_band(plan.strip_rect(shard_id), workload.comm_range)
        watch = [int(i) for i in band if owned[i]]
        nodes = network.nodes
        store = network.store
        alive_now = {i: bool(nodes[i].alive) for i in watch}
        route_now = {i: int(store.route_seq[i]) for i in watch}
        window_no = 0
        wall_base = 0.0

    conn.send(("ready", sim.next_event_time))
    while True:
        msg = conn.recv()
        if msg[0] == "finish":
            break
        if msg[0] == "checkpoint":
            blob = snapshot_world(
                world,
                proto,
                extra={
                    "watch": watch,
                    "alive_now": alive_now,
                    "route_now": route_now,
                    "window": window_no,
                    "wall_s": wall_base + (time.perf_counter() - t0),
                },
            )
            _atomic_write_bytes(Path(msg[1]), blob)
            conn.send(("saved", shard_id))
            continue
        _, grant, deliveries, alive_updates, route_updates = msg
        if alive_updates:
            store.mirror_alive(
                [i for i, _, _ in alive_updates],
                [up for _, up, _ in alive_updates],
                [t for _, _, t in alive_updates],
            )
        if route_updates:
            store.mirror_route(
                [i for i, _, _ in route_updates],
                [hop for _, hop, _ in route_updates],
                [seq for _, _, seq in route_updates],
            )
        for arrive, receiver, sender, packet, attempt in deliveries:
            channel.deliver_remote(arrive, receiver, sender, packet, attempt)
        sim.run(until=grant, inclusive=False)
        window_no += 1
        flips = []
        routes = []
        for i in watch:
            up = bool(nodes[i].alive)
            if up != alive_now[i]:
                alive_now[i] = up
                flips.append((i, up, float(store.died_at[i])))
            seq = int(store.route_seq[i])
            if seq != route_now[i]:
                route_now[i] = seq
                routes.append((i, int(store.next_hop[i]), seq))
        if chaos is not None:
            # State advanced, barrier unreported — the most adversarial
            # crash point (see HarnessChaos).
            if chaos.kill_shard == shard_id and window_no == chaos.kill_window:
                os.kill(os.getpid(), signal.SIGKILL)
            if chaos.delay_shard == shard_id and window_no == chaos.delay_window:
                time.sleep(chaos.delay_s)
        conn.send(
            ("window", sim.next_event_time, channel.take_shard_exports(), flips, routes)
        )

    tx, rx = store.counter_columns()
    rng_states = {
        i: st for i, st in sim.node_rng_states().items() if owned[i]
    }
    conn.send(
        (
            "done",
            world.metrics,
            (tx.tolist(), rx.tolist()),
            sim.events_processed,
            wall_base + (time.perf_counter() - t0),
            rng_states,
        )
    )


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _resolve_checkpoint(
    workload: ShardWorkload, checkpoint, resume_from
) -> Optional[CheckpointConfig]:
    """Checkpointing for this run: explicit arg > WorldConfig > resume path.

    A bare path string is promoted to a :class:`CheckpointConfig` with
    the world's cadence; ``resume_from`` alone implies its own base dir
    as the store (so the resumed run keeps checkpointing into the same
    tree it is restoring from).
    """
    if isinstance(checkpoint, CheckpointConfig):
        return checkpoint
    if isinstance(checkpoint, (str, Path)):
        return CheckpointConfig(
            dir=str(checkpoint), every=workload.world.checkpoint_every
        )
    if checkpoint is not None:
        raise ConfigurationError(
            f"checkpoint must be a CheckpointConfig, a directory path or None, "
            f"got {checkpoint!r}"
        )
    cfg = workload.world
    if cfg.checkpoint_dir is not None:
        return CheckpointConfig(dir=cfg.checkpoint_dir, every=cfg.checkpoint_every)
    if resume_from is not None:
        return CheckpointConfig(
            dir=str(base_dir_for(resume_from)), every=cfg.checkpoint_every
        )
    return None


def _run_single(workload: ShardWorkload) -> ShardRunResult:
    """The ``shards=1`` leg: exactly the existing single-process path."""
    t0 = time.perf_counter()
    world, proto = _build_worker_world(workload, defer_audit=False)
    _schedule_rounds(world.sim, proto, workload)
    for i, (when, src) in enumerate(workload.traffic):
        world.sim.schedule_at(float(when), proto.send_data, int(src), None, i + 1)
    world.sim.run()
    metrics = world.metrics
    tx, rx = world.network.store.counter_columns()
    conservation = None
    if metrics.ledger is not None:
        conservation = audit_collector(metrics, strict=True)
    return ShardRunResult(
        shards=1,
        metrics=metrics,
        events_processed=world.sim.events_processed,
        wall_clock_s=time.perf_counter() - t0,
        windows=0,
        digest=run_digest(metrics, (tx.tolist(), rx.tolist())),
        conservation=conservation,
        parts=[
            {
                "shard": 0,
                "events_processed": world.sim.events_processed,
                "wall_clock_s": time.perf_counter() - t0,
            }
        ],
        rng_states=world.sim.node_rng_states(),
    )


def _coordinate(
    workload: ShardWorkload,
    shards: int,
    plan: ShardPlan,
    positions: np.ndarray,
    supervision: SupervisionConfig,
    store: Optional[CheckpointStore],
    resume_point,
    chaos: Optional[HarnessChaos],
    max_windows: Optional[int],
    stats: dict,
):
    """Drive one gang generation barrier-to-barrier; return the payloads.

    Spawns the workers (from scratch or from ``resume_point``), runs the
    window protocol with supervised sends/receives, checkpoints at the
    configured cadence, and *always* tears the gang down — a worker
    failure propagates as :class:`~repro.exceptions.ShardWorkerError`
    with no process or pipe left behind for the caller's restart loop.
    """
    owners = plan.owner_of(positions)
    xs = positions[:, 0]
    lookahead = conservative_lookahead(workload.radio)
    limit = 1_000_000 if max_windows is None else max_windows

    gang = WorkerGang(_mp_context(), supervision)
    try:
        for s in range(shards):
            shard_file = (
                str(resume_point.path / f"shard-{s:02d}.pkl")
                if resume_point is not None
                else None
            )
            gang.spawn(_worker_main, (workload, s, plan, chaos, shard_file))

        nexts = [gang.recv(s, "ready")[1] for s in range(shards)]
        if resume_point is not None:
            coord = resume_point.coordinator_state()
            if nexts != coord["nexts"]:
                raise CheckpointError(
                    f"resumed workers report next-event times {nexts} but the "
                    f"checkpoint froze {coord['nexts']} — snapshot and workload "
                    "disagree"
                )
            pending = coord["pending"]
            pending_alive = coord["pending_alive"]
            pending_routes = coord["pending_routes"]
            in_flight = coord["in_flight"]
            windows = int(coord["windows"])
        else:
            pending = [[] for _ in range(shards)]
            pending_alive = [[] for _ in range(shards)]
            pending_routes = [[] for _ in range(shards)]
            in_flight = []
            windows = 0
        while True:
            horizon = math.inf
            for t in nexts:
                if t is not None and t < horizon:
                    horizon = t
            for t in in_flight:
                if t < horizon:
                    horizon = t
            if not math.isfinite(horizon):
                break
            windows += 1
            if windows > limit:
                raise SimulationError(
                    f"sharded run exceeded {limit} windows at t={horizon} — livelock?"
                )
            grant = horizon + lookahead
            for s in range(shards):
                gang.send(
                    s,
                    ("advance", grant, pending[s], pending_alive[s], pending_routes[s]),
                    phase="advance",
                )
            pending = [[] for _ in range(shards)]
            pending_alive = [[] for _ in range(shards)]
            pending_routes = [[] for _ in range(shards)]
            in_flight = []
            for s in range(shards):
                msg = gang.recv(s, "window")
                nexts[s] = msg[1]
                for exp in msg[2]:
                    pending[int(owners[exp[1]])].append(exp)
                    in_flight.append(exp[0])
                for node, up, died in msg[3]:
                    for h in plan.halo_shards(float(xs[node])):
                        if h != s:
                            pending_alive[h].append((node, up, died))
                for node, hop, seq in msg[4]:
                    for h in plan.halo_shards(float(xs[node])):
                        if h != s:
                            pending_routes[h].append((node, hop, seq))
            for lst in pending:
                # Deterministic injection order regardless of which
                # shard reported first: by (arrive, receiver).
                lst.sort(key=lambda e: (e[0], e[1]))
            for lst in pending_alive:
                lst.sort()
            for lst in pending_routes:
                lst.sort()

            if store is not None and windows % store.config.every == 0:
                # Global quiescence: every worker drained its grant, all
                # cross-shard traffic is in the pending lists above.
                store.begin(windows)
                for s in range(shards):
                    gang.send(
                        s,
                        ("checkpoint", str(store.shard_path(windows, s))),
                        phase="checkpoint",
                    )
                for s in range(shards):
                    gang.recv(s, "saved")
                store.commit(
                    windows,
                    {
                        "windows": windows,
                        "nexts": list(nexts),
                        "pending": pending,
                        "pending_alive": pending_alive,
                        "pending_routes": pending_routes,
                        "in_flight": list(in_flight),
                    },
                )
                stats["checkpoints"] += 1

        for s in range(shards):
            gang.send(s, ("finish",), phase="finish")
        payloads = [gang.recv(s, "done") for s in range(shards)]
    finally:
        gang.shutdown()
    return payloads, windows


def run_sharded(
    workload: ShardWorkload,
    shards: Optional[int] = None,
    trace_path: Optional[str] = None,
    max_windows: Optional[int] = None,
    supervision: Optional[SupervisionConfig] = None,
    checkpoint=None,
    resume_from: Optional[str] = None,
    chaos: Optional[HarnessChaos] = None,
) -> ShardRunResult:
    """Execute ``workload`` across ``shards`` worker processes.

    ``shards`` defaults to ``workload.world.shards``; ``1`` runs the
    plain single-process path (same digest, same cache identity).  Under
    audit mode the merged ledger is strictly audited at the end — a
    violation raises :class:`~repro.exceptions.ConservationError`, the
    same contract the single-process idle hook enforces at quiescence.
    ``max_windows`` guards against livelock in the window protocol
    (default: one million barriers).  ``trace_path`` writes a JSON cell
    record at the path plus one fragment per shard
    (``<stem>.shardNN<suffix>``).

    Fault tolerance (multi-shard only):

    ``supervision``
        :class:`~repro.shard.supervise.SupervisionConfig` — per-window
        deadline, restart budget, backoff.  Defaults apply when omitted.
    ``checkpoint``
        A :class:`~repro.shard.checkpoint.CheckpointConfig` or a bare
        directory path; falls back to the workload's
        ``world.checkpoint_dir`` / ``checkpoint_every``.  When set, the
        gang snapshots at barrier every ``every`` windows and retryable
        worker failures (death, deadline) respawn from the last
        committed checkpoint — remote Python exceptions re-raise
        immediately (deterministic; a retry would replay them).
    ``resume_from``
        Path to a checkpoint tree (base dir, run dir or window dir) to
        cold-start from; the resumed run is bit-identical to the
        uninterrupted one.
    ``chaos``
        Test-only :class:`~repro.shard.supervise.HarnessChaos`, armed on
        the first gang generation only.
    """
    if shards is None:
        shards = workload.world.shards
    _validate(workload, shards)
    supervision = supervision or SupervisionConfig()
    ckpt_cfg = _resolve_checkpoint(workload, checkpoint, resume_from)
    if shards == 1:
        if resume_from is not None or chaos is not None:
            raise ConfigurationError(
                "resume_from and chaos require a sharded execution (shards > 1); "
                "the single-process leg has no worker gang to supervise"
            )
        result = _run_single(workload)
        if trace_path is not None:
            _write_trace(trace_path, result)
        return result

    t0 = time.perf_counter()
    positions = workload.positions
    plan = ShardPlan.build(positions, workload.comm_range, shards)
    store = (
        CheckpointStore(ckpt_cfg, workload_key(workload, shards), shards)
        if ckpt_cfg is not None
        else None
    )
    resume_point = None
    if resume_from is not None:
        resume_point = store.locate(resume_from)
    resumed_window = resume_point.window if resume_point is not None else None

    stats = {"checkpoints": 0}
    restarts = 0
    attempt_chaos = chaos
    while True:
        try:
            payloads, windows = _coordinate(
                workload, shards, plan, positions, supervision, store,
                resume_point, attempt_chaos, max_windows, stats,
            )
            break
        except ShardWorkerError as exc:
            retryable = (
                exc.retryable
                and store is not None
                and restarts < supervision.max_restarts
            )
            if not retryable:
                raise
            restarts += 1
            attempt_chaos = None
            time.sleep(supervision.backoff_s(restarts - 1))
            # Latest committed checkpoint, if any was reached; None
            # restarts the computation from scratch.
            resume_point = store.latest()
            if resume_point is not None:
                resumed_window = resume_point.window

    collectors = [p[1] for p in payloads]
    tx = np.sum([np.asarray(p[2][0], dtype=np.int64) for p in payloads], axis=0)
    rx = np.sum([np.asarray(p[2][1], dtype=np.int64) for p in payloads], axis=0)
    merged = merge_collectors(collectors)
    conservation = None
    if merged.ledger is not None:
        conservation = assert_conserved(merged, strict=True)
    rng_states: dict[int, dict] = {}
    for p in payloads:
        # Disjoint by construction: a node's substream only ever
        # advances on its owner (draws are keyed by the acting node).
        rng_states.update(p[5])
    result = ShardRunResult(
        shards=shards,
        metrics=merged,
        events_processed=sum(p[3] for p in payloads),
        wall_clock_s=time.perf_counter() - t0,
        windows=windows,
        digest=run_digest(merged, (tx.tolist(), rx.tolist())),
        conservation=conservation,
        parts=[
            {"shard": s, "events_processed": p[3], "wall_clock_s": p[4]}
            for s, p in enumerate(payloads)
        ],
        rng_states=dict(sorted(rng_states.items())),
        restarts=restarts,
        checkpoints=stats["checkpoints"],
        resumed_window=resumed_window,
    )
    if trace_path is not None:
        _write_trace(trace_path, result)
    return result


# ----------------------------------------------------------------------
# trace output
# ----------------------------------------------------------------------
def _cell_record(result: ShardRunResult) -> dict:
    rec: dict[str, Any] = {
        "shards": result.shards,
        "digest": result.digest,
        "events_processed": result.events_processed,
        "wall_clock_s": result.wall_clock_s,
        "windows": result.windows,
        "restarts": result.restarts,
        "checkpoints": result.checkpoints,
        "resumed_window": result.resumed_window,
        "summary": result.metrics.summary(),
    }
    if result.conservation is not None:
        rec["conservation"] = result.conservation.to_jsonable()
    return rec


def _write_trace(path: str, result: ShardRunResult) -> None:
    """One merged cell record at ``path``, one fragment per shard."""
    import pathlib

    p = pathlib.Path(path)
    p.write_text(json.dumps(_cell_record(result), indent=2, sort_keys=True) + "\n")
    for part in result.parts:
        frag = p.with_name(f"{p.stem}.shard{part['shard']:02d}{p.suffix}")
        frag.write_text(json.dumps(part, indent=2, sort_keys=True) + "\n")
