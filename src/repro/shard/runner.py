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
    coord   -> ('advance', grant, deliveries)          # repeated
    worker  -> ('window', next_event_time, exports)
    coord   -> ('finish',)
    worker  -> ('done', metrics, (tx, rx), events_processed, wall_s,
                rng_states)

``grant = horizon + lookahead`` where ``horizon`` is the minimum of all
workers' next event times and all not-yet-injected message arrivals, and
the lookahead is :func:`~repro.shard.plan.conservative_lookahead`.  A
frame sent at ``t >= horizon`` arrives at ``t + lookahead >= grant``, so
exports collected at a barrier are never in any worker's past: workers
run ``sim.run(until=math.nextafter(grant, -math.inf))`` — no float lies
between that bound and the grant, so exactly the events strictly before
the grant run — and the coordinator injects each export exactly once,
in the first window after it surfaced.

Unicast protocols (SPR, MLR) ride the same machinery: every packet —
broadcast flood or routed unicast — crosses a strip boundary as an
exported reception, and every RNG draw (loss, burst, ARQ backoff,
discovery jitter) comes from the *acting node's* substream
(:meth:`~repro.sim.engine.Simulator.node_rng`), which is derived from
the seed alone and therefore identical on every worker.  Route state
lives in the owner's routing tables and travels only in protocol
frames.

Sharded runs are mains-powered: a workload has no battery setting,
multi-shard runs refuse fault plans, and no shard-safe protocol puts
nodes to sleep, so no node's liveness ever changes and frames are the
only state that crosses a barrier.  Ownership is fixed at round 0 and never follows a moving
gateway — receptions are routed by the receiver's owner wherever the
sender sits.  One caveat remains, measure-zero for uniform random
deployments: events that tie to the exact same float timestamp execute
in sequence order, and sequence numbers are per-worker, so cross-shard
same-timestamp ties may order differently than the single-process run.

Fault tolerance.  Every pipe interaction runs through a supervised
:class:`~repro.shard.supervise.WorkerGang` — a worker that dies, hangs
past the per-window deadline, or raises remotely surfaces as a
structured :class:`~repro.exceptions.ShardWorkerError` within a bounded
time, and the gang is torn down on every exit path (no orphans, no
leaked pipes).  On a retryable failure (death or deadline) the
coordinator respawns the gang and reruns the workload from scratch — up
to ``max_restarts`` times with exponential backoff.  The rerun is
*bit-identical* (digest and per-node RNG states) to an uninterrupted
run: every worker forks from the same coordinator state and every draw
derives from the seed.
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
from typing import Optional

import numpy as np

from repro.baselines.flooding import Flooding
from repro.core.mlr import MLR
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError, ShardWorkerError, SimulationError
from repro.obs.audit import ConservationReport, assert_conserved, audit_collector
from repro.obs.merge import merge_collectors
from repro.shard.plan import ShardPlan, conservative_lookahead
from repro.shard.supervise import HarnessChaos, SupervisionConfig, WorkerGang
from repro.sim.mobility import GatewaySchedule
from repro.sim.radio import IEEE802154, RadioConfig
from repro.sim.trace import MetricsCollector, audit_default
from repro.world import WorldBuilder, WorldConfig

__all__ = ["ShardRunResult", "ShardWorkload", "run_digest", "run_sharded"]

#: Protocols whose sharded execution is bit-identical.  Flooding is
#: broadcast-only; SPR and MLR route unicast over owner-held tables
#: with every RNG draw taken from the acting node's substream, so
#: their frames and draws shard cleanly too.  Gossiping/LEACH still draw
#: from the *shared* ``sim.rng`` in global event order — per-worker
#: streams would diverge — and stay unsupported.
_SHARD_SAFE_PROTOCOLS = {"flooding": Flooding, "spr": SPR, "mlr": MLR}

#: Livelock guard: a sharded run needing more window barriers than this
#: raises :class:`~repro.exceptions.SimulationError`.
_MAX_WINDOWS = 1_000_000


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

    Sensors are mains-powered: the workload has no battery setting, so
    no node dies and liveness never has to cross a barrier.

    Construction validates everything that holds at any shard count —
    a shard-safe protocol, MLR's schedule and round times — so such a
    mistake fails where the workload is written.  :func:`run_sharded`
    repeats the check against its shard count and adds the multi-shard
    rules (no fault plan, an unobserved medium) before any worker
    starts.
    """

    sensor_positions: np.ndarray
    gateway_positions: np.ndarray
    comm_range: float
    traffic: tuple
    world: WorldConfig = field(default_factory=WorldConfig)
    radio: RadioConfig = field(default_factory=IEEE802154.ideal)
    protocol: str = "flooding"
    protocol_params: dict = field(default_factory=dict)
    seed: int = 0
    rounds: tuple = ()

    def __post_init__(self) -> None:
        _validate(self, 1)

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

    Called from :meth:`ShardWorkload.__post_init__` (at one shard) and
    again from :func:`run_sharded` (at the requested count), so both the
    construction site and the execution site fail with the supported
    list in the message.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
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


def _validate_chaos(chaos: Optional[HarnessChaos], shards: int) -> None:
    """Reject harness chaos that could never fire.

    Chaos needs a worker gang, and its target shards must be workers of
    this run — a mis-aimed kill would otherwise pass a recovery test
    without any crash happening.  A kill window past the last barrier
    cannot be known in advance and stays legal.
    """
    if chaos is None:
        return
    if shards == 1:
        raise ConfigurationError(
            "chaos requires a sharded execution (shards > 1); the "
            "single-process leg has no worker gang to supervise"
        )
    for name in ("kill_shard", "delay_shard"):
        target = getattr(chaos, name)
        if target is not None and target not in range(shards):
            raise ConfigurationError(
                f"HarnessChaos {name}={target!r} names no worker of a "
                f"{shards}-shard run (valid: 0..{shards - 1})"
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
    cfg = workload.world
    want_audit = _want_audit(cfg)
    if defer_audit:
        cfg = cfg.replace(audit=False)
    world = (
        WorldBuilder()
        .seed(workload.seed)
        .sensors(np.asarray(workload.sensor_positions, dtype=float))
        .gateways(np.asarray(workload.gateway_positions, dtype=float))
        .comm_range(workload.comm_range)
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
) -> None:
    try:
        _worker_loop(conn, workload, shard_id, plan, chaos)
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
) -> None:
    t0 = time.perf_counter()
    positions = workload.positions
    owned = plan.owner_of(positions) == shard_id
    world, proto = _build_worker_world(workload, defer_audit=True)
    sim, channel = world.sim, world.channel
    channel.configure_sharding(owned)
    _schedule_rounds(sim, proto, workload)
    for i, (when, src) in enumerate(workload.traffic):
        if owned[src]:
            sim.schedule_at(float(when), proto.send_data, int(src), None, i + 1)
    window_no = 0

    conn.send(("ready", sim.next_event_time))
    while True:
        msg = conn.recv()
        if msg[0] == "finish":
            break
        _, grant, deliveries = msg
        for arrive, receiver, sender, packet, attempt in deliveries:
            channel.deliver_remote(arrive, receiver, sender, packet, attempt)
        # Events *at* the grant stay queued: a cross-shard frame may
        # still arrive exactly then.
        sim.run(until=math.nextafter(grant, -math.inf))
        window_no += 1
        if chaos is not None:
            # State advanced, barrier unreported — the most adversarial
            # crash point (see HarnessChaos).
            if chaos.kill_shard == shard_id and window_no == chaos.kill_window:
                os.kill(os.getpid(), signal.SIGKILL)
            if chaos.delay_shard == shard_id and window_no == chaos.delay_window:
                time.sleep(chaos.delay_s)
        conn.send(("window", sim.next_event_time, channel.take_shard_exports()))

    tx, rx = world.network.store.counter_columns()
    rng_states = {
        i: st for i, st in sim.node_rng_states().items() if owned[i]
    }
    conn.send(
        (
            "done",
            world.metrics,
            (tx.tolist(), rx.tolist()),
            sim.events_processed,
            time.perf_counter() - t0,
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
    chaos: Optional[HarnessChaos],
):
    """Drive one gang generation from spawn to done; return the payloads.

    Spawns the workers, runs the window protocol with supervised
    sends/receives, and *always* tears the gang down — a worker failure
    propagates as :class:`~repro.exceptions.ShardWorkerError` with no
    process or pipe left behind for the caller's restart loop.
    """
    owners = plan.owner_of(positions)
    lookahead = conservative_lookahead(workload.radio)

    gang = WorkerGang(_mp_context(), supervision)
    try:
        for s in range(shards):
            gang.spawn(_worker_main, (workload, s, plan, chaos))

        nexts = [gang.recv(s, "ready")[1] for s in range(shards)]
        pending = [[] for _ in range(shards)]
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
            if windows > _MAX_WINDOWS:
                raise SimulationError(
                    f"sharded run exceeded {_MAX_WINDOWS} windows at t={horizon} "
                    "— livelock?"
                )
            grant = horizon + lookahead
            for s in range(shards):
                gang.send(s, ("advance", grant, pending[s]), phase="advance")
            pending = [[] for _ in range(shards)]
            in_flight = []
            for s in range(shards):
                msg = gang.recv(s, "window")
                nexts[s] = msg[1]
                for exp in msg[2]:
                    pending[int(owners[exp[1]])].append(exp)
                    in_flight.append(exp[0])
            for lst in pending:
                # Deterministic injection order regardless of which
                # shard reported first: by (arrive, receiver).
                lst.sort(key=lambda e: (e[0], e[1]))

        for s in range(shards):
            gang.send(s, ("finish",), phase="finish")
        payloads = [gang.recv(s, "done") for s in range(shards)]
    finally:
        gang.shutdown()
    return payloads, windows


def run_sharded(
    workload: ShardWorkload,
    shards: int = 1,
    supervision: Optional[SupervisionConfig] = None,
    chaos: Optional[HarnessChaos] = None,
) -> ShardRunResult:
    """Execute ``workload`` across ``shards`` worker processes.

    ``shards`` is the one place the worker count is set; ``1`` (the
    default) runs the plain single-process path.  Under audit mode the
    merged ledger is strictly audited at the end — a violation raises
    :class:`~repro.exceptions.ConservationError`, the same contract the
    single-process idle hook enforces at quiescence.

    Fault tolerance (multi-shard only):

    ``supervision``
        :class:`~repro.shard.supervise.SupervisionConfig` — per-window
        deadline and restart budget.  Defaults apply when omitted.  A
        worker death or deadline expiry respawns the gang and reruns
        the workload from scratch, up to ``max_restarts`` times; the
        rerun is bit-identical to an uninterrupted run.  Remote Python
        exceptions re-raise immediately (deterministic; a rerun would
        replay them).
    ``chaos``
        Test-only :class:`~repro.shard.supervise.HarnessChaos`, armed on
        the first gang generation only.  Its ``kill_shard`` and
        ``delay_shard`` must name workers of this run.
    """
    _validate(workload, shards)
    _validate_chaos(chaos, shards)
    supervision = supervision or SupervisionConfig()
    if shards == 1:
        return _run_single(workload)

    t0 = time.perf_counter()
    positions = workload.positions
    plan = ShardPlan.build(positions, shards)
    restarts = 0
    attempt_chaos = chaos
    while True:
        try:
            payloads, windows = _coordinate(
                workload, shards, plan, positions, supervision, attempt_chaos,
            )
            break
        except ShardWorkerError as exc:
            if not exc.retryable or restarts >= supervision.max_restarts:
                raise
            restarts += 1
            attempt_chaos = None
            time.sleep(supervision.backoff_s(restarts - 1))

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
    return ShardRunResult(
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
    )
