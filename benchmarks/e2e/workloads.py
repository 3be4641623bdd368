"""The four end-to-end workloads, their work counts and their digests.

Each workload splits into ``prepare(seed)`` (input generation: counted as
set-up, not timed) and ``run(inputs, traced)`` (the timed region: every
world the workload builds plus every simulation it runs).  ``run`` returns
an :class:`Outcome` whose digest is owned by the benchmark: SHA-256 over
the canonical serialized result with host-timing fields removed, plus hex
per-node energy for the single-process simulations.  The digest does not
depend on ``repro.shard.run_digest``, so it survives that helper's removal.

``traced=True`` selects the in-process form of a workload for the traced
pass (``lifetime_sweep`` at one worker, ``mlr_sharded`` as its 1-worker leg
only); its digest must equal the untraced digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from dataclasses import dataclass, field

from repro import shard
from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.experiments.registry import get_experiment
from repro.experiments.scalability import make_xl_mlr_workload
from repro.runner import sweep
from repro.runner.spec import ExperimentSpec
from repro.runner.sweep import SweepRunner
from repro.sim.serialize import to_jsonable
from repro.world import WorldBuilder

__all__ = ["Outcome", "WORKLOADS", "make_workload"]


@dataclass
class Outcome:
    """What one timed run produced: invariant work counts plus checks."""

    digest: str
    receptions: int
    datums: int
    frames: int
    events: int
    drops: int
    wall_s: float = 0.0
    #: untraced wall time of the part the traced form repeats (the traced
    #: pass divides by this to get the tracing overhead)
    serial_s: float = 0.0
    #: failed correctness checks, one line each; empty means the run is good
    failures: list = field(default_factory=list)
    #: layer diagnostics only the untraced form can give (runner.*, shard.*)
    extras: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# canonical documents and digests
# ----------------------------------------------------------------------
def sha256_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def strip_timing(obj):
    """``obj`` (jsonable) without host-timing fields such as ``wall_clock_s``."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def metrics_doc(m) -> dict:
    """Order-canonical form of a ``MetricsCollector``; floats as hex."""
    firsts: dict[tuple, tuple] = {}
    for r in m.deliveries:
        key = (r.origin, r.uid)
        cand = (r.delivered_at, r.destination, r.hops, r.latency, r.created_at)
        prev = firsts.get(key)
        if prev is None or cand[:2] < prev[:2]:
            firsts[key] = cand
    first_death = m.first_death
    return {
        "sent": {k.name: v for k, v in m.sent.items()},
        "received": {k.name: v for k, v in m.received.items()},
        "drops": dict(m.drops),
        "bytes_sent": m.bytes_sent,
        "data_generated": m.data_generated,
        "deliveries": sorted(
            [o, repr(u), float(t).hex(), d, h, float(lat).hex(), float(c).hex()]
            for (o, u), (t, d, h, lat, c) in firsts.items()
        ),
        "first_death": (
            None if first_death is None
            else [int(first_death[0]), float(first_death[1]).hex()]
        ),
    }


def unique_datums(m) -> int:
    return len({(r.origin, r.uid) for r in m.deliveries})


class WorldLog:
    """Keeps every world ``WorldBuilder.build`` returns inside the block.

    ``repro.world.record_world_events`` keeps only simulators and metrics
    collectors; the energy part of the digest needs each world's network.
    """

    def __init__(self) -> None:
        self.worlds: list = []

    def __enter__(self) -> "WorldLog":
        self._orig = WorldBuilder.__dict__["build"]
        orig, worlds = self._orig, self.worlds

        def build(builder):
            world = orig(builder)
            worlds.append(world)
            return world

        WorldBuilder.build = build
        return self

    def __exit__(self, *exc) -> None:
        WorldBuilder.build = self._orig

    def summary(self) -> dict:
        """Work counts over the logged worlds, and a digest of their
        metrics plus hex per-node remaining and spent energy."""
        docs = []
        for w in self.worlds:
            remaining, spent = w.network.store.energy_columns()
            docs.append({
                "metrics": metrics_doc(w.metrics),
                "remaining": [float(x).hex() for x in remaining.tolist()],
                "spent": [float(x).hex() for x in spent.tolist()],
            })
        ms = [w.metrics for w in self.worlds]
        return {
            "receptions": sum(sum(m.received.values()) for m in ms),
            "datums": sum(unique_datums(m) for m in ms),
            "frames": sum(sum(m.sent.values()) for m in ms),
            "events": sum(w.sim.events_processed for w in self.worlds),
            "drops": sum(sum(m.drops.values()) for m in ms),
            "digest": sha256_of(docs),
        }


def _outcome(
    digested, summaries: list, wall: float, serial: float, failures: list, extras=None
) -> Outcome:
    out = Outcome(
        digest=sha256_of(digested),
        receptions=sum(s["receptions"] for s in summaries),
        datums=sum(s["datums"] for s in summaries),
        frames=sum(s["frames"] for s in summaries),
        events=sum(s["events"] for s in summaries),
        drops=sum(s["drops"] for s in summaries),
        wall_s=wall,
        serial_s=serial,
        failures=failures,
        extras=extras or {},
    )
    if out.datums == 0:
        out.failures.append("delivered 0 datums: the workload is degenerate")
    return out


# ----------------------------------------------------------------------
# sweep tap: per-cell work summaries out of the runner's pool workers
# ----------------------------------------------------------------------
# SweepRunner returns only each cell's serialized result, so the cell
# function is swapped for one that also logs the cell's worlds and posts
# their summary on a queue.  Pool workers are forked after the swap and
# inherit both; the pool pickles the function by module-level name, which
# is why these two are module globals, set only inside ``_run_tapped_sweep``.
_tap_orig = None
_tap_queue = None


def _summarized_cell(experiment, params, seed, timeout_s=None):
    with WorldLog() as log:
        raw = _tap_orig(experiment, params, seed, timeout_s)
    _tap_queue.put((seed, log.summary()))
    return raw


def _run_tapped_sweep(spec: ExperimentSpec, workers: int):
    """Run ``spec`` through ``SweepRunner``; return it with cell summaries."""
    global _tap_orig, _tap_queue
    queue = multiprocessing.get_context("fork").SimpleQueue()
    _tap_orig, _tap_queue = sweep._execute_cell, queue
    sweep._execute_cell = _summarized_cell
    try:
        result = SweepRunner(workers=workers).run(spec)
    finally:
        sweep._execute_cell = _tap_orig
        _tap_orig = _tap_queue = None
    posted = []
    while not queue.empty():
        posted.append(queue.get())
    queue.close()
    return result, [s for _, s in sorted(posted, key=lambda p: p[0])]


# ----------------------------------------------------------------------
# experiment seeds
# ----------------------------------------------------------------------
# The registry experiments build their deployments with
# require_connected=True, and some topology seeds leave a sensor out of
# every gateway's reach (TopologyError).  These seeds in range(120) do, for
# the default deployments of E5 and E8; they were found by running
# run_experiment("lifetime", {"max_rounds": 1}, s) and a one-cell
# attack_matrix for every s.  A benchmark seed maps onto the remaining
# seeds, so every benchmark seed gives a workload that runs.
_LIFETIME_UNREACHABLE = {
    10, 11, 14, 15, 18, 30, 33, 34, 37, 38, 42, 43, 53, 55, 61, 64, 66, 67,
    71, 77, 87, 88, 91, 95, 98, 105, 109, 112,
}
_ATTACK_UNREACHABLE = {15, 18, 20, 28, 30, 38, 42, 43, 54, 59, 61, 87, 96, 98}
LIFETIME_SEEDS = [s for s in range(120) if s not in _LIFETIME_UNREACHABLE]
ATTACK_SEEDS = [s for s in range(120) if s not in _ATTACK_UNREACHABLE]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
# ``run`` is exactly the timed region and returns raw artifacts; ``finish``
# turns them into an Outcome (digests, counts, checks) outside the timing.
class FloodDense:
    """SPR discovery floods over a dense mains-powered field, ideal radio."""

    name = "flood_dense"

    def __init__(self, sensors: int = 2000, datums: int = 48) -> None:
        self.sensors = sensors
        self.datums = datums
        self.comm_range = 40.0
        # Field edge for a mean degree of 20 neighbors.
        self.field = math.sqrt(sensors * math.pi * self.comm_range**2 / 20.0)

    def prepare(self, seed: int):
        builder = (
            WorldBuilder()
            .seed(seed)
            .uniform_sensors(self.sensors, field_size=self.field, topology_seed=seed)
            .gateways([[self.field / 2.0, self.field / 2.0]])
            .comm_range(self.comm_range)
            .ideal_radio()
        )
        sources = [int(k * self.sensors / self.datums) for k in range(self.datums)]
        return builder, sources

    def run(self, inputs, traced: bool = False):
        builder, sources = inputs
        with WorldLog() as log:
            world = builder.build()
            # Table answering off: every discovery floods the whole field.
            spr = world.attach(SPR, ProtocolConfig(table_answering=False))
            for k, src in enumerate(sources):
                world.sim.schedule(0.5 * k, spr.send_data, src)
            world.sim.run()
        return log

    def finish(self, log, wall: float) -> Outcome:
        summary = log.summary()
        failures = []
        if 0 < summary["datums"] < self.datums:
            failures.append(f"delivered {summary['datums']}/{self.datums} datums")
        return _outcome(summary["digest"], [summary], wall, wall, failures)


class LifetimeSweep:
    """Registry ``lifetime`` (E5) at its defaults over four consecutive
    usable seeds from S (S..S+3 where none is unreachable)."""

    name = "lifetime_sweep"

    def __init__(self, seeds: int = 4, params: dict | None = None) -> None:
        self.seeds = seeds
        self.params = params or {}

    def prepare(self, seed: int):
        seeds = [
            LIFETIME_SEEDS[(seed + k) % len(LIFETIME_SEEDS)] for k in range(self.seeds)
        ]
        return ExperimentSpec("lifetime", dict(self.params), seeds=seeds)

    def run(self, spec, traced: bool = False):
        workers = 1 if traced else 2
        return (workers, *_run_tapped_sweep(spec, workers))

    def finish(self, artifacts, wall: float) -> Outcome:
        workers, result, summaries = artifacts
        failures = [
            f"sweep cell seed={c.seed} failed: {c.error}" for c in result.cells if c.failed
        ]
        if len(summaries) != len(result.cells):
            failures.append(f"{len(summaries)} cell summaries for {len(result.cells)} cells")
        doc = [strip_timing(to_jsonable(c.result)) for c in result.cells]
        cell_s = [c.wall_clock_s for c in result.cells]
        extras = {
            "runner.cells": len(cell_s),
            "runner.cell_s_sum": sum(cell_s),
            "runner.cell_s_max": max(cell_s),
            "runner.parallel_efficiency": sum(cell_s) / (workers * result.stats.wall_clock_s),
        }
        digested = [doc, [s["digest"] for s in summaries]]
        return _outcome(digested, summaries, wall, sum(cell_s), failures, extras)


class AttackAudit:
    """Registry ``attack_matrix`` (E8) at its defaults, audit ledger on."""

    name = "attack_audit"

    def __init__(self, params: dict | None = None) -> None:
        self.params = params or {}

    def prepare(self, seed: int):
        return get_experiment("attack_matrix"), ATTACK_SEEDS[seed % len(ATTACK_SEEDS)]

    def run(self, inputs, traced: bool = False):
        adapter, seed = inputs
        with WorldLog() as log:
            result = adapter.run(dict(self.params), seed)
        return result, log

    def finish(self, artifacts, wall: float) -> Outcome:
        result, log = artifacts
        failures = []
        for k, w in enumerate(log.worlds):
            if w.metrics.ledger is None:
                failures.append(f"world {k} ran without the audit ledger")
                continue
            report = w.metrics.conservation_report(strict=True)
            if not report.ok:
                failures.append(f"world {k} fails conservation: {report.violations}")
        summary = log.summary()
        digested = [strip_timing(to_jsonable(result)), summary["digest"]]
        return _outcome(digested, [summary], wall, wall, failures)


class MlrSharded:
    """E6c sharded MLR: the same workload at 1 and then 2 workers."""

    name = "mlr_sharded"

    def __init__(self, sensors: int = 5000, datums: int = 64, ttl: int = 12) -> None:
        self.sensors = sensors
        self.datums = datums
        self.ttl = ttl

    def prepare(self, seed: int):
        return make_xl_mlr_workload(self.sensors, datums=self.datums, ttl=self.ttl, seed=seed)

    def run(self, workload, traced: bool = False):
        legs = (1,) if traced else (1, 2)
        return {w: shard.run_sharded(workload, shards=w) for w in legs}

    def finish(self, results, wall: float) -> Outcome:
        docs = {w: metrics_doc(r.metrics) for w, r in results.items()}
        failures = []
        if 2 in docs and sha256_of(docs[2]) != sha256_of(docs[1]):
            failures.append("1-worker and 2-worker digests differ")
        summaries = [
            {
                "receptions": sum(r.metrics.received.values()),
                "datums": unique_datums(r.metrics),
                "frames": sum(r.metrics.sent.values()),
                "events": r.events_processed,
                "drops": sum(r.metrics.drops.values()),
            }
            for r in results.values()
        ]
        one = results[1]
        extras = {}
        if 2 in results:
            two = results[2]
            events = [p["events_processed"] for p in two.parts]
            extras = {
                "shard.wall_1w_s": one.wall_clock_s,
                "shard.wall_2w_s": two.wall_clock_s,
                "shard.speedup_2w": one.wall_clock_s / two.wall_clock_s,
                "shard.windows": two.windows,
                "shard.windows_per_s": two.windows / two.wall_clock_s,
                "shard.event_imbalance": max(events) / (sum(events) / len(events)),
            }
        return _outcome(docs[1], summaries, wall, one.wall_clock_s, failures, extras)


#: name -> (full-size factory, --quick factory)
WORKLOADS = {
    "flood_dense": (FloodDense, lambda: FloodDense(sensors=400, datums=8)),
    "lifetime_sweep": (
        LifetimeSweep,
        lambda: LifetimeSweep(seeds=2, params={"max_rounds": 3, "protocols": ["MLR", "LEACH"]}),
    ),
    "attack_audit": (
        AttackAudit,
        lambda: AttackAudit(params={"attacks": ["none", "blackhole", "replay"], "rounds": 2}),
    ),
    "mlr_sharded": (MlrSharded, lambda: MlrSharded(sensors=1000, datums=12)),
}


def make_workload(name: str, quick: bool = False):
    full, small = WORKLOADS[name]
    return small() if quick else full()
