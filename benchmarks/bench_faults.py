"""Fault-injection benchmark: injector overhead and 500-node churn.

Two questions, both guarding the :mod:`repro.faults` subsystem:

* **overhead** — arming a plan compiles fault events onto the simulator
  heap at world-build time.  An armed-but-quiet run (every fault lands
  *after* the traffic horizon, so no fault ever fires during traffic)
  must cost essentially the same as the identical run without a plan:
  the injector may not tax the hot path.  Gated by ``--max-overhead``.
* **churn at scale** — a 500-node field under round-robin gateway churn
  with bursty loss, run under strict conservation audit.  The benchmark
  asserts conservation holds, every gateway outage recovers, MTTR is
  finite and more than 80% of the data is delivered — a correctness
  gate at a size the unit tests do not reach.

Run standalone for JSON output::

    PYTHONPATH=src python benchmarks/bench_faults.py --nodes 500 --json -

The CI smoke job runs a small config with a loose ``--max-overhead``
(wall-clock ratios on shared runners are noisy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.core.spr import SPR
from repro.experiments.common import corner_places
from repro.faults.plan import Crash, FaultPlan, GatewayChurn, LinkDegrade, Recover
from repro.sim.radio import GilbertElliott
from repro.world import WorldBuilder

_COMM_RANGE = 50.0
_TARGET_DEGREE = 14.0
_NUM_GATEWAYS = 3


def _field_size(n_nodes: int) -> float:
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def _build(n_nodes: int, seed: int, plan=None, audit=False):
    field = _field_size(n_nodes)
    places = corner_places(field)
    builder = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(n_nodes, field, topology_seed=seed)
        .gateways([list(places.position(p)) for p in ("A", "B", "C")[:_NUM_GATEWAYS]])
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .audit(audit)
    )
    if plan is not None:
        builder.faults(plan)
    return builder.build()


def _drive(world, rounds: int, period: float) -> float:
    """Schedule periodic all-sensor traffic, run to quiescence, return wall."""
    spr = SPR(world.sim, world.network, world.channel)
    for r in range(rounds):
        for i, s in enumerate(world.network.sensor_ids):
            world.sim.schedule_at(r * period + 0.5 + (i % 97) * 1e-3,
                                  spr.send_data, s)
    t0 = time.perf_counter()
    world.sim.run()
    return time.perf_counter() - t0


def bench_overhead(n_nodes: int, rounds: int, seed: int = 0) -> dict:
    """Armed-but-quiet plan vs no plan: the injector off the hot path."""
    period = 5.0
    horizon = rounds * period
    # A plan dense in events, all strictly after the traffic horizon.
    quiet = FaultPlan(
        tuple(Crash(node=i % n_nodes, t=horizon + 10.0 + i) for i in range(200))
        + tuple(Recover(node=i % n_nodes, t=horizon + 500.0 + i) for i in range(200))
    )
    base_wall = _drive(_build(n_nodes, seed), rounds, period)
    armed_world = _build(n_nodes, seed, plan=quiet)
    # Stop before the first fault fires: measure pure carrying cost.
    spr = SPR(armed_world.sim, armed_world.network, armed_world.channel)
    for r in range(rounds):
        for i, s in enumerate(armed_world.network.sensor_ids):
            armed_world.sim.schedule_at(r * period + 0.5 + (i % 97) * 1e-3,
                                        spr.send_data, s)
    t0 = time.perf_counter()
    armed_world.sim.run(until=horizon)
    armed_wall = time.perf_counter() - t0
    return {
        "nodes": n_nodes,
        "rounds": rounds,
        "base_wall_s": base_wall,
        "armed_wall_s": armed_wall,
        "overhead_ratio": armed_wall / base_wall,
    }


def bench_churn(n_nodes: int, seed: int = 0) -> dict:
    """Gateway churn + bursty loss at scale, under strict audit."""
    rounds, period = 6, 6.0
    plan = FaultPlan(
        (
            GatewayChurn(period=8.0, downtime=4.0, start=5.0, cycles=1),
            LinkDegrade(
                t0=10.0, t1=20.0,
                burst=GilbertElliott(p_gb=0.1, p_bg=0.4, loss_bad=0.6),
            ),
        )
    )
    world = _build(n_nodes, seed, plan=plan, audit=True)
    wall = _drive(world, rounds, period)
    report = world.conservation_report(strict=True)
    assert report.ok, report.violations
    rec = world.faults.recovery_report()
    assert rec.n_faults == _NUM_GATEWAYS
    assert rec.n_recovered == _NUM_GATEWAYS, "a churned gateway never recovered"
    assert rec.mttr is not None and rec.mttr < rounds * period, "MTTR not finite"
    delivery_ratio = report.delivered / max(1, report.generated)
    assert delivery_ratio > 0.8, f"delivery {delivery_ratio:.3f} under churn"
    return {
        "nodes": n_nodes,
        "wall_clock_s": wall,
        "generated": report.generated,
        "delivered": report.delivered,
        "delivery_ratio": delivery_ratio,
        "mttr_s": rec.mttr,
        "availability": rec.availability,
        "windows": rec.n_faults,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--rounds", type=int, default=4,
                        help="traffic rounds for the overhead comparison")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-overhead", type=float, default=1.25,
                        help="fail if armed/base wall-clock ratio exceeds this")
    parser.add_argument("--json", metavar="PATH",
                        help="write the report as JSON ('-' for stdout)")
    args = parser.parse_args(argv)

    overhead = bench_overhead(args.nodes, args.rounds, seed=args.seed)
    churn = bench_churn(args.nodes, seed=args.seed)
    report = {"overhead": overhead, "churn": churn}

    print(
        f"injector overhead: base {overhead['base_wall_s']:.3f}s, "
        f"armed {overhead['armed_wall_s']:.3f}s "
        f"(ratio {overhead['overhead_ratio']:.3f})",
        file=sys.stderr,
    )
    print(
        f"churn @ {churn['nodes']} nodes: {churn['wall_clock_s']:.3f}s wall, "
        f"delivery {churn['delivery_ratio']:.3f}, MTTR {churn['mttr_s']:.3f}s, "
        f"availability {churn['availability']:.4f}",
        file=sys.stderr,
    )

    if args.json == "-":
        json.dump(report, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)

    if overhead["overhead_ratio"] > args.max_overhead:
        print(
            f"FAIL: injector overhead ratio {overhead['overhead_ratio']:.3f} "
            f"> {args.max_overhead}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
