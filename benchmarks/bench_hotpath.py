"""Hot-path microbenchmark: the broadcast reception path, gated on an oracle.

Broadcast floods dominate E4/E8/E9 sweeps, and each flood frame fans out
to every neighbor of the sender — reception delivery is where simulation
time goes.  This benchmark floods a dense uniform field through the one
production path (the :class:`~repro.sim.state.NodeStateStore` columns
plus batched delivery draining) and reports receptions/s.

Before reporting it runs the same flood once, untimed and under the
conservation audit, on the per-receiver oracle channel in
``tests/oracle.py`` and asserts the two runs share a digest (same event
count, frames, receptions and delivered datums), so the benchmark is a
correctness gate as well as a timer.  It also exits non-zero on a
degenerate workload: no datum delivered, or a failed conservation
audit.  Run standalone for JSON output::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --nodes 500 \
        --repeat 3 --json BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core.base import ProtocolConfig  # noqa: E402
from repro.core.spr import SPR  # noqa: E402
from repro.world import WorldBuilder  # noqa: E402
from tests.oracle import oracle_world  # noqa: E402

#: target mean node degree of the benchmark field — dense enough that
#: fan-out dominates, sparse enough that floods terminate quickly.
_TARGET_DEGREE = 20.0
_COMM_RANGE = 40.0

#: counters the timed run and the oracle run must agree on.
_DIGEST_KEYS = ("events_processed", "frames_sent", "receptions", "delivered")


def _field_size(n_nodes: int) -> float:
    """Field edge giving roughly ``_TARGET_DEGREE`` neighbors per node."""
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def run_flood(n_nodes: int, floods: int, seed: int = 0, oracle: bool = False) -> dict:
    """Flood the field ``floods`` times and time the simulation run.

    ``oracle`` builds the world on the oracle channel with the
    conservation ledger attached; the production run has auditing off
    so the timing covers the simulation alone.
    """
    field = _field_size(n_nodes)
    builder = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(n_nodes, field_size=field, topology_seed=seed)
        .gateways([[field / 2.0, field / 2.0]])
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .audit(oracle)
    )
    world = oracle_world(builder) if oracle else builder.build()
    # Table answering off: every discovery floods the whole field instead
    # of being answered one hop out, which is the fan-out stress we want.
    spr = world.attach(SPR, ProtocolConfig(table_answering=False))
    world.network.neighbors(0)  # pre-warm the neighbor cache out of the timing

    for k in range(floods):
        world.sim.schedule(0.5 * k, spr.send_data, k % n_nodes)
    t0 = time.perf_counter()
    world.sim.run()
    wall = time.perf_counter() - t0

    m = world.metrics
    receptions = int(sum(m.received.values()))
    result = {
        "nodes": n_nodes,
        "floods": floods,
        "wall_clock_s": wall,
        "events_processed": world.events_processed,
        "frames_sent": int(sum(m.sent.values())),
        "receptions": receptions,
        "delivered": len(m.unique_deliveries()),
        "receptions_per_s": receptions / wall,
    }
    if oracle:
        result["conserved"] = world.conservation_report(strict=True).ok
    return result


def run_benchmark(n_nodes: int, floods: int, seed: int = 0, repeat: int = 1) -> dict:
    """Time the production path (best of ``repeat``) and gate on the oracle."""
    runs = [run_flood(n_nodes, floods, seed=seed) for _ in range(repeat)]
    best = min(runs, key=lambda r: r["wall_clock_s"])
    oracle = run_flood(n_nodes, floods, seed=seed, oracle=True)
    for key in _DIGEST_KEYS:
        if best[key] != oracle[key]:
            raise AssertionError(
                f"production diverged from the oracle on {key}: "
                f"oracle={oracle[key]} production={best[key]}"
            )
    return {
        "config": {"nodes": n_nodes, "floods": floods, "seed": seed,
                   "repeat": repeat, "comm_range": _COMM_RANGE,
                   "field_size": _field_size(n_nodes)},
        "legs": {"production": best},
        "digest": {key: oracle[key] for key in _DIGEST_KEYS},
        "conserved": oracle["conserved"],
        "receptions_per_s": best["receptions_per_s"],
    }


def degenerate(report: dict) -> list[str]:
    """Why the measured workload does not exercise the path (empty if it does)."""
    reasons = []
    if report["digest"]["delivered"] == 0:
        reasons.append("no datum was delivered")
    if not report["conserved"]:
        reasons.append("the conservation audit failed")
    return reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--floods", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="time the production run this many times, keep the fastest")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON report here ('-' for stdout)")
    args = parser.parse_args(argv)

    report = run_benchmark(args.nodes, args.floods, seed=args.seed,
                           repeat=args.repeat)
    blob = json.dumps(report, indent=2)
    if args.json == "-":
        print(blob)
    else:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(blob + "\n")
        digest = report["digest"]
        leg = report["legs"]["production"]
        print(f"nodes={args.nodes} floods={args.floods} "
              f"events={digest['events_processed']} frames={digest['frames_sent']} "
              f"receptions={digest['receptions']} delivered={digest['delivered']}")
        print(f"production: {leg['wall_clock_s']:.3f}s  "
              f"{leg['receptions_per_s']:,.0f} rx/s  (digest equals the oracle's)")

    reasons = degenerate(report)
    for reason in reasons:
        print(f"FAIL: degenerate workload: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    raise SystemExit(main())
