"""Topology microbenchmark: incremental spatial index vs the dense oracle.

MLR's per-round cost is topological: a gateway moves to its next
feasible place, its neighborhood is recomputed, and every sensor's
hop count to the gateway set is refreshed (Section 5.3 steps 1-3).
Recomputing that from scratch each round is an O(n^2) pairwise
distance rebuild plus a full networkx Dijkstra.  The grid index in
:class:`~repro.sim.network.Network` makes the move O(k) (rebucket one
node, patch its row and the affected reverse rows) and answers
``hops_to`` with a multi-source BFS over a cached CSR adjacency rebuilt
only when the topology epoch or alive mask actually changed.

This benchmark drives the same place-rotation loop through the
production network and through the dense oracle of ``tests/oracle.py``
(full distance matrix, networkx hop counts, rebuilt every round) and
reports rounds/sec plus the speedup.  Periodic sensor deaths exercise
the alive-mask path.  Per-round digests of the moved gateway's neighbor
row and the full hop table must be equal, so the benchmark doubles as
an equivalence check, and it exits non-zero if the hop table is ever
empty (a degenerate field that exercises nothing).

Run standalone to refresh the committed record::

    PYTHONPATH=src python benchmarks/bench_topology.py --nodes 2000

The record lands at the repo root as ``BENCH_topology.json`` in the
``BENCH_hotpath.json`` schema (config + legs + digest + speedup) via
:mod:`benchmarks._record`; ``--json -`` prints it instead.  The CI
smoke job runs a small config with ``--min-speedup`` so a regression
that makes the incremental path slower than the oracle fails loudly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from _record import bench_record, write_bench  # noqa: E402
from repro.sim.network import build_sensor_network, uniform_deployment  # noqa: E402
from tests.oracle import dense_graph, dense_neighbor_rows, nx_hops  # noqa: E402

#: target mean node degree — MLR fields in the paper's sweeps are dense.
_TARGET_DEGREE = 15.0
_COMM_RANGE = 40.0
_NUM_GATEWAYS = 3
_NUM_PLACES = 8
#: kill one sensor every this many rounds (alive-mask churn).
_DEATH_PERIOD = 25


def _field_size(n_nodes: int) -> float:
    """Field edge giving roughly ``_TARGET_DEGREE`` neighbors per node."""
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def _feasible_places(field: float) -> list[tuple[float, float]]:
    """A ring of feasible places just inside the field boundary."""
    cx = cy = field / 2.0
    radius = 0.42 * field
    return [
        (cx + radius * math.cos(2 * math.pi * k / _NUM_PLACES),
         cy + radius * math.sin(2 * math.pi * k / _NUM_PLACES))
        for k in range(_NUM_PLACES)
    ]


def _schedule(n_nodes: int, rounds: int, places: list) -> list[tuple]:
    """Per round: (moving gateway index, target place, sensor to kill or None)."""
    return [
        (r % _NUM_GATEWAYS,
         places[(r + r // _NUM_GATEWAYS + 1) % _NUM_PLACES],
         (r * 37) % n_nodes if r % _DEATH_PERIOD == _DEATH_PERIOD - 1 else None)
        for r in range(rounds)
    ]


def _digest(nbrs: np.ndarray, alive_nbrs: np.ndarray, hops: dict) -> tuple[int, ...]:
    return (len(nbrs), int(np.sum(nbrs)), len(alive_nbrs), len(hops), sum(hops.values()))


def run_rotation(n_nodes: int, rounds: int, index: str, seed: int = 0) -> dict:
    """Drive the move -> neighbors -> hops_to loop and time it.

    ``index`` is ``"grid"`` (the production :class:`Network`) or
    ``"dense"`` (the oracle, rebuilt from positions every round).
    Returns wall clock, rounds/sec and a per-round digest stream used to
    prove both computed the same thing.
    """
    field = _field_size(n_nodes)
    places = _feasible_places(field)
    sensors = uniform_deployment(n_nodes, field, seed=seed)
    gateways = np.asarray(places[:_NUM_GATEWAYS])
    net = build_sensor_network(sensors, gateways, comm_range=_COMM_RANGE)
    gateway_ids = net.gateway_ids
    positions = net.positions.copy()
    alive = np.ones(len(positions), dtype=bool)
    schedule = _schedule(n_nodes, rounds, places)

    # Pre-warm outside the timed loop: the grid starts from a fully built
    # neighbor table, graph and hop cache.
    net.neighbors(0)
    net.hops_to(gateway_ids)

    digests: list[tuple[int, ...]] = []
    t0 = time.perf_counter()
    for g, target, victim in schedule:
        gw = gateway_ids[g]
        if index == "grid":
            net.move_node(gw, target)
            if victim is not None:
                net.nodes[victim].fail()
            nbrs = net.neighbors(gw)
            alive_nbrs = net.alive_neighbors(gw)
            hops = net.hops_to(gateway_ids)
        else:
            positions[gw] = target
            if victim is not None:
                alive[victim] = False
            rows = dense_neighbor_rows(positions, _COMM_RANGE)
            nbrs = rows[gw]
            alive_nbrs = nbrs[alive[nbrs]]
            hops = nx_hops(dense_graph(rows, alive), gateway_ids)
        digests.append(_digest(nbrs, alive_nbrs, hops))
    wall = time.perf_counter() - t0

    return {
        "index": index,
        "nodes": n_nodes,
        "rounds": rounds,
        "wall_clock_s": wall,
        "rounds_per_sec": rounds / wall,
        "digests": digests,
    }


def run_benchmark(n_nodes: int, rounds: int, seed: int = 0) -> dict:
    dense = run_rotation(n_nodes, rounds, index="dense", seed=seed)
    grid = run_rotation(n_nodes, rounds, index="grid", seed=seed)
    # Equivalence: every round's neighbor row and hop table must match.
    digests = dense.pop("digests")
    for r, (want, got) in enumerate(zip(digests, grid.pop("digests"))):
        if want != got:
            raise AssertionError(
                f"grid index diverged from the dense oracle at round {r}: "
                f"dense={want} grid={got}"
            )
    return bench_record(
        config={"nodes": n_nodes, "rounds": rounds, "seed": seed,
                "comm_range": _COMM_RANGE, "field_size": _field_size(n_nodes),
                "gateways": _NUM_GATEWAYS, "places": _NUM_PLACES},
        legs={"dense": dense, "grid": grid},
        digest={"rounds": rounds,
                "hop_sum_checksum": sum(d[-1] for d in digests),
                "neighbor_checksum": sum(d[0] for d in digests),
                "min_hop_table": min((d[3] for d in digests), default=0)},
        speedup=dense["wall_clock_s"] / grid["wall_clock_s"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="record destination ('-' for stdout; default "
                             "BENCH_topology.json at the repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when speedup falls below this")
    args = parser.parse_args(argv)

    report = run_benchmark(args.nodes, args.rounds, seed=args.seed)
    written = write_bench("topology", report, path=args.json)
    if written != "-":
        d, g = report["legs"]["dense"], report["legs"]["grid"]
        print(f"nodes={args.nodes} rounds={args.rounds}")
        print(f"dense oracle: {d['wall_clock_s']:.3f}s  "
              f"{d['rounds_per_sec']:,.1f} rounds/s")
        print(f"grid:         {g['wall_clock_s']:.3f}s  "
              f"{g['rounds_per_sec']:,.1f} rounds/s")
        print(f"speedup:      {report['speedup']:.2f}x")
        print(f"record:       {written}")

    status = 0
    if report["digest"]["min_hop_table"] == 0:
        print("FAIL: degenerate workload: a round's hop table was empty",
              file=sys.stderr)
        status = 1
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
