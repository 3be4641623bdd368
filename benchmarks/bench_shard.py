"""Sharded-executor scaling benchmark: 1/2/4 workers, one digest.

Runs the same flooding workload through :func:`repro.shard.run_sharded`
at increasing worker counts — plus a smaller MLR workload (unicast
routing, discovery floods, a gateway relocation round) over the same
worker counts — and checks two things at once:

* **Correctness** — every leg must produce the same order-canonical
  :func:`~repro.shard.runner.run_digest`; the sharded legs additionally
  pass the merged-ledger conservation audit.  A digest mismatch is a
  hard failure, not a slow run.
* **Scaling** — the headline ``speedup`` is ``wall(1 worker) /
  wall(max workers)``, recorded with ``cpu_count``.  No recorded run
  is a speedup: the committed ``BENCH_shard.json`` holds 0.33x at
  ``cpu_count`` 2, and the event critical-path bound measured in
  ``ROADMAP.md`` (the busiest shard's events summed over windows) keeps
  it under 2x at 2–4 workers even with free barriers.  The CI
  ``shard-smoke`` job passes ``--min-speedup 1.2``, a gate no recorded
  run has met.

It exits non-zero on a degenerate workload — a flood or MLR workload
that delivers no datum, or any leg that fails the conservation audit —
since such a run times nothing the experiments measure.

Refresh the committed record (20k sensors, the E6 configuration)::

    PYTHONPATH=src python benchmarks/bench_shard.py --sensors 20000

The record lands at the repo root as ``BENCH_shard.json`` in the
``BENCH_hotpath.json`` schema via :mod:`benchmarks._record`.
"""

from __future__ import annotations

import argparse
import os
import sys

from _record import bench_record, write_bench
from repro.experiments.scalability import make_xl_mlr_workload, make_xl_workload
from repro.shard import run_sharded

#: sensors per square meter — one per 30x30 m cell, the paper's density.
_DENSITY = 1 / 900.0
_COMM_RANGE = 55.0


def _timed_legs(
    workload, workers: list[int], legs: dict, prefix: str
) -> tuple[str, object]:
    """Run ``workload`` at every worker count; returns (digest, metrics).

    Appends one ``{prefix}workers-N`` entry per leg and raises on any
    digest divergence from the first leg.
    """
    digests: dict[int, str] = {}
    baseline_metrics = None
    for w in workers:
        result = run_sharded(workload, shards=w)
        digests[w] = result.digest
        if baseline_metrics is None:
            baseline_metrics = result.metrics
        legs[f"{prefix}workers-{w}"] = {
            "workers": w,
            "wall_clock_s": result.wall_clock_s,
            "events_processed": result.events_processed,
            "events_per_sec": result.events_processed / result.wall_clock_s,
            "windows": result.windows,
            "conserved": result.conservation is None or result.conservation.ok,
        }
    want = digests[workers[0]]
    for w, got in digests.items():
        if got != want:
            raise AssertionError(
                f"{prefix or 'flooding '}digest diverged: "
                f"{workers[0]} workers -> {want}, {w} workers -> {got}"
            )
    return want, baseline_metrics


def _delivered(metrics) -> int:
    """Distinct datums delivered at least once."""
    return len({(r.origin, r.uid) for r in metrics.deliveries})


def degenerate(report: dict) -> list[str]:
    """Why the measured workloads exercise nothing (empty if they do)."""
    reasons = []
    if report["digest"]["delivered"] == 0:
        reasons.append("the flood workload delivered no datum")
    if report["digest"]["mlr_delivered"] == 0:
        reasons.append("the MLR workload delivered no datum")
    reasons.extend(
        f"leg {label} failed the conservation audit"
        for label, leg in report["legs"].items() if not leg["conserved"]
    )
    return reasons


def run_benchmark(
    sensors: int,
    floods: int,
    ttl: int,
    workers: list[int],
    seed: int = 0,
    mlr_sensors: int = 2000,
    mlr_datums: int = 16,
    mlr_ttl: int = 12,
) -> dict:
    workload = make_xl_workload(
        sensors, floods, ttl, density=_DENSITY, comm_range=_COMM_RANGE,
        seed=seed, audit=True,
    )
    legs: dict[str, dict] = {}
    want, m_first = _timed_legs(workload, workers, legs, prefix="")
    mlr_workload = make_xl_mlr_workload(
        mlr_sensors, mlr_datums, mlr_ttl, density=_DENSITY,
        comm_range=_COMM_RANGE, seed=seed, audit=True,
    )
    mlr_want, m_mlr = _timed_legs(mlr_workload, workers, legs, prefix="mlr-")
    base = legs[f"workers-{workers[0]}"]["wall_clock_s"]
    peak = legs[f"workers-{max(workers)}"]["wall_clock_s"]

    return bench_record(
        config={"sensors": sensors, "floods": floods, "ttl": ttl, "seed": seed,
                "comm_range": _COMM_RANGE, "density": _DENSITY,
                "workers": list(workers),
                "mlr_sensors": mlr_sensors, "mlr_datums": mlr_datums,
                "mlr_ttl": mlr_ttl},
        legs=legs,
        digest={"run_digest": want,
                "mlr_run_digest": mlr_want,
                "data_generated": m_first.data_generated,
                "delivered": _delivered(m_first),
                "bytes_sent": m_first.bytes_sent,
                "mlr_data_generated": m_mlr.data_generated,
                "mlr_delivered": _delivered(m_mlr)},
        speedup=base / peak,
        cpu_count=os.cpu_count(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=20000)
    parser.add_argument("--floods", type=int, default=8)
    parser.add_argument("--ttl", type=int, default=10,
                        help="flood TTL (bounds per-datum reach)")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts (first is baseline)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mlr-sensors", type=int, default=2000,
                        help="network size for the MLR legs")
    parser.add_argument("--mlr-datums", type=int, default=16,
                        help="unicast datums for the MLR legs")
    parser.add_argument("--mlr-ttl", type=int, default=12,
                        help="discovery-flood TTL for the MLR legs")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="record destination ('-' for stdout; default "
                             "BENCH_shard.json at the repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when speedup falls below this")
    args = parser.parse_args(argv)

    workers = [int(w) for w in args.workers.split(",")]
    report = run_benchmark(
        args.sensors, args.floods, args.ttl, workers, seed=args.seed,
        mlr_sensors=args.mlr_sensors, mlr_datums=args.mlr_datums,
        mlr_ttl=args.mlr_ttl,
    )
    written = write_bench("shard", report, path=args.json)
    if written != "-":
        print(f"sensors={args.sensors} floods={args.floods} ttl={args.ttl} "
              f"cpus={report['cpu_count']}")
        for label, leg in report["legs"].items():
            print(f"{label:<12} {leg['wall_clock_s']:.3f}s  "
                  f"{leg['events_per_sec']:,.0f} ev/s  "
                  f"windows={leg['windows']}")
        digest = report["digest"]
        print(f"digest:      {digest['run_digest'][:16]}… (all legs equal), "
              f"delivered {digest['delivered']}/{digest['data_generated']}")
        print(f"mlr digest:  {digest['mlr_run_digest'][:16]}… (all legs equal), "
              f"delivered {digest['mlr_delivered']}/{digest['mlr_data_generated']}")
        print(f"speedup:     {report['speedup']:.2f}x")
        print(f"record:      {written}")

    status = 0
    for reason in degenerate(report):
        print(f"FAIL: degenerate workload: {reason}", file=sys.stderr)
        status = 1
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
