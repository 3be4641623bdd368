"""Chaos CLI: ``python -m repro.faults`` — seeded fault campaigns.

Runs one of the named campaigns through the sweep runner (so cells
parallelize, cache and trace exactly like ``python -m repro.runner``)
and prints a per-seed conservation + recovery table.  The chaos
experiment always attaches the packet ledger with strict auditing, so a
conservation violation fails the run loudly, and the CLI exits 1 when
any seed fails one of :meth:`~repro.faults.campaign.ChaosResult.claims`
— a datum left pending, or a fault window with no delivery after it.
This is the repository's standing proof that randomized
crash/recover/burst storms cannot make a datum vanish or leave the
network without service.

Examples
--------
The CI smoke campaign, three seeds::

    REPRO_AUDIT=1 python -m repro.faults --campaign smoke --seeds 0..2

Gateway churn with caching and more workers::

    python -m repro.faults --campaign churn --seeds 0..7 --workers 4 \\
        --cache-dir .repro_cache
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.exceptions import ReproError
from repro.faults.plan import Crash, FaultPlan, GatewayChurn, LinkDegrade, Recover
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec, parse_seeds
from repro.runner.sweep import SweepRunner
from repro.sim.radio import GilbertElliott

__all__ = ["CAMPAIGNS", "build_parser", "main"]


def _churn_plan() -> FaultPlan:
    """One round-robin pass over the gateways, one down at a time."""
    return FaultPlan((GatewayChurn(period=8.0, downtime=4.0, start=6.0, cycles=1),))


def _burst_plan() -> FaultPlan:
    """A long bursty-loss window with two sensor crash/repair pairs inside."""
    ge = GilbertElliott(p_gb=0.2, p_bg=0.35, loss_good=0.05, loss_bad=0.85)
    return FaultPlan(
        (
            LinkDegrade(t0=8.0, t1=20.0, burst=ge),
            Crash(node=0, t=10.0),
            Recover(node=0, t=18.0),
            Crash(node=1, t=12.0),
            Recover(node=1, t=20.0),
        )
    )


#: named campaigns: params handed to the registered ``chaos`` experiment.
#: Plans go in as their jsonable form so campaign cells hash into sweep
#: cache keys exactly like hand-written ``--params`` would.
CAMPAIGNS: dict[str, dict] = {
    # randomized per-seed storm (fault_plan=None -> derived from the seed)
    "smoke": {
        "n_sensors": 40,
        "field_size": 180.0,
        "comm_range": 55.0,
        "rounds": 5,
        "intensity": 0.3,
        "burst": True,
    },
    # deterministic gateway churn: every gateway takes a turn being down
    "churn": {
        "n_sensors": 50,
        "field_size": 200.0,
        "comm_range": 55.0,
        "rounds": 8,
        "fault_plan": _churn_plan().to_param(),
    },
    # heavy Gilbert-Elliott burst window plus mid-storm crashes
    "burst": {
        "n_sensors": 50,
        "field_size": 200.0,
        "comm_range": 55.0,
        "rounds": 6,
        "fault_plan": _burst_plan().to_param(),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Seeded chaos campaigns with conservation auditing.",
    )
    parser.add_argument(
        "--campaign", "-c", default="smoke", choices=sorted(CAMPAIGNS),
        help="named campaign (default: smoke)",
    )
    parser.add_argument(
        "--seeds", "-s", default="0..2",
        help='seed list: "4", "0,2,5" or inclusive range "0..7" (default 0..2)',
    )
    parser.add_argument(
        "--workers", "-w", type=int, default=None,
        help="worker processes (default: min(cells, cpu count); 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the on-disk result cache at DIR (off by default)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append per-cell JSONL trace records to PATH",
    )
    parser.add_argument(
        "--tables", action="store_true",
        help="also print each seed's full conservation/recovery table",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-cell progress lines",
    )
    return parser


def _fmt_mttr(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        seeds = parse_seeds(args.seeds)
    except ReproError as exc:
        parser.error(str(exc))

    spec = ExperimentSpec(
        experiment="chaos", params=dict(CAMPAIGNS[args.campaign]), seeds=seeds
    )

    def progress(done: int, total: int, record: dict) -> None:
        if args.quiet:
            return
        source = "cache" if record["cache_hit"] else f"{record['wall_clock_s']:.2f}s"
        print(
            f"[{done}/{total}] chaos/{args.campaign} seed={record['seed']} ({source})",
            file=sys.stderr,
        )

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = SweepRunner(
        workers=args.workers, cache=cache, trace_path=args.trace, progress=progress
    )
    try:
        sweep = runner.run(spec)
    except ReproError as exc:
        # A ConservationError from any cell lands here: chaos found a
        # leak, the campaign fails.
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = []
    failures = []
    for env in sweep.results():
        r = env.result
        failures += [
            (env.seed, claim) for claim, holds in r.claims().items() if not holds
        ]
        rows.append(
            [
                env.seed,
                r.n_fault_events,
                r.generated,
                r.delivered,
                r.dropped,
                r.pending,
                round(r.delivery_ratio, 3),
                r.n_windows,
                _fmt_mttr(r.mttr),
                round(r.availability, 4),
            ]
        )
    verdict = f"{len(failures)} failed claims" if failures else "all conserved and restored"
    print(
        format_table(
            ["seed", "events", "gen", "dlv", "drop", "pend",
             "delivery", "windows", "MTTR_s", "avail"],
            rows,
            title=f"chaos campaign: {args.campaign} ({len(rows)} seeds, {verdict})",
        )
    )
    if args.tables:
        for env in sweep.results():
            print()
            print(env.format_table())
    for seed, claim in failures:
        print(f"error: seed {seed}: claim fails: {claim}", file=sys.stderr)
    return 1 if failures else 0
