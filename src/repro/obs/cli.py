"""``python -m repro.obs`` — drop-accounting audit of a runner trace.

Replays a sweep-runner JSONL trace (``SweepRunner(trace_path=...)``) and
prints, per experiment, the conservation totals and two per-reason drop
tables: *terminal drops* counts datums by the reason they ended in a
drop (from the audited ledger, so it sums to the ``dropped`` column),
and *drop events* counts every drop the collectors saw, frame-level
ones (lost broadcast copies, frames to dead nodes, retried collisions)
included.  Cells served from the result cache carry no observability
block (the cache stores results, not ledgers) and are reported as
*unaudited* rather than silently folded in.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.tables import format_table

__all__ = ["main", "load_cells", "summarize_cells"]


def load_cells(path: Path) -> list[dict]:
    """The ``type == "cell"`` records of a runner JSONL trace."""
    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "cell":
                cells.append(record)
    return cells


def summarize_cells(cells: Iterable[dict]) -> dict[str, dict]:
    """Aggregate per-experiment conservation totals and drop reasons."""
    per_exp: dict[str, dict] = {}
    for cell in cells:
        exp = cell.get("experiment", "?")
        agg = per_exp.setdefault(
            exp,
            {
                "cells": 0,
                "audited": 0,
                "generated": 0,
                "delivered": 0,
                "dropped": 0,
                "pending": 0,
                "duplicates": 0,
                "unknown_delivered": 0,
                "violations": 0,
                "terminal_drops": Counter(),
                "drops": Counter(),
            },
        )
        agg["cells"] += 1
        for reason, count in (cell.get("drops") or {}).items():
            agg["drops"][reason] += int(count)
        conservation = cell.get("conservation")
        if not conservation:
            continue  # cache hit or unaudited cell: no conservation block
        agg["audited"] += 1
        for key in ("generated", "delivered", "dropped", "pending",
                    "duplicates", "unknown_delivered"):
            agg[key] += int(conservation.get(key, 0))
        agg["terminal_drops"].update(conservation.get("drops_by_reason") or {})
        agg["violations"] += len(conservation.get("violations", ()))
    return per_exp


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Audit packet conservation from a sweep-runner JSONL trace.",
    )
    parser.add_argument("trace", type=Path, help="runner JSONL trace file")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any audited cell reported a violation",
    )
    args = parser.parse_args(argv)

    if not args.trace.exists():
        parser.error(f"no such trace: {args.trace}")
    cells = load_cells(args.trace)
    if not cells:
        print(f"{args.trace}: no cell records found")
        return 0

    per_exp = summarize_cells(cells)

    rows = [
        [
            exp,
            agg["cells"],
            agg["audited"],
            agg["generated"],
            agg["delivered"],
            agg["dropped"],
            agg["pending"],
            agg["duplicates"],
            agg["unknown_delivered"],
            agg["violations"],
        ]
        for exp, agg in sorted(per_exp.items())
    ]
    print(
        format_table(
            ["experiment", "cells", "audited", "generated", "delivered",
             "dropped", "pending", "dups", "forged", "violations"],
            rows,
            title=f"packet conservation — {args.trace.name}",
        )
    )

    printed = False
    for key, title in (
        ("terminal_drops", "terminal drops by reason"),
        ("drops", "drop events by reason (frame-level and terminal)"),
    ):
        drop_rows = [
            [exp, reason, count]
            for exp, agg in sorted(per_exp.items())
            for reason, count in sorted(agg[key].items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        if drop_rows:
            print()
            print(format_table(["experiment", "reason", "count"], drop_rows, title=title))
            printed = True
    if not printed:
        print("\n(no drops recorded)")

    total_violations = sum(agg["violations"] for agg in per_exp.values())
    if total_violations:
        print(f"\n{total_violations} conservation violation(s) reported")
        if args.strict:
            return 1
    return 0
