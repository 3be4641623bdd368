"""Parallel multi-seed sweep execution over the experiment registry.

The :class:`SweepRunner` shards ``(experiment, params, seed)`` cells
across a ``ProcessPoolExecutor`` and merges finished cells back into
**spec-then-seed order, independent of completion order**, so a sweep's
output is a pure function of its specification — never of scheduling.

Determinism guarantees (see DESIGN.md):

* every cell runs in its own Simulator seeded only from the cell, so a
  worker process computes exactly what a serial in-process run computes;
* cell payloads cross the process boundary as canonical JSON via
  :mod:`repro.sim.serialize`, the same encoding the cache stores —
  parallel, serial and cached results are therefore bit-identical;
* merged order is the expansion order of the input specs.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.analysis.stats import aggregate_records
from repro.analysis.tables import format_table
from repro.experiments.registry import ExperimentResult, run_experiment
from repro.sim.serialize import from_jsonable, serializable, to_jsonable
from repro.world import record_world_events

from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentSpec, SweepCell, expand_cells
from repro.runner.trace import RunnerStats, TraceWriter

__all__ = ["CellOutcome", "SweepResult", "SweepRunner"]

#: progress callback: (cells done, cells total, per-cell trace record)
ProgressFn = Callable[[int, int, dict], None]


class _CellTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a cell overruns."""


@contextmanager
def _cell_deadline(timeout_s: Optional[float]):
    """Bound the wall clock of the enclosed cell via an interval timer.

    Uses ``SIGALRM``/``setitimer``, which only delivers to a process's
    main thread — exactly where cells execute (the serial path runs in
    the caller, the parallel path in each pool worker's main thread).
    Platforms without ``setitimer`` (Windows) and non-main threads run
    unbounded rather than wrongly: the timeout is best-effort
    protection, not identity.
    """
    if (
        timeout_s is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise _CellTimeout()

    prev = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev)


def _execute_cell(
    experiment: str, params: dict, seed: int, timeout_s: Optional[float] = None
) -> dict:
    """Run one cell and return its serialized result plus observability.

    Module-level so ``ProcessPoolExecutor`` can pickle it.  The result
    crosses the process boundary in serialized form — the same form the
    cache stores — so every path back to the caller decodes identically.

    A cell that exceeds ``timeout_s`` returns a ``{"failed": True}``
    envelope instead of raising: the sweep records it and carries on,
    and the failure is never cached (a rerun with a bigger budget can
    still produce the real result under the same cache key).
    """
    t0 = time.perf_counter()
    try:
        with record_world_events() as recorder, _cell_deadline(timeout_s):
            result = run_experiment(experiment, params, seed)
    except _CellTimeout:
        return {
            "failed": True,
            "error": f"cell exceeded its {timeout_s}s wall-clock budget",
            "wall_clock_s": time.perf_counter() - t0,
            "events_processed": recorder.events_processed,
            "drops": recorder.drops_by_reason(),
            "conservation": None,
            "pid": os.getpid(),
        }
    return {
        "payload": to_jsonable(result),
        "wall_clock_s": time.perf_counter() - t0,
        "events_processed": recorder.events_processed,
        "drops": recorder.drops_by_reason(),
        "conservation": recorder.conservation_summary(),
        "pid": os.getpid(),
    }


@serializable
@dataclass
class CellOutcome:
    """One finished cell: the result envelope plus how it was obtained."""

    experiment: str
    params: dict
    seed: int
    key: str
    cache_hit: bool
    wall_clock_s: float
    events_processed: int
    result: ExperimentResult = None
    #: reason -> drop count, summed over the cell's worlds (empty for
    #: cache hits — the cache stores results, not observability).
    drops: dict = field(default_factory=dict)
    #: Summed conservation report (see WorldEventRecorder), None when the
    #: cell ran without audit mode or was served from the cache.
    conservation: Optional[dict] = None
    #: the cell produced no result (timeout); ``result`` is None, the
    #: outcome is never cached and aggregation skips it.
    failed: bool = False
    #: human-readable failure reason when ``failed``.
    error: Optional[str] = None

    def trace_record(self) -> dict:
        record = {
            "type": "cell",
            "experiment": self.experiment,
            "seed": self.seed,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "wall_clock_s": round(self.wall_clock_s, 6),
            "events_processed": self.events_processed,
        }
        if self.failed:
            record["failed"] = True
            record["error"] = self.error
        if self.drops:
            record["drops"] = dict(self.drops)
        if self.conservation is not None:
            record["conservation"] = self.conservation
        return record


@dataclass
class SweepResult:
    """All cell outcomes of one sweep, in deterministic spec order."""

    cells: list = field(default_factory=list)
    stats: RunnerStats = field(default_factory=RunnerStats)

    def results(self) -> list:
        """The :class:`ExperimentResult` envelopes, in cell order."""
        return [c.result for c in self.cells]

    def _groups(self) -> list:
        """Cells grouped by (experiment, params), preserving order."""
        groups: dict[tuple, list] = {}
        for c in self.cells:
            sig = (c.experiment, repr(sorted(c.params.items())))
            groups.setdefault(sig, []).append(c)
        labelled = []
        seen_names: dict[str, int] = {}
        for (name, _), members in groups.items():
            count = seen_names.get(name, 0)
            seen_names[name] = count + 1
            label = name if count == 0 else f"{name}#{count + 1}"
            labelled.append((label, members))
        return labelled

    def aggregate(self, confidence: float = 0.95) -> dict:
        """Per-(experiment, params) mean/std/CI over seeds.

        Every numeric leaf of the native result dataclass shared by all
        seeds is summarized via :func:`repro.analysis.stats.summarize`.
        """
        out: dict[str, dict] = {}
        for label, members in self._groups():
            records = [
                m.result.result.to_dict() for m in members if not m.failed
            ]
            out[label] = (
                aggregate_records(records, confidence=confidence) if records else {}
            )
        return out

    def format_summary(self, confidence: float = 0.95, max_rows: int = 40) -> str:
        """A table of aggregated metrics per experiment group."""
        blocks = []
        for label, metrics in self.aggregate(confidence=confidence).items():
            rows = [
                [name, s["n"], round(s["mean"], 4), round(s["std"], 4),
                 round(s["ci_lo"], 4), round(s["ci_hi"], 4)]
                for name, s in list(metrics.items())[:max_rows]
            ]
            if not rows:
                continue
            blocks.append(
                format_table(
                    ["metric", "n", "mean", "std", "ci95_lo", "ci95_hi"],
                    rows,
                    title=f"sweep summary — {label}",
                )
            )
        return "\n\n".join(blocks) if blocks else "(no aggregatable metrics)"


class SweepRunner:
    """Fan ``(spec, seed)`` cells out over worker processes.

    Parameters
    ----------
    workers:
        Process count; ``None`` picks ``min(cells, cpu_count)``. ``1``
        runs serially in-process (still through the same serialization
        path, so results are bit-identical to parallel runs).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    trace_path:
        JSONL file receiving one record per finished cell plus a final
        summary record.
    progress:
        Optional callback ``fn(done, total, record)`` invoked as cells
        finish (in completion order; the *returned* cells stay ordered).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        trace_path=None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self.trace_path = trace_path
        self.progress = progress

    # ------------------------------------------------------------------
    def run(
        self, specs: Union[ExperimentSpec, Sequence[ExperimentSpec]]
    ) -> SweepResult:
        """Execute every cell of ``specs`` and merge deterministically."""
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        cells = expand_cells(specs)
        stats = RunnerStats(cells_total=len(cells))
        t_start = time.perf_counter()

        outcomes: dict[str, CellOutcome] = {}  # key -> outcome (dedup)
        pending: dict[str, SweepCell] = {}
        done_count = 0

        with TraceWriter(self.trace_path) as trace:

            def finish(outcome: CellOutcome) -> None:
                nonlocal done_count
                outcomes[outcome.key] = outcome
                done_count += 1
                stats.completed += 1
                stats.events_processed += outcome.events_processed
                record = outcome.trace_record()
                trace.write(record)
                if self.progress is not None:
                    self.progress(done_count, len(pending) + hit_count, record)

            # Phase 1: serve what the cache already knows.
            hits: list[CellOutcome] = []
            for cell in cells:
                key = cell.key
                if key in outcomes or key in pending:
                    continue  # duplicate cell within the sweep
                cached = self.cache.get(cell) if self.cache is not None else None
                if cached is not None:
                    stats.cache_hits += 1
                    hits.append(
                        CellOutcome(
                            experiment=cell.experiment,
                            params=dict(cell.params),
                            seed=cell.seed,
                            key=key,
                            cache_hit=True,
                            wall_clock_s=0.0,
                            events_processed=0,
                            result=cached,
                        )
                    )
                else:
                    if self.cache is not None:
                        stats.cache_misses += 1
                    pending[key] = cell
            hit_count = len(hits)
            for outcome in hits:
                finish(outcome)

            # Phase 2: simulate the misses, serially or across workers.
            def decode(cell: SweepCell, raw: dict) -> CellOutcome:
                stats.simulated += 1
                if raw.get("failed"):
                    stats.failed += 1
                    # Deliberately not cached: a rerun with a larger
                    # budget can still fill this cell's cache entry.
                    return CellOutcome(
                        experiment=cell.experiment,
                        params=dict(cell.params),
                        seed=cell.seed,
                        key=cell.key,
                        cache_hit=False,
                        wall_clock_s=raw["wall_clock_s"],
                        events_processed=raw["events_processed"],
                        result=None,
                        drops=raw.get("drops") or {},
                        failed=True,
                        error=raw.get("error"),
                    )
                outcome = CellOutcome(
                    experiment=cell.experiment,
                    params=dict(cell.params),
                    seed=cell.seed,
                    key=cell.key,
                    cache_hit=False,
                    wall_clock_s=raw["wall_clock_s"],
                    events_processed=raw["events_processed"],
                    result=from_jsonable(raw["payload"]),
                    drops=raw.get("drops") or {},
                    conservation=raw.get("conservation"),
                )
                if self.cache is not None:
                    self.cache.put(cell, outcome.result)
                return outcome

            workers = self.workers
            if workers is None:
                workers = max(1, min(len(pending), os.cpu_count() or 1))
            if workers == 1 or len(pending) <= 1:
                for cell in pending.values():
                    raw = _execute_cell(
                        cell.experiment, cell.params, cell.seed, cell.timeout_s
                    )
                    finish(decode(cell, raw))
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(
                            _execute_cell,
                            cell.experiment,
                            cell.params,
                            cell.seed,
                            cell.timeout_s,
                        ): cell
                        for cell in pending.values()
                    }
                    remaining = set(futures)
                    while remaining:
                        finished, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for fut in finished:
                            finish(decode(futures[fut], fut.result()))

            stats.wall_clock_s = time.perf_counter() - t_start
            trace.write({"type": "summary", **stats.as_dict()})

        # Deterministic merge: spec-then-seed order, however cells ran.
        ordered = [outcomes[cell.key] for cell in cells]
        return SweepResult(cells=ordered, stats=stats)
