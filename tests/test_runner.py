"""Tests for the sweep runner: registry, cache, parallel determinism, CLI.

The parallel-equivalence and cache tests use a deliberately small
scalability configuration (one 40-node size, one round) that stays
connected for topology seeds 0..7 and simulates in well under a second
per cell.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.experiments.registry import REGISTRY, run_experiment
from repro.runner import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    cache_key,
    parse_seeds,
)
from repro.runner.cli import main as cli_main
from repro.sim.serialize import dumps

SMALL_SCALABILITY = {"sizes": [40], "rounds": 1}


def small_spec(seeds="0..3") -> ExperimentSpec:
    return ExperimentSpec("scalability", params=dict(SMALL_SCALABILITY), seeds=seeds)


class TestRegistry:
    def test_every_experiment_module_is_registered(self):
        import pkgutil

        import repro.experiments

        modules = {
            m.name
            for m in pkgutil.iter_modules(repro.experiments.__path__)
            if m.name not in ("common", "registry")
        }
        registered = {a.module.rsplit(".", 1)[1] for a in REGISTRY.values()}
        assert modules == registered

    def test_fourteen_experiments(self):
        assert len(REGISTRY) == 14

    def test_adapter_wraps_native_result(self):
        res = run_experiment("fig2", seed=0)
        assert res.experiment == "fig2" and res.seed == 0
        assert res.result.matches_paper
        assert "Fig. 2" in res.format_table()

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(ConfigurationError, match="scalability"):
            run_experiment("nope")

    def test_seed_must_not_hide_in_params(self):
        with pytest.raises(ConfigurationError):
            REGISTRY["fig2"].run({"seed": 3}, seed=4)


class TestCacheKey:
    def test_stable_across_processes(self):
        key = cache_key("scalability", SMALL_SCALABILITY, 3)
        code = (
            "from repro.runner import cache_key;"
            f"print(cache_key('scalability', {SMALL_SCALABILITY!r}, 3))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=dict(os.environ),
        )
        assert out.stdout.strip() == key

    def test_param_order_and_container_type_do_not_matter(self):
        a = cache_key("x", {"a": 1, "b": (1, 2)}, 0)
        b = cache_key("x", {"b": [1, 2], "a": 1}, 0)
        assert a == b

    def test_seed_params_and_version_all_discriminate(self):
        base = cache_key("x", {"a": 1}, 0)
        assert cache_key("x", {"a": 1}, 1) != base
        assert cache_key("x", {"a": 2}, 0) != base
        assert cache_key("y", {"a": 1}, 0) != base
        assert cache_key("x", {"a": 1}, 0, version="0.0.0") != base

    def test_default_version_is_package_version(self):
        assert cache_key("x", {}, 0) == cache_key("x", {}, 0, version=repro.__version__)

    def test_package_version_matches_pyproject(self):
        # The cache key embeds __version__, so the two must move together.
        # A regex rather than tomllib: Python 3.10 has no tomllib.
        pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__


class TestSpec:
    def test_parse_seeds_forms(self):
        assert parse_seeds("4") == (4,)
        assert parse_seeds("0,2,5") == (0, 2, 5)
        assert parse_seeds("0..3") == (0, 1, 2, 3)
        assert parse_seeds("0..2,7") == (0, 1, 2, 7)

    def test_parse_seeds_rejects_empty_and_backwards(self):
        with pytest.raises(ConfigurationError):
            parse_seeds("")
        with pytest.raises(ConfigurationError):
            parse_seeds("5..2")

    def test_spec_accepts_string_seeds_and_rejects_duplicates(self):
        assert ExperimentSpec("fig2", seeds="0..2").seeds == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            ExperimentSpec("fig2", seeds=(1, 1))

    def test_cells_carry_params_copies(self):
        spec = small_spec("0..1")
        cells = spec.cells()
        assert [c.seed for c in cells] == [0, 1]
        cells[0].params["sizes"] = [999]
        assert spec.params == SMALL_SCALABILITY


class TestSweepDeterminism:
    def test_parallel_matches_serial_bit_identically(self):
        spec = small_spec("0..3")
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=2).run(spec)
        assert [c.seed for c in serial.cells] == [0, 1, 2, 3]
        assert [c.seed for c in parallel.cells] == [0, 1, 2, 3]
        serial_blobs = [dumps(c.result) for c in serial.cells]
        parallel_blobs = [dumps(c.result) for c in parallel.cells]
        assert serial_blobs == parallel_blobs
        assert parallel.stats.simulated == 4

    def test_progress_callback_sees_every_cell(self):
        seen = []
        runner = SweepRunner(
            workers=1, progress=lambda done, total, rec: seen.append((done, total))
        )
        runner.run(ExperimentSpec("fig2", seeds="0..1"))
        assert seen == [(1, 2), (2, 2)]


class TestCache:
    def test_second_invocation_is_fully_cached(self, tmp_path):
        spec = small_spec("0..3")
        cache1 = ResultCache(tmp_path / "cache")
        first = SweepRunner(workers=2, cache=cache1).run(spec)
        assert cache1.counters == {"hits": 0, "misses": 4}
        assert first.stats.simulated == 4

        cache2 = ResultCache(tmp_path / "cache")
        second = SweepRunner(workers=2, cache=cache2).run(spec)
        # Zero simulations re-run: everything from cache, no events.
        assert cache2.counters == {"hits": 4, "misses": 0}
        assert second.stats.simulated == 0
        assert second.stats.events_processed == 0
        assert all(c.cache_hit for c in second.cells)
        assert [dumps(c.result) for c in first.cells] == [
            dumps(c.result) for c in second.cells
        ]

    def test_corrupt_entry_is_a_miss_and_gets_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = ExperimentSpec("fig2", seeds=(0,))
        SweepRunner(workers=1, cache=cache).run(spec)
        (path,) = list((tmp_path / "cache").rglob("*.json"))
        path.write_text("{not json")
        cache2 = ResultCache(tmp_path / "cache")
        out = SweepRunner(workers=1, cache=cache2).run(spec)
        assert cache2.counters == {"hits": 0, "misses": 1}
        assert out.stats.simulated == 1
        assert json.loads(path.read_text())["experiment"] == "fig2"

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = ExperimentSpec("fig2", seeds=(0,))
        cell = spec.cells()[0]
        SweepRunner(workers=1, cache=cache).run(spec)
        assert cache.get(cell) is not None
        assert cache_key("fig2", {}, 0, version="other") != cell.key

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(workers=1, cache=cache).run(ExperimentSpec("fig2", seeds=(0,)))
        assert cache.clear() == 1
        assert cache.clear() == 0


class TestObservability:
    def test_trace_jsonl_records(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        SweepRunner(workers=1, trace_path=trace).run(
            ExperimentSpec("fig2", seeds="0..1")
        )
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        cells = [r for r in records if r["type"] == "cell"]
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(cells) == 2 and len(summaries) == 1
        for rec in cells:
            assert rec["experiment"] == "fig2"
            assert rec["events_processed"] > 0
            assert rec["wall_clock_s"] >= 0
            assert rec["cache_hit"] is False
        assert summaries[0]["cells_total"] == 2
        assert summaries[0]["simulated"] == 2

    def test_aggregate_summary_has_ci_columns(self):
        sweep = SweepRunner(workers=1).run(small_spec("0..1"))
        agg = sweep.aggregate()
        assert "scalability" in agg
        metrics = agg["scalability"]
        some = metrics["rows.0.single_hops"]
        assert some["n"] == 2
        assert some["ci_lo"] <= some["mean"] <= some["ci_hi"]
        assert "ci95_lo" in sweep.format_summary()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_sweep_via_cli(self, tmp_path, capsys):
        rc = cli_main(
            [
                "--experiment", "fig2",
                "--seeds", "0..1",
                "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(tmp_path / "t.jsonl"),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells=2" in out and "cache_hits=0" in out
        assert (tmp_path / "t.jsonl").exists()

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["--experiment", "not-a-thing"])


class TestCellTimeout:
    """Per-cell wall-clock budgets: fail the cell, never the sweep."""

    def _sleeper(self, monkeypatch, naps: list, sleep_seeds=()):
        """Replace the serial path's run_experiment with a stallable one."""
        import repro.runner.sweep as sweep_mod

        real = run_experiment

        def wrapped(experiment, params=None, seed=0):
            naps.append(seed)
            if not sleep_seeds or seed in sleep_seeds:
                time.sleep(30.0)
            return real(experiment, params, seed)

        monkeypatch.setattr(sweep_mod, "run_experiment", wrapped)

    def test_overrunning_cell_fails_without_wedging(self, monkeypatch, tmp_path):
        naps = []
        self._sleeper(monkeypatch, naps)
        spec = ExperimentSpec("fig2", seeds="0", timeout_s=0.2)
        trace = tmp_path / "t.jsonl"
        t0 = time.monotonic()
        sweep = SweepRunner(workers=1, trace_path=str(trace)).run(spec)
        assert time.monotonic() - t0 < 30.0  # the 30 s nap was cut short
        (outcome,) = sweep.cells
        assert outcome.failed is True
        assert outcome.result is None
        assert "wall-clock budget" in outcome.error
        assert sweep.stats.failed == 1
        # The JSONL trace carries the failure for post-mortems.
        rec = json.loads(trace.read_text().splitlines()[0])
        assert rec["failed"] is True and "budget" in rec["error"]

    def test_failed_cell_is_never_cached(self, monkeypatch, tmp_path):
        naps = []
        self._sleeper(monkeypatch, naps)
        cache = ResultCache(str(tmp_path / "cache"))
        spec = ExperimentSpec("fig2", seeds="0", timeout_s=0.2)
        for _ in range(2):
            sweep = SweepRunner(workers=1, cache=cache).run(spec)
            assert sweep.cells[0].failed
        assert naps == [0, 0]  # simulated twice: no poisoned cache entry
        assert sweep.stats.cache_hits == 0

    def test_aggregate_skips_failed_cells(self, monkeypatch):
        naps = []
        self._sleeper(monkeypatch, naps, sleep_seeds={1})
        spec = ExperimentSpec("fig2", seeds="0..1", timeout_s=1.0)
        sweep = SweepRunner(workers=1).run(spec)
        assert [c.failed for c in sweep.cells] == [False, True]
        assert sweep.stats.failed == 1
        (metrics,) = sweep.aggregate().values()
        assert metrics  # the surviving seed still aggregates...
        assert all(s["n"] == 1 for s in metrics.values())  # ...alone

    def test_spec_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("fig2", seeds="0", timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentSpec("fig2", seeds="0", timeout_s=-2)

    def test_cli_wires_timeout_through(self, monkeypatch, tmp_path, capsys):
        naps = []
        self._sleeper(monkeypatch, naps)
        rc = cli_main(
            [
                "--experiment", "fig2", "--seeds", "0", "--workers", "1",
                "--timeout", "0.2", "--no-cache", "--tables",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert rc == 0  # a failed cell is reported, not a crash
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        assert "FAILED after" in captured.err
