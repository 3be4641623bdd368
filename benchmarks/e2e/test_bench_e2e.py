"""Self-test of the end-to-end benchmark at ``--quick`` sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (well under a minute).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), *args],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=240,
    )


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = _bench("--quick", "--runs", "2", "--json", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(path.read_text())


def test_every_named_metric_is_present_and_finite(report):
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, w in report["workloads"].items():
        for m in SPEC["end_to_end"]:
            s = w["end_to_end"][m["name"]]
            assert s["n"] == 2, (name, m["name"])
            assert math.isfinite(s["median"]) and s["median"] > 0, (name, m["name"])
        assert w["end_to_end"]["failed_ratio"]["median"] == 0.0, name
        for m in SPEC["per_layer"]:
            assert math.isfinite(w["per_layer"][m["name"]]), (name, m["name"])


def test_traced_digest_equals_untraced_digest(report):
    for name, w in report["workloads"].items():
        assert w["digest"] is not None, name
        assert w["traced_digest"] == w["digest"], name
        assert not w["traced_failures"], (name, w["traced_failures"])


def test_traced_pass_attributes_nearly_all_time(report):
    for name, w in report["workloads"].items():
        assert w["per_layer"]["trace.unattributed_share"] < 0.10, name


def test_degenerate_flood_fails_loudly():
    wl = bench.workloads.FloodDense(sensors=200, datums=0)
    out = wl.finish(wl.run(wl.prepare(0)), wall=1.0)
    assert any("delivered 0 datums" in f for f in out.failures)


def test_one_workload_interface_prints_one_result_line():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "mlr_sharded", "--seed", "1", "--seconds", "1",
                      "--trace", trace, "--quick")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_compare_flags_a_regression(report, tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(report))
    assert _bench("--compare", str(old), str(old)).returncode == 0

    slower = json.loads(json.dumps(report))
    wall = slower["workloads"]["flood_dense"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 2
    wall["values"] = [v * 2 for v in wall["values"]]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(slower))
    proc = _bench("--compare", str(old), str(new))
    assert proc.returncode == 1
    assert "worse" in proc.stdout
