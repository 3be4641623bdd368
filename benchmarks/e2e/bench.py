"""End-to-end simulator benchmark: four workloads, invariant-work throughput.

Run from the repository root::

    python3 benchmarks/e2e/bench.py                  # 4 workloads x 5 runs + traced pass
    python3 benchmarks/e2e/bench.py --quick --runs 2  # small sizes, seconds not minutes
    python3 benchmarks/e2e/bench.py --compare OLD.json NEW.json

The default invocation runs every workload ``--runs`` times, round-robin
across workloads, each run in a fresh child process, then one traced pass
per workload in-process.  It prints every end-to-end metric with its unit
as median, quartiles and n, and writes the whole report as JSON
(``--json``).  ``--compare`` applies the bounds in ``BENCHMARK.json`` to
two such reports and exits non-zero when any (workload, metric) pair got
worse.

``--workload NAME --seed N --seconds S --trace 0|1`` measures one workload
for about ``S`` seconds and prints one JSON result line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

# Set-up time is measured from here, before repro is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports repro: fails loudly outside a full checkout)

#: a failed run is never acceptable: failed_ratio may not grow at all
FAILED_RATIO_BOUND = 0.0
CHILD_TIMEOUT_S = 150.0
#: set-up samples per one-workload invocation (short set-up-only children
#: top up the timed runs' own samples)
SETUP_SAMPLES = 5
DEFAULT_JSON = HERE / "results" / "latest.json"


# ----------------------------------------------------------------------
# one run = one fresh child process
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds for a fixed pure-Python + NumPy loop: a host-speed diagnostic,
    never used to normalise anything."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def child_main(name: str, seed: int, quick: bool, setup_only: bool) -> int:
    """Body of a child run: prepare, time ``run``, print one JSON line."""
    wl = workloads.make_workload(name, quick)
    inputs = wl.prepare(seed)
    t_start = time.perf_counter()
    if setup_only:
        print(json.dumps({"setup_s": t_start - _T0}))
        return 0
    artifacts = wl.run(inputs)
    wall = time.perf_counter() - t_start
    out = wl.finish(artifacts, wall)
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "setup_s": t_start - _T0,
        "peak_rss_mb": rss_kib / 1024.0,
        **vars(out),
    }
    print(json.dumps(record))
    return 0


def run_child(name: str, seed: int, quick: bool, setup_only: bool = False) -> dict:
    """One timed run in a fresh process; ``ok`` is False when it crashed,
    timed out or failed a check.  ``setup_only`` stops the child at the
    start of the timed region (an extra set-up sample)."""
    probe = host_probe()
    cmd = [sys.executable, str(HERE / "bench.py"), "--child", name, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    # A new process group, so a timeout can kill the child's pool workers too.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "failures": [f"timed out after {CHILD_TIMEOUT_S}s"],
                "probe_s": probe}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "failures": [f"child exited with code {proc.returncode}"],
                "probe_s": probe}
    record = json.loads(lines[-1])
    record["probe_s"] = probe
    record["ok"] = not record.get("failures")
    return record


def check_digests(records: list) -> None:
    """Fail every good record when the good records' digests disagree."""
    good = [r for r in records if r["ok"]]
    if len({r["digest"] for r in good}) > 1:
        for r in good:
            r["ok"] = False
            r["failures"].append("digest differs from the workload's other runs")


def e2e_values(records: list) -> dict:
    """Per-run values of each end-to-end metric over the good runs."""
    good = [r for r in records if r["ok"]]
    return {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "receptions_per_s": [r["receptions"] / r["wall_s"] for r in good],
        "datums_per_s": [r["datums"] / r["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def traced_pass(name: str, seed: int, quick: bool, untraced: list) -> dict:
    """Run the traced form in-process and derive the per-layer metrics.

    ``untraced`` are the workload's timed runs at the same seed, the last
    one made just before this pass: their digest must equal the traced
    digest, and the last one's ``serial_s`` is the base of
    ``trace.overhead`` (adjacent in time, so host drift cancels).
    """
    import tracer

    wl = workloads.make_workload(name, quick)
    inputs = wl.prepare(seed)
    try:
        with tracer.LayerTrace() as trace:
            artifacts = trace.span("experiments", wl.run)(inputs, traced=True)
        out = wl.finish(artifacts, trace.wall_s)
    except Exception:  # report the crash as a failed traced pass
        traceback.print_exc()
        return {"metrics": {}, "digest": None, "failures": ["traced pass crashed"]}
    good = [r for r in untraced if r["ok"]]
    failures = list(out.failures)
    if not good:
        failures.append("no good untraced run to compare the traced pass with")
    elif out.digest != good[0]["digest"]:
        failures.append("traced digest differs from the untraced digest")

    layers = trace.by_layer()
    m: dict[str, float] = {}
    for layer in ("engine", "radio", "core", "baselines", "network", "energy",
                  "metrics", "security", "experiments"):
        m[f"{layer}.self_s"] = layers[layer]["self_s"]
    m["engine.events"] = out.events
    m["engine.dispatches"] = sum(
        count for (parent, _), (count, _, _) in trace.stats.items() if parent == "engine"
    )
    m["radio.frames"] = out.frames
    m["radio.receptions"] = out.receptions
    m["radio.drops"] = out.drops
    m["radio.us_per_reception"] = layers["radio"]["self_s"] / max(out.receptions, 1) * 1e6
    m["core.calls"] = layers["core"]["calls"]
    m["baselines.calls"] = layers["baselines"]["calls"]
    m["network.calls"] = layers["network"]["calls"]
    m["network.topology_updates"] = trace.move_calls
    m["energy.charges"] = layers["energy"]["calls"]
    m["metrics.calls"] = layers["metrics"]["calls"]
    m["security.ops"] = layers["security"]["calls"]
    m["world.build_s"] = layers["world"]["total_s"]
    m["world.builds"] = layers["world"]["calls"]
    if good:
        for key in good[0]["extras"]:
            m[key] = statistics.median(r["extras"][key] for r in good)
    if untraced[-1]["ok"]:
        m["trace.overhead"] = trace.wall_s / untraced[-1]["serial_s"]
    m["trace.unattributed_share"] = (
        trace.root_self_s + layers["other"]["self_s"]
    ) / trace.wall_s
    m["host.probe_s"] = statistics.median(r["probe_s"] for r in untraced)
    return {"metrics": m, "digest": out.digest, "failures": failures}


def layer_unit(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith(("_s", "_s_sum", "_s_max")):
        return "s"
    if metric.endswith("us_per_reception"):
        return "us"
    if metric.endswith(("overhead", "speedup_2w", "event_imbalance")):
        return "x"
    if metric.endswith(("share", "efficiency")):
        return "fraction"
    return "count"


# ----------------------------------------------------------------------
# statistics and reports
# ----------------------------------------------------------------------
def summarize(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of ``values``."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def full_run(args) -> int:
    names = list(workloads.WORKLOADS)
    records: dict[str, list] = {name: [] for name in names}
    for r in range(args.runs):
        for name in names:
            rec = run_child(name, args.seed, args.quick)
            records[name].append(rec)
            status = "ok" if rec["ok"] else "FAILED: " + "; ".join(rec["failures"])
            wall = rec.get("wall_s")
            print(f"run {r + 1}/{args.runs} {name:15s} "
                  f"{'' if wall is None else f'{wall:8.3f}s '}{status}", flush=True)

    report = {"seed": args.seed, "runs": args.runs, "quick": args.quick,
              "host": host_info(), "workloads": {}}
    ok = True
    for name in names:
        recs = records[name]
        # One more untraced run right before the traced pass: the base of
        # trace.overhead.  It is not one of the timed runs.
        reference = run_child(name, args.seed, args.quick)
        check_digests(recs + [reference])
        traced = traced_pass(name, args.seed, args.quick, recs + [reference])
        failed = sum(not r["ok"] for r in recs)
        e2e = {metric: summarize(vals) for metric, vals in e2e_values(recs).items()}
        e2e["failed_ratio"] = summarize([failed / len(recs)])
        report["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "digest": next((r["digest"] for r in recs if r["ok"]), None),
            "traced_digest": traced["digest"],
            "failures": sorted({f for r in recs for f in r["failures"]}),
            "traced_failures": traced["failures"],
        }
        ok = ok and failed == 0 and not traced["failures"]

    print_report(report)
    path = Path(args.json)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {path}")
    return 0 if ok else 1


def print_report(report: dict) -> None:
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    units["failed_ratio"] = "fraction"
    print(f"\nend-to-end metrics (seed {report['seed']}, {report['runs']} runs per "
          "workload; no tail percentile: n < 10)")
    print(f"{'workload':15s} {'metric':17s} {'unit':9s} {'median':>13s} "
          f"{'q1':>13s} {'q3':>13s} {'n':>3s}")
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            if s["n"] == 0:
                print(f"{name:15s} {metric:17s} {units[metric]:9s} {'-':>13s}")
                continue
            print(f"{name:15s} {metric:17s} {units[metric]:9s} {s['median']:13.6g} "
                  f"{s['q1']:13.6g} {s['q3']:13.6g} {s['n']:3d}")
    print("\nper-layer metrics (traced pass)")
    for name, w in report["workloads"].items():
        cells = ", ".join(f"{k}={v:.4g} {layer_unit(k)}" for k, v in w["per_layer"].items())
        print(f"{name}: {cells}")
        for f in w["failures"] + w["traced_failures"]:
            print(f"  FAILED: {f}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def load_bounds() -> dict:
    bounds = {m["name"]: (m["better"], m["bound"]) for m in load_spec()["end_to_end"]}
    bounds["failed_ratio"] = ("lower", FAILED_RATIO_BOUND)
    return bounds


def judge(old: dict, new: dict, better: str, bound: float) -> str:
    """better / same / worse / unresolved for one (workload, metric) pair."""
    if not old["n"] or not new["n"]:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    if bound == 0.0:
        gain = sign * (new["median"] - old["median"])
        return "better" if gain > 0 else "worse" if gain < 0 else "same"
    base = old["median"]
    gain = sign * (new["median"] - base) / base
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    if spread > bound:
        # Wider spread than the bound: only a clean sweep resolves it.
        if min(sign * v for v in new["values"]) > max(sign * v for v in old["values"]):
            return "better"
        if max(sign * v for v in new["values"]) < min(sign * v for v in old["values"]):
            return "worse" if gain < -bound else "unresolved"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    bounds = load_bounds()
    worse = 0
    print(f"{'workload':15s} {'metric':17s} {'old':>12s} {'new':>12s} {'change':>8s}  verdict")
    for name in old:
        if name not in new:
            print(f"{name:15s} missing from {new_path}")
            worse += 1
            continue
        for metric, (better, bound) in bounds.items():
            a, b = old[name]["end_to_end"][metric], new[name]["end_to_end"][metric]
            verdict = judge(a, b, better, bound)
            worse += verdict == "worse"
            change = (
                f"{(b['median'] - a['median']) / a['median']:+8.1%}"
                if a["n"] and b["n"] and a["median"] else f"{'':8s}"
            )
            print(f"{name:15s} {metric:17s} {a['median'] or 0:12.6g} "
                  f"{b['median'] or 0:12.6g} {change}  {verdict}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# one-workload interface: one JSON result line
# ----------------------------------------------------------------------
def measure_one(args) -> int:
    spec = load_spec()
    name, seed = args.workload, args.seed
    t0 = time.perf_counter()
    records = []
    while True:
        records.append(run_child(name, seed, args.quick))
        elapsed = time.perf_counter() - t0
        # Start another run only when it should end within the budget.
        if args.trace or elapsed * (len(records) + 1) / len(records) > args.seconds:
            break
    check_digests(records)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    setups = [r["setup_s"] for r in records if r["ok"]]
    while not args.trace and 0 < len(setups) < SETUP_SAMPLES:
        extra = run_child(name, seed, args.quick, setup_only=True)
        if not extra["ok"]:
            break
        setups.append(extra["setup_s"])
    failures = [f for r in records for f in r["failures"]]
    if args.trace:
        traced = traced_pass(name, seed, args.quick, records)
        attempted += 1
        failed += bool(traced["failures"])
        failures += traced["failures"]
        values = traced["metrics"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"] if m["name"] in values
        }
    else:
        values = {k: v for k, v in e2e_values(records).items() if v}
        if setups:
            values["setup_s"] = setups
        metrics = {
            m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"] if m["name"] in values
        }
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: measurement budget per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--runs", type=int, default=5,
                        help="timed runs per workload in the default invocation")
    parser.add_argument("--quick", action="store_true",
                        help="small workload sizes (self-test)")
    parser.add_argument("--json", default=str(DEFAULT_JSON),
                        help="where the default invocation writes its report")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="judge NEW against OLD with the bounds in BENCHMARK.json")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Pin the audit default: REPRO_AUDIT in the caller's environment would
    # change what every workload except attack_audit measures.
    os.environ["REPRO_AUDIT"] = "0"
    if args.child:
        return child_main(args.child, args.seed, args.quick, args.setup_only)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return measure_one(args)
    return full_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
