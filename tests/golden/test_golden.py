"""Golden outputs: every registered experiment, pinned at a tiny config.

``tests/golden/<experiment>.json`` records, for seeds 0 and 1, the
SHA-256 of the canonical serialized :class:`ExperimentResult` plus a few
headline numbers a human can read in a diff.  Canonical means the
tagged :func:`~repro.sim.serialize.to_jsonable` form with every
``wall_clock_s`` dropped and every float written to 10 significant
digits, so LP objectives and NumPy reductions that differ in the last
bits across Python/NumPy/SciPy versions cannot move a pin.  Fig. 2 and
Table 1, the paper's only numeric artifacts, are also pinned verbatim.

A refactor must leave every pin unchanged.  When a change is *meant* to
move results, rewrite the pins with ``pytest tests/golden
--update-golden`` and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY, run_experiment
from repro.sim.serialize import to_jsonable

GOLDEN_DIR = Path(__file__).parent
SEEDS = (0, 1)
#: experiments whose whole result is pinned verbatim (integer hops/tables)
EXACT = ("fig2", "table1")
HEADLINE_LEAVES = 6

#: experiment -> tiny params (each run takes about a second or less)
CASES = {
    "fig2": {},
    "table1": {},
    "architecture": {"n_sensors": 20, "field_size": 150.0, "packets_per_sensor": 1},
    "scalability": {"sizes": [40], "rounds": 1},
    "lifetime": {"n_sensors": 20, "field_size": 120.0, "battery": 0.01, "max_rounds": 20},
    "gateway_count": {
        "ks": [1, 2], "n_sensors": 20, "field_size": 120.0,
        "battery": 0.01, "max_rounds": 15,
    },
    "scalability_xl": {"sizes": [300], "shards": [1, 2], "floods": 2, "ttl": 4},
    "scalability_xl_mlr": {"sizes": [300], "shards": [1, 2], "datums": 4, "ttl": 6},
    "security_overhead": {"n_sensors": 20, "field_size": 120.0, "rounds": 2},
    "attack_matrix": {
        "attacks": ["none", "blackhole", "replay"], "n_sensors": 20,
        "field_size": 120.0, "rounds": 2,
    },
    "robustness": {"n_sensors": 20, "field_size": 120.0},
    "mobility_overhead": {"n_sensors": 20, "field_size": 120.0, "rounds": 3},
    "lp_bound": {"n_sensors": 15, "field_size": 100.0, "max_rounds": 30},
    "chaos": {"n_sensors": 20, "field_size": 120.0, "rounds": 2},
}


def canonical(obj):
    """Jsonable ``obj`` without wall-clock fields, floats at 10 digits."""
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return format(obj, ".10g")
    return obj


def headline(node, path: str = "", out: dict | None = None) -> dict:
    """The first few numeric leaves of a jsonable result, keyed by path.

    Floats are rounded like :func:`canonical`; non-finite ones stay
    strings so the pin compares equal to itself.
    """
    out = {} if out is None else out
    if len(out) >= HEADLINE_LEAVES:
        return out
    if isinstance(node, dict):
        if "__dataclass__" in node:
            return headline(node["fields"], path, out)
        if "__tuple__" in node:
            return headline(node["__tuple__"], path, out)
        for key, value in node.items():
            if key != "wall_clock_s":
                headline(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            headline(value, f"{path}[{i}]", out)
    elif isinstance(node, float):
        text = format(node, ".10g")
        out[path] = float(text) if math.isfinite(node) else text
    elif isinstance(node, int) and not isinstance(node, bool):
        out[path] = node
    return out


def pin(name: str, seed: int) -> dict:
    """Run one tiny case and reduce it to its pinned form."""
    raw = to_jsonable(run_experiment(name, CASES[name], seed))
    canon = canonical(raw)
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    entry = {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "headline": headline(raw["fields"]["result"]),
    }
    if name in EXACT:
        entry["result"] = canon["fields"]["result"]
    return entry


def test_cases_cover_the_registry():
    assert sorted(CASES) == sorted(REGISTRY)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, request):
    path = GOLDEN_DIR / f"{name}.json"
    got = {
        "experiment": name,
        "params": CASES[name],
        "seeds": {str(seed): pin(name, seed) for seed in SEEDS},
    }
    if request.config.getoption("--update-golden", default=False):
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), f"no pin for {name}; run pytest --update-golden"
    want = json.loads(path.read_text())
    assert got == want
