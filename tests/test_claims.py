"""The paper's claims about E1-E11, checked at one configuration each.

Each experiment's result class declares the paper's claims next to its
driver: ``claims()`` maps a claim's text to whether the result bears it
out.  ``CASES`` holds, per experiment, the params and seed checked: the
driver's own defaults and default seed, except that E4 stops at 200
sensors, E5 runs MLR, SPR, flat-1-sink and flooding, and E6 sweeps
k = 1, 2, 4, 8, 12, past K_max = 8, because its saturation claim
compares k = 12 with k = 8.  One two-worker
:class:`SweepRunner` runs every case, so each claim is checked on a
JSON-round-tripped result, the form a sweep or the result cache returns.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

from repro.experiments.registry import REGISTRY
from repro.runner import ExperimentSpec, SweepRunner

#: experiment -> (params, seed)
CASES = {
    "fig2": ({}, 0),
    "table1": ({}, 0),
    "architecture": ({}, 3),
    "scalability": ({"sizes": [50, 100, 200]}, 1),
    "lifetime": ({"protocols": ["MLR", "SPR", "flat-1-sink", "flooding"]}, 1),
    "gateway_count": ({"ks": [1, 2, 4, 8, 12]}, 1),
    "security_overhead": ({}, 2),
    "attack_matrix": ({}, 4),
    "robustness": ({}, 5),
    "mobility_overhead": ({}, 6),
    "lp_bound": ({}, 7),
}


@pytest.fixture(scope="module")
def results() -> dict:
    """experiment -> native result, every case run by one sweep."""
    specs = [
        ExperimentSpec(name, params=params, seeds=(seed,))
        for name, (params, seed) in CASES.items()
    ]
    sweep = SweepRunner(workers=2).run(specs)
    return {cell.experiment: cell.result.result for cell in sweep.cells}


def failing(result) -> list[str]:
    return [claim for claim, holds in result.claims().items() if not holds]


@pytest.mark.parametrize("name", sorted(CASES))
def test_claims_hold(name, results):
    assert failing(results[name]) == []


def test_every_claiming_result_class_has_a_case(results):
    declared = {
        cls
        for adapter in REGISTRY.values()
        for _, cls in inspect.getmembers(importlib.import_module(adapter.module), inspect.isclass)
        if hasattr(cls, "claims")
    }
    assert {type(result) for result in results.values()} == declared


def test_fig2_claim_fails_on_a_changed_hop_count(results):
    fig2 = results["fig2"]
    moved = dataclasses.replace(
        fig2, single_sink_hops={**fig2.single_sink_hops, "S2": 8}
    )
    assert failing(moved) == ["hop counts and serving gateways equal Fig. 2(a)/(b)"]


def test_table1_claims_fail_on_a_missing_round(results):
    table1 = results["table1"]
    moved = dataclasses.replace(
        table1, panels=table1.panels[:2], selections=table1.selections[:2]
    )
    assert failing(moved) == list(table1.claims())


def test_lifetime_claim_fails_when_mlr_dies_early(results):
    life = results["lifetime"]
    mlr = dataclasses.replace(
        life.results["MLR"],
        lifetime=0.89 * life.lifetime_rounds("SPR") * life.round_duration,
    )
    moved = dataclasses.replace(life, results={**life.results, "MLR": mlr})
    assert failing(moved) == ["MLR lives at least 0.9x as long as static-gateway SPR"]
