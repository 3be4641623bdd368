"""E6 — gateway-number model: lifetime and hops vs gateway count k.

Section 4.1 asks "How many gateways are the best for a specified sensor
network?" and cites [34]'s empirical law: lifetime improves with the
number of base stations only up to K_max — the count at which every
sensor sits one hop from the nearest gateway — and flattens beyond it.

We sweep ``k``, placing gateways with the greedy hop-minimising model of
:mod:`repro.core.placement`, run identical SPR traffic with finite
batteries, and report mean hops + lifetime per ``k`` alongside the
analytically computed K_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.core.placement import greedy_gateway_placement, kmax_gateway_count
from repro.core.spr import SPR
from repro.experiments.common import (
    default_energy_model,
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.sim.network import uniform_deployment
from repro.sim.serialize import serializable

__all__ = ["GatewayCountResult", "run_gateway_count"]


@serializable
@dataclass(frozen=True)
class GatewayCountRow:
    k: int
    mean_hops_model: float  # analytic greedy-placement hops
    mean_hops_measured: float
    lifetime_rounds: float
    total_energy: float


@serializable
@dataclass(frozen=True)
class GatewayCountResult:
    rows: list
    kmax: int
    max_rounds: int

    def format_table(self) -> str:
        out = format_table(
            ["k", "hops (model)", "hops (sim)", "lifetime_rounds", "energy_J"],
            [
                [r.k, round(r.mean_hops_model, 2), round(r.mean_hops_measured, 2),
                 round(r.lifetime_rounds, 1), r.total_energy]
                for r in self.rows
            ],
            title="E6 — lifetime vs number of gateways",
            ndigits=5,
        )
        return out + f"\nK_max (1-hop cover) = {self.kmax}"

    @property
    def lifetime_series(self) -> list[float]:
        return [r.lifetime_rounds for r in self.rows]

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        rows = sorted(self.rows, key=lambda r: r.k)
        life = {r.k: r.lifetime_rounds for r in rows}
        series = [r.lifetime_rounds for r in rows]
        hops = [r.mean_hops_measured for r in rows]
        return {
            "more gateways never shorten lifetime, and k=2 outlives k=1": (
                all(b >= a for a, b in zip(series, series[1:])) and life[2] > life[1]
            ),
            "hops shrink monotonically toward the 1-hop floor": (
                all(b <= a for a, b in zip(hops, hops[1:])) and min(hops) >= 1.0
            ),
            # K_max is 8 at the default deployment (every sensor one hop
            # from a gateway): [34]'s law says gateways beyond it buy
            # (almost) nothing.
            "lifetime saturates: life(12) - life(8) < 0.25 x (life(2) - life(1))": (
                life[12] - life[8] < 0.25 * (life[2] - life[1])
            ),
            "the greedy placement model predicts simulated hops within 0.5": all(
                abs(r.mean_hops_model - r.mean_hops_measured) < 0.5 for r in rows
            ),
        }


def _candidate_grid(field_size: float, per_side: int = 4) -> np.ndarray:
    xs = np.linspace(field_size / (2 * per_side), field_size * (1 - 1 / (2 * per_side)), per_side)
    gx, gy = np.meshgrid(xs, xs)
    return np.column_stack([gx.ravel(), gy.ravel()])


def run_gateway_count(
    ks: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    n_sensors: int = 60,
    field_size: float = 220.0,
    comm_range: float = 55.0,
    battery: float = 0.03,
    max_rounds: int = 150,
    round_duration: float = 5.0,
    packets_per_round: int = 3,
    seed: int = 1,
) -> GatewayCountResult:
    """Sweep gateway count with greedy placement and measure lifetime."""
    sensors = uniform_deployment(n_sensors, field_size, seed=seed)
    candidates = _candidate_grid(field_size)
    kmax = kmax_gateway_count(sensors, candidates, comm_range)

    rows = []
    for k in ks:
        chosen, model_hops = greedy_gateway_placement(sensors, candidates, k, comm_range)
        gw_positions = candidates[chosen]
        scenario = make_uniform_scenario(
            n_sensors,
            field_size,
            gw_positions,
            comm_range=comm_range,
            sensor_battery=battery,
            topology_seed=seed,
            protocol_seed=seed + 3,
            energy_model=default_energy_model(),
        )
        protocol = SPR(scenario.sim, scenario.network, scenario.channel)
        result = run_collection_rounds(
            scenario,
            protocol,
            num_rounds=max_rounds,
            round_duration=round_duration,
            packets_per_round=packets_per_round,
            stop_on_first_death=True,
            name=f"k={k}",
        )
        lifetime = (
            float(max_rounds)
            if result.lifetime is None
            else result.lifetime / round_duration
        )
        rows.append(
            GatewayCountRow(
                k=k,
                mean_hops_model=model_hops,
                mean_hops_measured=result.mean_hops,
                lifetime_rounds=lifetime,
                total_energy=result.total_energy,
            )
        )
    return GatewayCountResult(rows=rows, kmax=kmax, max_rounds=max_rounds)
