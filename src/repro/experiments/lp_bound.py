"""E11 — the LP bound of equations (1)-(6) vs the MLR heuristic.

The paper formalises lifetime-optimal routing as an optimisation problem,
calls it "probably ... a NP problem", and proposes MLR as a heuristic
"providing results approximate to above design goal".  This experiment
quantifies *how* approximate:

* the max-lifetime LP (:class:`repro.core.lifetime.LifetimeLP`) yields an
  upper bound ``L*`` on any schedule's lifetime for the same topology,
  battery and traffic;
* MLR is simulated on that topology; its measured lifetime must satisfy
  ``L_MLR <= L*`` and the ratio shows the optimality gap;
* the min-energy LP gives the energy floor compared with MLR's measured
  per-round energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.lifetime import LifetimeLP
from repro.core.mlr import MLR
from repro.experiments.common import (
    corner_places,
    default_energy_model,
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.sim.mobility import GatewaySchedule
from repro.sim.packet import DATA_PAYLOAD_BYTES, MAC_HEADER_BYTES
from repro.sim.serialize import serializable

__all__ = ["LpBoundResult", "run_lp_bound"]


@serializable
@dataclass(frozen=True)
class LpBoundResult:
    lp_lifetime_rounds: float
    mlr_lifetime_rounds: float
    lp_min_total_energy: float
    mlr_total_energy_per_round: float
    lp_minmax_node_energy: float

    @property
    def optimality_ratio(self) -> float:
        """Measured MLR lifetime / LP upper bound (<= 1 by construction)."""
        if self.lp_lifetime_rounds == 0:
            return 0.0
        return self.mlr_lifetime_rounds / self.lp_lifetime_rounds

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        return {
            "the LP yields a positive lifetime": self.lp_lifetime_rounds > 0,
            # Fractional, splittable flows do at least as well as any schedule.
            "the LP lifetime bounds MLR's (1% slack)": (
                self.mlr_lifetime_rounds <= self.lp_lifetime_rounds * 1.01
            ),
            "MLR reaches > 5% of the bound": self.optimality_ratio > 0.05,
            "MLR's energy per round is above the LP floor (1% slack)": (
                self.mlr_total_energy_per_round >= self.lp_min_total_energy * 0.99
            ),
        }

    def format_table(self) -> str:
        rows = [
            ["lifetime (rounds)", round(self.lp_lifetime_rounds, 1),
             round(self.mlr_lifetime_rounds, 1), round(self.optimality_ratio, 3)],
            ["energy per round (J)", self.lp_min_total_energy,
             self.mlr_total_energy_per_round,
             round(self.mlr_total_energy_per_round / self.lp_min_total_energy, 3)
             if self.lp_min_total_energy else "-"],
        ]
        return format_table(
            ["metric", "LP bound", "MLR measured", "ratio"],
            rows,
            title="E11 — LP relaxation of eqs. (1)-(6) vs the MLR heuristic",
            ndigits=6,
        )


def run_lp_bound(
    n_sensors: int = 40,
    field_size: float = 180.0,
    gateways: int = 2,
    battery: float = 0.06,
    max_rounds: int = 120,
    round_duration: float = 5.0,
    comm_range: float = 50.0,
    packets_per_round: int = 4,
    seed: int = 7,
) -> LpBoundResult:
    """Solve the LPs and simulate MLR on the same deployment."""
    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in places.labels[:gateways]]
    energy_model = default_energy_model()

    scenario = make_uniform_scenario(
        n_sensors, field_size, gw_positions,
        comm_range=comm_range, sensor_battery=battery,
        topology_seed=seed, protocol_seed=seed + 29,
        energy_model=energy_model,
    )
    sim, net, ch = scenario.sim, scenario.network, scenario.channel

    # LP sees the *static* initial topology; MLR additionally benefits
    # from gateway mobility, but the LP bound with gateways at every
    # feasible place simultaneously would be looser, so we bound against
    # the round-0 placement (a fair per-round bound).
    bits = 8 * (MAC_HEADER_BYTES + DATA_PAYLOAD_BYTES)
    et = energy_model.tx_cost(bits, comm_range)
    er = energy_model.rx_cost(bits)
    lp = LifetimeLP(net, et=et, er=er, generation_rate=float(packets_per_round))
    max_life = lp.solve_max_lifetime(battery=battery)
    min_energy = lp.solve_min_energy()

    schedule = GatewaySchedule.rotating(places, net.gateway_ids, num_rounds=max_rounds, seed=seed)
    protocol = MLR(sim, net, ch, schedule)
    result = run_collection_rounds(
        scenario, protocol, num_rounds=max_rounds, round_duration=round_duration,
        packets_per_round=packets_per_round,
        stop_on_first_death=True, name="MLR",
    )
    mlr_rounds = (
        float(max_rounds) if result.lifetime is None else result.lifetime / round_duration
    )
    rounds_run = max(1.0, min(mlr_rounds, max_rounds))
    return LpBoundResult(
        lp_lifetime_rounds=max_life.objective,
        mlr_lifetime_rounds=mlr_rounds,
        lp_min_total_energy=min_energy.total_energy,
        mlr_total_energy_per_round=result.total_energy / rounds_run,
        lp_minmax_node_energy=min_energy.max_energy,
    )
