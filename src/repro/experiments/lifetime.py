"""E5 — network lifetime comparison: MLR vs SPR vs baselines.

The paper's central performance claim (Section 5.3): MLR maximises the
time until the first sensor exhausts its battery by moving gateways and
re-selecting least-hop routes round by round, while single-sink schemes
burn out the sink's neighbors.  Every protocol runs the same deployment,
battery budget, traffic pattern and first-order radio model.

Expected shape: MLR outlives SPR (static gateways) outlives the flat
single-sink protocol; flooding dies fastest (implosion); LEACH sits
between flat and multi-gateway schemes; MLR shows the lowest energy
variance (the D^2 objective of eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import energy_balance_index
from repro.analysis.tables import format_table
from repro.baselines.direct import DirectTransmission
from repro.baselines.flat import FlatSinkRouting
from repro.baselines.flooding import Flooding
from repro.baselines.leach import LEACH
from repro.core.mlr import MLR
from repro.core.spr import SPR
from repro.experiments.common import (
    ScenarioResult,
    corner_places,
    default_energy_model,
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.sim.mobility import GatewaySchedule
from repro.sim.serialize import serializable

__all__ = ["LifetimeComparison", "run_lifetime_comparison", "LIFETIME_PROTOCOLS"]

LIFETIME_PROTOCOLS = ("MLR", "SPR", "flat-1-sink", "LEACH", "flooding", "direct")


@serializable
@dataclass(frozen=True)
class LifetimeComparison:
    results: dict[str, ScenarioResult]
    round_duration: float
    max_rounds: int
    balance: dict[str, float]

    def lifetime_rounds(self, name: str) -> float:
        lt = self.results[name].lifetime
        if lt is None:
            return float(self.max_rounds)
        return lt / self.round_duration

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        mlr = self.lifetime_rounds("MLR")
        spr = self.lifetime_rounds("SPR")
        flat = self.lifetime_rounds("flat-1-sink")
        flood = self.lifetime_rounds("flooding")
        return {
            "multiple gateways (SPR) outlive the single sink": spr > flat,
            "MLR lives at least 0.9x as long as static-gateway SPR": mlr >= spr * 0.9,
            "flooding's implosion kills the network before flat-1-sink's": flood < flat,
            # eq. (1)'s D^2 objective.
            "MLR balances energy better than flat-1-sink": (
                self.balance["MLR"] > self.balance["flat-1-sink"]
            ),
            "MLR, SPR and flat-1-sink deliver > 0.9 while alive": all(
                self.results[name].delivery_ratio > 0.9
                for name in ("MLR", "SPR", "flat-1-sink")
            ),
        }

    def format_table(self) -> str:
        rows = []
        for name, r in self.results.items():
            rows.append(
                [
                    name,
                    round(self.lifetime_rounds(name), 1),
                    round(r.delivery_ratio, 3),
                    r.total_energy,
                    r.energy_variance,
                    round(self.balance[name], 3),
                    r.bytes_sent,
                ]
            )
        rows.sort(key=lambda row: -float(row[1]))
        return format_table(
            ["protocol", "lifetime_rounds", "delivery", "energy_J", "variance_D2",
             "balance", "bytes"],
            rows,
            title="E5 — lifetime (rounds until first sensor death)",
            ndigits=6,
        )


def run_lifetime_comparison(
    n_sensors: int = 50,
    field_size: float = 200.0,
    battery: float = 0.05,
    gateways: int = 2,
    max_rounds: int = 200,
    round_duration: float = 5.0,
    comm_range: float = 50.0,
    packets_per_round: int = 4,
    seed: int = 1,
    protocols: tuple[str, ...] = LIFETIME_PROTOCOLS,
) -> LifetimeComparison:
    """Run every protocol on an identical deployment until first death.

    The horizon matters: MLR pays discovery floods up front while covering
    the feasible places (the Table 1 warm-up) and then routes from
    accumulated tables for free, so lifetime comparisons need batteries
    large enough to reach steady state — with tiny budgets every protocol
    dies during its own setup phase and the comparison is meaningless.
    """
    places = corner_places(field_size)
    center = [[field_size / 2, field_size / 2]]
    multi_gw = [list(places.position(p)) for p in places.labels[:gateways]]
    energy_model = default_energy_model()

    results: dict[str, ScenarioResult] = {}
    balance: dict[str, float] = {}
    for name in protocols:
        gw_positions = center if name in ("flat-1-sink", "LEACH", "direct") else multi_gw
        scenario = make_uniform_scenario(
            n_sensors,
            field_size,
            gw_positions,
            comm_range=comm_range,
            sensor_battery=battery,
            topology_seed=seed,
            protocol_seed=seed + 7,
            energy_model=energy_model,
        )
        sim, net, ch = scenario.sim, scenario.network, scenario.channel
        if name == "MLR":
            schedule = GatewaySchedule.rotating(
                places, net.gateway_ids, num_rounds=max_rounds, seed=seed
            )
            protocol = MLR(sim, net, ch, schedule)
        elif name == "SPR":
            protocol = SPR(sim, net, ch)
        elif name == "flat-1-sink":
            protocol = FlatSinkRouting(sim, net, ch)
        elif name == "LEACH":
            protocol = LEACH(sim, net, ch)
        elif name == "flooding":
            protocol = Flooding(sim, net, ch)
        elif name == "direct":
            protocol = DirectTransmission(sim, net, ch)
        else:
            raise ValueError(f"unknown protocol {name!r}")
        results[name] = run_collection_rounds(
            scenario,
            protocol,
            num_rounds=max_rounds,
            round_duration=round_duration,
            packets_per_round=packets_per_round,
            stop_on_first_death=True,
            name=name,
        )
        balance[name] = energy_balance_index(net)
    return LifetimeComparison(
        results=results,
        round_duration=round_duration,
        max_rounds=max_rounds,
        balance=balance,
    )
