"""E7 — the cost of security: SecMLR vs MLR on identical scenarios.

Section 6.2's design performs "main computing tasks on resource-rich
gateways", so the claimed sensor-side overhead is (a) the SNEP envelope
bytes on every RREQ/RRES/DATA, (b) the loss of Property-1 table
answering (only gateways can answer authentically), (c) the gateway
collection timeout on discovery latency, and (d) μTESLA's disclosure
floods and lag on NOTIFY.  This experiment measures all four.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.mlr import MLR
from repro.core.secmlr import SecMLR
from repro.experiments.common import (
    ScenarioResult,
    corner_places,
    default_energy_model,
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.sim.mobility import GatewaySchedule
from repro.sim.serialize import serializable

__all__ = ["SecurityOverheadResult", "run_security_overhead"]


@serializable
@dataclass(frozen=True)
class SecurityOverheadResult:
    mlr: ScenarioResult
    secmlr: ScenarioResult

    @property
    def byte_overhead(self) -> float:
        """Relative increase in bytes on the air."""
        if self.mlr.bytes_sent == 0:
            return 0.0
        return self.secmlr.bytes_sent / self.mlr.bytes_sent - 1.0

    @property
    def energy_overhead(self) -> float:
        if self.mlr.total_energy == 0:
            return 0.0
        return self.secmlr.total_energy / self.mlr.total_energy - 1.0

    @property
    def latency_overhead(self) -> float:
        if self.mlr.mean_latency == 0:
            return 0.0
        return self.secmlr.mean_latency / self.mlr.mean_latency - 1.0

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        return {
            "security does not break routing: delivery > 0.95, hops within 0.5 of MLR": (
                self.secmlr.delivery_ratio > 0.95
                and abs(self.secmlr.mean_hops - self.mlr.mean_hops) < 0.5
            ),
            "the crypto is on the air: > 5% more bytes and higher latency": (
                self.byte_overhead > 0.05 and self.latency_overhead > 0.0
            ),
            "the overhead is bounded: byte and energy overhead < 200%": (
                self.byte_overhead < 2.0 and self.energy_overhead < 2.0
            ),
        }

    def format_table(self) -> str:
        rows = [self.mlr.row(), self.secmlr.row()]
        table = format_table(ScenarioResult.HEADERS, rows,
                             title="E7 — SecMLR overhead vs MLR", ndigits=6)
        return (
            table
            + f"\noverhead: bytes {self.byte_overhead:+.1%}, "
            + f"energy {self.energy_overhead:+.1%}, "
            + f"latency {self.latency_overhead:+.1%}"
        )


def run_security_overhead(
    n_sensors: int = 50,
    field_size: float = 200.0,
    gateways: int = 2,
    rounds: int = 6,
    round_duration: float = 6.0,
    comm_range: float = 50.0,
    seed: int = 2,
) -> SecurityOverheadResult:
    """Identical deployment + schedule, secured and unsecured."""
    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in places.labels[:gateways]]

    def build(cls, name):
        scenario = make_uniform_scenario(
            n_sensors,
            field_size,
            gw_positions,
            comm_range=comm_range,
            topology_seed=seed,
            protocol_seed=seed + 11,
            energy_model=default_energy_model(),
        )
        schedule = GatewaySchedule.rotating(
            places, scenario.network.gateway_ids, num_rounds=rounds, seed=seed
        )
        protocol = cls(scenario.sim, scenario.network, scenario.channel, schedule)
        return run_collection_rounds(
            scenario, protocol, num_rounds=rounds, round_duration=round_duration,
            traffic_offset=2.5, name=name,
        )

    return SecurityOverheadResult(
        mlr=build(MLR, "MLR"),
        secmlr=build(SecMLR, "SecMLR"),
    )
