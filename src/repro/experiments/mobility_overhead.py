"""E10 — mobility: accumulate-and-notify vs reset-per-round (ablation).

Section 5.3's argument for MLR: "Traditional table-driven routing
protocols need to update frequently routing tables of all sensor nodes,
arising too heavy traffic overhead ... our principle is to accumulate
routing tables round by round."  After every feasible place has hosted a
gateway, MLR sensors never flood discovery again — only NOTIFY floods
remain — while a reset-based protocol re-floods every round forever.

The experiment runs three variants over the same gateway schedule:

* ``MLR`` — the paper's accumulated tables;
* ``MLR-reset`` — identical protocol but tables cleared each round (the
  ablation);
* ``SecMLR`` — accumulation plus μTESLA, showing the disclosure-lag cost
  on top.

Reported per round: control frames and control bytes; the accumulate
curve must fall to (near) zero once coverage is complete, the reset curve
must stay high.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.mlr import MLR
from repro.core.routing_table import RoutingTable
from repro.core.secmlr import SecMLR
from repro.experiments.common import corner_places, make_uniform_scenario
from repro.sim.mobility import GatewaySchedule
from repro.sim.serialize import serializable

__all__ = ["MobilityOverheadResult", "ResetMLR", "run_mobility_overhead"]


class ResetMLR(MLR):
    """MLR with the paper's accumulation removed (per-round table reset).

    At every round start each sensor's routing table (and the source-route
    announcement cache) is wiped, so every sender re-floods discovery for
    every active place — the "traditional table-driven" behaviour the
    paper argues against.
    """

    def start_round(self, r: int) -> None:
        for node_id in list(self.tables):
            self.tables[node_id] = RoutingTable(node_id)
        self._announced.clear()
        super().start_round(r)


@serializable
@dataclass(frozen=True)
class MobilityOverheadResult:
    per_round_control_frames: dict[str, list[int]]
    per_round_control_bytes: dict[str, list[int]]
    delivery: dict[str, float]

    def total_control_frames(self, name: str) -> int:
        return sum(self.per_round_control_frames[name])

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        mlr = self.per_round_control_frames["MLR"]
        reset = self.per_round_control_frames["MLR-reset"]
        sec = self.per_round_control_frames["SecMLR"]
        return {
            "in the last two rounds accumulation costs < 1/5 of reset": (
                sum(mlr[-2:]) * 5 < sum(reset[-2:])
            ),
            "MLR's last round costs < 1/5 of its first": mlr[-1] * 5 < mlr[0],
            "the reset variant never collapses: last round > half its first": (
                reset[-1] > reset[0] * 0.5
            ),
            # The premium is the μTESLA disclosure floods.
            "SecMLR pays a bounded premium: MLR <= SecMLR < reset in total": (
                sum(mlr) <= sum(sec) < sum(reset)
            ),
            "accumulation sends fewer control frames in total than reset": (
                self.total_control_frames("MLR") < self.total_control_frames("MLR-reset")
            ),
            "every variant delivers > 0.9": all(d > 0.9 for d in self.delivery.values()),
        }

    def format_table(self) -> str:
        names = list(self.per_round_control_frames)
        num_rounds = len(next(iter(self.per_round_control_frames.values())))
        rows = []
        for r in range(num_rounds):
            rows.append([r] + [self.per_round_control_frames[n][r] for n in names])
        rows.append(["TOTAL"] + [self.total_control_frames(n) for n in names])
        rows.append(["delivery"] + [round(self.delivery[n], 3) for n in names])
        return format_table(
            ["round"] + names,
            rows,
            title="E10 — control frames per round (gateway mobility)",
        )


def run_mobility_overhead(
    n_sensors: int = 40,
    field_size: float = 180.0,
    gateways: int = 2,
    rounds: int = 8,
    round_duration: float = 6.0,
    comm_range: float = 50.0,
    seed: int = 6,
    variants: tuple[str, ...] = ("MLR", "MLR-reset", "SecMLR"),
) -> MobilityOverheadResult:
    """Per-round control-plane cost for the three variants."""
    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in places.labels[:gateways]]

    frames: dict[str, list[int]] = {}
    nbytes: dict[str, list[int]] = {}
    delivery: dict[str, float] = {}
    classes = {"MLR": MLR, "MLR-reset": ResetMLR, "SecMLR": SecMLR}

    for name in variants:
        scenario = make_uniform_scenario(
            n_sensors, field_size, gw_positions,
            comm_range=comm_range, topology_seed=seed, protocol_seed=seed + 19,
        )
        sim, net, ch = scenario.sim, scenario.network, scenario.channel
        schedule = GatewaySchedule.rotating(
            places, net.gateway_ids, num_rounds=rounds, seed=seed
        )
        protocol = classes[name](sim, net, ch, schedule)

        frames[name] = []
        nbytes[name] = []
        prev_frames = prev_bytes = 0
        for r in range(rounds):
            sim.run(until=r * round_duration)
            protocol.start_round(r)
            for i, s in enumerate(net.sensor_ids):
                sim.schedule(2.5 + (i % 43) * 1e-3, protocol.send_data, s)
            sim.run(until=(r + 1) * round_duration - 1e-9)
            frames[name].append(ch.metrics.control_frames - prev_frames)
            data_bytes = 0  # control bytes = total - data? track control only
            nbytes[name].append(ch.metrics.bytes_sent - prev_bytes)
            prev_frames = ch.metrics.control_frames
            prev_bytes = ch.metrics.bytes_sent
        sim.run()
        delivery[name] = ch.metrics.delivery_ratio

    return MobilityOverheadResult(
        per_round_control_frames=frames,
        per_round_control_bytes=nbytes,
        delivery=delivery,
    )
