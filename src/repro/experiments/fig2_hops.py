"""E1 — exact reproduction of Fig. 2 (one sink vs three gateways).

The paper's worked example: sensor nodes S1..S4 reach a *single sink* in
2, 7, 6 and 9 hops respectively (Fig. 2a); deploying three gateways
instead, S1→G1, S2→G2, S3→G3 take 1 hop each and S4→G2 takes 2
(Fig. 2b).  We realise the example geometrically — three chains of relay
nodes radiating from the sink position — and let the *protocols* discover
the routes: FlatSinkRouting for 2(a), SPR for 2(b).  The measured hop
counts must equal the paper's exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines.flat import FlatSinkRouting
from repro.core.spr import SPR
from repro.sim.serialize import serializable
from repro.world import WorldBuilder

__all__ = ["Fig2Result", "run_fig2", "build_fig2_positions"]

#: hop counts the paper states for Fig. 2(a), keyed by sensor name
PAPER_SINGLE_SINK = {"S1": 2, "S2": 7, "S3": 6, "S4": 9}
#: hop counts (and serving gateway) for Fig. 2(b)
PAPER_MULTI_GATEWAY = {"S1": (1, "G1"), "S2": (1, "G2"), "S3": (1, "G3"), "S4": (2, "G2")}

_SPACING = 8.0
_COMM_RANGE = 10.0


def build_fig2_positions() -> dict:
    """The geometric embedding of Fig. 2.

    Three rays from the sink at 0°, 120° and 240°, relay nodes every 8 m
    (communication range 10 m, so only chain-adjacent nodes hear each
    other; rays are angularly separated enough never to short-circuit):

    * ray A: 1 relay, then S1 (2 hops), with G1 one hop past S1;
    * ray B: 6 relays, then S2 (7 hops), then a relay, then S4 (9 hops);
      G2 sits off-ray, adjacent to S2 and to the relay before S4;
    * ray C: 5 relays, then S3 (6 hops), with G3 one hop past S3.
    """

    def on_ray(angle_deg: float, radius: float, offset: float = 0.0) -> tuple[float, float]:
        a = math.radians(angle_deg)
        # perpendicular offset rotates the point off the ray axis
        return (
            radius * math.cos(a) - offset * math.sin(a),
            radius * math.sin(a) + offset * math.cos(a),
        )

    relays: list[tuple[float, float]] = []
    named: dict[str, tuple[float, float]] = {}

    # ray A (0 degrees): sink - r - S1 ; G1 beyond S1
    relays.append(on_ray(0, 1 * _SPACING))
    named["S1"] = on_ray(0, 2 * _SPACING)
    named["G1"] = on_ray(0, 3 * _SPACING)

    # ray B (120 degrees): sink - r1..r6 - S2 - r7 - S4 ; G2 off-ray
    for k in range(1, 7):
        relays.append(on_ray(120, k * _SPACING))
    named["S2"] = on_ray(120, 7 * _SPACING)
    relays.append(on_ray(120, 8 * _SPACING))  # the relay between S2 and S4
    named["S4"] = on_ray(120, 9 * _SPACING)
    # adjacent to S2 (7*8=56) and to the relay at 64, but not to S4 at 72
    named["G2"] = on_ray(120, 7.5 * _SPACING, offset=6.0)

    # ray C (240 degrees): sink - r1..r5 - S3 ; G3 beyond S3
    for k in range(1, 6):
        relays.append(on_ray(240, k * _SPACING))
    named["S3"] = on_ray(240, 6 * _SPACING)
    named["G3"] = on_ray(240, 7 * _SPACING)

    named["sink"] = (0.0, 0.0)
    return {"relays": relays, "named": named}


@serializable
@dataclass(frozen=True)
class Fig2Result:
    """Measured vs published hop counts for both panels of Fig. 2."""

    single_sink_hops: dict[str, int]
    multi_gateway_hops: dict[str, int]
    multi_gateway_served_by: dict[str, str]
    total_hops_single: int
    total_hops_multi: int

    @property
    def matches_paper(self) -> bool:
        if self.single_sink_hops != PAPER_SINGLE_SINK:
            return False
        for s, (hops, gw) in PAPER_MULTI_GATEWAY.items():
            if self.multi_gateway_hops.get(s) != hops:
                return False
            if self.multi_gateway_served_by.get(s) != gw:
                return False
        return True

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        return {
            "hop counts and serving gateways equal Fig. 2(a)/(b)": self.matches_paper,
            "total hops collapse 24 -> 5 (Section 4.1)": (
                self.total_hops_single == 24 and self.total_hops_multi == 5
            ),
        }

    def format_table(self) -> str:
        rows = []
        for s in ("S1", "S2", "S3", "S4"):
            rows.append(
                [
                    s,
                    PAPER_SINGLE_SINK[s],
                    self.single_sink_hops[s],
                    PAPER_MULTI_GATEWAY[s][0],
                    self.multi_gateway_hops[s],
                    self.multi_gateway_served_by[s],
                ]
            )
        rows.append(["TOTAL", sum(PAPER_SINGLE_SINK.values()), self.total_hops_single,
                     sum(h for h, _ in PAPER_MULTI_GATEWAY.values()), self.total_hops_multi, "-"])
        return format_table(
            ["sensor", "paper 1-sink", "measured", "paper 3-gw", "measured", "gateway"],
            rows,
            title="Fig. 2 — hops to sink(s), single sink vs three gateways",
        )


def _measure(sensor_names, positions, gateway_coords, protocol_cls, seed: int) -> tuple[dict, dict]:
    """Run a protocol on the Fig. 2 field and read S*'s delivered hop counts."""
    named = positions["named"]
    sensor_coords = [named[s] for s in sensor_names] + list(positions["relays"])
    world = (
        WorldBuilder()
        .seed(seed)
        .sensors(np.asarray(sensor_coords))
        .gateways(np.asarray(gateway_coords))
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .build()
    )
    protocol = world.attach(protocol_cls)
    for idx in range(len(sensor_names)):
        protocol.send_data(idx)
    world.sim.run()
    hops: dict[str, int] = {}
    served: dict[str, int] = {}
    for rec in world.metrics.deliveries:
        if rec.origin < len(sensor_names):
            name = sensor_names[rec.origin]
            hops[name] = rec.hops
            served[name] = rec.destination
    return hops, served


def run_fig2(seed: int = 0) -> Fig2Result:
    """Reproduce both panels of Fig. 2 and return the comparison."""
    positions = build_fig2_positions()
    named = positions["named"]
    sensor_names = ["S1", "S2", "S3", "S4"]

    single_hops, _ = _measure(
        sensor_names, positions, [named["sink"]], FlatSinkRouting, seed
    )

    gateway_names = ["G1", "G2", "G3"]
    multi_hops, served_ids = _measure(
        sensor_names, positions, [named[g] for g in gateway_names], SPR, seed
    )
    n_sensor_nodes = len(sensor_names) + len(positions["relays"])
    served_by = {
        s: gateway_names[gid - n_sensor_nodes] for s, gid in served_ids.items()
    }

    return Fig2Result(
        single_sink_hops=single_hops,
        multi_gateway_hops=multi_hops,
        multi_gateway_served_by=served_by,
        total_hops_single=sum(single_hops.values()),
        total_hops_multi=sum(multi_hops.values()),
    )
