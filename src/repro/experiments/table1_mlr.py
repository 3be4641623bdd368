"""E2 — exact reproduction of Table 1 (incremental MLR routing tables).

The paper walks node Si through three rounds with five feasible places
A-E and three gateways:

* round 1: gateways at {A, B, C}; Si's table reads A:8, B:6, C:7 hops and
  Si selects the route to B;
* round 2: the gateway at B moves to D; Si adds D:5 and selects D;
* round 3: the gateway at A moves to E; Si adds E:6 and still selects D.

We embed the hop counts geometrically (five relay chains radiating from
Si, one per place, chain lengths 8/6/7/5/6) and let MLR's accumulated
tables produce the three panels.  Measured tables and selections must
match the paper's exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.core.mlr import MLR
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.serialize import serializable
from repro.world import WorldBuilder

__all__ = ["Table1Result", "run_table1", "PAPER_TABLE1"]

#: (place -> hops) panels and the selected place, per round, as published
PAPER_TABLE1 = [
    ({"A": 8, "B": 6, "C": 7}, "B"),
    ({"A": 8, "B": 6, "C": 7, "D": 5}, "D"),
    ({"A": 8, "B": 6, "C": 7, "D": 5, "E": 6}, "D"),
]

_SPACING = 9.5
_COMM_RANGE = 10.0
_PLACE_HOPS = {"A": 8, "B": 6, "C": 7, "D": 5, "E": 6}
_ANGLES = {"A": 90.0, "B": 162.0, "C": 234.0, "D": 306.0, "E": 18.0}


def _ray_point(angle_deg: float, radius: float) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (radius * math.cos(a), radius * math.sin(a))


def build_table1_topology() -> tuple[np.ndarray, FeasiblePlaces, int]:
    """Si at the origin, one relay chain per feasible place.

    Place ``p`` lies ``_PLACE_HOPS[p]`` hops from Si: ``hops - 1`` relays
    at 9.5 m spacing (range 10 m — chain-adjacent only; 72° between rays
    keeps chains from shorting: 2·9.5·sin 36° ≈ 11.2 m > 10 m).  Returns
    (sensor positions, places, Si's node id).
    """
    sensors: list[tuple[float, float]] = [(0.0, 0.0)]  # Si is node 0
    mapping: dict[str, tuple[float, float]] = {}
    for place, hops in _PLACE_HOPS.items():
        angle = _ANGLES[place]
        for k in range(1, hops):
            sensors.append(_ray_point(angle, k * _SPACING))
        mapping[place] = _ray_point(angle, hops * _SPACING)
    return np.asarray(sensors), FeasiblePlaces.from_mapping(mapping), 0


@serializable
@dataclass(frozen=True)
class Table1Result:
    """Measured panels: per round, (place -> hops) and the selected place."""

    panels: list[dict[str, int]]
    selections: list[str]

    @property
    def matches_paper(self) -> bool:
        return list(zip(self.panels, self.selections)) == PAPER_TABLE1

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        return {
            "panels and selections equal Table 1(a)-(c)": self.matches_paper,
            "the table only accumulates: 3, 4, 5 places": (
                [len(p) for p in self.panels] == [3, 4, 5]
            ),
        }

    def format_table(self) -> str:
        blocks = []
        for r, (panel, sel) in enumerate(zip(self.panels, self.selections)):
            paper_panel, paper_sel = PAPER_TABLE1[r]
            rows = [
                [p, paper_panel.get(p, "-"), panel.get(p, "-")]
                for p in sorted(set(paper_panel) | set(panel))
            ]
            rows.append(["selected", paper_sel, sel])
            blocks.append(
                format_table(
                    ["place", "paper hops", "measured"],
                    rows,
                    title=f"Table 1({chr(ord('a') + r)}) — Si's routing table, round {r + 1}",
                )
            )
        return "\n\n".join(blocks)


def run_table1(
    seed: int = 0,
    round_duration: float = 20.0,
) -> Table1Result:
    """Drive MLR through the three rounds of Table 1 and snapshot Si.

    The gateway moves of rounds 2 and 3 exercise the incremental spatial
    index, which ``tests/test_spatial_index.py`` holds equal to a dense
    rebuild.
    """
    sensors, places, si = build_table1_topology()
    # Three gateways; initial places A, B, C (they will be moved by MLR).
    gw_positions = np.asarray([places.position(p) for p in ("A", "B", "C")])
    world = (
        WorldBuilder()
        .seed(seed)
        .sensors(sensors)
        .gateways(gw_positions)
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .places(places)
        .build()
    )
    g0, g1, g2 = world.network.gateway_ids
    schedule = GatewaySchedule(
        places=places,
        rounds=[
            {g0: "A", g1: "B", g2: "C"},
            {g0: "A", g1: "D", g2: "C"},  # B -> D
            {g0: "E", g1: "D", g2: "C"},  # A -> E
        ],
    )
    mlr = world.attach(MLR, schedule)
    sim = world.sim

    panels: list[dict[str, int]] = []
    selections: list[str] = []
    for r in range(3):
        sim.run(until=r * round_duration)
        mlr.start_round(r)
        sim.schedule(2.0, mlr.send_data, si)
        sim.run(until=r * round_duration + round_duration * 0.9)
        panels.append({place: hops for place, hops, _ in mlr.table_snapshot(si)})
        selections.append(mlr.selected_place(si) or "-")
    sim.run()
    return Table1Result(panels=panels, selections=selections)
