"""E8 — the attack-resistance matrix: MLR vs SecMLR under nine attacks.

Quantifies the Section 6 claim that SecMLR "can resist most of attacks
against routing in WMSNs".  Every attack from the Karlof–Wagner
catalogue quoted in Section 2.3 runs twice — against unsecured MLR and
against SecMLR — on the same deployment, traffic and attacker placement.

Measured per cell:

* ``delivery`` — honest-data delivery ratio (availability impact);
* ``dups`` — duplicate data accepted by gateways (replay success);
* ``forged`` — fabricated/impersonated data accepted (authenticity);
* ``rejected`` — packets SecMLR's checks discarded (defence activity).

Expected shape: MLR collapses (or silently accepts forgeries) under
sinkhole/spoof/replay/alteration/HELLO-flood; SecMLR holds its no-attack
delivery ratio for those, and degrades gracefully only under brute-force
packet dropping (selective forwarding / blackhole / wormhole), which no
MAC can prevent — only re-routing mitigates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.core.mlr import MLR
from repro.core.secmlr import SecMLR
from repro.experiments.common import (
    corner_places,
    make_uniform_scenario,
)
from repro.security.attacks import (
    AlterationAttacker,
    Blackhole,
    HelloFloodAttacker,
    ReplayAttacker,
    SelectiveForwarder,
    SinkholeAttacker,
    SpoofAttacker,
    SybilAttacker,
    WormholeEndpoint,
    WormholeTunnel,
    compromise,
)
from repro.sim.mobility import GatewaySchedule
from repro.sim.serialize import serializable
from repro.world import WorldConfig

__all__ = ["AttackCell", "AttackMatrixResult", "run_attack_matrix", "ATTACK_NAMES"]

ATTACK_NAMES = (
    "none",
    "selective",
    "blackhole",
    "sinkhole",
    "replay",
    "spoof",
    "alteration",
    "hello_flood",
    "sybil",
    "wormhole",
)


@serializable
@dataclass(frozen=True)
class AttackCell:
    attack: str
    protocol: str
    delivery_ratio: float
    duplicates: int
    forged_accepted: int
    rejected: int
    attacker_stats: dict
    #: Terminal drop reasons from the conservation ledger — what the
    #: attack actually did to the honest datums that went missing.
    drops: dict = field(default_factory=dict)


@serializable
@dataclass(frozen=True)
class AttackMatrixResult:
    cells: list

    def cell(self, attack: str, protocol: str) -> AttackCell:
        for c in self.cells:
            if c.attack == attack and c.protocol == protocol:
                return c
        raise KeyError((attack, protocol))

    def claims(self) -> dict[str, bool]:
        """The paper's claims about this result: claim text -> holds."""
        cell = self.cell
        base_mlr = cell("none", "MLR").delivery_ratio
        base_sec = cell("none", "SecMLR").delivery_ratio
        swallowed = {
            p: cell("sinkhole", p).attacker_stats.get("swallowed_data", 0)
            for p in ("MLR", "SecMLR")
        }
        return {
            "without attack both protocols deliver > 0.95": (
                base_mlr > 0.95 and base_sec > 0.95
            ),
            # Unsecured sensors believe the forged place announcement;
            # μTESLA receivers reject it.
            "HELLO flood costs MLR > 0.2 delivery; SecMLR rejects it and loses < 0.05": (
                cell("hello_flood", "MLR").delivery_ratio < base_mlr - 0.2
                and cell("hello_flood", "SecMLR").delivery_ratio > base_sec - 0.05
                and cell("hello_flood", "SecMLR").rejected > 0
            ),
            "spoofed readings are booked by MLR, never by SecMLR": (
                cell("spoof", "MLR").forged_accepted > 0
                and cell("spoof", "SecMLR").forged_accepted == 0
            ),
            "replayed duplicates reach the gateway under MLR only": (
                cell("replay", "MLR").duplicates > 0
                and cell("replay", "SecMLR").duplicates == 0
            ),
            # Total delivery still suffers under SecMLR: the attacker also
            # suppresses discovery floods through itself, which no crypto
            # can prevent (see EXPERIMENTS.md).
            "sinkhole costs MLR > 0.1 delivery; SecMLR rejects its routes "
            "and loses less data to it": (
                cell("sinkhole", "MLR").delivery_ratio < base_mlr - 0.1
                and cell("sinkhole", "SecMLR").rejected > 0
                and swallowed["MLR"] > swallowed["SecMLR"]
            ),
            "under selective forwarding and blackhole SecMLR delivers "
            "no worse than MLR - 0.1": all(
                cell(attack, "SecMLR").delivery_ratio
                >= cell(attack, "MLR").delivery_ratio - 0.1
                for attack in ("selective", "blackhole")
            ),
        }

    def format_table(self) -> str:
        rows = []
        for attack in ATTACK_NAMES:
            row = [attack]
            for proto in ("MLR", "SecMLR"):
                try:
                    c = self.cell(attack, proto)
                except KeyError:
                    row += ["-", "-", "-", "-"]
                    continue
                row += [round(c.delivery_ratio, 3), c.duplicates, c.forged_accepted, c.rejected]
            rows.append(row)
        return format_table(
            ["attack",
             "MLR dlv", "MLR dup", "MLR forged", "MLR rej",
             "Sec dlv", "Sec dup", "Sec forged", "Sec rej"],
            rows,
            title="E8 — attack resistance, MLR vs SecMLR",
        )


def _chokepoints(network, count: int = 3) -> list[int]:
    """The sensors most traffic flows through (betweenness on the link graph).

    Dropping attacks only hurt when the compromised nodes actually carry
    traffic, so the adversary captures the highest-betweenness sensors of
    the round-0 topology.
    """
    import networkx as nx

    g = network.graph()
    bc = nx.betweenness_centrality(g, normalized=True)
    sensors = sorted(
        (s for s in network.sensor_ids if s in bc),
        key=lambda s: -bc[s],
    )
    return sensors[:count]


def _center_sensor(network) -> int:
    pos = network.positions
    center = pos[network.sensor_ids].mean(axis=0)
    return min(network.sensor_ids, key=lambda s: float(((pos[s] - center) ** 2).sum()))


def _lure_sensor(network, field_size: float) -> int:
    """A sensor *off* the natural routes (route-manipulation attackers).

    Placing a sinkhole on a node that already forwards most traffic
    conflates route luring with plain packet dropping; an off-path node
    isolates the luring effect — damage then only occurs if the forged
    routes are actually believed.
    """
    pos = network.positions
    target = (0.3 * field_size, 0.7 * field_size)
    return min(
        network.sensor_ids,
        key=lambda s: float(((pos[s] - target) ** 2).sum()),
    )


def _run_single(
    protocol_cls,
    attack: str,
    n_sensors: int,
    field_size: float,
    gateways: int,
    rounds: int,
    round_duration: float,
    comm_range: float,
    seed: int,
) -> AttackCell:
    places = corner_places(field_size)
    gw_positions = [list(places.position(p)) for p in places.labels[:gateways]]
    scenario = make_uniform_scenario(
        n_sensors, field_size, gw_positions,
        comm_range=comm_range, topology_seed=seed, protocol_seed=seed + 13,
        world=WorldConfig(audit=True),
    )
    sim, net, ch = scenario.sim, scenario.network, scenario.channel
    schedule = GatewaySchedule.rotating(places, net.gateway_ids, num_rounds=rounds, seed=seed)
    protocol = protocol_cls(sim, net, ch, schedule)

    behaviors = []
    choke = _chokepoints(net)
    center = _center_sensor(net)
    lure = _lure_sensor(net, field_size)

    if attack == "selective":
        behaviors = [compromise(protocol, c, SelectiveForwarder(0.5)) for c in choke]
    elif attack == "blackhole":
        behaviors = [compromise(protocol, c, Blackhole()) for c in choke]
    elif attack == "sinkhole":
        behaviors = [compromise(protocol, lure, SinkholeAttacker())]
    elif attack == "replay":
        behaviors = [compromise(protocol, c, ReplayAttacker(delay=0.7)) for c in choke]
    elif attack == "alteration":
        behaviors = [compromise(protocol, center, AlterationAttacker())]
    elif attack == "sybil":
        behaviors = [compromise(protocol, center, SybilAttacker())]
    elif attack == "wormhole":
        tunnel = WormholeTunnel()
        ends = [choke[0], center if center != choke[0] else choke[-1]]
        behaviors = [compromise(protocol, e, WormholeEndpoint(tunnel)) for e in ends]
    elif attack == "spoof":
        behaviors = [compromise(protocol, center, SpoofAttacker())]
    elif attack == "hello_flood":
        behaviors = [compromise(protocol, center, HelloFloodAttacker())]

    honest = [s for s in net.sensor_ids if s not in {b.node_id for b in behaviors}]
    for r in range(rounds):
        sim.run(until=r * round_duration)
        protocol.start_round(r)
        if attack == "spoof":
            sim.schedule(2.2, behaviors[0].inject, honest[0], net.gateway_ids[0], 5)
        if attack == "hello_flood":
            # Claim gateway 0 moved to an unoccupied far place.
            occupied = set(schedule.assignment(r).values())
            free = [p for p in places.labels if p not in occupied]
            if free:
                sim.schedule(1.5, behaviors[0].flood, net.gateway_ids[0], free[0], 2)
        for i, s in enumerate(honest):
            sim.schedule(2.5 + (i % 61) * 1e-3, protocol.send_data, s)
    sim.run()

    m = ch.metrics
    ledger = m.ledger
    # Ledger-based slicing: honest datums are exactly the ledger entries
    # (only on_data_generated creates them); anything a gateway accepted
    # without a matching entry — forged ids, impersonations — lands in
    # unknown_delivered; replay success is the per-entry duplicate count.
    forged = sum(ledger.unknown_delivered.values())
    duplicates = ledger.duplicate_deliveries
    rejected = 0
    if isinstance(protocol, SecMLR):
        rejected = sum(protocol.security_rejections.values())
    delivery = ledger.delivered / ledger.generated if ledger.generated else 0.0
    stats = {}
    for b in behaviors:
        for k, v in getattr(b, "stats", {}).items():
            stats[k] = stats.get(k, 0) + v
        tunnel_stats = getattr(getattr(b, "tunnel", None), "stats", None)
        if tunnel_stats:
            stats.update(dict(tunnel_stats))
    scenario.assert_conserved()
    return AttackCell(
        attack=attack,
        protocol="SecMLR" if isinstance(protocol, SecMLR) else "MLR",
        delivery_ratio=delivery,
        duplicates=max(0, duplicates),
        forged_accepted=forged,
        rejected=rejected,
        attacker_stats=stats,
        drops=dict(sorted(ledger.drops_by_reason().items())),
    )


def run_attack_matrix(
    attacks: tuple[str, ...] = ATTACK_NAMES,
    protocols: tuple[str, ...] = ("MLR", "SecMLR"),
    n_sensors: int = 40,
    field_size: float = 180.0,
    gateways: int = 2,
    rounds: int = 4,
    round_duration: float = 6.0,
    comm_range: float = 50.0,
    seed: int = 4,
) -> AttackMatrixResult:
    """The full attack × protocol grid."""
    cells = []
    for attack in attacks:
        for proto in protocols:
            cls = MLR if proto == "MLR" else SecMLR
            cells.append(
                _run_single(
                    cls, attack, n_sensors, field_size, gateways,
                    rounds, round_duration, comm_range, seed,
                )
            )
    return AttackMatrixResult(cells=cells)
