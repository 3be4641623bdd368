"""Packet-conservation accounting: ledger, audit mode, CLI, RERR edges.

Covers the ``repro.obs`` lifecycle ledger directly, the audit plumbing
through :class:`MetricsCollector`/:class:`WorldBuilder`, the RERR edge
paths (detector at position 0, dead previous hop, repair exhaustion)
each of which must leave the stranded datum in exactly one terminal
ledger state, and the ``python -m repro.obs`` trace auditor.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import ConservationError
from repro.obs import PacketLedger, assert_conserved, audit_collector, datum_key
from repro.obs.cli import main as obs_main
from repro.obs.ledger import DatumState
from repro.runner import ExperimentSpec, SweepRunner
from repro.sim.packet import Packet, PacketKind
from repro.sim.radio import IEEE802154, RadioConfig
from repro.sim.trace import MetricsCollector
from repro.world import WorldBuilder


def data_pkt(origin, data_id, target=1, dst=1, created_at=0.0, hops=2):
    return Packet(
        kind=PacketKind.DATA,
        origin=origin,
        target=target,
        dst=dst,
        payload={"data_id": data_id},
        payload_bytes=32,
        hop_count=hops,
        created_at=created_at,
    )


def rerr_pkt(source, data_id, back_path, pos, detector=None):
    """A RERR carrying a stranded datum back toward ``source``."""
    return Packet(
        kind=PacketKind.RERR,
        origin=detector if detector is not None else back_path[-1],
        target=source,
        dst=back_path[pos],
        payload={
            "key": "k",
            "back_path": list(back_path),
            "pos": pos,
            "data": {"data_id": data_id, "bytes": 32},
        },
        payload_bytes=40,
    )


# ----------------------------------------------------------------------
# ledger unit behaviour
# ----------------------------------------------------------------------
class TestLedger:
    def test_datum_key_reads_data_and_rerr(self):
        assert datum_key(data_pkt(3, 7)) == (3, 7)
        assert datum_key(rerr_pkt(source=3, data_id=7, back_path=[3, 4], pos=0)) == (3, 7)
        hello = Packet(kind=PacketKind.HELLO, origin=0, target=None)
        assert datum_key(hello) is None

    def test_lifecycle_generated_queued_inflight_delivered(self):
        led = PacketLedger()
        led.on_generated(0, 1, now=0.0)
        entry = led.entries[(0, 1)]
        assert entry.state is DatumState.GENERATED
        led.on_queued(0, 1)
        assert entry.state is DatumState.QUEUED
        led.on_frame_sent(data_pkt(0, 1))
        assert entry.state is DatumState.IN_FLIGHT
        led.on_delivered(data_pkt(0, 1), now=1.5)
        assert entry.state is DatumState.DELIVERED
        assert led.generated == led.delivered == 1
        assert led.dropped == led.pending == 0

    def test_terminal_drop_closes_entry_once(self):
        led = PacketLedger()
        led.on_generated(0, 1)
        assert led.on_dropped("ttl", data_pkt(0, 1), now=2.0)
        entry = led.entries[(0, 1)]
        assert entry.state is DatumState.DROPPED and entry.reason == "ttl"
        # A second terminal drop of the same datum is surplus, not a
        # second death.
        assert not led.on_dropped("no_route", data_pkt(0, 1))
        assert led.dropped == 1
        assert led.extra_drops["no_route"] == 1

    def test_delivery_wins_over_earlier_drop(self):
        # A forked copy can die while another copy still delivers: the
        # delivery upgrades the entry and the drop becomes a late drop.
        led = PacketLedger()
        led.on_generated(0, 1)
        led.on_dropped("blackhole", data_pkt(0, 1))
        led.on_delivered(data_pkt(0, 1), now=3.0)
        entry = led.entries[(0, 1)]
        assert entry.state is DatumState.DELIVERED
        assert entry.superseded_drop == "blackhole"
        assert led.late_drops["blackhole"] == 1
        assert led.delivered == 1 and led.dropped == 0

    def test_duplicate_deliveries_counted_not_conflated(self):
        led = PacketLedger()
        led.on_generated(0, 1)
        led.on_delivered(data_pkt(0, 1), now=1.0)
        led.on_delivered(data_pkt(0, 1), now=2.0)
        assert led.delivered == 1
        assert led.duplicate_deliveries == 1

    def test_forged_delivery_is_unknown_not_conserved_mass(self):
        led = PacketLedger()
        led.on_generated(0, 1)
        led.on_delivered(data_pkt(9, 5_000_000), now=1.0)  # never generated
        assert led.delivered == 0
        assert led.unknown_delivered[(9, 5_000_000)] == 1

    def test_broadcast_entries_exempt_from_stuck_check(self):
        led = PacketLedger()
        led.on_generated(0, 1)
        bcast = data_pkt(0, 1, dst=None)
        led.on_frame_sent(bcast)
        entry = led.entries[(0, 1)]
        assert entry.broadcast
        assert entry in led.pending_entries()
        assert entry not in led.stuck_entries()


# ----------------------------------------------------------------------
# collector audit plumbing
# ----------------------------------------------------------------------
class TestCollectorAudit:
    def test_audit_attaches_ledger(self):
        m = MetricsCollector(audit=True)
        assert m.ledger is not None
        m2 = MetricsCollector(audit=False)
        assert m2.ledger is None
        m2.enable_audit()
        assert m2.ledger is not None

    def test_conservation_violation_raises(self):
        m = MetricsCollector(audit=True)
        m.on_data_generated()  # identity-less generation under audit
        with pytest.raises(ConservationError, match="without datum identity"):
            m.assert_conserved()

    def test_delivery_ratio_above_one_raises_under_audit(self):
        m = MetricsCollector(audit=True)
        m.on_data_generated(origin=0, data_id=1)
        m.on_data_delivered(data_pkt(0, 1), 1, now=1.0)
        m.on_data_delivered(data_pkt(0, 2), 1, now=1.1)  # forged id
        with pytest.raises(ConservationError, match="delivery ratio"):
            m.delivery_ratio

    def test_stats_use_unique_first_deliveries(self):
        m = MetricsCollector()
        m.on_data_generated(origin=0, data_id=1)
        m.on_data_delivered(data_pkt(0, 1, created_at=0.0, hops=2), 1, now=1.0)
        # Duplicate of the same datum, later and over more hops: must not
        # shift any per-datum statistic.
        m.on_data_delivered(data_pkt(0, 1, created_at=0.0, hops=6), 2, now=9.0)
        assert len(m.unique_deliveries()) == 1
        assert m.delivery_ratio == 1.0
        assert m.mean_latency == pytest.approx(1.0)
        assert m.mean_hops == pytest.approx(2.0)

    def test_audit_collector_requires_ledger(self):
        with pytest.raises(ConservationError, match="no ledger"):
            audit_collector(MetricsCollector(audit=False))

    def test_report_table_and_jsonable(self):
        m = MetricsCollector(audit=True)
        m.on_data_generated(origin=0, data_id=1)
        m.on_terminal_drop("ttl", data_pkt(0, 1), node=4, now=2.0)
        report = audit_collector(m)
        assert report.ok
        assert report.drops_by_reason == {"ttl": 1}
        blob = report.to_jsonable()
        assert blob["generated"] == 1 and blob["dropped"] == 1
        assert "ttl" in report.format_table()
        assert_conserved(m)  # must not raise


# ----------------------------------------------------------------------
# RERR edge paths — exactly one terminal ledger state each
# ----------------------------------------------------------------------
def _line_world(config=None, n=5, comm_range=12.0):
    sensors = np.array([[float(10 * i), 0.0] for i in range(n)])
    world = (
        WorldBuilder()
        .seed(11)
        .sensors(sensors)
        .gateways([[10.0 * n, 0.0]])
        .comm_range(comm_range)
        .ideal_radio()
        .audit()
        .build()
    )
    spr = world.attach(SPR, config) if config is not None else world.attach(SPR)
    return world, spr


def _single_terminal_entry(world, origin, data_id):
    entry = world.metrics.ledger.entries[(origin, data_id)]
    assert not entry.open, "datum must have reached a terminal state"
    assert world.metrics.ledger.extra_drops == {}, "exactly one terminal event"
    world.assert_conserved()
    return entry


class TestRerrEdgePaths:
    def test_detector_heads_traversed_list(self):
        # pos == 0 in _report_route_error: the detector is the first (and
        # only) entry of the traversed list but not the datum's origin, so
        # there is no upstream hop to carry the RERR.
        world, spr = _line_world()
        world.metrics.on_data_generated(origin=0, data_id=41, now=0.0)
        stranded = Packet(
            kind=PacketKind.DATA,
            origin=0,
            target=5,
            payload={"data_id": 41, "bytes": 32, "key": "k", "traversed": [3]},
            payload_bytes=32,
        )
        spr._report_route_error(3, stranded)
        world.sim.run()
        entry = _single_terminal_entry(world, 0, 41)
        assert entry.state is DatumState.DROPPED
        assert entry.reason == "unrepairable"
        assert entry.node == 3

    def test_rerr_at_position_zero_is_misrouted(self):
        # pos == 0 in _on_rerr: a relayed RERR claiming its holder sits at
        # the head of the back path is off-protocol; the stranded datum it
        # carries dies with it.
        world, spr = _line_world()
        world.metrics.on_data_generated(origin=0, data_id=42, now=0.0)
        spr._on_rerr(2, rerr_pkt(source=0, data_id=42, back_path=[2, 3, 4], pos=0))
        world.sim.run()
        entry = _single_terminal_entry(world, 0, 42)
        assert entry.state is DatumState.DROPPED
        assert entry.reason == "misrouted"

    def test_rerr_relay_with_dead_previous_hop(self):
        # The RERR walks back_path toward the source, but the next node
        # upstream has died: the repair chain is severed mid-way.
        world, spr = _line_world()
        world.metrics.on_data_generated(origin=0, data_id=43, now=0.0)
        world.network.nodes[1].fail()
        spr._on_rerr(2, rerr_pkt(source=0, data_id=43, back_path=[1, 2, 3], pos=1))
        world.sim.run()
        entry = _single_terminal_entry(world, 0, 43)
        assert entry.state is DatumState.DROPPED
        assert entry.reason == "unrepairable"
        assert entry.node == 2

    def test_repair_exhaustion_single_terminal_state(self):
        # s1 keeps answering discoveries with a stale route through dead
        # s2; after max_repairs_per_packet failed redirects the datum must
        # end DROPPED(unrepairable) — once, despite the repeated attempts.
        world, spr = _line_world(ProtocolConfig(max_repairs_per_packet=2))
        first = spr.send_data(0)
        world.sim.run()
        second = spr.send_data(0)
        world.network.nodes[2].fail()
        world.sim.run()

        assert _single_terminal_entry(world, 0, first).state is DatumState.DELIVERED
        entry = _single_terminal_entry(world, 0, second)
        assert entry.state is DatumState.DROPPED
        assert entry.reason == "unrepairable"
        assert world.metrics.ledger.drops_by_reason() == {"unrepairable": 1}


# ----------------------------------------------------------------------
# world-level audit + trace CLI
# ----------------------------------------------------------------------
class TestWorldAudit:
    def test_builder_audit_enables_and_asserts_at_quiescence(self):
        world, spr = _line_world()
        assert world.metrics.audit and world.metrics.ledger is not None
        spr.send_data(0)
        world.sim.run()  # idle hook runs the strict audit at quiescence
        report = world.conservation_report()
        assert report.ok and report.delivered == 1

    def test_builder_audit_false_overrides_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        world = (
            WorldBuilder()
            .seed(1)
            .sensors(np.array([[0.0, 0.0]]))
            .gateways([[10.0, 0.0]])
            .comm_range(12.0)
            .ideal_radio()
            .audit(False)
            .build()
        )
        assert not world.metrics.audit

    def test_registry_experiment_conserves_under_audit(self, monkeypatch):
        from repro.experiments.registry import run_experiment
        from repro.world import record_world_events

        monkeypatch.setenv("REPRO_AUDIT", "1")
        with record_world_events() as recorder:
            run_experiment("fig2", seed=0)
        summary = recorder.conservation_summary()
        assert summary is not None
        assert summary["violations"] == []
        assert summary["generated"] == summary["delivered"] + summary["dropped"] + summary["pending"]

    @pytest.mark.parametrize("audited", [True, False])
    def test_env_default_reaches_pool_workers(self, monkeypatch, audited):
        # REPRO_AUDIT is the only process-wide audit default: sweep pool
        # workers see it through the environment they inherit.
        monkeypatch.setenv("REPRO_AUDIT", "1" if audited else "0")
        sweep = SweepRunner(workers=2).run(ExperimentSpec(
            "scalability", params={"sizes": [40], "rounds": 1}, seeds="0..1"
        ))
        blocks = [cell.conservation for cell in sweep.cells]
        assert len(blocks) == 2
        if audited:
            assert all(b is not None and b["violations"] == [] for b in blocks)
        else:
            assert blocks == [None, None]


def _printed_table(out: str, title: str) -> list[list[str]]:
    """Body rows of the table printed under ``title``, cells stripped."""
    block = next(b for b in out.split("\n\n") if b.startswith(title))
    # title, underline, header, rule, then one line per row
    return [[cell.strip() for cell in line.split("|")] for line in block.splitlines()[4:]]


class TestObsCli:
    def _trace(self, tmp_path, monkeypatch, audited, spec=None):
        trace = tmp_path / "sweep.jsonl"
        # Pin the audit default so the test means the same thing inside
        # and outside the REPRO_AUDIT=1 CI job.
        monkeypatch.setenv("REPRO_AUDIT", "1" if audited else "0")
        runner = SweepRunner(workers=1, trace_path=trace)
        runner.run(spec or ExperimentSpec(
            "scalability", params={"sizes": [40], "rounds": 1}, seeds="0..1"
        ))
        return trace

    def test_cli_prints_conservation_and_drop_tables(self, tmp_path, monkeypatch, capsys):
        trace = self._trace(tmp_path, monkeypatch, audited=True)
        assert obs_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "packet conservation" in out
        assert "scalability" in out
        # Both cells audited, zero violations.
        lines = [l for l in out.splitlines() if l.startswith("scalability")]
        assert lines and lines[0].split("|")[2].strip() == "2"  # audited count

    def test_terminal_drop_table_sums_to_dropped_column(self, tmp_path, monkeypatch, capsys):
        # Robustness kills nodes mid-run, so frame-level drop events (copies
        # sent to dead nodes) far outnumber the datums that ended dropped.
        spec = ExperimentSpec(
            "robustness", params={"n_sensors": 20, "field_size": 120.0}, seeds="0"
        )
        trace = self._trace(tmp_path, monkeypatch, audited=True, spec=spec)
        assert obs_main([str(trace)]) == 0
        out = capsys.readouterr().out
        [conservation] = _printed_table(out, "packet conservation")
        dropped = int(conservation[5])
        assert dropped > 0
        terminal = _printed_table(out, "terminal drops by reason")
        assert sum(int(row[2]) for row in terminal) == dropped
        events = _printed_table(out, "drop events by reason")
        assert sum(int(row[2]) for row in events) > dropped

    def test_cli_reports_unaudited_cells(self, tmp_path, monkeypatch, capsys):
        trace = self._trace(tmp_path, monkeypatch, audited=False)
        assert obs_main([str(trace)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("scalability")]
        assert lines and lines[0].split("|")[2].strip() == "0"

    def test_cli_strict_fails_on_violation(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        cell = {
            "type": "cell",
            "experiment": "x",
            "seed": 0,
            "drops": {"ttl": 1},
            "conservation": {
                "generated": 3,
                "delivered": 1,
                "dropped": 1,
                "pending": 0,
                "violations": ["generated 3 != delivered 1 + dropped 1 + pending 0"],
            },
        }
        trace.write_text(json.dumps(cell) + "\n")
        assert obs_main([str(trace), "--strict"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_cli_empty_trace(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert obs_main([str(trace)]) == 0
        assert "no cell records" in capsys.readouterr().out


# ----------------------------------------------------------------------
# property: conservation under random loss / collisions / failures
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.6),
    collisions=st.booleans(),
    kill=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_conservation_holds_under_random_adversity(loss, collisions, kill, seed):
    """generated == delivered + dropped + pending, whatever the weather.

    A lossy, colliding channel over a random 12-node deployment with up
    to three mid-run node deaths must never lose track of a datum.
    """
    rng = np.random.default_rng(seed)
    sensors = rng.uniform(0.0, 60.0, size=(12, 2))
    radio = RadioConfig(
        name="lossy-15.4",
        bitrate=IEEE802154.bitrate,
        comm_range=IEEE802154.comm_range,
        loss_rate=loss,
        collisions=collisions,
        arq_retries=2,
    )
    world = (
        WorldBuilder()
        .seed(seed)
        .sensors(sensors)
        .gateways([[30.0, 70.0]])
        .comm_range(30.0)
        .radio(radio)
        .require_connected(False)
        .audit()
        .build()
    )
    spr = world.attach(SPR)
    victims = rng.choice(12, size=kill, replace=False)
    for i in range(12):
        world.sim.schedule(0.1 + 0.05 * i, spr.send_data, int(i))
    for j, v in enumerate(victims):
        world.sim.schedule(0.3 + 0.2 * j, world.network.nodes[int(v)].fail)
    for i in range(12):
        world.sim.schedule(1.5 + 0.05 * i, spr.send_data, int(i))
    world.sim.run()

    report = world.conservation_report(strict=True)
    assert report.ok, report.format_table()
    assert report.generated == 24
