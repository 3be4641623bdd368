"""The sharded executor: partition, validation, bit-identity, merging.

The load-bearing property is *execution-strategy transparency*: a run
with ``run_sharded(workload, shards=N)`` must be indistinguishable from
the single-process run on every observable — the order-canonical digest
(frame counters, drops, first deliveries, first death, per-node tx/rx)
and the conservation report of the merged per-shard ledgers.  The unit
tests pin the strip partition, the shard-safety validation and the
ledger merge's cross-shard semantics; the integration tests replay the
same mains-powered workload at 1/2/3 workers and assert digest equality
— for flooding, for the unicast discovery protocols (SPR, MLR, also
with a gateway that moves across a strip cut) and for lossy/ARQ radios
whose draws come from per-node RNG substreams.
"""

import dataclasses
import math
import multiprocessing
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, ShardWorkerError
from repro.obs.ledger import DatumState, PacketLedger
from repro.obs.merge import merge_collectors, merge_ledgers
from repro.runner.spec import cache_key
from repro.shard import (
    HarnessChaos,
    ShardPlan,
    ShardWorkload,
    SupervisionConfig,
    conservative_lookahead,
    run_sharded,
)
from repro.shard.runner import _validate
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.network import uniform_deployment
from repro.sim.packet import MAC_HEADER_BYTES, Packet, PacketKind
from repro.sim.radio import IEEE802154, GilbertElliott
from repro.sim.trace import MetricsCollector
from repro.world import WorldConfig


def _data_packet(origin: int, data_id: int) -> Packet:
    return Packet(
        kind=PacketKind.DATA, origin=origin, target=None,
        payload={"data_id": data_id},
    )


def _workload(
    n=150, field=200.0, comm_range=40.0, datums=12,
    seed=3, audit=True, protocol="flooding", radio=None,
    rounds=(), protocol_params=None,
):
    positions = uniform_deployment(n, field, seed=seed)
    gateways = np.asarray([[0.3 * field, 0.5 * field], [0.8 * field, 0.6 * field]])
    sources = [int(k * n / datums) for k in range(datums)]
    traffic = tuple((0.5 + 0.2 * k, s) for k, s in enumerate(sources))
    return ShardWorkload(
        sensor_positions=positions,
        gateway_positions=gateways,
        comm_range=comm_range,
        traffic=traffic,
        world=WorldConfig(audit=audit),
        radio=IEEE802154.ideal() if radio is None else radio,
        protocol=protocol,
        protocol_params={} if protocol_params is None else protocol_params,
        seed=seed,
        rounds=rounds,
    )


def _mlr_schedule(n=150, field=200.0, cross_strip=False):
    """Two gateways, three feasible places; round 1 moves gateway ``n``.

    The alternate place shifts along y only (same x keeps the gateway in
    its round-0 strip under any vertical-cut plan) unless
    ``cross_strip``, which sends it across the field in x instead.
    """
    gws = [n, n + 1]
    spots = [(0.3 * field, 0.5 * field), (0.8 * field, 0.6 * field)]
    alt0 = (0.75 * field, 0.5 * field) if cross_strip else (0.3 * field, 0.3 * field)
    places = FeasiblePlaces(
        labels=("p0a", "p0b", "p1a"),
        coordinates=(spots[0], alt0, spots[1]),
    )
    return GatewaySchedule(
        places=places,
        rounds=[{gws[0]: "p0a", gws[1]: "p1a"}, {gws[0]: "p0b", gws[1]: "p1a"}],
    )


def _mlr_workload(n=150, field=200.0, cross_strip=False, rounds=(0.0, 2.0), **kw):
    schedule = _mlr_schedule(n=n, field=field, cross_strip=cross_strip)
    return _workload(
        n=n, field=field,
        protocol="mlr",
        protocol_params={"schedule": schedule},
        rounds=rounds,
        **kw,
    )


# ----------------------------------------------------------------------
# lookahead and the strip partition
# ----------------------------------------------------------------------
class TestPlan:
    def test_lookahead_is_header_airtime(self):
        radio = IEEE802154.ideal()
        assert conservative_lookahead(radio) == radio.airtime(8 * MAC_HEADER_BYTES)
        assert conservative_lookahead(radio) > 0.0

    def test_ownership_is_a_balanced_partition(self):
        pos = uniform_deployment(400, 300.0, seed=1)
        plan = ShardPlan.build(pos, 4)
        owners = plan.owner_of(pos)
        counts = np.bincount(owners, minlength=4)
        assert counts.sum() == 400
        assert counts.min() >= 90  # quantile cuts stay roughly balanced
        # Strips are contiguous in x: sorting by x never decreases owner.
        order = np.argsort(pos[:, 0], kind="stable")
        assert (np.diff(owners[order]) >= 0).all()

    def test_ties_on_a_cut_go_right(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        plan = ShardPlan.build(pos, 2)
        (cut,) = plan.cuts
        assert plan.owner_of(np.array([[cut, 5.0]]))[0] == 1

    def test_build_rejects_degenerate_inputs(self):
        pos = uniform_deployment(10, 100.0, seed=0)
        with pytest.raises(ConfigurationError, match="non-empty strips"):
            ShardPlan.build(pos, 11)
        # All x identical: either the quantile cuts collide or a strip
        # ends up empty — both are partition failures.
        clustered = np.column_stack([np.zeros(8), np.arange(8.0)])
        with pytest.raises(ConfigurationError, match="clustered|empty"):
            ShardPlan.build(clustered, 2)


# ----------------------------------------------------------------------
# shard-safety validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_rejects_non_shard_safe_protocol_at_construction(self):
        # Construction site: ShardWorkload.__post_init__ runs the same
        # validation run_sharded does, and names the supported set.
        with pytest.raises(ConfigurationError, match="not shard-safe") as err:
            dataclasses.replace(_workload(), protocol="gossiping")
        for supported in ("flooding", "spr", "mlr"):
            assert supported in str(err.value)

    def test_rejects_non_shard_safe_protocol_at_run(self):
        # Execution site: a workload mutated after construction still
        # fails inside run_sharded, not windows-deep in a worker.
        w = _workload()
        w.protocol = "gossiping"
        with pytest.raises(ConfigurationError, match="not shard-safe"):
            run_sharded(w, shards=2)

    def test_rejects_fault_plans(self):
        from repro.faults.plan import Crash, FaultPlan

        w = _workload()
        w.world = WorldConfig(faults=FaultPlan((Crash(node=0, t=1.0),)))
        with pytest.raises(ConfigurationError, match="fault plan"):
            run_sharded(w, shards=2)

    def test_rejects_contended_radio(self):
        for bad in (
            dataclasses.replace(IEEE802154.ideal(), csma=True),
            dataclasses.replace(IEEE802154.ideal(), collisions=True),
        ):
            w = dataclasses.replace(_workload(), radio=bad)
            with pytest.raises(ConfigurationError, match="csma"):
                run_sharded(w, shards=2)

    def test_lossy_arq_radio_is_shard_safe(self):
        # Loss, burst, ARQ and backoff draw from per-node substreams, so
        # the multi-shard rules accept them.
        lossy = dataclasses.replace(
            IEEE802154.ideal(), loss_rate=0.2, arq_retries=2,
            burst=GilbertElliott(p_gb=0.1, p_bg=0.4),
        )
        _validate(_workload(radio=lossy), 2)

    def test_mlr_needs_a_schedule_and_sane_rounds(self):
        with pytest.raises(ConfigurationError, match="GatewaySchedule"):
            _workload(protocol="mlr")
        with pytest.raises(ConfigurationError, match="rounds only apply"):
            _workload(rounds=(0.0, 1.0))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            _mlr_workload(rounds=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="only has 2"):
            _mlr_workload(rounds=(0.0, 1.0, 2.0))

    @pytest.mark.parametrize("bad", [True, 0, -1, 1.5, "2"])
    def test_run_sharded_rejects_bad_shard_counts(self, bad):
        # bool is an int subclass: shards=True must not run one process.
        with pytest.raises(ConfigurationError, match="positive integer"):
            run_sharded(_workload(), shards=bad)


# ----------------------------------------------------------------------
# cache keys: the shard count is a run_sharded argument, not an identity
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_worldconfig_cache_keys_are_pinned(self):
        """A change to the config's serialized form would silently
        orphan every cached cell; these keys must not move."""
        from repro.sim.serialize import to_jsonable

        pinned = {
            WorldConfig(): "657400462e692d1d",
            WorldConfig(audit=True): "34f1764472d8fa95",
        }
        for cfg, prefix in pinned.items():
            assert cache_key("e", {"world": cfg}, 0, version="t").startswith(prefix)
            j = cache_key("e", {"world": to_jsonable(cfg)}, 0, version="t")
            assert j.startswith(prefix)

    def test_real_execution_knobs_still_separate(self):
        base = cache_key("e", {"world": WorldConfig()}, 0, version="t")
        other = cache_key("e", {"world": WorldConfig(audit=True)}, 0, version="t")
        assert base != other


# ----------------------------------------------------------------------
# ledger merging across shards
# ----------------------------------------------------------------------
class TestMergeLedgers:
    def test_generated_in_a_delivered_in_b(self):
        a, b = PacketLedger(), PacketLedger()
        pkt = _data_packet(origin=7, data_id=1)
        a.on_generated(7, 1, now=0.0)
        a.on_frame_sent(pkt)
        b.on_delivered(pkt, now=2.5)  # B never generated it -> foreign
        assert b.entries == {}
        assert b.foreign == [((7, 1), "delivered", 2.5, None, None)]
        merged = merge_ledgers([a, b])
        entry = merged.entries[(7, 1)]
        assert entry.state is DatumState.DELIVERED
        assert entry.terminal_at == 2.5
        assert merged.unknown_delivered == Counter()

    def test_generated_in_a_dropped_in_b(self):
        a, b = PacketLedger(), PacketLedger()
        a.on_generated(3, 9, now=0.0)
        assert b.on_dropped("ttl", key=(3, 9), node=12, now=1.25) is False
        merged = merge_ledgers([a, b])
        entry = merged.entries[(3, 9)]
        assert entry.state is DatumState.DROPPED
        assert (entry.reason, entry.node, entry.terminal_at) == ("ttl", 12, 1.25)

    def test_delivery_beats_cross_shard_drop(self):
        a, b, c = PacketLedger(), PacketLedger(), PacketLedger()
        a.on_generated(1, 1, now=0.0)
        b.on_dropped("dead_node", key=(1, 1), node=5, now=1.0)
        c.on_delivered(_data_packet(1, 1), now=3.0)
        merged = merge_ledgers([a, b, c])
        entry = merged.entries[(1, 1)]
        assert entry.state is DatumState.DELIVERED
        assert entry.superseded_drop == "dead_node"
        assert merged.late_drops == Counter({"dead_node": 1})

    def test_equal_time_superseded_drop_is_report_order_independent(self):
        """A drop tying a delivery's timestamp resolves the same way
        however many shards reported and in whatever order.

        The superseded reason is picked by the full ``(time, reason,
        node)`` key, not by report order — with equal times the
        lexicographically smallest reason wins on every permutation.
        """
        import itertools

        def merge_in(order):
            gen = PacketLedger()
            gen.on_generated(1, 1, now=0.0)
            d1 = PacketLedger()
            d1.on_dropped("ttl", key=(1, 1), node=9, now=2.0)
            d2 = PacketLedger()
            d2.on_dropped("dead_node", key=(1, 1), node=4, now=2.0)
            dv = PacketLedger()
            dv.on_delivered(_data_packet(1, 1), now=2.0)
            parts = {"g": gen, "d1": d1, "d2": d2, "v": dv}
            return merge_ledgers([parts[k] for k in order])

        outcomes = set()
        for order in itertools.permutations(("g", "d1", "d2", "v")):
            merged = merge_in(order)
            entry = merged.entries[(1, 1)]
            outcomes.add((
                entry.state, entry.terminal_at, entry.superseded_drop,
                tuple(sorted(merged.late_drops.items())),
            ))
        assert outcomes == {(
            DatumState.DELIVERED, 2.0, "dead_node",
            (("dead_node", 1), ("ttl", 1)),
        )}

    def test_equal_time_terminal_drops_pick_one_winner(self):
        """Two same-timestamp drops with no delivery: the merged reason
        and node are permutation-independent too (same full-key rule)."""
        import itertools

        outcomes = set()
        for order in itertools.permutations(range(3)):
            gen = PacketLedger()
            gen.on_generated(3, 3, now=0.0)
            d1 = PacketLedger()
            d1.on_dropped("ttl", key=(3, 3), node=7, now=1.5)
            d2 = PacketLedger()
            d2.on_dropped("dead_node", key=(3, 3), node=2, now=1.5)
            parts = [gen, d1, d2]
            merged = merge_ledgers([parts[i] for i in order])
            entry = merged.entries[(3, 3)]
            outcomes.add((
                entry.state, entry.terminal_at, entry.reason, entry.node,
                tuple(sorted(merged.extra_drops.items())),
            ))
        assert outcomes == {
            (DatumState.DROPPED, 1.5, "dead_node", 2, (("ttl", 1),))
        }

    def test_duplicate_cross_shard_deliveries_count_once(self):
        a, b = PacketLedger(), PacketLedger()
        a.on_generated(2, 4, now=0.0)
        a.on_delivered(_data_packet(2, 4), now=1.0)
        b.on_delivered(_data_packet(2, 4), now=0.5)
        merged = merge_ledgers([a, b])
        entry = merged.entries[(2, 4)]
        assert entry.state is DatumState.DELIVERED
        assert entry.terminal_at == 0.5  # earliest delivery wins
        assert entry.duplicates == 1
        assert merged.delivered == 1

    def test_never_generated_delivery_stays_unknown(self):
        a, b = PacketLedger(), PacketLedger()
        a.on_generated(1, 1, now=0.0)
        b.on_delivered(_data_packet(99, 42), now=1.0)
        merged = merge_ledgers([a, b])
        assert merged.unknown_delivered == Counter({(99, 42): 1})

    def test_duplicate_generation_is_a_partition_bug(self):
        a, b = PacketLedger(), PacketLedger()
        a.on_generated(1, 1)
        b.on_generated(1, 1)
        with pytest.raises(ConfigurationError, match="ownership partition"):
            merge_ledgers([a, b])

    @given(
        plans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # generating shard
                st.sampled_from(
                    ["open", "deliver_home", "deliver_away", "drop_home",
                     "drop_away", "deliver_both", "drop_then_deliver"]
                ),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_cross_shard_histories_merge_conserving(self, plans):
        """Per-shard ledgers merge to a conserving whole.

        Every datum is generated in exactly one shard and reaches (or
        not) a terminal state in an arbitrary shard; whatever the split,
        the merged ledger must satisfy generated == delivered + dropped
        + pending with no unknown deliveries.
        """
        parts = [PacketLedger(), PacketLedger()]
        want_delivered = want_dropped = want_open = 0
        for data_id, (home, outcome, t) in enumerate(plans):
            away = 1 - home
            parts[home].on_generated(0, data_id, now=0.0)
            pkt = _data_packet(0, data_id)
            if outcome == "open":
                want_open += 1
            elif outcome == "deliver_home":
                parts[home].on_delivered(pkt, now=t)
                want_delivered += 1
            elif outcome == "deliver_away":
                parts[away].on_delivered(pkt, now=t)
                want_delivered += 1
            elif outcome == "drop_home":
                parts[home].on_dropped("ttl", key=(0, data_id), now=t)
                want_dropped += 1
            elif outcome == "drop_away":
                parts[away].on_dropped("dead_node", key=(0, data_id), now=t)
                want_dropped += 1
            elif outcome == "deliver_both":
                parts[home].on_delivered(pkt, now=t)
                parts[away].on_delivered(pkt, now=t + 1.0)
                want_delivered += 1
            else:  # drop_then_deliver: delivery wins however late
                parts[away].on_dropped("no_route", key=(0, data_id), now=t)
                parts[home].on_delivered(pkt, now=t + 5.0)
                want_delivered += 1
        merged = merge_ledgers(parts)
        assert merged.generated == len(plans)
        assert merged.delivered == want_delivered
        assert merged.dropped == want_dropped
        assert merged.pending == want_open
        assert merged.generated == merged.delivered + merged.dropped + merged.pending
        assert sum(merged.unknown_delivered.values()) == 0


class TestMergeCollectors:
    def test_totals_sum_and_first_death_is_earliest(self):
        a, b = MetricsCollector(audit=False), MetricsCollector(audit=False)
        a.bytes_sent, b.bytes_sent = 100, 40
        a.data_generated, b.data_generated = 3, 2
        a.first_death = (5, 9.0)
        b.first_death = (2, 4.0)
        merged = merge_collectors([a, b])
        assert merged.bytes_sent == 140
        assert merged.data_generated == 5
        assert merged.first_death == (2, 4.0)

    def test_needs_at_least_one_part(self):
        with pytest.raises(ConfigurationError):
            merge_collectors([])


# ----------------------------------------------------------------------
# end-to-end bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    def _legs(self, workload, shard_counts):
        return {s: run_sharded(workload, shards=s) for s in shard_counts}

    def test_two_workers_match_single_process(self):
        legs = self._legs(_workload(), (1, 2))
        assert legs[2].digest == legs[1].digest
        assert legs[2].shards == 2 and legs[1].windows == 0
        assert legs[2].windows > 0
        # Merged conservation report == the single-process one.
        r1, r2 = legs[1].conservation, legs[2].conservation
        assert r1 is not None and r2 is not None
        assert r1.to_jsonable() == r2.to_jsonable()
        assert r1.ok and r2.ok
        # Headline metrics agree exactly (lifetime is NaN == NaN here:
        # nobody died on an infinite battery, and NaN != NaN).
        s1, s2 = legs[1].metrics.summary(), legs[2].metrics.summary()
        assert math.isnan(s1.pop("lifetime")) and math.isnan(s2.pop("lifetime"))
        assert s1 == s2

    def test_spr_workers_match_single_process(self):
        w = _workload(protocol="spr", seed=7)
        legs = self._legs(w, (1, 2, 3))
        for s in (2, 3):
            assert legs[s].digest == legs[1].digest
            assert legs[s].conservation.to_jsonable() == legs[1].conservation.to_jsonable()
            assert legs[s].rng_states == legs[1].rng_states
        # Routes actually formed: unicast data reached a gateway.
        assert {(r.origin, r.uid) for r in legs[1].metrics.deliveries}

    def test_mlr_workers_match_single_process(self):
        """MLR shards bit-identically through a gateway relocation.

        Traffic straddles the round-1 move at t=2.0, so discovery
        floods, NOTIFY broadcasts and unicast forwarding all cross shard
        boundaries both before and after the topology change.
        """
        w = _mlr_workload(seed=5)
        legs = self._legs(w, (1, 2, 3))
        for s in (2, 3):
            assert legs[s].digest == legs[1].digest
            assert legs[s].conservation.to_jsonable() == legs[1].conservation.to_jsonable()
            assert legs[s].rng_states == legs[1].rng_states
        assert {(r.origin, r.uid) for r in legs[1].metrics.deliveries}

    def test_cross_strip_mlr_schedule_matches_single_process(self):
        """A gateway that moves across a strip cut stays bit-identical.

        Ownership is fixed at round 0, so after the move the gateway's
        home worker simulates it from inside another worker's strip;
        every reception still reaches its receiver's owner.
        """
        w = _mlr_workload(cross_strip=True, seed=5)
        schedule = w.protocol_params["schedule"]
        gw = len(w.sensor_positions)
        moved = np.asarray([schedule.places.position("p0b")], dtype=float)
        legs = self._legs(w, (1, 2, 3))
        for s in (2, 3):
            plan = ShardPlan.build(w.positions, s)
            assert plan.owner_of(moved)[0] != plan.owner_of(w.positions)[gw]
            assert legs[s].digest == legs[1].digest
            assert legs[s].conservation.to_jsonable() == legs[1].conservation.to_jsonable()
            assert legs[s].rng_states == legs[1].rng_states
        assert {(r.origin, r.uid) for r in legs[1].metrics.deliveries}

    def test_lossy_arq_draws_match_across_workers(self):
        lossy = dataclasses.replace(
            IEEE802154.ideal(), loss_rate=0.15, arq_retries=2,
            burst=GilbertElliott(p_gb=0.05, p_bg=0.3),
        )
        legs = self._legs(_workload(radio=lossy, seed=9), (1, 2, 3))
        assert legs[2].digest == legs[1].digest
        assert legs[3].digest == legs[1].digest
        assert legs[1].rng_states  # loss/backoff draws actually happened
        assert legs[2].rng_states == legs[1].rng_states
        assert legs[3].rng_states == legs[1].rng_states

    def test_run_sharded_defaults_to_one_process(self):
        result = run_sharded(_workload())
        assert result.shards == 1 and result.windows == 0

    def test_per_shard_parts_account_for_all_events(self):
        legs = self._legs(_workload(), (1, 2))
        parts = legs[2].parts
        assert [p["shard"] for p in parts] == [0, 1]
        assert sum(p["events_processed"] for p in parts) == legs[2].events_processed


# ----------------------------------------------------------------------
# RNG partitioning: seed -> per-node substream, worker-count invariant
# ----------------------------------------------------------------------
class TestRngPartition:
    @given(
        protocol=st.sampled_from(["flooding", "spr", "mlr"]),
        loss=st.sampled_from([0.0, 0.1, 0.3]),
        burst=st.booleans(),
        retries=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_per_node_draws_identical_at_1_2_3_workers(
        self, protocol, loss, burst, retries, seed
    ):
        """Every node's draw sequence is a pure function of (seed, id).

        Equal final bit-generator states at 1/2/3 workers mean the
        backoff and Gilbert-Elliott loss draws each node made — count
        and order — were identical on whichever worker simulated it, so
        the digests cannot diverge through the RNG.  The unicast
        protocols cover cross-strip ARQ: a frame lost on its way to
        another worker's receiver arms the sender's retry locally, a
        surviving one is exported.
        """
        radio = dataclasses.replace(
            IEEE802154.ideal(), loss_rate=loss, arq_retries=retries,
            burst=GilbertElliott(p_gb=0.08, p_bg=0.35) if burst else None,
        )
        kw = dict(n=90, field=160.0, datums=6, seed=seed, radio=radio)
        if protocol == "mlr":
            w = _mlr_workload(**kw)
        else:
            w = _workload(protocol=protocol, **kw)
        legs = {s: run_sharded(w, shards=s) for s in (1, 2, 3)}
        assert legs[2].digest == legs[1].digest
        assert legs[3].digest == legs[1].digest
        assert legs[2].rng_states == legs[1].rng_states
        assert legs[3].rng_states == legs[1].rng_states


def _no_orphans() -> bool:
    """True once every worker process this test spawned has been reaped."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# supervision: structured failures, bounded waits, no orphans
# ----------------------------------------------------------------------
class TestSupervision:
    def test_worker_build_failure_surfaces_remote_traceback(self):
        """A worker that dies building its world reports *why*.

        The coordinator used to hang on a bare recv; now the remote
        traceback rides back in a structured, non-retryable error and
        the surviving workers are torn down.
        """
        # An unknown protocol parameter raises TypeError in-worker.
        w = _workload(protocol_params={"bogus": 1})
        with pytest.raises(ShardWorkerError) as exc_info:
            run_sharded(w, shards=2)
        err = exc_info.value
        assert err.kind == "remote"
        assert "Traceback" in err.detail
        assert err.retryable is False
        assert _no_orphans()

    def test_chaos_kill_without_restart_budget_raises_died(self):
        """SIGKILL with ``max_restarts=0``: the death surfaces, no rerun."""
        chaos = HarnessChaos(kill_shard=1, kill_window=2)
        with pytest.raises(ShardWorkerError) as exc_info:
            run_sharded(
                _workload(), shards=2, chaos=chaos,
                supervision=SupervisionConfig(max_restarts=0),
            )
        err = exc_info.value
        assert err.kind == "died"
        assert err.shard == 1
        assert err.retryable is True
        assert _no_orphans()

    def test_hung_worker_hits_deadline_not_the_hang(self):
        """A stalled reply is bounded by the deadline, not the stall."""
        delay = 20.0
        chaos = HarnessChaos(delay_shard=0, delay_window=1, delay_s=delay)
        sup = SupervisionConfig(window_timeout_s=0.3, max_restarts=0)
        t0 = time.monotonic()
        with pytest.raises(ShardWorkerError) as exc_info:
            run_sharded(
                _workload(n=90, field=160.0, datums=6),
                shards=2, chaos=chaos, supervision=sup,
            )
        elapsed = time.monotonic() - t0
        assert exc_info.value.kind == "deadline"
        assert elapsed < delay  # the 20 s stall was never waited out
        assert _no_orphans()

    def test_supervision_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisionConfig(window_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisionConfig(max_restarts=-1)
        assert SupervisionConfig().backoff_s(2) == pytest.approx(0.4)

    def test_harness_chaos_validation(self):
        with pytest.raises(ConfigurationError):
            HarnessChaos()  # neither a kill nor a delay
        with pytest.raises(ConfigurationError):
            HarnessChaos(kill_shard=0, kill_window=0)
        with pytest.raises(ConfigurationError):
            HarnessChaos(delay_shard=0, delay_s=0.0)

    def test_single_process_leg_rejects_chaos(self):
        with pytest.raises(ConfigurationError):
            run_sharded(_workload(), shards=1, chaos=HarnessChaos(kill_shard=0))

    @pytest.mark.parametrize(
        "chaos",
        [
            HarnessChaos(kill_shard=2),
            HarnessChaos(kill_shard=5),
            HarnessChaos(kill_shard=-1),
            HarnessChaos(delay_shard=2, delay_s=0.1),
        ],
        ids=["kill-2", "kill-5", "kill-minus-1", "delay-2"],
    )
    def test_chaos_aimed_at_no_worker_is_refused(self, chaos):
        """Chaos that names no worker would never fire — and a recovery
        test built on it would pass without any crash happening."""
        with pytest.raises(ConfigurationError, match="names no worker"):
            run_sharded(_workload(), shards=2, chaos=chaos)


# ----------------------------------------------------------------------
# deterministic crash recovery: respawn the gang, rerun from scratch
# ----------------------------------------------------------------------
class TestCrashRerun:
    @pytest.mark.parametrize("protocol", ["flooding", "spr", "mlr"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_kill_and_rerun_is_bit_identical(self, protocol, workers):
        """SIGKILL mid-run, respawn, rerun: same digest, same RNG.

        The acceptance gate for crash recovery: with default
        supervision, a run that loses a worker is indistinguishable —
        digest, per-node RNG states, conservation report — from the run
        that was never interrupted.
        """
        if protocol == "mlr":
            w = _mlr_workload(seed=9)
        else:
            w = _workload(protocol=protocol, seed=9)
        ref = run_sharded(w, shards=workers)
        res = run_sharded(
            w, shards=workers,
            chaos=HarnessChaos(kill_shard=workers - 1, kill_window=7),
        )
        assert res.restarts == 1
        assert res.digest == ref.digest
        assert res.rng_states == ref.rng_states
        assert res.conservation.to_jsonable() == ref.conservation.to_jsonable()
        assert _no_orphans()

    @given(
        workers=st.sampled_from([2, 3]),
        protocol=st.sampled_from(["flooding", "spr", "mlr"]),
        lossy=st.booleans(),
        kill_window=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    @settings(max_examples=6, deadline=None)
    def test_kill_and_rerun_property_across_workers(
        self, workers, protocol, lossy, kill_window, seed
    ):
        """Kill-and-rerun equals uninterrupted, across protocols, lossy
        ARQ/burst radios and the worker axis.

        A kill window past the run's last barrier never fires, so the
        run restarts exactly when the kill lands inside it.
        """
        radio = None
        if lossy:
            radio = dataclasses.replace(
                IEEE802154.ideal(), loss_rate=0.15, arq_retries=2,
                burst=GilbertElliott(p_gb=0.05, p_bg=0.3),
            )
        kw = dict(n=90, field=160.0, datums=6, seed=seed, radio=radio)
        w = _mlr_workload(**kw) if protocol == "mlr" else _workload(
            protocol=protocol, **kw
        )
        ref = run_sharded(w, shards=workers)
        res = run_sharded(
            w, shards=workers,
            chaos=HarnessChaos(kill_shard=workers - 1, kill_window=kill_window),
        )
        assert res.restarts == (1 if kill_window <= ref.windows else 0)
        assert res.digest == ref.digest
        assert res.rng_states == ref.rng_states
        assert res.conservation.to_jsonable() == ref.conservation.to_jsonable()
