"""Production-vs-oracle equivalence and the NodeStateStore / WorldConfig API.

Batched broadcast draining and NumPy fan-out are an *execution
strategy*, never a model change: for any scenario — lossy radio, finite
batteries, crashes and recoveries — a production world must produce
bit-identical metrics rows, per-node energy ledgers and RNG streams to
the same world on :class:`tests.oracle.ScalarChannel` (per-receiver loop,
one event per reception), and both must pass the packet-conservation
audit.  The hypothesis property below holds that over randomized fault
scenarios; the unit tests pin the store's batched ``charge`` and the
:class:`~repro.world.WorldConfig` parameter plumbing (round-trip,
cache-key identity, unknown and removed fields, removal of bare kwargs).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.experiments.common import make_grid_scenario
from repro.faults.plan import BatteryDrain, Crash, FaultPlan, Recover
from repro.runner.spec import cache_key
from repro.sim.node import NodeKind
from repro.sim.radio import IEEE802154
from repro.sim.serialize import to_jsonable
from repro.sim.state import NodeStateStore
from repro.world import WorldBuilder, WorldConfig
from tests.oracle import oracle_world

N_SENSORS = 14


def _fingerprint(scenario):
    """Everything that must be bit-identical across execution paths."""
    m = scenario.metrics
    return {
        "events": scenario.events_processed,
        "sent": dict(m.sent),
        "received": dict(m.received),
        "drops": dict(m.drops),
        "bytes": m.bytes_sent,
        "generated": m.data_generated,
        "deliveries": [dataclasses.astuple(d) for d in m.deliveries],
        "energy": [
            (nd.energy.spent_tx, nd.energy.spent_rx, nd.energy.spent_idle,
             nd.energy.remaining, nd.alive)
            for nd in scenario.network.nodes
        ],
        "rng": scenario.sim.rng.bit_generator.state,
    }


def _run(oracle, *, seed, loss, battery, plan):
    builder = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(N_SENSORS, field_size=80.0, topology_seed=seed)
        .gateways([[40.0, 40.0], [15.0, 15.0]])
        .comm_range(35.0)
        .sensor_battery(battery)
        .radio(dataclasses.replace(IEEE802154.ideal(), loss_rate=loss))
        .require_connected(False)
        .audit()
    )
    if plan is not None:
        builder.faults(plan)
    world = oracle_world(builder) if oracle else builder.build()
    spr = world.attach(SPR, ProtocolConfig(table_answering=False))
    for i in range(N_SENSORS):
        world.sim.schedule(0.4 * i + 0.01, spr.send_data, i)
        world.sim.schedule(0.4 * i + 6.5, spr.send_data, (i * 5) % N_SENSORS)
    world.sim.run(until=30.0)
    world.assert_conserved()
    return _fingerprint(world)


@st.composite
def _fault_plans(draw):
    events = []
    for node in draw(
        st.lists(st.integers(0, N_SENSORS - 1), max_size=3, unique=True)
    ):
        t = draw(st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False))
        events.append(Crash(node=node, t=t))
        if draw(st.booleans()):
            events.append(Recover(node=node, t=t + draw(st.floats(0.5, 4.0))))
    if draw(st.booleans()):
        events.append(
            BatteryDrain(
                node=draw(st.integers(0, N_SENSORS - 1)),
                t=draw(st.floats(0.5, 6.0)),
                fraction=draw(st.floats(0.1, 0.95)),
            )
        )
    return FaultPlan(tuple(events)) if events else None


class TestSoAEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        loss=st.sampled_from([0.0, 0.15, 0.3]),
        battery=st.sampled_from([math.inf, 0.05]),
        plan=_fault_plans(),
    )
    def test_production_is_bit_identical_to_oracle(self, seed, loss, battery, plan):
        production = _run(False, seed=seed, loss=loss, battery=battery, plan=plan)
        oracle = _run(True, seed=seed, loss=loss, battery=battery, plan=plan)
        assert production == oracle


class TestNodeStateStore:
    def _store(self, capacities):
        kinds = [NodeKind.SENSOR] * len(capacities)
        return NodeStateStore(kinds, capacities)

    def test_batched_charge_matches_scalar_charges(self):
        a = self._store([math.inf] * 4)
        b = self._store([math.inf] * 4)
        ids = np.array([0, 2, 3])
        a.charge(ids, 0.25, kind="rx")
        for i in ids:
            b.charge_rx(int(i), 0.25, now=1.0)
        assert a.spent_rx.tolist() == b.spent_rx.tolist()
        assert a.remaining.tolist() == b.remaining.tolist()
        a_tx, a_rx = a.counter_columns()
        b_tx, b_rx = b.counter_columns()
        assert a_rx.tolist() == b_rx.tolist() == [1, 0, 1, 1]
        assert a_tx.tolist() == b_tx.tolist() == [0, 0, 0, 0]


class TestWorldConfigAPI:
    def test_from_param_round_trips_jsonable_form(self):
        cfg = WorldConfig(
            audit=True,
            faults=FaultPlan((Crash(node=2, t=1.5),)),
        )
        assert WorldConfig.from_param(to_jsonable(cfg)) == cfg
        assert WorldConfig.from_param(cfg) is cfg
        assert WorldConfig.from_param(None) is None

    def test_from_param_rejects_bare_dicts(self):
        with pytest.raises(ConfigurationError):
            WorldConfig.from_param({"audit": False})

    @pytest.mark.parametrize(
        "field",
        [
            "bogus", "audti", "soa", "vectorized", "spatial_index",
            "shards", "checkpoint_dir", "checkpoint_every",
        ],
    )
    def test_from_param_rejects_unknown_fields(self, field):
        # A typo'd or removed field must not silently yield the default.
        tagged = {"__dataclass__": "WorldConfig", "fields": {field: 1}}
        with pytest.raises(ConfigurationError, match=field):
            WorldConfig.from_param(tagged)
        with pytest.raises(TypeError):
            WorldConfig(**{field: 1})

    def test_cache_key_separates_execution_configs(self):
        base = cache_key("e", {"world": WorldConfig()}, 0, version="t")
        audited = cache_key(
            "e", {"world": WorldConfig(audit=True)}, 0, version="t"
        )
        as_jsonable = cache_key(
            "e", {"world": to_jsonable(WorldConfig())}, 0, version="t"
        )
        assert base != audited
        assert base == as_jsonable
        # tuple params keep their historical list encoding
        assert cache_key("e", {"sizes": (50,)}, 0, version="t") == cache_key(
            "e", {"sizes": [50]}, 0, version="t"
        )

    def test_builder_wrappers_update_config(self):
        plan = FaultPlan((Crash(node=2, t=1.5),))
        b = WorldBuilder().audit(True).faults(plan)
        assert b.config == WorldConfig(audit=True, faults=plan)
        b.configure(WorldConfig(audit=False))
        assert b.config == WorldConfig(audit=False)
        for removed in ("scalar_fanout", "soa", "spatial_index"):
            assert not hasattr(b, removed)

    def test_bare_kwargs_path_is_gone(self):
        # The deprecated resolve_world_config shim was removed outright.
        with pytest.raises(ImportError):
            from repro.experiments.common import resolve_world_config  # noqa: F401

    def test_make_scenario_rejects_bare_kwargs(self):
        with pytest.raises(TypeError, match="audit"):
            make_grid_scenario(2, 2, 10.0, [[0.0, 0.0]], comm_range=15.0, audit=False)
        with pytest.raises(TypeError, match="spatial_index"):
            make_grid_scenario(
                2, 2, 10.0, [[0.0, 0.0]],
                comm_range=15.0, spatial_index="bruteforce",
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_grid_scenario(
                2, 2, 10.0, [[0.0, 0.0]],
                comm_range=15.0, world=WorldConfig(audit=False),
            )
